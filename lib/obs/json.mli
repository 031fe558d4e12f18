(** The JSON string escaper every observability writer shares. *)

val escape : string -> string
(** [s] with quotes, backslashes and control characters escaped, ready to
    sit between double quotes in a JSON document. *)

val str : string -> string
(** [s] escaped and quoted: a JSON string literal. *)
