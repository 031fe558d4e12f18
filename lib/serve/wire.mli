(** The [xinv-serve/1] wire format: length-prefixed, checksummed,
    versioned frames over a byte stream (Unix-domain socket in practice,
    any string in tests).

    Frame layout, all integers big-endian:

    {v
    offset size  field
    0      4     magic "XSRV" (0x58535256)
    4      1     protocol version (1)
    5      1     message tag (see Protocol)
    6      4     payload length in bytes
    10     16    MD5 of the payload (raw digest bytes)
    26     n     payload
    v}

    Payloads are built from the primitive codec below: fixed-width
    integers, IEEE-754 doubles via their bit patterns, length-prefixed
    strings, and option/list combinators.  Everything is explicit — no
    [Marshal] on the framing path — so a foreign client can speak the
    protocol, and corrupt input surfaces as a typed {!error}, never as a
    crash or an over-allocation ({!max_payload} bounds the length field
    before any buffer is sized from it). *)

val schema : string
(** ["xinv-serve/1"]. *)

val version : int

val max_payload : int
(** Upper bound accepted for the frame length field (64 MiB). *)

val header_bytes : int
(** Size of the fixed frame header (26). *)

type error =
  | Truncated  (** input ended inside a header, payload or field *)
  | Bad_magic of int
  | Bad_version of int
  | Bad_length of int  (** negative or above {!max_payload} *)
  | Bad_checksum
  | Bad_tag of int  (** unknown message tag for the decoding side *)
  | Bad_payload of string  (** structurally invalid field inside a frame *)
  | Closed  (** clean EOF at a frame boundary *)

exception Error of error

val error_to_string : error -> string

(** {1 Payload writer} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val put_u8 : writer -> int -> unit
val put_u32 : writer -> int -> unit
val put_i64 : writer -> int -> unit
val put_f64 : writer -> float -> unit
val put_bool : writer -> bool -> unit
val put_string : writer -> string -> unit
val put_opt : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

(** {1 Payload reader}

    All getters raise [Error Truncated] past the end and
    [Error (Bad_payload _)] on domain errors (e.g. a bool byte that is
    neither 0 nor 1). *)

type reader

val reader : string -> reader
val get_u8 : reader -> int
val get_u32 : reader -> int
val get_i64 : reader -> int
val get_f64 : reader -> float
val get_bool : reader -> bool
val get_string : reader -> string
val get_opt : reader -> (reader -> 'a) -> 'a option
val get_list : reader -> (reader -> 'a) -> 'a list

val reader_done : reader -> bool
(** True when every payload byte has been consumed. *)

(** {1 Enums} *)

val put_enum : writer -> ('a * int) list -> 'a -> unit
(** One byte: the value's tag in the (value, tag) table. *)

val get_enum : reader -> string -> ('a * int) list -> 'a
(** Inverse of {!put_enum}; a tag missing from the table raises
    [Error (Bad_payload "<what> <tag>")]. *)

(** {1 Frames} *)

val encode_frame : tag:int -> string -> string
(** Header + payload as one string. *)

val decode_frame : string -> int * string
(** [(tag, payload)].  Raises {!Error} on any malformation: truncation,
    wrong magic/version, oversized length, checksum mismatch, trailing
    garbage after the payload. *)

(** {1 Stream transport} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame as {!encode_frame} returned it. *)

val read_frame : Unix.file_descr -> int * string
(** Blocking read of one frame.  A clean EOF before the first header byte
    raises [Error Closed]; EOF anywhere later raises [Error Truncated]. *)
