type backend = [ `Sim | `Native ]

type sig_kind = [ `Range | `Segmented | `Bloom | `Exact ]

type t = {
  backend : backend;
  technique : string;
  domains : int;
  grain : int;
  batch : int;
  sig_kind : sig_kind;
  spec_distance : int option;
  epoch_size : int;
}

type tuned = {
  policy : t;
  wall_ns : float;
  seq_wall_ns : float;
  trials : int;
  seed : int;
}

let default =
  {
    backend = `Native;
    technique = "sequential";
    domains = 1;
    grain = 1;
    batch = 32;
    sig_kind = `Segmented;
    spec_distance = None;
    epoch_size = 1000;
  }

let backend_name = function `Sim -> "sim" | `Native -> "native"

let sig_kind_name = function
  | `Range -> "range"
  | `Segmented -> "segmented"
  | `Bloom -> "bloom"
  | `Exact -> "exact"

let equal (a : t) (b : t) = a = b

let key p =
  Printf.sprintf "%s:%s d%d g%d b%d sig=%s spec=%s epoch=%d"
    (backend_name p.backend) p.technique p.domains p.grain p.batch
    (sig_kind_name p.sig_kind)
    (match p.spec_distance with None -> "auto" | Some d -> string_of_int d)
    p.epoch_size

let to_string = key

let to_json p =
  Printf.sprintf
    "{\"backend\": \"%s\", \"technique\": \"%s\", \"domains\": %d, \"grain\": \
     %d, \"batch\": %d, \"sig_kind\": \"%s\", \"spec_distance\": %s, \
     \"epoch_size\": %d}"
    (backend_name p.backend) p.technique p.domains p.grain p.batch
    (sig_kind_name p.sig_kind)
    (match p.spec_distance with None -> "null" | Some d -> string_of_int d)
    p.epoch_size

let pp ppf p = Format.pp_print_string ppf (key p)
