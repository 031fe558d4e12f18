type t = {
  mutable log : Flight.entry array;
  mutable len : int;
  metrics : Metrics.t;
}

let dummy = { Flight.f_at = 0; f_domain = 0; f_kind = Flight.Mark; f_a = 0; f_b = 0 }

let create () = { log = [||]; len = 0; metrics = Metrics.create () }

let ticks x = int_of_float (Float.round x)

let emit t ~at ~domain kind ~a ~b =
  if t.len = Array.length t.log then begin
    let narr = Array.make (Stdlib.max 256 (2 * t.len)) dummy in
    Array.blit t.log 0 narr 0 t.len;
    t.log <- narr
  end;
  t.log.(t.len) <- { Flight.f_at = ticks at; f_domain = domain; f_kind = kind; f_a = a; f_b = b };
  t.len <- t.len + 1

let stall t ~at ~domain cause dur =
  if dur > 0. then emit t ~at ~domain Flight.Stall_end ~a:(Cause.index cause) ~b:(ticks dur)

let flight t = List.init t.len (fun i -> t.log.(i))

let length t = t.len

let metrics t = t.metrics
