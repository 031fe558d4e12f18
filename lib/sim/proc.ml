let advance ?label cat dt = Effect.perform (Engine.E_advance (cat, label, dt))

let work ?label dt = advance ?label Category.Work dt

let now () = Effect.perform Engine.E_now

let self () = Effect.perform Engine.E_self

let engine () = Effect.perform Engine.E_engine

let spawn ?name body =
  let name = match name with Some n -> n | None -> "child" in
  Effect.perform (Engine.E_spawn (name, body))

let suspend register = Effect.perform (Engine.E_suspend register)

let charge_wait cat ~since =
  let eng = engine () in
  let dt = now () -. since in
  if dt > 0. then Engine.charge eng (self ()) cat dt
