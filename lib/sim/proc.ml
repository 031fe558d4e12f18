let advance ?label cat dt = Effect.perform (Engine.E_advance (cat, label, dt))

let work ?label dt = advance ?label Category.Work dt

let now () = Effect.perform Engine.E_now

let suspend cat register = Effect.perform (Engine.E_suspend (cat, register))
