(* Built once per process; a racing first call keeps whichever list was
   published first, so every caller sees the same records (the sequential
   reference memo recognizes registry workloads by identity). *)
let cache = Atomic.make None

let all () =
  match Atomic.get cache with
  | Some ws -> ws
  | None ->
      let ws =
        [
          Fdtd.make ();
          Jacobi.make ();
          Symm.make ();
          Loopdep.make ();
          Blackscholes.make ();
          Fluidanimate.make1 ();
          Fluidanimate.make2 ();
          Equake.make ();
          Llubench.make ();
          Cg.make ();
          Eclat.make ();
        ]
      in
      ignore (Atomic.compare_and_set cache None (Some ws));
      Option.get (Atomic.get cache)

let find name =
  let target = String.uppercase_ascii name in
  match
    List.find_opt
      (fun (w : Workload.t) -> String.uppercase_ascii w.Workload.name = target)
      (all ())
  with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Registry.find: unknown workload %s" name)

let names () = List.map (fun (w : Workload.t) -> w.Workload.name) (all ())

let domore_set () =
  List.map find
    [ "BLACKSCHOLES"; "CG"; "ECLAT"; "FLUIDANIMATE-1"; "LLUBENCH"; "SYMM" ]

let speccross_set () =
  List.map find
    [ "CG"; "EQUAKE"; "FDTD"; "FLUIDANIMATE-2"; "JACOBI"; "LLUBENCH"; "LOOPDEP"; "SYMM" ]
