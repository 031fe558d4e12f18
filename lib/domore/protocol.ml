module Ir = Xinv_ir
module Rt = Xinv_runtime
module Flight = Xinv_obs.Flight

type msg =
  | Sync_cond of int
  | Frame of { inner : int; t : int; j : int; len : int; iter : int }

type role = Seq | Redundant | Body

type point = Schedule | Feed | Execute

module type MACHINE = sig
  type t

  val queue_length : t -> int -> int
  val send : t -> int -> msg -> unit
  val recv : t -> int -> msg
  val flush : t -> unit
  val frontier : t -> int -> int
  val publish : t -> int -> int -> unit
  val await : t -> self:int -> int -> int -> unit
  val exec : t -> role -> Ir.Env.t -> Ir.Stmt.t -> unit
  val schedule : t -> Ir.Slice.t -> unit
  val shadow : t -> Ir.Slice.t -> unit
  val self_conds : t -> int -> unit
  val record : t -> domain:int -> Flight.kind -> a:int -> b:int -> unit
  val fault : t -> point -> domain:int -> site:int -> bool
  val run : t -> (unit -> unit) array -> unit
end

type counts = { tasks : int; conds : int }

let check ~workers (plan : Ir.Mtcg.plan) =
  if workers <= 0 then invalid_arg "DOMORE: workers must be positive";
  if plan.Ir.Mtcg.scheduler_extra <> [] then
    invalid_arg "DOMORE: body statements re-partitioned into the scheduler"

let wait_word dep_tid dep_iter = Rt.Sync_cond.to_int (Rt.Sync_cond.Wait { dep_tid; dep_iter })

module Make (M : MACHINE) = struct
  let centralized m ~policy ~workers ~grain ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
    check ~workers plan;
    if grain <= 0 then invalid_arg "DOMORE: grain must be positive";
    let bodies = Array.of_list p.Ir.Program.inners in
    let mem = env.Ir.Env.mem in
    let sites = Ir.Mtcg.sites_for plan mem in
    let iternum = ref 0 and conds = ref 0 in
    let scheduler () =
      let shadow = Rt.Shadow.create ~words:(Ir.Memory.total_words mem) ~workers in
      let deps = Rt.Shadow.Deps.create () in
      let loads = Array.make workers 0 in
      let loads_opt = Some loads in
      let sample_loads = policy = Policy.Least_loaded in
      (* The one open chunk: consecutive iterations of the current
         invocation, all bound for worker [c_tid]. *)
      let c_tid = ref 0 and c_inner = ref 0 and c_t = ref 0 and c_j = ref 0 in
      let c_iter = ref 0 and c_len = ref 0 in
      let sealed = ref 0 in
      let seal () =
        if !c_len > 0 then begin
          let tid = !c_tid in
          M.record m ~domain:0 Flight.Dispatch ~a:!c_iter ~b:(tid + 1);
          M.send m tid
            (Frame { inner = !c_inner; t = !c_t; j = !c_j; len = !c_len; iter = !c_iter });
          c_len := 0;
          incr sealed;
          if !sealed land 63 = 0 then
            M.record m ~domain:0 Flight.Queue_sample ~a:tid ~b:(M.queue_length m tid)
        end
      in
      let cond owner ~tid ~iter =
        incr conds;
        M.record m ~domain:0 Flight.Sync_send ~a:iter ~b:(owner + 1);
        M.send m owner (Sync_cond (wait_word tid iter))
      in
      for t = 0 to p.Ir.Program.outer_trip - 1 do
        let env_t = Ir.Env.with_outer env t in
        Array.iteri
          (fun ii (il : Ir.Program.inner) ->
            List.iter (M.exec m Seq env_t) il.Ir.Program.pre;
            let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
            let reads, writes = sites il.Ir.Program.ilabel in
            for j = 0 to il.Ir.Program.trip env_t - 1 do
              let iter = !iternum in
              ignore (M.fault m Schedule ~domain:0 ~site:iter : bool);
              M.schedule m slice;
              if sample_loads then
                for w = 0 to workers - 1 do
                  loads.(w) <- M.queue_length m w
                done;
              let tid =
                Policy.assign policy ~reads ~writes shadow deps ~loads:loads_opt
                  ~threads:workers ~iter ~slot:(iter / grain) (Ir.Env.with_inner env_t j)
              in
              M.shadow m slice;
              let poisoned = M.fault m Feed ~domain:tid ~site:iter in
              if poisoned || Rt.Shadow.Deps.length deps > 0 then begin
                (* Conditions precede the iteration's frame on its owner's
                   queue, so the open chunk leaves first. *)
                seal ();
                if poisoned then cond tid ~tid ~iter:Rt.Sync_cond.max_iter;
                Rt.Shadow.Deps.iter (cond tid) deps
              end;
              if !c_len > 0 && !c_tid = tid then incr c_len
              else begin
                seal ();
                c_tid := tid;
                c_inner := ii;
                c_t := t;
                c_j := j;
                c_iter := iter;
                c_len := 1
              end;
              if !c_len = grain then seal ();
              iternum := iter + 1
            done;
            seal ())
          bodies
      done;
      let end_word = Rt.Sync_cond.to_int Rt.Sync_cond.End_token in
      for w = 0 to workers - 1 do
        M.send m w (Sync_cond end_word)
      done;
      M.flush m
    in
    let worker w () =
      let rec loop () =
        match M.recv m w with
        | Frame { inner; t; j; len; iter } ->
            let body = bodies.(inner).Ir.Program.body in
            let env_t = Ir.Env.with_outer env t in
            for k = 0 to len - 1 do
              ignore (M.fault m Execute ~domain:w ~site:(iter + k) : bool);
              List.iter (M.exec m Body (Ir.Env.with_inner env_t (j + k))) body;
              M.publish m w (iter + k)
            done;
            loop ()
        | Sync_cond word -> (
            match Rt.Sync_cond.of_int word with
            | Rt.Sync_cond.End_token -> ()
            | Rt.Sync_cond.No_sync _ -> loop ()
            | Rt.Sync_cond.Wait { dep_tid; dep_iter } ->
                if M.frontier m dep_tid < dep_iter then M.await m ~self:w dep_tid dep_iter;
                M.record m ~domain:(w + 1) Flight.Sync_recv ~a:dep_iter ~b:(dep_tid + 1);
                loop ())
      in
      loop ()
    in
    M.run m (Array.init (workers + 1) (fun i -> if i = 0 then scheduler else worker (i - 1)));
    { tasks = !iternum; conds = !conds }

  let duplicated m ~policy ~workers ~batch ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
    check ~workers plan;
    if batch <= 0 then invalid_arg "DOMORE: batch must be positive";
    let tasks = ref 0 in
    let conds = Array.make workers 0 in
    let mem = env.Ir.Env.mem in
    let sites = Ir.Mtcg.sites_for plan mem in
    let thread tid () =
      let shadow = Rt.Shadow.create ~words:(Ir.Memory.total_words mem) ~workers in
      let deps = Rt.Shadow.Deps.create () in
      let iternum = ref 0 and awaited = ref 0 in
      let last_done = ref (-1) and unpublished = ref 0 in
      let publish () =
        if !unpublished > 0 then begin
          M.publish m tid !last_done;
          unpublished := 0;
          M.record m ~domain:tid Flight.Epoch_commit ~a:!last_done ~b:0
        end
      in
      let await ~tid:dep_tid ~iter:dep_iter =
        incr awaited;
        M.record m ~domain:tid Flight.Sync_send ~a:dep_iter ~b:tid;
        if M.frontier m dep_tid < dep_iter then begin
          (* Our unpublished work may be what the chain back to us needs. *)
          publish ();
          M.await m ~self:tid dep_tid dep_iter
        end;
        M.record m ~domain:tid Flight.Sync_recv ~a:dep_iter ~b:dep_tid
      in
      (* Thread 0's copy of a sequential region is the one the sequential
         program runs; privatizable per-invocation slots make the other
         threads' copies write the same values. *)
      let pre = if tid = 0 then Seq else Redundant in
      for t = 0 to p.Ir.Program.outer_trip - 1 do
        let env_t = Ir.Env.with_outer env t in
        List.iter
          (fun (il : Ir.Program.inner) ->
            List.iter (M.exec m pre env_t) il.Ir.Program.pre;
            let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
            let reads, writes = sites il.Ir.Program.ilabel in
            let trip = il.Ir.Program.trip env_t in
            if tid = 0 then tasks := !tasks + trip;
            for j = 0 to trip - 1 do
              let iter = !iternum in
              let env_j = Ir.Env.with_inner env_t j in
              M.schedule m slice;
              let owner =
                Policy.assign policy ~reads ~writes shadow deps ~loads:None ~threads:workers
                  ~iter ~slot:iter env_j
              in
              M.shadow m slice;
              if owner = tid then begin
                M.self_conds m (Rt.Shadow.Deps.length deps);
                if M.fault m Feed ~domain:tid ~site:iter then
                  await ~tid ~iter:Rt.Sync_cond.max_iter;
                Rt.Shadow.Deps.iter await deps;
                ignore (M.fault m Execute ~domain:tid ~site:iter : bool);
                List.iter (M.exec m Body env_j) il.Ir.Program.body;
                last_done := iter;
                incr unpublished;
                if !unpublished >= batch then publish ()
              end;
              iternum := iter + 1
            done;
            (* Peers may wait on this invocation's last iterations. *)
            publish ())
          p.Ir.Program.inners
      done;
      conds.(tid) <- !awaited
    in
    M.run m (Array.init workers thread);
    { tasks = !tasks; conds = Array.fold_left ( + ) 0 conds }
end
