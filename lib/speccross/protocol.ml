module Ir = Xinv_ir
module Rt = Xinv_runtime
module Flight = Xinv_obs.Flight

type mode = M_doall | M_localwrite | M_domore of Xinv_domore.Policy.t

module Epochs = struct
  type t = {
    env : Ir.Env.t;
    inners : Ir.Program.inner array;
    count : int;
    base : int array;
    hot : string -> bool;
    side_effecting : bool array;
  }

  let env_of t e =
    let n = Array.length t.inners in
    (t.inners.(e mod n), Ir.Env.with_outer t.env (e / n))

  let irreversible t e = t.side_effecting.(e mod Array.length t.inners)

  let make (p : Ir.Program.t) env =
    let inners = Array.of_list p.Ir.Program.inners in
    let count = p.Ir.Program.outer_trip * Array.length inners in
    (* SPECCROSS only instruments accesses that may alias across
       invocations: anything touching an array some inner-loop body
       writes. *)
    let hot_arrays =
      List.concat_map
        (fun (st : Ir.Stmt.t) ->
          List.map (fun (a : Ir.Access.t) -> a.Ir.Access.base) st.Ir.Stmt.writes)
        (Ir.Program.body_stmts p)
      |> List.sort_uniq String.compare
    in
    let side_effecting =
      Array.map
        (fun (il : Ir.Program.inner) ->
          List.exists
            (fun (st : Ir.Stmt.t) -> st.Ir.Stmt.side_effect)
            (il.Ir.Program.pre @ il.Ir.Program.body))
        inners
    in
    let t =
      { env; inners; count; base = Array.make (count + 1) 0;
        hot = (fun arr -> List.mem arr hot_arrays); side_effecting }
    in
    (* Trip counts only read input data the region never writes, so this
       pre-pass is safe. *)
    for e = 0 to count - 1 do
      let il, env_t = env_of t e in
      t.base.(e + 1) <- t.base.(e) + il.Ir.Program.trip env_t
    done;
    t
end

type config = {
  workers : int;
  sig_kind : Rt.Signature.kind;
  checkpoint_every : int;
  spec_distance : int;
  mode_of : string -> mode;
  inject_misspec : (int * int) option;
  non_spec_barriers : bool;
  tm_style : bool;
  grain : int;
}

type frontier = Progress | Tpos | Dpos | Done | Ckpt | Io

type wait = Range | Rally | Ckpt_rally | Drain | Dep

let cause = function
  | Range -> Xinv_obs.Cause.Throttle
  | Rally | Ckpt_rally -> Xinv_obs.Cause.Rally
  | Drain -> Xinv_obs.Cause.Checker_lag
  | Dep -> Xinv_obs.Cause.Sync_cond

type cost =
  | Enter
  | Access of int
  | Exit
  | Check of int
  | Schedule of int
  | Barrier
  | Checkpoint
  | Recovery

type kind = Pre | Seq | Doall | Localwrite | Skip

type request = {
  worker : int;
  epoch : int;
  sg : Rt.Signature.t;
  started : int array;
  force : bool;
}

module type MACHINE = sig
  type t

  val publish : t -> w:int -> frontier -> int -> unit
  val get : t -> w:int -> frontier -> int -> int
  val await : t -> w:int -> wait -> frontier -> int -> int -> unit
  val await_drained : t -> w:int -> wait -> unit
  val await_abort : t -> w:int -> unit
  val charge : t -> cost -> unit
  val exec : t -> w:int -> kind -> Ir.Env.t -> Ir.Program.inner -> unit
  val submit : t -> request -> unit
  val finish : t -> w:int -> unit
  val take : t -> request option
  val verdict : t -> request -> bool -> unit
  val rally : t -> w:int -> unit
  val reset : t -> unit
  val resume : t -> w:int -> unit
  val aborted : t -> w:int -> bool
  val abandon : t -> w:int -> bool
  val containable : t -> exn -> bool
  val fault : t -> domain:int -> site:int -> unit
  val clock : t -> float
  val record : t -> domain:int -> Flight.kind -> a:int -> b:int -> unit
  val run : t -> (unit -> unit) array -> unit
end

type counts = {
  tasks : int;
  checks : int;
  misspecs : int;
  barriers : int;
  checkpoints : int;
  epochs_redone : int;
  recovery_time : int;
  signatures_compared : int;
}

(* A worker leaves an aborted epoch ({!MACHINE.abandon}). *)
exception Abandoned

module Make (M : MACHINE) = struct
  let run m (cfg : config) (p : Ir.Program.t) env =
    let workers = cfg.workers in
    if workers <= 0 then invalid_arg "SPECCROSS: workers must be positive";
    if cfg.grain <= 0 then invalid_arg "SPECCROSS: grain must be positive";
    (match Xinv_parallel.Plan.speccross_sequential_regions p with
    | Error msg -> invalid_arg ("SPECCROSS: " ^ msg)
    | Ok () -> ());
    (* A range below the worker count lets the throttle strangle the
       pipeline: each worker waits on a position its peers cannot reach. *)
    let spec_distance = Stdlib.max workers cfg.spec_distance in
    let grain = Stdlib.max 1 (Stdlib.min cfg.grain (spec_distance / 2)) in
    let mem = env.Ir.Env.mem in
    let ep = Epochs.make p env in
    let nepochs = ep.Epochs.count and base = ep.Epochs.base and hot = ep.Epochs.hot in
    let bodies = Ir.Footprint.bodies mem p in
    let feeders = Array.map (fun il -> Ir.Footprint.feeder ~hot (bodies il)) ep.Epochs.inners in
    (* DOMORE epochs: each inner loop's slice resolved once, and one
       shadow per worker, reset at every epoch. *)
    let sites =
      Array.map
        (fun (il : Ir.Program.inner) -> Ir.Slice.resolve (Ir.Slice.of_stmts il.Ir.Program.body) mem)
        ep.Epochs.inners
    in
    let shadows =
      if
        Array.exists
          (fun (il : Ir.Program.inner) ->
            match cfg.mode_of il.Ir.Program.ilabel with M_domore _ -> true | _ -> false)
          ep.Epochs.inners
      then
        Array.init workers (fun _ ->
            ( Rt.Shadow.create ~words:(Ir.Memory.total_words mem) ~workers,
              Rt.Shadow.Deps.create () ))
      else [||]
    in
    let siglog = Rt.Siglog.create ~workers in
    let ckpts = Rt.Checkpoint.create () in
    let checks = Atomic.make 0 and misspecs = ref 0 and barriers = ref 0 in
    (* Worker 0's counts, and the checker's. *)
    let checkpoints = ref 0 and epochs_redone = ref 0 and recovery_time = ref 0 in
    let compared = ref 0 in
    let injected = Atomic.make false in
    (* The lowest epoch the checker flagged in this generation: stored
       before its verdict, read by worker 0 once rallied. *)
    let flagged = ref max_int in
    (* Written by worker 0 before {!M.resume}, read by every worker after:
       the epoch recovery restored and the one speculation resumes at.
       Epochs in between re-execute non-speculatively. *)
    let restored = ref 0 and spec_from = ref 0 in
    let speculative e = (not cfg.non_spec_barriers) && e >= !spec_from in
    (* Worker 0: when the recovery under way began. *)
    let recovering = ref None in
    (* The positions each worker ran in DOMORE epochs since [!unchecked]. *)
    let ran = Array.make workers [] and unchecked = ref 0 in
    let save e =
      Rt.Checkpoint.save ckpts ~epoch:e mem;
      incr checkpoints;
      M.record m ~domain:0 Flight.Checkpoint ~a:e ~b:0
    in
    (* Epochs below a checkpoint are final: the log drops them and the
       DOMORE schedule check starts after them. *)
    let checkpoint e =
      M.charge m Checkpoint;
      save e;
      Rt.Siglog.prune siglog ~upto:e;
      Array.fill ran 0 workers [];
      unchecked := e
    in
    let commit e = M.record m ~domain:0 Flight.Epoch_commit ~a:e ~b:0 in
    let peers ~w why f v =
      for p = 0 to workers - 1 do
        if p <> w then M.await m ~w why f p v
      done
    in
    let leave ~w = if M.abandon m ~w then raise Abandoned in
    let contained = function Abandoned -> false | ex -> M.containable m ex in
    let snapshot ~w = Array.init workers (fun p -> M.get m ~w Dpos p) in
    let submit ~w ~epoch ~started ~force sg =
      Atomic.incr checks;
      M.submit m { worker = w; epoch; sg; started; force }
    in
    let force ~w ~epoch =
      submit ~w ~epoch ~started:(snapshot ~w) ~force:true (Rt.Signature.create cfg.sig_kind)
    in
    (* Speculative state so inconsistent that scheduling it raised: submit
       a forced conflict without a signature (the log may already hold its
       position) and wait for the abort. *)
    let force_conflict ~w ~epoch ~g =
      M.publish m ~w Dpos (g - 1);
      force ~w ~epoch;
      M.publish m ~w Dpos g;
      M.await_abort m ~w;
      raise Abandoned
    in
    let guard ~w ~epoch ~g f =
      if speculative epoch then
        try f () with ex when contained ex -> force_conflict ~w ~epoch ~g
      else f ()
    in
    (* In a DOMORE epoch every worker schedules every iteration from
       speculative memory, and no signature shows two schedules that
       disagree: an iteration then ran twice or never.  Once every worker
       finished the epochs below [upto], each of their DOMORE positions
       must have run exactly once, or worker 0 forces a misspeculation. *)
    let check_schedules ~w upto =
      let hits =
        lazy
          (let h = Array.make base.(upto) 0 in
           Array.iter (List.iter (fun g -> h.(g) <- h.(g) + 1)) ran;
           h)
      in
      let once e =
        let il = ep.Epochs.inners.(e mod Array.length ep.Epochs.inners) in
        match cfg.mode_of il.Ir.Program.ilabel with
        | M_domore _ ->
            Array.for_all (( = ) 1) (Array.sub (Lazy.force hits) base.(e) (base.(e + 1) - base.(e)))
        | _ -> true
      in
      let epochs = List.init (upto - !unchecked) (( + ) !unchecked) in
      if not (M.aborted m ~w || List.for_all once epochs) then begin
        if w = 0 then force ~w ~epoch:(upto - 1);
        M.await_abort m ~w
      end
    in
    (* Every worker at epoch boundary [e]: check the DOMORE schedules below
       it, then wait for the checker to drain. *)
    let settle ~w rally drain e =
      peers ~w rally Progress e;
      check_schedules ~w e;
      M.await_drained m ~w drain
    in
    (* Worker 0 settles at boundary [e] and, unless that aborted, runs
       [act], checkpoints boundary [c] and publishes [f]; the others wait on
       [f]. *)
    let rally_at ~w rally drain f e c act =
      if w = 0 then begin
        settle ~w rally drain e;
        if not (M.aborted m ~w) then begin
          act ();
          checkpoint c;
          M.publish m ~w f e
        end
      end
      else M.await m ~w rally f 0 e
    in
    (* Speculative-range throttle (dissertation 4.2.1): publish first (a
       blocked worker still tells the others where it is), then wait for
       every trailing worker to come within range. *)
    let throttle ~w g =
      M.publish m ~w Tpos g;
      let floor_ = g - spec_distance + 1 in
      if floor_ > 0 then
        for p = 0 to workers - 1 do
          if p <> w then begin
            M.await m ~w Range Tpos p floor_;
            leave ~w
          end
        done
    in
    (* The bracket around one task at global position [g].  Its
       instrumented accesses [feed] streams into the signature are evaluated
       after the snapshot, so every index they load is final or written by
       a task in the window. *)
    let task ~w ~epoch ~g ~feed body =
      M.record m ~domain:w Flight.Dispatch ~a:g ~b:epoch;
      if not (speculative epoch) then body ()
      else begin
        M.publish m ~w Dpos (g - 1);
        M.charge m Enter;
        let started = snapshot ~w in
        let sg = Rt.Signature.create cfg.sig_kind in
        let failed =
          match
            Rt.Signature.add_iter sg feed;
            M.charge m (Access (Rt.Signature.count sg));
            body ()
          with
          | () -> false
          | exception ex when contained ex -> true
        in
        M.charge m Exit;
        (* One worker's checker has no peer to compare against. *)
        if workers > 1 then Rt.Siglog.store siglog ~worker:w ~pos:g ~epoch sg;
        let forced =
          match cfg.inject_misspec with
          | Some (ie, iw) when ie = epoch && iw = w -> Atomic.compare_and_set injected false true
          | _ -> false
        in
        submit ~w ~epoch ~started ~force:(forced || failed) sg;
        (* Later tasks' comparison windows exclude this one, now finished. *)
        M.publish m ~w Dpos g
      end
    in
    let exec_epoch ~w e =
      let il, env_t = Epochs.env_of ep e in
      guard ~w ~epoch:e ~g:base.(e) (fun () -> M.exec m ~w Pre env_t il);
      let trip = il.Ir.Program.trip env_t in
      let at j = Ir.Env.with_inner env_t j in
      let fd = feeders.(e mod Array.length feeders) and body = bodies il in
      let reads, writes = sites.(e mod Array.length sites) in
      let footprint j = Ir.Footprint.feed fd (at j) in
      match cfg.mode_of il.Ir.Program.ilabel with
      | M_doall ->
          (* Block-cyclic blocks of [grain] iterations, one task each,
             positioned at the block's last iteration. *)
          let b = ref w in
          while !b * grain < trip do
            leave ~w;
            let j0 = !b * grain in
            let j1 = Stdlib.min trip (j0 + grain) - 1 in
            let g = base.(e) + j1 in
            throttle ~w g;
            let feed sink =
              for j = j0 to j1 do
                footprint j sink
              done
            in
            task ~w ~epoch:e ~g ~feed (fun () ->
                for j = j0 to j1 do
                  M.exec m ~w Doall (at j) il
                done);
            b := !b + workers
          done
      | M_localwrite ->
          for j = 0 to trip - 1 do
            leave ~w;
            let g = base.(e) + j in
            throttle ~w g;
            let owned = Xinv_parallel.Intra.owns ~threads:workers ~tid:w (at j) in
            if guard ~w ~epoch:e ~g (fun () -> Array.exists owned body) then
              task ~w ~epoch:e ~g ~feed:(footprint j) (fun () ->
                  M.exec m ~w Localwrite (at j) il)
            else begin
              (* Publish progress so checker windows stay tight. *)
              M.publish m ~w Dpos g;
              M.exec m ~w Skip (at j) il
            end
          done
      | M_domore policy ->
          (* §3.4 duplicated scheduler, scoped to this epoch: every worker
             schedules every iteration against a private shadow and
             executes the ones it owns, after their dependences' owners
             executed theirs. *)
          let shadow, deps = shadows.(w) in
          Rt.Shadow.reset shadow;
          for j = 0 to trip - 1 do
            leave ~w;
            let env_j = at j and g = base.(e) + j in
            throttle ~w g;
            let owner =
              guard ~w ~epoch:e ~g (fun () ->
                  (* Evaluated, not just counted: an index speculative
                     memory puts out of bounds raises here, in the guard. *)
                  let accesses = ref 0 in
                  footprint j (fun _ -> incr accesses);
                  M.charge m (Schedule !accesses);
                  Xinv_domore.Policy.assign policy ~reads ~writes shadow deps ~loads:None
                    ~threads:workers ~iter:j ~slot:j env_j)
            in
            if owner <> w then begin
              (* Passing an iteration publishes it done too, so a peer whose
                 schedule disagreed with ours is never left waiting on it. *)
              M.publish m ~w Dpos g;
              M.publish m ~w Done g
            end
            else
              task ~w ~epoch:e ~g ~feed:(footprint j) (fun () ->
                  Rt.Shadow.Deps.iter
                    (fun ~tid ~iter -> M.await m ~w Dep Done tid (base.(e) + iter))
                    deps;
                  leave ~w;
                  M.exec m ~w Doall env_j il;
                  ran.(w) <- g :: ran.(w);
                  M.publish m ~w Done g)
          done
    in
    (* Restore the checkpoint and start a generation that re-executes,
       without speculation, every epoch up to the one the checker flagged;
       the checkpoint rally at [!spec_from] ends the recovery. *)
    let recover ~w =
      let t0 = M.clock m in
      M.rally m ~w;
      if w = 0 then begin
        M.charge m Recovery;
        restored := Rt.Checkpoint.restore ckpts ~into:mem;
        Rt.Siglog.clear siglog;
        Array.fill ran 0 workers [];
        unchecked := !restored;
        M.reset m;
        spec_from := Stdlib.min (!flagged + 1) nepochs;
        flagged := max_int;
        recovering := Some t0
      end;
      M.resume m ~w;
      !restored
    in
    (* Worker 0, at [!spec_from] or the region end: the recovery is over. *)
    let recovered e =
      match !recovering with
      | Some t0 when not (M.aborted m ~w:0) ->
          recovering := None;
          let redone = e - !restored and took = int_of_float (Float.round (M.clock m -. t0)) in
          epochs_redone := !epochs_redone + redone;
          recovery_time := !recovery_time + took;
          M.record m ~domain:0 Flight.Recovery ~a:redone ~b:took
      | _ -> ()
    in
    let worker w () =
      let e = ref 0 in
      let running = ref true in
      while !running do
        if M.aborted m ~w then e := recover ~w
        else if !e >= nepochs then begin
          (* Region end: wait for everyone, then for the checker to drain. *)
          M.publish m ~w Progress nepochs;
          M.publish m ~w Tpos base.(nepochs);
          settle ~w Rally Drain nepochs;
          if M.aborted m ~w then e := recover ~w
          else begin
            if w = 0 then recovered nepochs;
            M.finish m ~w;
            running := false
          end
        end
        else begin
          let ep_ = !e in
          (* Epoch boundary: every task of mine below it is in the log. *)
          M.publish m ~w Dpos (base.(ep_) - 1);
          M.publish m ~w Progress ep_;
          M.fault m ~domain:w ~site:ep_;
          if (not (speculative ep_)) && ep_ > !restored then begin
            M.charge m Barrier;
            if w = 0 then incr barriers;
            peers ~w Rally Progress ep_
          end;
          if
            ep_ > 0
            && (ep_ = !spec_from || (cfg.checkpoint_every > 0 && ep_ mod cfg.checkpoint_every = 0))
            && M.get m ~w Ckpt 0 < ep_
          then begin
            rally_at ~w Ckpt_rally Ckpt_rally Ckpt ep_ ep_ ignore;
            if w = 0 && ep_ = !spec_from then recovered ep_
          end;
          if M.aborted m ~w then e := recover ~w
          else if Epochs.irreversible ep ep_ && speculative ep_ then begin
            (* Irreversible epoch: rally everyone, drain the checker, let
               worker 0 execute the epoch exactly once, checkpoint, resume
               (§4.2.2). *)
            rally_at ~w Rally Drain Io ep_ (ep_ + 1) (fun () ->
                let il, env_t = Epochs.env_of ep ep_ in
                M.exec m ~w Seq env_t il);
            if M.aborted m ~w then e := recover ~w
            else begin
              M.publish m ~w Tpos (base.(ep_ + 1) - 1);
              if w = 0 then commit ep_;
              incr e
            end
          end
          else begin
            M.publish m ~w Tpos (base.(ep_) - 1);
            (try exec_epoch ~w ep_ with Abandoned -> ());
            if w = 0 && not (M.aborted m ~w) then commit ep_;
            incr e
          end
        end
      done
    in
    let checker () =
      let checked = ref 0 in
      let upto (r : request) = if cfg.tm_style then r.epoch + 1 else r.epoch in
      let rec loop () =
        match M.take m with
        | None -> ()
        | Some r ->
            M.fault m ~domain:workers ~site:!checked;
            incr checked;
            let conflict = ref r.force and win = ref 0 in
            for p = 0 to workers - 1 do
              if p <> r.worker then begin
                let n, hit =
                  Rt.Siglog.compare_window siglog ~worker:p ~after:r.started.(p)
                    ~epoch:r.epoch ~upto:(upto r) r.sg
                in
                win := !win + n;
                if n > 0 then M.charge m (Check n);
                if hit then conflict := true
              end
            done;
            compared := !compared + !win;
            M.record m ~domain:workers Flight.Sig_check ~a:r.epoch ~b:!win;
            if !conflict then begin
              incr misspecs;
              flagged := Stdlib.min !flagged r.epoch;
              M.record m ~domain:workers Flight.Misspec ~a:r.epoch ~b:r.worker
            end;
            M.verdict m r !conflict;
            loop ()
      in
      loop ()
    in
    save 0;
    M.run m (Array.init (workers + 1) (fun i -> if i < workers then worker i else checker));
    { tasks = base.(nepochs); checks = Atomic.get checks; misspecs = !misspecs;
      barriers = !barriers; checkpoints = !checkpoints; epochs_redone = !epochs_redone;
      recovery_time = !recovery_time; signatures_compared = !compared }
end
