module Policy = Xinv_cache.Policy
module Obs = Xinv_obs
module Prng = Xinv_util.Prng

type measurement = {
  m_wall_ns : float;
  m_seq_ns : float;
  m_ok : bool;
  m_pruned : bool;
}

type trial = {
  t_index : int;
  t_policy : Policy.t;
  t_wall_ns : float;
  t_seq_ns : float;
  t_ok : bool;
  t_pruned : bool;
}

type result = {
  best : Policy.t;
  best_wall_ns : float;
  best_seq_ns : float;
  evaluated : int;
  trials : trial list;
}

exception Budget_exhausted

type state = {
  rng : Prng.t;
  axes : Space.axes;
  budget : int;
  obs : Obs.Recorder.t option;
  measure : incumbent_ns:float -> Policy.t -> measurement;
  seen : (string, measurement) Hashtbl.t;
  mutable n : int;
  mutable log : trial list;  (* reverse evaluation order *)
  mutable best : Policy.t;
  mutable best_wall : float;
  mutable best_seq : float;
}

let note st =
  match st.obs with
  | None -> ()
  | Some r -> Obs.Metrics.incr (Obs.Metrics.counter (Obs.Recorder.metrics r) "tune.trial")

(* Comparison score: failed or pruned trials never become the incumbent. *)
let score m = if m.m_ok && not m.m_pruned then m.m_wall_ns else Float.infinity

let eval st p =
  let p = Space.canon p in
  let k = Policy.key p in
  match Hashtbl.find_opt st.seen k with
  | Some m -> m
  | None ->
      if st.n >= st.budget then raise Budget_exhausted;
      st.n <- st.n + 1;
      let m = st.measure ~incumbent_ns:st.best_wall p in
      Hashtbl.add st.seen k m;
      st.log <-
        {
          t_index = st.n;
          t_policy = p;
          t_wall_ns = m.m_wall_ns;
          t_seq_ns = m.m_seq_ns;
          t_ok = m.m_ok;
          t_pruned = m.m_pruned;
        }
        :: st.log;
      note st;
      if score m < st.best_wall then begin
        st.best <- p;
        st.best_wall <- m.m_wall_ns;
        st.best_seq <- m.m_seq_ns
      end;
      m

(* First-improvement climb: shuffle the neighbourhood, move to the first
   neighbour that beats the current point, repeat until none does. *)
let climb st start =
  let cur = ref (Space.canon start) in
  let cur_score = ref (score (eval st !cur)) in
  let improved = ref true in
  while !improved do
    improved := false;
    let nbrs = Array.of_list (Space.neighbours st.axes !cur) in
    Prng.shuffle st.rng nbrs;
    (try
       Array.iter
         (fun p ->
           let s = score (eval st p) in
           if s < !cur_score then begin
             cur := p;
             cur_score := s;
             improved := true;
             raise Exit
           end)
         nbrs
     with Exit -> ())
  done

let hill st =
  List.iter (climb st) (Space.seeds st.axes);
  (* Random restarts with whatever budget remains.  The attempt bound
     terminates the loop when the space is exhausted and every random
     point is a (free, cached) re-visit. *)
  let attempts = ref 0 in
  let max_attempts = 8 * st.budget in
  while st.n < st.budget && !attempts < max_attempts do
    incr attempts;
    climb st (Space.random st.rng st.axes)
  done

let search ?obs ~budget ~seed ~axes ~measure () =
  let st =
    {
      rng = Prng.create ~seed;
      axes;
      budget = Stdlib.max 1 budget;
      obs;
      measure;
      seen = Hashtbl.create 64;
      n = 0;
      log = [];
      best = Policy.default;
      best_wall = Float.infinity;
      best_seq = 0.;
    }
  in
  (try
     ignore (eval st Policy.default);
     hill st
   with Budget_exhausted -> ());
  {
    best = st.best;
    best_wall_ns = st.best_wall;
    best_seq_ns = st.best_seq;
    evaluated = st.n;
    trials = List.rev st.log;
  }
