type t =
  | Queue_empty
  | Queue_full
  | Sync_cond
  | Barrier_wait
  | Checker_lag
  | Throttle
  | Rally

let all = [ Queue_empty; Queue_full; Sync_cond; Barrier_wait; Checker_lag; Throttle; Rally ]

let count = List.length all

let index = function
  | Queue_empty -> 0
  | Queue_full -> 1
  | Sync_cond -> 2
  | Barrier_wait -> 3
  | Checker_lag -> 4
  | Throttle -> 5
  | Rally -> 6

let of_index i = List.nth_opt all i

let name = function
  | Queue_empty -> "queue-empty"
  | Queue_full -> "queue-full"
  | Sync_cond -> "sync-cond"
  | Barrier_wait -> "barrier"
  | Checker_lag -> "checker-lag"
  | Throttle -> "throttle"
  | Rally -> "rally"

let of_name s = List.find_opt (fun c -> name c = s) all
