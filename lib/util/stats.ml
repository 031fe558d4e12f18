let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
      assert (List.for_all (fun x -> x > 0.) xs);
      let s = List.fold_left (fun acc x -> acc +. log x) 0. xs in
      exp (s /. float_of_int (List.length xs))
