(* Order statistics over a run's repeated measurements. The quartiles use
   the method of Python's [statistics.quantiles(values, n=4)] (the default
   "exclusive" method), so the spreads printed here match an external check
   of the same numbers. *)

let sorted xs = Array.of_list (List.sort compare xs)

let minimum xs = List.fold_left min infinity xs

(* [(q1, median, q3)]; a single sample is its own quartiles. *)
let quartiles xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then nan
  else d.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
