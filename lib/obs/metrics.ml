(* The counters + histogram registry. Modules register a metric once (a
   hashtable lookup) and then update it through the returned handle (an int
   mutation / two array stores), so hot paths never re-resolve names.

   Histograms are log-linear (HDR-style): values below [sub_count] get one
   bucket each; above that, every power-of-two block is split into
   [sub_count] linear sub-buckets, so the bucket upper bound is within
   1/sub_count (6.25%) of any observation. That is fine enough for p95/p99
   quantile estimates over cycle counts while keeping observation cost flat
   (a few shifts and two array stores). *)

type counter = { c_name : string; mutable count : int }

let sub_bits = 4
let sub_count = 1 lsl sub_bits (* 16 linear sub-buckets per 2x block *)

(* Values are clamped non-negative 63-bit ints: msb index <= 61, so
   [k = msb - sub_bits] ranges over 58 blocks of [sub_count] sub-buckets,
   plus the [sub_count] exact buckets for v < sub_count. *)
let n_buckets = sub_count + (sub_count * (61 - sub_bits + 1))

type histogram = {
  buckets : int array;  (* n_buckets cells *)
  mutable n : int;
  mutable sum : int;
  mutable max_v : int;
  mutable min_v : int;
}

type gauge = { g_name : string; mutable value : int }

type metric = Counter of counter | Histogram of histogram | Gauge of gauge

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_of = function
  | Counter _ -> "a counter"
  | Histogram _ -> "a histogram"
  | Gauge _ -> "a gauge"

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some m -> invalid_arg ("Metrics.counter: " ^ name ^ " is " ^ kind_of m)
  | None ->
      let c = { c_name = name; count = 0 } in
      Hashtbl.add t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some m -> invalid_arg ("Metrics.gauge: " ^ name ^ " is " ^ kind_of m)
  | None ->
      let g = { g_name = name; value = 0 } in
      Hashtbl.add t.tbl name (Gauge g);
      g

let set g v = g.value <- v
let gauge_max g v = if v > g.value then g.value <- v

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some m -> invalid_arg ("Metrics.histogram: " ^ name ^ " is " ^ kind_of m)
  | None ->
      let h =
        {
          buckets = Array.make n_buckets 0;
          n = 0;
          sum = 0;
          max_v = min_int;
          min_v = max_int;
        }
      in
      Hashtbl.add t.tbl name (Histogram h);
      h

let incr c = c.count <- c.count + 1
let add c v = c.count <- c.count + v

(* Most-significant-bit index of a positive int, by binary descent. *)
let msb v =
  let m = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin m := !m + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin m := !m + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin m := !m + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin m := !m + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin m := !m + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then m := !m + 1;
  !m

(* Log-linear bucket index: values below [sub_count] map to themselves;
   above, block [k = msb v - sub_bits] contributes [sub_count] sub-buckets
   selected by the [sub_bits] bits right under the msb. Monotone in [v]. *)
let bucket_of v =
  if v < sub_count then Int.max 0 v
  else begin
    let k = msb v - sub_bits in
    let i = (sub_count * k) + ((v lsr k) land (sub_count - 1)) + sub_count in
    if i >= n_buckets then n_buckets - 1 else i
  end

(* Inclusive upper bound of a bucket: the largest value mapping into it. *)
let bucket_le i =
  if i < sub_count then i
  else if i >= n_buckets - 1 then max_int
  else begin
    let k = (i - sub_count) / sub_count in
    let j = (i - sub_count) mod sub_count in
    ((sub_count + j + 1) lsl k) - 1
  end

let observe h v =
  let v = Int.max 0 v in
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v > h.max_v then h.max_v <- v;
  if v < h.min_v then h.min_v <- v

let mean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n

(* The value at quantile [q] (0 < q <= 1): the upper bound of the bucket
   holding the ceil(q*n)-th smallest observation, clamped to the observed
   extrema. Buckets are monotone in value, so the estimate is the bound of
   the exact sample quantile's own bucket — within one sub-bucket
   (<= 1/sub_count relative error) of the exact answer. *)
let quantile h q =
  if h.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.n)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let est = ref h.max_v in
    let cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= rank then begin
           est := bucket_le i;
           raise Exit
         end
       done
     with Exit -> ());
    let v = !est in
    if v > h.max_v then h.max_v else if v < h.min_v then h.min_v else v
  end

(* Accumulate [src] into [dst]: counters and buckets sum, extrema combine.
   Used to merge the per-task (hence per-domain) sinks of a parallel sweep
   at the join — merge in a deterministic task order to keep exports
   reproducible. *)
let merge dst src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> add (counter dst name) c.count
      | Gauge g ->
          (* gauges are instantaneous readings (queue depths, in-flight
             counts, runnable peaks — all high-watermarks); across tasks
             the maximum is the meaningful aggregate *)
          gauge_max (gauge dst name) g.value
      | Histogram h ->
          let d = histogram dst name in
          Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets;
          d.n <- d.n + h.n;
          d.sum <- d.sum + h.sum;
          if h.max_v > d.max_v then d.max_v <- h.max_v;
          if h.min_v < d.min_v then d.min_v <- h.min_v)
    src.tbl

(* Deterministic export order: sorted by name. *)
let sorted t =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_json h =
  let buckets =
    Array.to_list h.buckets
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) ->
           Json.Obj
             [
               ( "le",
                 if bucket_le i = max_int then Json.Str "inf"
                 else Json.Int (bucket_le i) );
               ("n", Json.Int n);
             ])
  in
  Json.Obj
    [
      ("type", Json.Str "histogram");
      ("count", Json.Int h.n);
      ("sum", Json.Int h.sum);
      ("mean", Json.Float (mean h));
      ("p50", Json.Int (quantile h 0.50));
      ("p95", Json.Int (quantile h 0.95));
      ("p99", Json.Int (quantile h 0.99));
      ("min", Json.Int (if h.n = 0 then 0 else h.min_v));
      ("max", Json.Int (if h.n = 0 then 0 else h.max_v));
      ("buckets", Json.List buckets);
    ]

let to_json t : Json.t =
  Json.Obj
    (List.map
       (fun (name, m) ->
         match m with
         | Counter c -> (name, Json.Int c.count)
         | Gauge g ->
             ( name,
               Json.Obj
                 [ ("type", Json.Str "gauge"); ("value", Json.Int g.value) ] )
         | Histogram h -> (name, histogram_json h))
       (sorted t))

let pp fmt t =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Format.fprintf fmt "%-36s %d@." name c.count
      | Gauge g ->
          (* high-watermark: merging keeps the maximum across tasks *)
          Format.fprintf fmt "%-36s %d (gauge, high-watermark)@." name g.value
      | Histogram h ->
          Format.fprintf fmt
            "%-36s n=%d mean=%.1f p50=%d p95=%d p99=%d min=%d max=%d@." name
            h.n (mean h) (quantile h 0.50) (quantile h 0.95) (quantile h 0.99)
            (if h.n = 0 then 0 else h.min_v)
            (if h.n = 0 then 0 else h.max_v))
    (sorted t)
