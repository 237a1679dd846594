(* Virtual sockets and the closed-loop client population. *)

let mk ?(clients = 2) ?(limit = 10) () =
  Netsim.create ~think_cycles:100 ~request_limit:limit ~n_clients:clients
    (fun c -> Printf.sprintf "GET /c%d HTTP/1.1\r\n\r\n" c)

let test_arrivals () =
  let t = mk () in
  Alcotest.(check (option int)) "first arrival at 0" (Some 0) (Netsim.next_arrival t);
  Alcotest.(check bool) "arrivals materialise" true (Netsim.advance t ~now:0);
  (match Netsim.accept t with
  | Some c -> Alcotest.(check string) "request payload" "GET /c0 HTTP/1.1\r\n\r\n" c.Netsim.request
  | None -> Alcotest.fail "expected a connection");
  Alcotest.(check bool) "second client too" true (Netsim.accept t <> None);
  Alcotest.(check (option Alcotest.reject)) "queue drained"
    None
    (match Netsim.accept t with Some _ -> Some () | None -> None)

let test_closed_loop () =
  let t = mk ~clients:1 ~limit:3 () in
  ignore (Netsim.advance t ~now:0);
  let c1 = Option.get (Netsim.accept t) in
  (* client busy: no new request until response *)
  ignore (Netsim.advance t ~now:50);
  Alcotest.(check bool) "busy client" true (Netsim.accept t = None);
  Netsim.write t c1.Netsim.conn_id "HTTP/1.1 200 OK";
  Netsim.close t c1.Netsim.conn_id ~now:500;
  Alcotest.(check int) "completed" 1 (Netsim.completed t);
  (* next send after think time *)
  Alcotest.(check (option int)) "think delay" (Some 600) (Netsim.next_arrival t)

let test_request_limit () =
  let t = mk ~clients:1 ~limit:2 () in
  let now = ref 0 in
  while not (Netsim.done_all t) do
    ignore (Netsim.advance t ~now:!now);
    (match Netsim.accept t with
    | Some c ->
        Netsim.write t c.Netsim.conn_id "ok";
        Netsim.close t c.Netsim.conn_id ~now:(!now + 10)
    | None -> ());
    now := !now + 200
  done;
  Alcotest.(check int) "limit respected" 2 (Netsim.completed t);
  Alcotest.(check (option int)) "no more arrivals" None (Netsim.next_arrival t)

let test_throughput_measure () =
  let t = mk ~clients:4 ~limit:100 () in
  let now = ref 0 in
  while not (Netsim.done_all t) do
    ignore (Netsim.advance t ~now:!now);
    (match Netsim.accept t with
    | Some c -> Netsim.close t c.Netsim.conn_id ~now:(!now + 50)
    | None -> ());
    now := !now + 50
  done;
  Alcotest.(check bool) "throughput positive" true (Netsim.throughput t > 0.0);
  Alcotest.(check bool) "latency positive" true (Netsim.mean_latency t >= 0.0)

(* ---- open-loop arrivals ---- *)

let mk_open ?(limit = 50) ?(queue_cap = max_int) ?(queue_timeout = max_int)
    ?(keepalive = max_int) arrivals =
  Netsim.create ~request_limit:limit ~arrivals ~queue_cap ~queue_timeout
    ~keepalive ~n_clients:4 (fun c ->
      Printf.sprintf "GET /c%d HTTP/1.1\r\n\r\n" c)

(* Drain a generator: advance in fixed steps, accept everything, close
   immediately. Returns the (client, arrived) schedule actually seen. *)
let drain t =
  let seen = ref [] in
  let now = ref 0 in
  while not (Netsim.done_all t) do
    ignore (Netsim.advance t ~now:!now);
    let rec pump () =
      match Netsim.accept t ~now:!now with
      | Some c ->
          seen := (c.Netsim.client, c.Netsim.arrived) :: !seen;
          Netsim.write t c.Netsim.conn_id "ok" ~now:(!now + 10);
          Netsim.close t c.Netsim.conn_id ~now:(!now + 20);
          pump ()
      | None -> ()
    in
    pump ();
    now := !now + 500
  done;
  List.rev !seen

let test_poisson_deterministic () =
  let arr = Netsim.Poisson { rate = 2_000_000.0; seed = 42 } in
  let a = drain (mk_open arr) and b = drain (mk_open arr) in
  Alcotest.(check int) "all issued" 50 (List.length a);
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = drain (mk_open (Netsim.Poisson { rate = 2_000_000.0; seed = 7 })) in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  (* gaps average out near the configured rate: 50 reqs at 2M/s ~ 25k cycles *)
  let last = List.fold_left (fun _ (_, t) -> t) 0 a in
  Alcotest.(check bool) "span in the right decade" true
    (last > 5_000 && last < 250_000)

let test_burst_grouping () =
  let t = mk_open ~limit:40 (Netsim.Burst { rate = 1_000_000.0; size = 8; seed = 3 }) in
  let sched = drain t in
  Alcotest.(check int) "all issued" 40 (List.length sched);
  (* arrivals come in groups of [size] sharing one timestamp *)
  let module M = Map.Make (Int) in
  let groups =
    List.fold_left
      (fun m (_, at) -> M.update at (fun n -> Some (1 + Option.value n ~default:0)) m)
      M.empty sched
  in
  M.iter
    (fun _ n ->
      if n mod 8 <> 0 then Alcotest.failf "burst of %d not a multiple of 8" n)
    groups;
  Alcotest.(check int) "5 fronts" 5 (M.cardinal groups)

let test_queue_bound_drops () =
  let t =
    mk_open ~limit:20 ~queue_cap:5
      (Netsim.Poisson { rate = 1_000_000.0; seed = 1 })
  in
  (* never accept: the queue fills to its bound, the rest drop *)
  ignore (Netsim.advance t ~now:100_000_000);
  Alcotest.(check int) "queue holds the cap" 5 (Netsim.queue_depth t);
  Alcotest.(check int) "rest dropped" 15 (Netsim.dropped t);
  Alcotest.(check bool) "queued requests still outstanding" false
    (Netsim.done_all t);
  for _ = 1 to 5 do
    match Netsim.accept t ~now:100_000_000 with
    | Some c -> Netsim.close t c.Netsim.conn_id ~now:100_000_100
    | None -> Alcotest.fail "queue emptied early"
  done;
  Alcotest.(check bool) "all requests accounted for" true (Netsim.done_all t);
  Alcotest.(check int) "queue peak recorded" 5 (Netsim.queue_peak t)

let test_queue_timeout () =
  let t =
    mk_open ~limit:10 ~queue_timeout:1_000
      (Netsim.Poisson { rate = 1_000_000.0; seed = 9 })
  in
  ignore (Netsim.advance t ~now:1_000_000);
  (* everything queued has waited > 1000 cycles by 100ms in *)
  ignore (Netsim.advance t ~now:100_000_000);
  Alcotest.(check int) "stale entries expired" 10 (Netsim.timed_out t);
  Alcotest.(check int) "queue empty" 0 (Netsim.queue_depth t);
  Alcotest.(check bool) "timeouts complete the run" true (Netsim.done_all t)

let test_keepalive_churn () =
  let t =
    mk_open ~limit:40 ~keepalive:2 (Netsim.Poisson { rate = 2_000_000.0; seed = 5 })
  in
  let sched = drain t in
  Alcotest.(check int) "all served" 40 (Netsim.completed t);
  (* 4 slots x budget 2 = 8 requests on the founding identities; every
     further slot reuse churned in a fresh client id *)
  Alcotest.(check int) "churn accounted" 16 (Netsim.churned t);
  let distinct =
    List.sort_uniq compare (List.map fst sched) |> List.length
  in
  Alcotest.(check int) "fresh identities appear" 20 distinct

(* ---- Fed arrivals: the shard tier's interface ---- *)

let test_fed_socket () =
  let t =
    Netsim.create ~arrivals:Netsim.Fed ~n_clients:1 (fun _ ->
        "GET / HTTP/1.1\r\n\r\n")
  in
  Netsim.feed t ~at:100 ~client:0 ~request:"GET /a HTTP/1.1\r\n\r\n";
  Netsim.feed t ~at:300 ~client:1 ~request:"GET /b HTTP/1.1\r\n\r\n";
  Alcotest.(check bool) "not done while the feed is open" false
    (Netsim.done_all t);
  ignore (Netsim.advance t ~now:200);
  (match Netsim.accept t ~now:200 with
  | Some c ->
      Alcotest.(check string) "the fed payload is served"
        "GET /a HTTP/1.1\r\n\r\n" c.Netsim.request;
      Alcotest.(check int) "the fed client identity sticks" 0 c.Netsim.client;
      Netsim.close t c.Netsim.conn_id ~now:250
  | None -> Alcotest.fail "fed arrival not materialised");
  Netsim.close_feed t;
  Alcotest.check_raises "feed after close rejected"
    (Invalid_argument "Netsim.feed: feed already closed") (fun () ->
      Netsim.feed t ~at:400 ~client:0 ~request:"x");
  Alcotest.(check bool) "backlog keeps it alive" false (Netsim.done_all t);
  ignore (Netsim.advance t ~now:400);
  (match Netsim.accept t ~now:400 with
  | Some c -> Netsim.close t c.Netsim.conn_id ~now:450
  | None -> Alcotest.fail "second fed arrival not materialised");
  Alcotest.(check bool) "done once drained" true (Netsim.done_all t);
  Alcotest.check_raises "feed on a non-Fed socket rejected"
    (Invalid_argument "Netsim.feed: socket was not created with Fed arrivals")
    (fun () ->
      Netsim.feed
        (mk_open (Netsim.Poisson { rate = 1000.0; seed = 1 }))
        ~at:0 ~client:0 ~request:"x")

(* The pure generator must reproduce exactly the arrivals a live socket
   with the same parameters materialises. *)
let test_schedule_matches_socket () =
  let arrivals = Netsim.Poisson { rate = 2_000_000.0; seed = 42 } in
  let entries, churned =
    Netsim.schedule ~keepalive:8 ~arrivals ~n_clients:4 ~requests:50 (fun c ->
        Printf.sprintf "GET /c%d HTTP/1.1\r\n\r\n" c)
  in
  Alcotest.(check int) "every request scheduled" 50 (Array.length entries);
  let live = drain (mk_open ~keepalive:8 arrivals) in
  Alcotest.(check (list (pair int int))) "same (client, at) schedule"
    (List.map (fun e -> (e.Netsim.se_client, e.Netsim.se_at)) (Array.to_list entries))
    live;
  Alcotest.(check bool) "monotone arrival times" true
    (Array.for_all2
       (fun a b -> a.Netsim.se_at <= b.Netsim.se_at)
       (Array.sub entries 0 49)
       (Array.sub entries 1 49));
  let entries2, churned2 =
    Netsim.schedule ~keepalive:8 ~arrivals ~n_clients:4 ~requests:50 (fun c ->
        Printf.sprintf "GET /c%d HTTP/1.1\r\n\r\n" c)
  in
  Alcotest.(check bool) "generator deterministic" true
    (entries = entries2 && churned = churned2);
  Alcotest.check_raises "closed-loop schedule rejected"
    (Invalid_argument "Netsim.schedule: needs Poisson or Burst arrivals")
    (fun () ->
      ignore
        (Netsim.schedule ~arrivals:Netsim.Closed ~n_clients:1 ~requests:1
           (fun _ -> "x")))

(* Fed-socket accounting and the completion log's virtual-time stamps. *)
let test_stamp_accessors () =
  let t =
    Netsim.create ~arrivals:Netsim.Fed ~queue_cap:1 ~queue_timeout:500
      ~n_clients:1
      (fun _ -> "GET / HTTP/1.1\r\n\r\n")
  in
  Netsim.feed t ~at:100 ~client:0 ~request:"a";
  Netsim.feed t ~at:110 ~client:1 ~request:"b";
  (* cap 1: the second arrival drops *)
  ignore (Netsim.advance t ~now:150);
  Alcotest.(check int) "dropped at the full queue" 1 (Netsim.dropped t);
  (* the queued arrival expires 500 cycles after it arrived *)
  ignore (Netsim.advance t ~now:599);
  Alcotest.(check int) "not expired before its deadline" 0
    (Netsim.timed_out t);
  ignore (Netsim.advance t ~now:2_000);
  Alcotest.(check int) "expired past its deadline" 1 (Netsim.timed_out t);
  (* completions: stamp, total order, last_completion *)
  Netsim.feed t ~at:2_100 ~client:2 ~request:"c";
  Netsim.close_feed t;
  ignore (Netsim.advance t ~now:2_200);
  (match Netsim.accept t ~now:2_200 with
  | Some c -> Netsim.close t c.Netsim.conn_id ~now:2_300
  | None -> Alcotest.fail "third arrival not materialised");
  Alcotest.(check int) "last completion" 2_300 (Netsim.last_completion t);
  (match Netsim.completion_log t with
  | [ (fin, _, client) ] ->
      Alcotest.(check (pair int int)) "log entry" (2_300, 2) (fin, client)
  | l -> Alcotest.failf "unexpected completion log length %d" (List.length l));
  Alcotest.(check bool) "everything accounted, socket done" true
    (Netsim.done_all t)

let test_stat_guards () =
  (* no completions: both stats answer 0, never NaN/infinity *)
  let t = mk_open ~limit:5 (Netsim.Poisson { rate = 1_000_000.0; seed = 2 }) in
  Alcotest.(check (float 0.0)) "throughput, no completions" 0.0
    (Netsim.throughput t);
  Alcotest.(check (float 0.0)) "latency, no completions" 0.0
    (Netsim.mean_latency t);
  Alcotest.(check (float 0.0)) "achieved load, no completions" 0.0
    (Netsim.achieved_load t);
  (* fewer than four completions: whole-span fallback, still finite *)
  ignore (Netsim.advance t ~now:1_000_000);
  (match Netsim.accept t ~now:1_000_000 with
  | Some c -> Netsim.close t c.Netsim.conn_id ~now:1_000_100
  | None -> Alcotest.fail "expected a queued connection");
  let tp = Netsim.throughput t in
  Alcotest.(check bool) "single completion finite" true
    (Float.is_finite tp && tp >= 0.0);
  Alcotest.(check bool) "single-completion latency finite" true
    (Float.is_finite (Netsim.mean_latency t));
  let ar = Netsim.achieved_load t in
  Alcotest.(check bool) "single-completion achieved rate finite" true
    (Float.is_finite ar && ar > 0.0);
  Alcotest.(check (float 1e-9)) "offered load echoes config" 1_000_000.0
    (Netsim.offered_load t)

let test_lifecycle_hook () =
  let t = mk_open ~limit:3 (Netsim.Poisson { rate = 1_000_000.0; seed = 11 }) in
  let fired = ref [] in
  Netsim.set_on_close t (fun c ~now ->
      fired := (c.Netsim.conn_id, c.Netsim.accepted_at, c.Netsim.first_byte_at, now) :: !fired);
  ignore (drain t);
  Alcotest.(check int) "hook fired per completion" 3 (List.length !fired);
  List.iter
    (fun (_, accepted, first_byte, closed) ->
      Alcotest.(check bool) "accept stamped" true (accepted > 0);
      Alcotest.(check bool) "first byte after accept" true
        (first_byte >= accepted);
      Alcotest.(check bool) "close last" true (closed >= first_byte))
    !fired;
  Alcotest.check_raises "bad rate rejected"
    (Invalid_argument "Netsim.create: offered load <= 0") (fun () ->
      ignore (mk_open (Netsim.Poisson { rate = 0.0; seed = 0 })))

let suite =
  [
    Alcotest.test_case "arrivals and accept" `Quick test_arrivals;
    Alcotest.test_case "closed loop" `Quick test_closed_loop;
    Alcotest.test_case "request limit" `Quick test_request_limit;
    Alcotest.test_case "throughput measurement" `Quick test_throughput_measure;
    Alcotest.test_case "poisson determinism" `Quick test_poisson_deterministic;
    Alcotest.test_case "burst grouping" `Quick test_burst_grouping;
    Alcotest.test_case "bounded queue drops" `Quick test_queue_bound_drops;
    Alcotest.test_case "queue timeout" `Quick test_queue_timeout;
    Alcotest.test_case "keep-alive churn" `Quick test_keepalive_churn;
    Alcotest.test_case "fed socket" `Quick test_fed_socket;
    Alcotest.test_case "schedule generator matches socket" `Quick
      test_schedule_matches_socket;
    Alcotest.test_case "virtual-time stamp accessors" `Quick
      test_stamp_accessors;
    Alcotest.test_case "stat guards" `Quick test_stat_guards;
    Alcotest.test_case "lifecycle hook" `Quick test_lifecycle_hook;
  ]
