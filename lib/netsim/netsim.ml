(* Virtual sockets and the client populations that drive them.

   Two load-generation modes share one accept queue:

   - Closed loop (the paper's measurement setup): k concurrent clients,
     each sending a request, waiting for the response, then re-issuing
     [think_cycles] after its previous response (Section 5.3: peak
     throughput of 30,000 requests for a 46-byte page). Throughput is
     self-limiting: a slow server slows the clients down with it.

   - Open loop: arrivals follow a schedule that does not depend on the
     server at all — deterministic Poisson or bursty arrivals at a
     configured offered load (requests per second at the 1 GHz virtual
     clock), drawn from an explicitly seeded [Htm_sim.Prng]. The arrival
     schedule is a pure function of the seed, so it is identical across
     schedulers and worker counts. Open-loop clients keep connections
     alive for [keepalive] requests and then churn (a fresh client
     identity takes the slot); the accept queue is bounded
     by [queue_cap] (beyond it arrivals are counted as dropped) and
     queued requests time out after [queue_timeout] cycles un-accepted.
     This is the load model under which tail latency means something:
     closed-loop clients stop sending while the server struggles
     (coordinated omission), open-loop arrivals do not. *)

type arrivals =
  | Closed
  | Poisson of { rate : float; seed : int }
  | Burst of { rate : float; size : int; seed : int }
  | Fed
      (** arrivals are pushed by a load balancer via [feed]: the shard tier
          splits one globally-generated schedule across N per-shard sockets *)

(* A weighted request class: (name, weight, per-client request builder).
   With a non-empty mix, every issued open-loop arrival draws its class
   from the arrival Prng — one extra draw per arrival, dropped or not, so
   the class stream stays aligned with the gap stream whatever the server
   does. *)
type mix = (string * int * (int -> string)) list

type conn = {
  conn_id : int;
  client : int;
  request : string;
  mutable response : string list;  (** chunks, newest first *)
  arrived : int;  (** cycle the request hit the accept queue *)
  mutable accepted_at : int;  (** cycle the server accepted it (0 = never) *)
  mutable first_byte_at : int;  (** cycle of the first response write *)
  mutable served_by : int;  (** guest tid that accepted it, -1 = none *)
  mutable closed : bool;
  mutable completed_at : int;
}

type t = {
  n_clients : int;
  think_cycles : int;
  make_request : int -> string;  (** client id -> request payload *)
  request_limit : int;
  arrivals : arrivals;
  prng : Htm_sim.Prng.t;  (** arrival-schedule randomness (open loop only) *)
  queue_cap : int;
  queue_timeout : int;
  keepalive : int;
  mutable next_conn_id : int;
  mutable client_free_at : int array;  (** next send time per client *)
  mutable client_busy : bool array;  (** request in flight *)
  (* open-loop state *)
  mutable next_open : int;  (** cycle of the next scheduled arrival *)
  mutable burst_left : int;  (** arrivals left in the current burst group *)
  slot_client : int array;  (** current client identity per keep-alive slot *)
  slot_budget : int array;  (** requests left before the slot churns *)
  mutable next_client : int;  (** next fresh client identity *)
  mutable churned : int;
  mutable dropped : int;  (** arrivals refused by the bounded queue *)
  mutable timed_out : int;  (** queued requests that expired un-accepted *)
  mutable in_flight : int;  (** accepted and not yet closed *)
  mutable queue_peak : int;
  mutable in_flight_peak : int;
  mutable on_close : conn -> now:int -> unit;
  mutable issued : int;
  pending : conn Queue.t;  (** accepted queue of the single listener *)
  conns : (int, conn) Hashtbl.t;
  mutable completed : int;
  mutable completions : (int * int) list;  (** (finish cycle, latency) *)
  (* request mix (open loop only) *)
  mix : mix;
  mix_total : int;  (** sum of weights; 0 = no mix *)
  mix_counts : int array;  (** issued arrivals per class *)
  mix_prng : Htm_sim.Prng.t;
      (** class-draw randomness, derived from the arrival seed but its own
          stream: enabling a mix never perturbs the arrival schedule, so
          mixed and unmixed runs compare under identical offered load *)
  (* fed-arrivals state: the balancer's assigned sub-schedule *)
  feed_q : (int * int * string) Queue.t;  (** (at, client, request) *)
  mutable feed_closed : bool;  (** no further [feed] calls will come *)
  (* virtual-time stamps, so shard balancers can observe state "as of
     cycle T" independently of how far any runner has overshot T *)
  mutable drop_stamps : int list;  (** arrival cycle of each refused request *)
  mutable timeout_stamps : int list;  (** [arrived + queue_timeout] of each expiry *)
  mutable completion_log : (int * int * int) list;
      (** (finish cycle, conn id, client) — conn ids give equal-stamp
          completions a deterministic total order *)
}

(* Exponential inter-arrival gap with the given mean, in whole cycles,
   never zero (two draws can still land on the same cycle only through a
   burst group). [Prng.float] is uniform in [0,1), so [1 - u] never hits 0. *)
let exp_gap t mean =
  let u = Htm_sim.Prng.float t.prng in
  max 1 (int_of_float (ceil (-.log (1.0 -. u) *. mean)))

let create ?(think_cycles = 2_000) ?(request_limit = max_int)
    ?(arrivals = Closed) ?(queue_cap = max_int) ?(queue_timeout = max_int)
    ?(keepalive = max_int) ?(mix = []) ~n_clients make_request =
  let seed =
    match arrivals with
    | Closed | Fed -> 0
    | Poisson { rate; seed } | Burst { rate; seed; _ } ->
        if rate <= 0.0 then invalid_arg "Netsim.create: offered load <= 0";
        seed
  in
  (match arrivals with
  | Burst { size; _ } when size <= 0 ->
      invalid_arg "Netsim.create: burst size <= 0"
  | _ -> ());
  (match (mix, arrivals) with
  | [], _ | _, (Poisson _ | Burst _) -> ()
  | _ -> invalid_arg "Netsim.create: request mixes need open-loop arrivals");
  List.iter
    (fun (name, w, _) ->
      if w <= 0 then
        invalid_arg
          (Printf.sprintf "Netsim.create: mix weight for %S must be positive"
             name))
    mix;
  let t =
    {
    n_clients;
    think_cycles;
    make_request;
    request_limit;
    arrivals;
    prng = Htm_sim.Prng.create seed;
    queue_cap;
    queue_timeout;
    keepalive = max 1 keepalive;
    next_conn_id = 1;
    client_free_at = Array.make n_clients 0;
    client_busy = Array.make n_clients false;
    next_open = 0;
    burst_left = (match arrivals with Burst { size; _ } -> size | _ -> 0);
    slot_client = Array.init n_clients (fun i -> i);
    slot_budget = Array.make n_clients (max 1 keepalive);
    next_client = n_clients;
    churned = 0;
    dropped = 0;
    timed_out = 0;
    in_flight = 0;
    queue_peak = 0;
    in_flight_peak = 0;
    on_close = (fun _ ~now:_ -> ());
      issued = 0;
      pending = Queue.create ();
      conns = Hashtbl.create 64;
      completed = 0;
      completions = [];
      mix;
      mix_total = List.fold_left (fun acc (_, w, _) -> acc + w) 0 mix;
      mix_counts = Array.make (max 1 (List.length mix)) 0;
      mix_prng = Htm_sim.Prng.create (seed lxor 0x6D6978 (* "mix" *));
      feed_q = Queue.create ();
      feed_closed = false;
      drop_stamps = [];
      timeout_stamps = [];
      completion_log = [];
    }
  in
  (* the first open-loop arrival waits one inter-arrival gap, so no request
     lands on cycle 0 (the "never stamped" sentinel of the lifecycle
     fields) and the schedule is exponential from the start *)
  (match arrivals with
  | Closed | Fed -> ()
  | Poisson { rate; _ } -> t.next_open <- exp_gap t (1e9 /. rate)
  | Burst { rate; size; _ } ->
      t.next_open <- exp_gap t (1e9 /. rate *. float_of_int size));
  t

let set_on_close t f = t.on_close <- f

(* Advance the open-loop schedule past the arrival just issued. *)
let schedule_next t =
  match t.arrivals with
  | Closed | Fed -> ()
  | Poisson { rate; _ } -> t.next_open <- t.next_open + exp_gap t (1e9 /. rate)
  | Burst { rate; size; _ } ->
      if t.burst_left > 1 then t.burst_left <- t.burst_left - 1
      else begin
        (* gap between burst fronts keeps the configured offered load *)
        t.burst_left <- size;
        t.next_open <-
          t.next_open + exp_gap t (1e9 /. rate *. float_of_int size)
      end

(* The weighted class draw for this arrival. One Prng draw per issued
   arrival, taken whether or not the request survives the queue bound, so
   the class stream is a pure function of the seed. *)
let draw_class t =
  let r = Htm_sim.Prng.int t.mix_prng t.mix_total in
  let rec pick i acc = function
    | [] -> i - 1
    | (_, w, _) :: rest -> if r < acc + w then i else pick (i + 1) (acc + w) rest
  in
  let cls = pick 0 0 t.mix in
  t.mix_counts.(cls) <- t.mix_counts.(cls) + 1;
  cls

let class_request t cls client =
  if cls < 0 then t.make_request client
  else
    let _, _, builder = List.nth t.mix cls in
    builder client

(* Earliest future time a new request can arrive, if any. *)
let next_arrival t =
  match t.arrivals with
  | Closed ->
      let best = ref None in
      for c = 0 to t.n_clients - 1 do
        if (not t.client_busy.(c)) && t.issued < t.request_limit then
          match !best with
          | None -> best := Some t.client_free_at.(c)
          | Some b ->
              if t.client_free_at.(c) < b then best := Some t.client_free_at.(c)
      done;
      !best
  | Poisson _ | Burst _ ->
      if t.issued < t.request_limit then Some t.next_open else None
  | Fed -> ( match Queue.peek_opt t.feed_q with
    | Some (at, _, _) -> Some at
    | None -> None)

(* The client identity of the next open-loop arrival: keep-alive slots
   round-robin, and a slot that has spent its budget churns to a fresh
   identity. *)
let open_client t =
  let slot = t.issued mod t.n_clients in
  if t.slot_budget.(slot) <= 0 then begin
    t.slot_client.(slot) <- t.next_client;
    t.next_client <- t.next_client + 1;
    t.slot_budget.(slot) <- t.keepalive;
    t.churned <- t.churned + 1
  end;
  t.slot_budget.(slot) <- t.slot_budget.(slot) - 1;
  t.slot_client.(slot)

let enqueue t conn =
  Hashtbl.add t.conns conn.conn_id conn;
  Queue.add conn t.pending;
  let d = Queue.length t.pending in
  if d > t.queue_peak then t.queue_peak <- d

(* Expire queued requests older than [queue_timeout]. The queue is FIFO in
   arrival order, so the expired ones are at the front. *)
let purge_expired t ~now =
  if t.queue_timeout < max_int then begin
    let continue_ = ref true in
    while !continue_ && not (Queue.is_empty t.pending) do
      let c = Queue.peek t.pending in
      if now - c.arrived >= t.queue_timeout then begin
        ignore (Queue.pop t.pending);
        c.closed <- true;
        Hashtbl.remove t.conns c.conn_id;
        t.timed_out <- t.timed_out + 1;
        (* the logical expiry instant, not the purge call's [now]: accept
           always purges first, so whether a request times out is a pure
           function of virtual time and the stamp must be too *)
        t.timeout_stamps <- (c.arrived + t.queue_timeout) :: t.timeout_stamps
      end
      else continue_ := false
    done
  end

(* Materialise every request due at or before [now] into the accept queue.
   Returns true if new connections arrived. *)
let advance t ~now =
  match t.arrivals with
  | Closed ->
      let arrived = ref false in
      for c = 0 to t.n_clients - 1 do
        if
          (not t.client_busy.(c))
          && t.client_free_at.(c) <= now
          && t.issued < t.request_limit
        then begin
          t.client_busy.(c) <- true;
          t.issued <- t.issued + 1;
          let conn =
            {
              conn_id = t.next_conn_id;
              client = c;
              request = t.make_request c;
              response = [];
              arrived = max now t.client_free_at.(c);
              accepted_at = 0;
              first_byte_at = 0;
              served_by = -1;
              closed = false;
              completed_at = 0;
            }
          in
          t.next_conn_id <- t.next_conn_id + 1;
          enqueue t conn;
          arrived := true
        end
      done;
      !arrived
  | Poisson _ | Burst _ ->
      purge_expired t ~now;
      let arrived = ref false in
      while t.issued < t.request_limit && t.next_open <= now do
        let at = t.next_open in
        t.issued <- t.issued + 1;
        (* the class draw happens for every issued arrival — dropped or not
           — so the class stream stays aligned with the gap stream *)
        let cls = if t.mix_total > 0 then draw_class t else -1 in
        if Queue.length t.pending >= t.queue_cap then begin
          (* bounded accept queue: the listener's backlog is full, the
             kernel refuses the connection *)
          t.dropped <- t.dropped + 1;
          t.drop_stamps <- at :: t.drop_stamps
        end
        else begin
          let client = open_client t in
          let conn =
            {
              conn_id = t.next_conn_id;
              client;
              request = class_request t cls client;
              response = [];
              arrived = at;
              accepted_at = 0;
              first_byte_at = 0;
              served_by = -1;
              closed = false;
              completed_at = 0;
            }
          in
          t.next_conn_id <- t.next_conn_id + 1;
          enqueue t conn;
          arrived := true
        end;
        schedule_next t
      done;
      !arrived
  | Fed ->
      purge_expired t ~now;
      let arrived = ref false in
      let continue_ = ref true in
      while !continue_ do
        match Queue.peek_opt t.feed_q with
        | Some (at, client, request) when at <= now ->
            ignore (Queue.pop t.feed_q);
            t.issued <- t.issued + 1;
            if Queue.length t.pending >= t.queue_cap then begin
              t.dropped <- t.dropped + 1;
              t.drop_stamps <- at :: t.drop_stamps
            end
            else begin
              let conn =
                {
                  conn_id = t.next_conn_id;
                  client;
                  request;
                  response = [];
                  arrived = at;
                  accepted_at = 0;
                  first_byte_at = 0;
                  served_by = -1;
                  closed = false;
                  completed_at = 0;
                }
              in
              t.next_conn_id <- t.next_conn_id + 1;
              enqueue t conn;
              arrived := true
            end
        | _ -> continue_ := false
      done;
      !arrived

let accept ?now ?(tid = -1) t =
  (match now with Some n -> purge_expired t ~now:n | None -> ());
  if Queue.is_empty t.pending then None
  else begin
    let c = Queue.pop t.pending in
    c.accepted_at <- (match now with Some n -> n | None -> c.arrived);
    c.served_by <- tid;
    t.in_flight <- t.in_flight + 1;
    if t.in_flight > t.in_flight_peak then t.in_flight_peak <- t.in_flight;
    Some c
  end

let conn t id = Hashtbl.find_opt t.conns id

let write ?now t id chunk =
  match conn t id with
  | Some c ->
      (match now with
      | Some n when c.first_byte_at = 0 -> c.first_byte_at <- n
      | _ -> ());
      c.response <- chunk :: c.response
  | None -> ()

(* Closing the connection completes the request. A closed-loop client reads
   the response and schedules its next send; open-loop arrivals are not
   coupled to completions. *)
let close t id ~now =
  match conn t id with
  | Some c when not c.closed ->
      c.closed <- true;
      c.completed_at <- now;
      t.completed <- t.completed + 1;
      t.completions <- (now, now - c.arrived) :: t.completions;
      t.completion_log <- (now, c.conn_id, c.client) :: t.completion_log;
      t.in_flight <- max 0 (t.in_flight - 1);
      (match t.arrivals with
      | Closed ->
          t.client_busy.(c.client) <- false;
          t.client_free_at.(c.client) <- now + t.think_cycles
      | Poisson _ | Burst _ | Fed -> ());
      t.on_close c ~now;
      Hashtbl.remove t.conns id
  | _ -> ()

let completed t = t.completed

(* Every issued request is eventually completed, dropped or timed out; in
   the closed loop only completions happen, so this reduces to the old
   [completed >= request_limit]. Fed sockets have no request limit of
   their own: they are done when the balancer has closed the feed and
   everything assigned has been resolved. *)
let done_all t =
  match t.arrivals with
  | Closed | Poisson _ | Burst _ ->
      t.completed + t.dropped + t.timed_out >= t.request_limit
  | Fed ->
      t.feed_closed
      && Queue.is_empty t.feed_q
      && t.completed + t.dropped + t.timed_out >= t.issued

let issued t = t.issued
let dropped t = t.dropped
let timed_out t = t.timed_out
let churned t = t.churned
let queue_depth t = Queue.length t.pending
let in_flight t = t.in_flight
let queue_peak t = t.queue_peak
let in_flight_peak t = t.in_flight_peak

let offered_load t =
  match t.arrivals with
  | Closed | Fed -> 0.0
  | Poisson { rate; _ } | Burst { rate; _ } -> rate

(* --- the fed-arrivals interface used by the shard load balancer --- *)

let feed t ~at ~client ~request =
  (match t.arrivals with
  | Fed -> ()
  | _ -> invalid_arg "Netsim.feed: socket was not created with Fed arrivals");
  if t.feed_closed then invalid_arg "Netsim.feed: feed already closed";
  Queue.add (at, client, request) t.feed_q

let close_feed t = t.feed_closed <- true

(* True while the balancer may still push arrivals: an idle runner must
   pause rather than declare deadlock. *)
let feed_may_grow t = t.arrivals = Fed && not t.feed_closed

(* --- virtual-time-stamped observations ---

   A shard runner paused at horizon H may have overshot H by the cost of
   one run-ahead slice, and by *different amounts* under different
   schedulers. Raw counters at a barrier are therefore placement- and
   scheduler-dependent; counts filtered by stamp <= H are pure
   functions of virtual time and safe for balancer decisions. *)

let completed_by t ~time =
  List.fold_left
    (fun acc (fin, _, _) -> if fin <= time then acc + 1 else acc)
    0 t.completion_log

let dropped_by t ~time =
  List.fold_left (fun acc at -> if at <= time then acc + 1 else acc) 0
    t.drop_stamps

let timed_out_by t ~time =
  List.fold_left (fun acc at -> if at <= time then acc + 1 else acc) 0
    t.timeout_stamps

(* (finish cycle, conn id, client), oldest first. *)
let completion_log t = List.rev t.completion_log

let last_completion t =
  List.fold_left (fun acc (fin, _, _) -> max acc fin) 0 t.completion_log

let mix_counts t =
  List.mapi (fun i (name, _, _) -> (name, t.mix_counts.(i))) t.mix

(* --- the pure schedule generator ---

   The shard tier generates ONE global arrival schedule (identical to what
   a single socket with the same parameters would produce) and splits it
   across shards; this factors the open-loop arrival logic out of the
   socket so the split is a pure function of the seed. Implemented by
   draining an internal unbounded socket, so churn/keep-alive/mix
   semantics can never diverge from the served path. *)

type sched_entry = { se_at : int; se_client : int; se_request : string }

let schedule ?(mix = []) ?keepalive ~arrivals ~n_clients ~requests make_request
    =
  (match arrivals with
  | Poisson _ | Burst _ -> ()
  | Closed | Fed ->
      invalid_arg "Netsim.schedule: needs Poisson or Burst arrivals");
  let t =
    create ~request_limit:requests ~arrivals ?keepalive ~mix ~n_clients
      make_request
  in
  let entries = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match next_arrival t with
    | None -> continue_ := false
    | Some at ->
        ignore (advance t ~now:at);
        Queue.iter
          (fun c ->
            entries :=
              { se_at = c.arrived; se_client = c.client; se_request = c.request }
              :: !entries)
          t.pending;
        Queue.clear t.pending;
        Hashtbl.reset t.conns
  done;
  (Array.of_list (List.rev !entries), t.churned)

(* Requests per second at a 1 GHz virtual clock, measured over the middle of
   the run to avoid warmup/drain artefacts. Total for every input: with no
   completions the answer is 0, with fewer than four the middle half is
   meaningless so the whole span is used ([max 1] keeps the divisor
   positive), and a zero middle-half span also answers 0 — JSON exports
   never see NaN or infinity. *)
let throughput t =
  match t.completions with
  | [] -> 0.0
  | comps ->
      let arr = Array.of_list (List.rev_map fst comps) in
      let n = Array.length arr in
      if n < 4 then float_of_int n /. (float_of_int (max 1 arr.(n - 1)) /. 1e9)
      else begin
        let lo = n / 4 and hi = 3 * n / 4 in
        let dt = float_of_int (arr.(hi) - arr.(lo)) /. 1e9 in
        if dt <= 0.0 then 0.0 else float_of_int (hi - lo) /. dt
      end

(* Open-loop achieved rate: completions over the whole span up to the last
   close. The middle-half window above suits closed loops (constant
   concurrency, warmup/drain artefacts at the edges) but under open-loop
   saturation completions arrive in bursts as the bounded queue drains, and
   an instantaneous burst rate can dwarf the offered load; the full span is
   the honest measure of what the server sustained. *)
let achieved_load t =
  match t.completions with
  | [] -> 0.0
  | (last, _) :: _ ->
      float_of_int t.completed /. (float_of_int (max 1 last) /. 1e9)

let mean_latency t =
  match t.completions with
  | [] -> 0.0
  | comps ->
      let n = List.length comps in
      float_of_int (List.fold_left (fun acc (_, l) -> acc + l) 0 comps)
      /. float_of_int n
