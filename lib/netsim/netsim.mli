(** Virtual sockets plus the client populations that drive them.

    Closed loop (default): each of the [n_clients] clients sends a request,
    waits for the response and re-issues [think_cycles] later — the
    measurement loop of the paper's Section 5.3 WEBrick/Rails experiments,
    in virtual time.

    Open loop ([Poisson] / [Burst] arrivals): requests arrive on a schedule
    independent of the server, at a configured offered load in requests per
    second at the 1 GHz virtual clock. The schedule is a pure function of
    the seed (drawn from a dedicated {!Htm_sim.Prng}), so it is identical
    across schedulers and worker counts. Keep-alive client slots churn to
    fresh identities every [keepalive] requests; the accept queue holds at
    most [queue_cap] connections (arrivals beyond it count as dropped) and
    queued requests expire after [queue_timeout] cycles un-accepted.
    Open-loop measurement avoids the closed loop's coordinated omission:
    arrivals keep coming while the server struggles, so queueing delay
    shows up in the latency tail instead of silently throttling the load.

    Fed arrivals: the shard tier splits one global open-loop
    {!schedule} round-robin across per-shard sockets, pushes each shard's
    whole slice with {!feed} and calls {!close_feed} before the shard
    runs. *)

type arrivals =
  | Closed  (** the think-time closed loop *)
  | Poisson of { rate : float; seed : int }
      (** memoryless arrivals at [rate] requests per virtual second *)
  | Burst of { rate : float; size : int; seed : int }
      (** groups of [size] simultaneous arrivals, fronts exponentially
          spaced so the long-run offered load is still [rate] *)
  | Fed
      (** arrivals pushed via {!feed}: the shard tier splits one
          globally-generated schedule across N per-shard sockets *)

type mix = (string * int * (int -> string)) list
(** Weighted request classes [(name, weight, per-client builder)]. With a
    non-empty mix, every issued open-loop arrival draws its class from a
    dedicated Prng stream derived from the arrival seed — one draw per
    arrival, dropped or not, so the class sequence is a pure function of
    the seed, and the arrival schedule itself is untouched (mixed and
    unmixed runs compare under identical offered load). *)

type conn = {
  conn_id : int;
  client : int;
  request : string;
  arrived : int;  (** cycle the request hit the accept queue *)
  mutable accepted_at : int;  (** cycle the server accepted it (0 = never) *)
  mutable first_byte_at : int;  (** cycle of the first response write *)
  mutable served_by : int;  (** guest tid that accepted it, -1 = none *)
  mutable closed : bool;
}

type t

val create :
  ?think_cycles:int ->
  ?request_limit:int ->
  ?arrivals:arrivals ->
  ?queue_cap:int ->
  ?queue_timeout:int ->
  ?keepalive:int ->
  ?mix:mix ->
  n_clients:int ->
  (int -> string) ->
  t
(** [create ~n_clients make_request]: [make_request client] builds each
    request payload. [arrivals] defaults to [Closed]; [queue_cap],
    [queue_timeout] and [keepalive] default to unbounded and only matter
    for open-loop modes. A non-empty [mix] replaces [make_request] with a
    weighted per-arrival class draw (open-loop arrivals only).
    @raise Invalid_argument on a non-positive rate, burst size or mix
    weight, or a mix without open-loop arrivals. *)

val next_arrival : t -> int option
(** Earliest future cycle a new request can arrive, if any. *)

val advance : t -> now:int -> bool
(** Materialise every request due by [now] into the accept queue (dropping
    past the queue bound and expiring timed-out entries in open-loop
    modes); true if anything was enqueued. *)

val accept : ?now:int -> ?tid:int -> t -> conn option
(** Pop the oldest queued connection. [now] stamps [accepted_at] (and
    expires timed-out entries first); [tid] records the accepting guest
    thread for per-request trace spans. *)

val conn : t -> int -> conn option

val write : ?now:int -> t -> int -> string -> unit
(** Write a response chunk: [now] stamps [first_byte_at] on the first
    write. The bytes are not kept. *)

val close : t -> int -> now:int -> unit
(** Completes the request (closed-loop clients schedule their next send)
    and fires the {!set_on_close} hook before the connection is dropped. *)

val set_on_close : t -> (conn -> now:int -> unit) -> unit
(** Install a completion hook: called once per completed request, before
    the connection is removed. The runner uses it to record latency
    histograms and lifecycle trace spans without netsim depending on the
    observability layer. *)

val completed : t -> int

val done_all : t -> bool
(** Every one of the [request_limit] requests is accounted for: completed,
    dropped at the full queue, or timed out waiting. A [Fed] socket is done
    when the feed is closed, the backlog drained and every issued request
    resolved. *)

val issued : t -> int
val dropped : t -> int
val timed_out : t -> int
val churned : t -> int
val queue_depth : t -> int
val in_flight : t -> int

val queue_peak : t -> int
(** High-watermark of the accept-queue depth. *)

val in_flight_peak : t -> int
(** High-watermark of accepted-but-unfinished requests. *)

val offered_load : t -> float
(** Configured open-loop rate in requests per second; 0 for closed loop. *)

val throughput : t -> float
(** Requests per second at the 1 GHz virtual clock, measured over the
    middle half of the run (the paper reports peak throughput). Total:
    runs with zero (or fewer than four) completions answer 0 or use the
    whole span, never NaN/infinity. *)

val achieved_load : t -> float
(** Requests per second over the whole span up to the last close — the
    open-loop "achieved" rate. Under saturation the bounded queue drains
    in bursts whose instantaneous rate can dwarf the offered load, so the
    middle-half {!throughput} window is wrong here; 0 with no
    completions. *)

val mean_latency : t -> float
(** Mean completion latency in cycles; 0 with no completions. *)

(** {2 Fed arrivals — the shard tier's interface} *)

val feed : t -> at:int -> client:int -> request:string -> unit
(** Push one assigned arrival onto a [Fed] socket's backlog. The shard
    tier replays a time-sorted schedule, so calls must come in
    non-decreasing [at] order. @raise Invalid_argument on a non-[Fed]
    socket or after {!close_feed}. *)

val close_feed : t -> unit
(** No further {!feed} calls will come: lets {!done_all} turn true. *)

val completion_log : t -> (int * int * int) list
(** [(finish cycle, conn id, client)] per completion, oldest first; conn
    ids give equal-stamp completions a deterministic total order. *)

val last_completion : t -> int
(** Finish cycle of the latest completion; 0 with none. *)

val mix_counts : t -> (string * int) list
(** Issued arrivals per request class, in mix order; [[]] without a mix. *)

(** {2 The pure schedule generator} *)

type sched_entry = {
  se_at : int;  (** arrival cycle *)
  se_client : int;  (** keep-alive client identity (already churned) *)
  se_request : string;  (** request payload (mix class already drawn) *)
}

val schedule :
  ?mix:mix ->
  ?keepalive:int ->
  arrivals:arrivals ->
  n_clients:int ->
  requests:int ->
  (int -> string) ->
  sched_entry array * int
(** The full open-loop arrival schedule as data, plus the churn count:
    exactly the arrivals a single socket with the same parameters would
    materialise (implemented by draining one, so keep-alive / churn / mix
    semantics cannot diverge). The shard balancer splits this one global
    schedule across per-shard [Fed] sockets.
    @raise Invalid_argument unless [arrivals] is [Poisson] or [Burst]. *)
