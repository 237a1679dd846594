(** The counters + histogram registry. Register once (by name, idempotent),
    then update through the returned handle so hot paths never re-resolve.

    Histograms are log-linear (HDR-style): values below {!sub_count} get an
    exact bucket each; above that every power-of-two block splits into
    {!sub_count} linear sub-buckets, so a bucket's upper bound is within
    [1/sub_count] (6.25%) of any value it holds — fine enough for p95/p99
    estimates over cycle counts, at flat observation cost.

    Gauges are instantaneous readings used as high-watermarks (peak queue
    depth, peak in-flight requests, peak runnable threads): {!merge} takes
    the maximum across registries, never the sum. *)

type counter = { c_name : string; mutable count : int }

type histogram = {
  buckets : int array;
  mutable n : int;
  mutable sum : int;
  mutable max_v : int;
  mutable min_v : int;
}

type gauge = { g_name : string; mutable value : int }

type metric = Counter of counter | Histogram of histogram | Gauge of gauge

type t

val sub_bits : int
val sub_count : int
(** Sub-buckets per power-of-two block (16). *)

val n_buckets : int

val create : unit -> t

val counter : t -> string -> counter
(** Existing handle, or a fresh zero counter registered under the name.
    @raise Invalid_argument if the name is registered as a histogram. *)

val histogram : t -> string -> histogram
(** @raise Invalid_argument if the name is registered as a counter. *)

val gauge : t -> string -> gauge
(** Existing handle, or a fresh zero gauge registered under the name.
    @raise Invalid_argument if the name holds another metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> int -> unit

val gauge_max : gauge -> int -> unit
(** Raise the gauge to [v] if larger: a high-watermark update (the gauge
    update used throughout the runner — merging then aggregates by max). *)

val observe : histogram -> int -> unit
(** Negative observations clamp to 0. *)

val bucket_of : int -> int
(** Bucket index an observation lands in: [v] itself below {!sub_count},
    log-linear above. Monotone in [v]. *)

val bucket_le : int -> int
(** Inclusive upper bound of a bucket ([max_int] for the last). *)

val mean : histogram -> float

val quantile : histogram -> float -> int
(** [quantile h q] estimates the [q]-quantile (0 < q <= 1) of the observed
    values: the upper bound of the bucket holding the ceil(q*n)-th smallest
    observation, clamped to the observed min/max — within one sub-bucket of
    the exact sample quantile. 0 when the histogram is empty. *)

val merge : t -> t -> unit
(** [merge dst src] accumulates [src] into [dst]: counters and histogram
    buckets sum, extrema combine, gauges take the maximum (they are
    high-watermark readings — summing peak queue depths across tasks would
    be meaningless). Metrics missing from [dst] are registered. Merging
    per-task sinks in a fixed task order keeps exports deterministic
    regardless of worker count. *)

val sorted : t -> (string * metric) list
(** All metrics, name-sorted (the deterministic export order). *)

val to_json : t -> Json.t
(** Histograms include p50/p95/p99 (via {!quantile}) alongside count, sum,
    mean and extrema. *)

val pp : Format.formatter -> t -> unit
