(** An indexed binary min-heap of guest threads, keyed on [(key, tid)].

    The runner keeps every runnable-with-context thread here (keyed by its
    virtual clock) so picking the next thread is a peek instead of a linear
    scan, and reuses the same structure for the sleeper queue (keyed by
    wake-up cycle). The [tid] tie-break makes the order total, so the
    event-driven scheduler and the reference linear scan agree on every
    pick and figures stay byte-identical between the two.

    A position table indexed by [tid] makes membership O(1) and re-keying /
    removal O(log n); each thread can appear at most once. Thread records
    sit in a tid-indexed table that sifts never touch, so heap maintenance
    writes only int arrays. All operations are allocation-free except
    internal array growth and {!pop_min}'s option. *)

type t

val create : dummy:Rvm.Vmthread.t -> t
(** [dummy] fills unused table slots (never returned); any thread works. *)

val size : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** Is the thread with this [tid] present? *)

val push : t -> key:int -> Rvm.Vmthread.t -> unit
(** Insert, or re-key if the thread is already present. *)

val remove : t -> int -> unit
(** Remove by [tid]; no-op if absent. *)

val min_key : t -> int
(** Key of the minimum element, [max_int] when empty (so comparisons
    against a candidate key need no emptiness branch). *)

val preempts : t -> key:int -> tid:int -> bool
(** Does the minimum element sort strictly before [(key, tid)]? [false]
    when empty. This is the run-ahead test: a slice continues while its
    thread's [(clock, tid)] still sorts first. *)

val pop_min : t -> Rvm.Vmthread.t option
(** Remove and return the [(key, tid)]-smallest thread. *)

val take_min : t -> Rvm.Vmthread.t
(** {!pop_min} without the option. @raise Invalid_argument when empty. *)
