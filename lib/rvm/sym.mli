(** Interned symbols (method and variable names). The interning state is a
    first-class value owned by a VM session; a domain-local slot holds the
    {e active} state that {!intern}/{!name} consult, and the runner
    re-{!activate}s its session's state on entry. Ids a session assigns are
    therefore a pure function of its own program — the invariant that keeps
    parallel (and interleaved) experiment sweeps bit-identical
    to sequential ones (symbol ids feed guest hash buckets). *)

type state

val fresh : unit -> state
(** A new interning state holding exactly the pre-interned [s_*] baseline
    (what a fresh domain starts with). *)

val activate : state -> unit
(** Make [state] the current domain's active interning state. *)

val current : unit -> state
(** The active state (physical identity is meaningful: tests assert states
    never alias across domains or sessions). *)

val count : unit -> int
(** Number of symbols interned in the active state. *)

val intern : string -> int
val name : int -> string

val reset : unit -> unit
(** Truncate the {e active} table back to the pre-interned [s_*] baseline.
    Ids handed out before the reset (other than the baseline) must not be
    used afterwards. *)

(** Pre-interned symbols used throughout the VM: *)

val s_initialize : int
val s_plus : int
val s_minus : int
val s_mult : int
val s_div : int
val s_mod : int
val s_pow : int
val s_eq : int
val s_neq : int
val s_lt : int
val s_le : int
val s_gt : int
val s_ge : int
val s_aref : int
val s_aset : int
val s_ltlt : int
val s_each : int
val s_times : int
val s_new : int
val s_call : int
val s_to_s : int
