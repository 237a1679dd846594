(** Pluggable global commit-clock schemes for the software TM, after the
    GV1/GV5/GV6 family of stmx's [global-clock.lisp].

    The STM publishes every writing commit by rewriting a store-resident
    clock cell that hardware transactions subscribe to — under GV1 (the
    paper's protocol and the default) that write happens on {e every}
    software commit, so each one kills every subscribed hardware window.
    GV5 skips the cell write: commits publish their lines with a stamp of
    [clock + 1] and leave the clock itself alone, trading those hardware
    kills for a tax of spurious software validation failures (a reader
    whose snapshot is [clock] sees a stamp of [clock + 1] and must abort
    until a failure-driven bump catches the clock up). GV6 switches
    between the two adaptively on the observed validation-failure rate.

    This module is pure bookkeeping over host integers: it decides which
    publication protocol the STM uses and counts what happened. It never
    touches the simulated store itself — the STM mirrors the counters
    into padded stat cells so the ablation figures can read them. *)

type scheme = Gv1 | Gv5 | Gv6

val scheme_to_string : scheme -> string

val scheme_of_string : string -> scheme
(** @raise Invalid_argument on unknown names. *)

type t

val create : scheme -> t

val scheme : t -> scheme
(** The configured scheme. *)

val effective : t -> scheme
(** The protocol the next commit must use: [Gv1] or [Gv5], never [Gv6]
    (a GV6 clock answers whichever side of the switch it is on). *)

val note_cell_write : t -> unit
(** A writing commit rewrote the clock cell (the GV1 protocol ran). *)

val note_skip : t -> unit
(** A writing commit skipped the clock-cell write (the GV5 protocol ran). *)

val note_commit : t -> unit
(** A writing software commit completed, under either protocol; feeds the
    GV6 adaptation window. *)

val note_validation_failure : t -> bool
(** A software transaction failed read validation. Answers [true] when
    the caller must advance the engine's commit clock (the GV5
    failure-driven catch-up bump — an engine-integer bump only, never a
    cell write, so it kills no hardware window); also feeds the GV6
    adaptation window. *)

val bumps : t -> int
(** Clock-cell writes performed ([note_cell_write] count). *)

val skipped : t -> int
(** Clock-cell writes avoided ([note_skip] count). *)

val switches : t -> int
(** GV6 protocol switches performed; 0 for fixed schemes. *)
