(** How hardware transactions subscribe to the lock words the fallback
    paths publish through — the GIL word and the STM commit-clock cell.

    [Eager] is the paper's protocol (and the default): the subscribing
    reads happen right after TBEGIN, so any later write to either word
    conflicts the window out immediately. [Lazy] defers the subscription
    to the commit point, the known HyTM optimization whose hazard Dice et
    al. ("Hardware extensions to make lazy subscription safe") describe:
    a doomed transaction can observe — and act on — inconsistent state
    before its commit-point check runs. The simulator reproduces that
    hazard faithfully. [Lazy_safe] models their proposed hardware fix
    (commit-point subscription validated in hardware before any
    speculative state can influence control flow) and is only accepted on
    machines whose {!Machine.t.lazy_sub_safe} capability flag is set. *)

type t = Eager | Lazy | Lazy_safe

val to_string : t -> string

val of_string : string -> t
(** @raise Invalid_argument on unknown names. *)
