(** The yield-point set a run uses: original CRuby's (Section 3.2) or the
    paper's extended set (Section 4.2). Membership is defined by
    [Rvm.Compiler.yields_original] and [Rvm.Compiler.yields_extended]. *)

type set = Original | Extended

val to_string : set -> string

val of_string : string -> set
(** ["original"] or ["extended"], case-insensitive.
    @raise Invalid_argument naming both values on anything else. *)
