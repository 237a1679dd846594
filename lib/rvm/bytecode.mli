(** Helpers over compiled code: naming and printing. *)

val insn_name : Value.insn -> string
(** YARV-style instruction name ("getlocal", "opt_plus", "send", ...). *)

val pp_insn : Format.formatter -> Value.insn -> unit

val pp_code : Format.formatter -> Value.code -> unit
(** Disassemble a code object including nested blocks and methods. *)
