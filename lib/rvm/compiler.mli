(** AST to bytecode compiler. One lexical scope per method/block; blocks
    resolve the enclosing scopes' locals through (index, depth) pairs like
    YARV; bare names compile to locals when one is in scope at that program
    point and to self-sends otherwise, following Ruby's rule that an
    assignment introduces the local from that point on. *)

exception Error of string

val compile_program : Ast.t -> Value.program
val compile_string : string -> Value.program
(** Parse then compile. @raise Error, {!Parser.Error} or {!Lexer.Error}. *)

(** Pre-decoded threaded representation of one method's bytecode: opcode
    ids and operands unrolled into dense pc-parallel arrays so the threaded
    interpreter ([Interp.step_d]) dispatches on an int and never re-matches
    variant shapes. Produced once per [code] by {!decode} and cached per VM
    ([Vm.dcode]); pcs are the original bytecode pcs, so txlen tables, abort
    attribution and yield decisions are byte-identical across tiers. *)
module Dcode : sig
  val op_generic : int
  (** routed to the reference [Interp.step] *)

  val op_nop : int
  val op_push : int
  val op_pushself : int
  val op_pop : int
  val op_dup : int
  val op_dup2 : int
  val op_getlocal0 : int
  val op_getlocal : int
  val op_setlocal0 : int
  val op_setlocal : int
  val op_getivar : int
  val op_setivar : int
  val op_getcvar : int
  val op_setcvar : int
  val op_getglobal : int
  val op_setglobal : int
  val op_getconst : int
  val op_setconst : int
  val op_jump : int
  val op_branchif : int
  val op_branchunless : int
  val op_leave : int
  val op_opt_plus : int
  val op_opt_minus : int
  val op_opt_mult : int
  val op_opt_div : int
  val op_opt_mod : int
  val op_opt_pow : int
  val op_opt_eq : int
  val op_opt_neq : int
  val op_opt_lt : int
  val op_opt_le : int
  val op_opt_gt : int
  val op_opt_ge : int
  val op_opt_aref : int
  val op_opt_aset : int
  val op_opt_ltlt : int
  val op_opt_not : int
  val op_opt_neg : int
  val op_send : int

  val cost_plain : int
  val cost_send : int
  val cost_thread : int
  val cost_alloc : int
  val cost_def : int

  val n_cost_classes : int
  (** size of the runner's class->cycles table *)

  (** Named peephole patterns recorded in [fuse_kind]. *)

  val fuse_none : int
  val fuse_local_arith : int
  val fuse_cmp_branch : int
  val fuse_ivar_aref : int
  val fuse_self_send : int
  val fuse_straight : int

  type t = {
    src : Value.code;  (** physical-identity guard for the per-VM cache *)
    ops : int array;
    opa : int array;
    opb : int array;
    vals : Value.t array;  (** [Push] literal per pc, [VNil] elsewhere *)
    sites : Value.send_site array;  (** [Send] site per pc *)
    cost : int array;  (** cost class per pc *)
    yield_orig : Bytes.t;  (** '\001' where the original set yields *)
    yield_ext : Bytes.t;  (** '\001' where the extended set yields *)
    fuse : int array;  (** component count at a superblock head, else 0 *)
    fuse_kind : int array;  (** [fuse_*] pattern id at a head, else 0 *)
  }
end

val opcode_of : Value.insn -> int
val cost_class_of : Value.insn -> int

val yields_original : Value.insn -> bool
val yields_extended : Value.insn -> bool
(** Mirror [Core.Yield_points]; the test suite pins the two together. *)

val max_fuse_len : int

val decode : Value.code -> Dcode.t
(** Translate one method. O(n); cached per VM, see [Vm.dcode]. *)

val dcode_dummy : Dcode.t
(** Cache hole value; never physically equal to a live [code]. *)
