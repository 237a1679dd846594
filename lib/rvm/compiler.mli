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

  type t = {
    src : Value.code;  (** physical-identity guard for the per-VM cache *)
    ops : int array;
    opa : int array;
    opb : int array;
    vals : Value.t array;  (** [Push] literal per pc, [VNil] elsewhere *)
    sites : Value.send_site array;  (** [Send] site per pc *)
    cost : int array;  (** cost class per pc, an index into {!cost_table} *)
    yield_orig : Bytes.t;  (** '\001' where the original set yields *)
    yield_ext : Bytes.t;  (** '\001' where the extended set yields *)
  }
end

val opcode_of : Value.insn -> int

val cost_table : Htm_sim.Machine.costs -> int array
(** Base interpreter cycles per cost class ([Dcode.t.cost] holds each pc's
    class), before memory-access charges: [cyc_insn] for plain
    instructions, [+ cyc_send] for sends, block invocations and instance
    creation, [+ 10 * cyc_send] for thread creation, [+ cyc_alloc] for
    allocating instructions, and [4 * cyc_insn] for method and class
    definitions. *)

val yields_original : Value.insn -> bool
(** Original CRuby's yield points: loop back-edges and method/block exits
    (Section 3.2). *)

val yields_extended : Value.insn -> bool
(** The paper's extended set (Section 4.2): the original points plus
    getlocal, getinstancevariable, getclassvariable, send, opt_plus,
    opt_minus, opt_mult and opt_aref, because the original points are too
    coarse for the HTM footprint. *)

val decode : Value.code -> Dcode.t
(** Translate one method. O(n); cached per VM, see [Vm.dcode]. *)

val dcode_dummy : Dcode.t
(** Cache hole value; never physically equal to a live [code]. *)
