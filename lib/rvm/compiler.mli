(** AST to bytecode compiler. One lexical scope per method/block; blocks
    resolve the enclosing scopes' locals through (index, depth) pairs like
    YARV; bare names compile to locals when one is in scope at that program
    point and to self-sends otherwise, following Ruby's rule that an
    assignment introduces the local from that point on. *)

exception Error of string

val compile_program : Ast.t -> Value.program
val compile_string : string -> Value.program
(** Parse then compile. @raise Error, {!Parser.Error} or {!Lexer.Error}. *)

(** The per-pc tables the runner consults before every instruction: each
    pc's cost class and its membership in both yield-point sets. Produced
    once per [code] by {!decode} and cached per VM ([Vm.dcode]); pcs are
    the original bytecode pcs, so txlen tables, abort attribution and
    yield decisions index the instructions [Interp.step] executes. *)
module Dcode : sig
  type t = {
    src : Value.code;  (** physical-identity guard for the per-VM cache *)
    cost : int array;  (** cost class per pc, an index into {!cost_table} *)
    yield_orig : Bytes.t;  (** '\001' where the original set yields *)
    yield_ext : Bytes.t;  (** '\001' where the extended set yields *)
  }
end

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
(** Tabulate one method. O(n); cached per VM, see [Vm.dcode]. *)

val dcode_dummy : Dcode.t
(** Cache hole value; never physically equal to a live [code]. *)
