(** AST to bytecode compiler. One lexical scope per method/block; blocks
    resolve the enclosing scopes' locals through (index, depth) pairs like
    YARV; bare names compile to locals when one is in scope at that program
    point and to self-sends otherwise, following Ruby's rule that an
    assignment introduces the local from that point on. *)

exception Error of string

val compile_program : Ast.t -> Value.program
val compile_string : string -> Value.program
(** Parse then compile. @raise Error, {!Parser.Error} or {!Lexer.Error}. *)

val make_code :
  name:string ->
  kind:Value.code_kind ->
  arity:int ->
  nlocals:int ->
  Value.insn array ->
  Value.code
(** The one way to make a code object: draws a fresh uid and attaches the
    per-pc tables {!decode} computes ([Value.dcode]), so the runner reads
    them straight off the code. *)

val cost_table : Htm_sim.Machine.costs -> int array
(** Base interpreter cycles per cost class ([Value.dcode.cost] holds each
    pc's class), before memory-access charges: [cyc_insn] for plain
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

val decode : Value.code -> Value.dcode
(** Tabulate one code's instructions, O(n): the tables {!make_code}
    attaches. *)
