(* Boot a VM for one program run: prelude + user source are compiled as one
   compilation unit (sharing the inline-cache space), builtins installed,
   and the main thread set up with its toplevel frame. *)

open Htm_sim

type t = {
  vm : Vm.t;
  program : Value.program;
  main : Vmthread.t;
  syms : Sym.state;
  uids : Value.uid_state;
}

(* Make this session's interning and uid state the domain's active one.
   The runner calls this when a run starts, so a session runs on its own
   state whichever sessions were booted or run on this domain since. *)
let activate t =
  Sym.activate t.syms;
  Value.activate_uid_state t.uids

(* The prelude's syntax tree, parsed once per process when this module
   initialises, before any domain spawns. The tree is immutable, so every
   session on every domain shares it; only compilation, which assigns the
   session's symbol ids and code uids, is per session. *)
let prelude_ast = Parser.parse Prelude.source

let create ?(opts = Options.default) ?(htm_mode = Htm.Htm_mode) machine ~source =
  (* A fresh per-session interning context and uid counter, activated for
     the whole boot: everything this session assigns is a pure function of
     its own program — required for parallel (and interleaved) sweeps to
     reproduce sequential results exactly. *)
  let syms = Sym.fresh () in
  let uids = Value.fresh_uid_state () in
  Sym.activate syms;
  Value.activate_uid_state uids;
  let vm = Vm.create ~opts ~htm_mode machine in
  Builtins.install vm;
  Vm.install_gc_hooks vm;
  let program = Compiler.compile_program (prelude_ast @ Parser.parse source) in
  Vm.load_program vm program;
  (* the toplevel self ("main"), allocated outside the guest heap *)
  let main_obj = Store.reserve_aligned vm.Vm.store Layout.slot_cells in
  Store.set vm.Vm.store main_obj (Layout.header_of_class vm.Vm.c_object.id);
  for f = 1 to Layout.n_fields do
    Store.set vm.Vm.store (main_obj + f) Value.VNil
  done;
  let main = Vm.new_thread vm ~code:program.main ~obj:(-1) in
  (* build the toplevel frame with boot-time writes *)
  let base = main.stack_base in
  let set off v = Store.set vm.Vm.store (base + off) v in
  set Vmthread.f_code (Value.VCode program.main);
  set Vmthread.f_self (Value.VRef main_obj);
  set Vmthread.f_block_code Value.VNil;
  set Vmthread.f_block_fp (Value.VInt (-1));
  set Vmthread.f_block_self Value.VNil;
  set Vmthread.f_caller_fp (Value.VInt (-1));
  set Vmthread.f_caller_pc (Value.VInt 0);
  set Vmthread.f_caller_sp (Value.VInt base);
  set Vmthread.f_defining_fp (Value.VInt (-1));
  set Vmthread.f_flags (Value.VInt 0);
  for i = 0 to program.main.nlocals - 1 do
    Store.set vm.Vm.store (base + Vmthread.frame_hdr + i) Value.VNil
  done;
  main.fp <- base;
  main.sp <- base + Vmthread.frame_hdr + program.main.nlocals;
  main.pc <- 0;
  Store.set vm.Vm.store vm.Vm.g_live (Value.VInt 1);
  { vm; program; main; syms; uids }
