(** Boot a VM for one program run: prelude and user source compile as one
    unit (sharing the inline-cache space), builtins are installed, and the
    main thread is created with its toplevel frame. *)

type t = {
  vm : Vm.t;
  program : Value.program;
  main : Vmthread.t;
  syms : Sym.state;  (** this session's interning context *)
  uids : Value.uid_state;  (** this session's code-uid counter *)
}

val activate : t -> unit
(** Make this session's interning context and uid counter the domain's
    active ones. The runner calls it when a run starts, so a session runs
    on its own state whichever sessions were booted or run on this domain
    since. *)

val create :
  ?opts:Options.t ->
  ?htm_mode:Htm_sim.Htm.mode ->
  Htm_sim.Machine.t ->
  source:string ->
  t
(** Compile the prelude's syntax tree (parsed once per process) and
    [source]'s as one unit and boot the VM.
    @raise Lexer.Error or Parser.Error with a line of [source], or
    Compiler.Error. *)
