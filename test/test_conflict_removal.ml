(* The Section 4.4 conflict removals are one switch: [Options.default] has
   them all, [Options.cruby_baseline] none. One program run under both
   shows the switch reaching each site it covers; a second group pins the
   thread-local malloc chunk to the machine, however the VM was booted. *)

module V = Rvm.Vmthread

let zec12 = Htm_sim.Machine.zec12

(* A send site that sees A and then B, an ivar read whose receiver's class
   inherits its parent's ivar table (Derived is defined after Base has its
   ivar, so it shares the table), and spawned threads that allocate. *)
let program =
  {|class A
  def tag
    1
  end
end
class B
  def tag
    2
  end
end
class Caller
  def call_tag(o)
    o.tag
  end
end
class Base
  def initialize(v)
    @v = v
  end
  def v
    @v
  end
end
s = Caller.new.call_tag(A.new) + Caller.new.call_tag(B.new)
b = Base.new(3)
class Derived < Base
end
d = Derived.new(4)
r = b.v + d.v
ths = []
t = 0
while t < 3
  ths << Thread.new do
    xs = []
    i = 0
    while i < 20
      xs << [i, i + 1]
      i += 1
    end
  end
  t += 1
end
ths.each { |th| th.join }
puts "#{s} #{r}"|}

let klass vm name =
  match Rvm.Klass.find vm.Rvm.Vm.classes name with
  | Some k -> k
  | None -> Alcotest.failf "no class %s" name

let method_code (k : Rvm.Klass.t) name =
  match
    Hashtbl.fold
      (fun _ m acc ->
        match m with
        | Rvm.Klass.Bytecode c when c.Rvm.Value.code_name = name -> Some c
        | _ -> acc)
      k.methods None
  with
  | Some c -> c
  | None -> Alcotest.failf "no method %s#%s" k.name name

(* The guard cell of the first inline cache an instruction of [code] names. *)
let guard_cell vm (code : Rvm.Value.code) =
  let slot =
    Array.fold_left
      (fun acc i ->
        match (acc, i) with
        | None, Rvm.Value.Send ss -> Some ss.ss_cache
        | None, Getivar (_, slot) -> Some slot
        | _ -> acc)
      None code.insns
  in
  match slot with
  | Some s -> Htm_sim.Store.get vm.Rvm.Vm.store (Rvm.Vm.cache_addr vm s)
  | None -> Alcotest.failf "no cached instruction in %s" code.code_name

let run opts =
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Htm_dynamic ~opts zec12 in
  let t = Core.Runner.create cfg ~source:program in
  let r = Core.Runner.run t in
  Alcotest.(check string) "guest output" "3 7\n" r.Core.Runner.output;
  t.Core.Runner.vm

let test_switch_reaches_every_site () =
  List.iter
    (fun (label, opts, removal) ->
      let vm = run opts in
      let store = vm.Rvm.Vm.store and heap = vm.Rvm.Vm.heap in
      let cell th off = Htm_sim.Store.get store (th.V.struct_base + off) in
      let spawned = List.filter (fun th -> th.V.tid > 0) vm.Rvm.Vm.threads in
      Alcotest.(check int) (label ^ ": three spawned threads") 3 (List.length spawned);
      let name what = Printf.sprintf "%s: %s" label what in
      (* #1: GIL takes and window begins publish the running thread in its
         TLS cell, never in the shared global *)
      List.iter
        (fun th ->
          Alcotest.(check bool) (name "TLS cell holds the tid") removal
            (cell th V.st_tls_current = Rvm.Value.VInt th.V.tid))
        spawned;
      Alcotest.(check bool) (name "global current thread unwritten") removal
        (Htm_sim.Store.get store vm.Rvm.Vm.g_current_thread = Rvm.Value.VInt (-1));
      (* #2: thread-local free lists refill from the global list in bulk *)
      Alcotest.(check bool) (name "bulk refills") removal
        (heap.Rvm.Heap.refills > 0);
      (* #3 is the heap size *)
      Alcotest.(check int) (name "heap slots")
        (if removal then 200_000 else 4_000)
        heap.Rvm.Heap.total_slots;
      (* #4: a filled method cache is not refilled at a polymorphic site *)
      let a = klass vm "A" and b = klass vm "B" in
      Alcotest.(check bool) (name "send cache guard") true
        (guard_cell vm (method_code (klass vm "Caller") "call_tag")
        = Rvm.Value.VInt (2 * (if removal then a else b).id));
      (* #4: the ivar cache guards on the ivar table, not the class *)
      let base = klass vm "Base" and derived = klass vm "Derived" in
      Alcotest.(check bool) (name "ivar cache guard") true
        (guard_cell vm (method_code base "v")
        = Rvm.Value.VInt (if removal then base.id else derived.id));
      (* HEAPPOOLS: small mallocs come from a thread-local chunk *)
      List.iter
        (fun th ->
          Alcotest.(check bool) (name "thread-local malloc chunk") removal
            (match cell th V.st_malloc_end with
            | Rvm.Value.VInt e -> e > 0
            | _ -> false))
        spawned)
    [
      ("default", Rvm.Options.default, true);
      ("cruby baseline", Rvm.Options.cruby_baseline, false);
    ]

(* The chunk a thread's first small [Heap.malloc] takes from the global
   bump pointer: [Machine.malloc_thread_local] machines get large chunks,
   z/OS (whose HEAPPOOLS still conflicts) small ones. *)
let first_chunk (vm : Rvm.Vm.t) (th : V.t) =
  th.ctx <- 0;
  Htm_sim.Htm.set_occupied vm.htm 0 true;
  let p = Rvm.Heap.malloc vm.heap th 10 in
  let int_at a =
    match Htm_sim.Store.get vm.store a with
    | Rvm.Value.VInt n -> n
    | v -> Alcotest.failf "non-int cell %s" (Rvm.Value.to_string v)
  in
  Alcotest.(check int) "the global pointer moved by one chunk"
    (int_at (th.struct_base + V.st_malloc_end) - p)
    (int_at vm.heap.g_malloc_ptr - p);
  int_at (th.struct_base + V.st_malloc_end) - p

let test_malloc_chunk_follows_machine () =
  List.iter
    (fun (machine, chunk) ->
      let by_runner =
        let t = Core.Runner.create (Core.Runner.config machine) ~source:"x = 1" in
        let vm = t.Core.Runner.vm in
        first_chunk vm (List.hd (Rvm.Vm.threads_oldest_first vm))
      in
      let by_session =
        let s = Rvm.Session.create machine ~source:"x = 1" in
        first_chunk s.Rvm.Session.vm s.Rvm.Session.main
      in
      let name how = Printf.sprintf "%s, %s" machine.Htm_sim.Machine.name how in
      Alcotest.(check int) (name "Runner.create") chunk by_runner;
      Alcotest.(check int) (name "Session.create") chunk by_session)
    [ (zec12, 256); (Htm_sim.Machine.xeon_e3, 4096) ]

let suite =
  [
    Alcotest.test_case "the switch reaches every site" `Quick
      test_switch_reaches_every_site;
    Alcotest.test_case "malloc chunk follows the machine" `Quick
      test_malloc_chunk_follows_machine;
  ]
