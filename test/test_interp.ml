(* Guest-language semantics: golden outputs for single-threaded programs run
   on the full pipeline (parse -> compile -> interpret on the simulator). *)

let check = Tutil.check_output

let test_arith () =
  check "integer arithmetic" "7\n-3\n10\n2\n1\n8\n"
    "puts 2 + 5\nputs 2 - 5\nputs 2 * 5\nputs 12 / 5\nputs 13 % 4\nputs 2 ** 3";
  check "ruby floor division" "-3\n2\n-2\n"
    "puts(-12 / 5)\nputs(-13 % 5)\nputs(13 % -5)";
  check "float arithmetic" "3.5\n1.25\n7.5\n"
    "puts 1.5 + 2.0\nputs 2.5 / 2\nputs 3 * 2.5";
  check "mixed comparison" "true\nfalse\ntrue\n" "puts 1 < 1.5\nputs 2.0 > 3\nputs 2 == 2.0"

let test_strings () =
  check "concat and length" "hello world\n11\n"
    {|s = "hello" + " " + "world"
puts s
puts s.length|};
  check "string methods" "HI\nhi\ntrue\n3\nlo wo\n"
    {|s = "hi"
puts s.upcase
puts "HI".downcase
puts "hello".include?("ell")
puts "hello".index("lo")
puts "hello world".slice(3, 5)|};
  check "split and join" "a-b-c\n3\n"
    {|parts = "a b c".split(" ")
puts parts.join("-")
puts parts.length|};
  check "append" "abc!\n" {|s = "abc"
s << "!"
puts s|};
  check "to_i to_f" "42\n-7\n3.5\n0\n"
    {|puts "42".to_i
puts "-7x".to_i
puts "3.5".to_f
puts "".to_i|}

let test_arrays () =
  check "literals and indexing" "1\n30\n\n3\n"
    {|a = [1, 20, 30]
puts a[0]
puts a[-1]
puts a[9]
puts a.length|};
  check "push pop shift" "4\n9\n1\n2\n"
    {|a = [1, 2, 3]
a << 9
puts a.length
puts a.pop
puts a.shift
puts a.length|};
  check "growth via assignment" "10\nnil check\n7\n"
    {|a = []
a[9] = 7
puts a.length
puts "nil check" if a[5] == nil
puts a[9]|};
  check "iteration helpers" "6\n3\n[2, 4, 6]\n"
    {|a = [1, 2, 3]
puts a.sum
puts a.max
p a.map { |x| x * 2 }|};
  check "sort" "[1, 2, 3]\n" "p [3, 1, 2].sort"

let test_hashes () =
  check "basic" "1\n2\n\ntrue\nfalse\n2\n"
    {|h = { :a => 1, "b" => 2 }
puts h[:a]
puts h["b"]
puts h[:missing]
puts h.key?(:a)
puts h.key?(:c)
puts h.size|};
  check "update and delete" "9\n1\n"
    {|h = {}
h[:x] = 9
puts h[:x]
h.delete(:x)
h[:y] = 1
puts h.size|};
  check "many keys force rehash" "100\n4950\n"
    {|h = {}
i = 0
while i < 100
  h[i] = i
  i += 1
end
puts h.size
s = 0
h.each { |k, v| s += v }
puts s|}

let test_control_flow () =
  check "if chain" "mid\n"
    {|x = 5
if x < 3
  puts "low"
elsif x < 8
  puts "mid"
else
  puts "high"
end|};
  check "while with break/next" "1\n3\n5\n7\n"
    {|i = 0
while true
  i += 1
  break if i > 8
  next if i % 2 == 0
  puts i
end|};
  check "until" "3\n" {|x = 0
until x == 3
  x += 1
end
puts x|};
  (* nil prints as an empty line, like Ruby's puts *)
  check "ternary and logic" "yes\n2\n\n"
    {|puts(1 < 2 ? "yes" : "no")
puts(nil || 2)
puts(nil && 2)|}

let test_methods () =
  check "recursion" "120\n"
    {|def fact(n)
  if n <= 1
    1
  else
    n * fact(n - 1)
  end
end
puts fact(5)|};
  check "implicit return of last expr" "3\n"
    {|def pick(a, b)
  if a > b
    a
  else
    b
  end
end
puts pick(1, 3)|};
  check "early return" "neg\n"
    {|def sign(x)
  return "neg" if x < 0
  "pos"
end
puts sign(-4)|}

let test_blocks_and_yield () =
  check "yield with value" "1\n4\n9\n"
    {|def each_square(n)
  i = 1
  while i <= n
    yield i * i
    i += 1
  end
end
each_square(3) { |sq| puts sq }|};
  check "block return value" "25\n"
    {|def apply(x)
  yield x
end
puts apply(5) { |v| v * v }|};
  check "closure over locals" "15\n"
    {|total = 0
[1, 2, 3, 4, 5].each { |x| total += x }
puts total|};
  check "break from block" "2\n"
    {|r = [1, 2, 3, 4].each do |x|
  break x if x == 2
end
puts r|};
  check "iterator prelude methods" "0123\n10\n"
    {|4.times { |i| print i }
puts ""
puts (1..4).to_a.sum|}

let test_classes () =
  check "instance state" "3\n4\n"
    {|class Counter
  def initialize(start)
    @n = start
  end
  def bump
    @n += 1
  end
  def value
    @n
  end
end
c = Counter.new(2)
c.bump
puts c.value
c.bump
puts c.value|};
  check "attr_accessor" "7\n9\n"
    {|class Box
  attr_accessor :v
end
b = Box.new
b.v = 7
puts b.v
b.v = 9
puts b.v|};
  check "inheritance and override" "generic\nwoof\n"
    {|class Animal
  def speak
    "generic"
  end
end
class Dog < Animal
  def speak
    "woof"
  end
end
puts Animal.new.speak
puts Dog.new.speak|};
  check "operator methods" "5\n"
    {|class Vec
  def initialize(x)
    @x = x
  end
  def +(o)
    Vec.new(@x + o.x)
  end
  def x
    @x
  end
end
puts (Vec.new(2) + Vec.new(3)).x|};
  check "class variables" "2\n"
    {|class Reg
  def initialize
    @@count = 0 if @@count == nil
    @@count += 1
  end
  def count
    @@count
  end
end
Reg.new
r = Reg.new
puts r.count|}

let test_globals_consts () =
  check "globals" "10\n" {|$g = 10
def read_g
  $g
end
puts read_g|};
  check "constants" "99\n" {|LIMIT = 99
puts LIMIT|};
  check "math module" "3.0\n1.0\n"
    {|puts Math.sqrt(9.0)
puts Math.exp(0.0)|}

let test_ranges () =
  check "range basics" "1\n10\n10\n"
    {|r = (1..10)
puts r.first
puts r.last
puts r.size|};
  check "exclusive each" "012\n"
    {|(0...3).each { |i| print i }
puts ""|}

let test_errors () =
  (try
     ignore (Tutil.output "undefined_method_xyz(3)");
     Alcotest.fail "expected failure"
   with Core.Runner.Guest_failure m ->
     Alcotest.(check bool) "mentions method" true
       (String.length m > 0));
  try
    ignore (Tutil.output "puts 1 / 0");
    Alcotest.fail "expected division failure"
  with Core.Runner.Guest_failure _ -> ()

let test_interpolation () =
  check "basic interpolation" "hello world!\n"
    {|name = "world"
puts "hello #{name}!"|};
  check "expressions inside" "6 * 7 = 42\n"
    {|x = 6
puts "#{x} * 7 = #{x * 7}"|};
  check "method calls inside" "len=3 sum=6\n"
    {|a = [1, 2, 3]
puts "len=#{a.length} sum=#{a.sum}"|};
  check "escaped hash" "not #{interp}\n" {|puts "not \#{interp}"|};
  check "interpolation in assignment" "ab3c\n"
    {|n = 3
s = "ab#{n}c"
puts s|}

let test_case_when () =
  check "multi-value when" "five\n"
    {|x = 5
case x
when 1, 2
  puts "small"
when 5
  puts "five"
else
  puts "other"
end|};
  check "strings and fallthrough" "2\ndone\n"
    {|s = "b"
case s
when "a" then puts 1
when "b" then puts 2
end
case 99
when 1 then puts "no"
end
puts "done"|};
  check "case with else" "other\n"
    {|case 42
when 1 then puts "one"
else
  puts "other"
end|};
  check "case subject evaluated once" "match\n1\n"
    {|calls = [0]
def subject(c)
  c[0] += 1
  7
end
case subject(calls)
when 1, 2, 3, 4, 5, 6 then puts "no"
when 7 then puts "match"
end
puts calls[0]|}

let test_output_formats () =
  check "float formatting" "1.0\n3.14\n-0.5\n"
    "puts 1.0\nputs 3.14\nputs(-0.5)";
  check "p inspect" "\"s\"\n[1, \"x\", nil]\n:sym\n"
    {|p "s"
p [1, "x", nil]
p :sym|};
  check "print" "abc\n" {|print "a", "b", "c"
puts ""|}

(* The CPython-style small-int intern table behind [Value.vint]. *)
let test_small_int_interning () =
  (* cached range returns the same box every time — physical equality *)
  Alcotest.(check bool) "0 interned" true (Rvm.Value.vint 0 == Rvm.Value.vint 0);
  Alcotest.(check bool) "min boundary interned" true
    (Rvm.Value.vint Rvm.Value.small_int_min == Rvm.Value.vint Rvm.Value.small_int_min);
  Alcotest.(check bool) "max boundary interned" true
    (Rvm.Value.vint Rvm.Value.small_int_max == Rvm.Value.vint Rvm.Value.small_int_max);
  (* structural correctness across the whole range, boundaries included *)
  List.iter
    (fun n ->
      match Rvm.Value.vint n with
      | Rvm.Value.VInt v -> Alcotest.(check int) (string_of_int n) n v
      | _ -> Alcotest.fail "vint did not build a VInt")
    [
      Rvm.Value.small_int_min - 1; Rvm.Value.small_int_min; -1; 0; 1; 255;
      Rvm.Value.small_int_max; Rvm.Value.small_int_max + 1; max_int; min_int;
    ];
  (* outside the range: fresh boxes, still correct *)
  let big = Rvm.Value.small_int_max + 1 in
  Alcotest.(check bool) "outside range not interned" false
    (Rvm.Value.vint big == Rvm.Value.vint big);
  Alcotest.(check bool) "outside range equal" true
    (Rvm.Value.vint big = Rvm.Value.vint big)

(* Sharing interned ints must be unobservable to guests: mutating a
   container cell that held an interned value cannot leak anywhere else,
   because mutation rebinds cells rather than mutating int boxes. *)
let test_interning_unobservable () =
  check "container mutation does not alias" "7\n1\n1\n"
    {|a = [1, 1]
b = [1]
a[0] = 7
puts a[0]
puts a[1]
puts b[0]|};
  check "arithmetic on shared small ints" "3\n2\n1\n"
    {|x = 1
y = x + 1
z = y + 1
puts z
puts y
puts x|}

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "small-int interning" `Quick test_small_int_interning;
    Alcotest.test_case "interning unobservable" `Quick test_interning_unobservable;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "hashes" `Quick test_hashes;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "methods" `Quick test_methods;
    Alcotest.test_case "blocks and yield" `Quick test_blocks_and_yield;
    Alcotest.test_case "classes" `Quick test_classes;
    Alcotest.test_case "globals, consts, Math" `Quick test_globals_consts;
    Alcotest.test_case "ranges" `Quick test_ranges;
    Alcotest.test_case "runtime errors" `Quick test_errors;
    Alcotest.test_case "string interpolation" `Quick test_interpolation;
    Alcotest.test_case "case/when" `Quick test_case_when;
    Alcotest.test_case "output formats" `Quick test_output_formats;
  ]

(* ---- opt_* arithmetic edges (the int fast paths must not change these) ---- *)

let test_arith_edges () =
  check "floor division negative operands" "-4\n-4\n3\n3\n"
    "puts(-7 / 2)\nputs(7 / -2)\nputs(-7 / -2)\nputs(7 / 2)";
  check "ruby modulo sign follows divisor" "2\n-2\n-1\n1\n0\n"
    "puts(-7 % 3)\nputs(7 % -3)\nputs(-7 % -3)\nputs(7 % 3)\nputs(-9 % 3)";
  check "pow positive, zero, negative exponent" "8\n1\n0.25\n1.0\n"
    "puts 2 ** 3\nputs 2 ** 0\nputs 2 ** -2\nputs 1 ** -5";
  check "pow mixed float" "6.25\n0.5\n" "puts 2.5 ** 2\nputs 4 ** -0.5";
  check "mixed float int opt paths" "3.5\n-1.5\n5.0\n0.5\n1.5\n"
    "puts 1.5 + 2\nputs 0.5 - 2\nputs 2 * 2.5\nputs 1 / 2.0\nputs 3.5 % 2";
  check "opt fallback to send on objects" "5\n"
    {|class V
  def initialize(x)
    @x = x
  end
  def +(o)
    @x + o.raw
  end
  def raw
    @x
  end
end
puts V.new(2) + V.new(3)|};
  (try
     ignore (Tutil.output "puts 5 % 0");
     Alcotest.fail "expected modulo-by-zero failure"
   with Core.Runner.Guest_failure m ->
     Alcotest.(check bool) "mod by zero message" true
       (String.length m > 0));
  try
    ignore (Tutil.output "puts(-3 / 0)");
    Alcotest.fail "expected division-by-zero failure"
  with Core.Runner.Guest_failure _ -> ()

(* ---- pre-decode consistency: Dcode must mirror the tagged world ------- *)

module C = Rvm.Compiler
module Val = Rvm.Value

let mk_code insns =
  {
    Val.code_name = "<test>";
    uid = Val.fresh_code_uid ();
    kind = Val.Toplevel;
    arity = 0;
    nlocals = 4;
    insns;
  }

(* Every code record reachable from a compiled program, main included. *)
let codes_of source =
  let acc = ref [] in
  let rec walk (code : Val.code) =
    acc := code :: !acc;
    Array.iter
      (fun (insn : Val.insn) ->
        match insn with
        | Val.Defmethod (_, c) -> walk c
        | Val.Defclass cd -> List.iter (fun (_, c) -> walk c) cd.Val.cd_methods
        | Val.Send s | Val.Newthread s | Val.Newinstance s ->
            Option.iter walk s.Val.ss_block
        | _ -> ())
      code.Val.insns
  in
  walk (C.compile_string source).Val.main;
  !acc

let decode_corpus =
  {|def work(n)
  i = 0
  acc = 0
  while i < n
    acc = acc + i
    i += 1
  end
  acc
end
class Box
  attr_accessor :v
  def initialize
    @v = [1, 2, 3]
  end
  def pick(k)
    @v[k]
  end
end
b = Box.new
puts work(10) + b.pick(1)
puts "s" + "t"
h = { :a => 1 }
h[:b] = 2
puts h.size
def twice
  yield 1
end
twice { |k| puts k }
r = (1..3)
th = Thread.new(2) do |k|
  k
end
th.join|}

let test_decode_consistency () =
  List.iter
    (fun (code : Val.code) ->
      let d = C.decode code in
      Array.iteri
        (fun pc insn ->
          let name = Printf.sprintf "%s@%d" code.Val.code_name pc in
          Alcotest.(check bool)
            (name ^ ": yield_orig")
            (C.yields_original insn)
            (Bytes.get d.C.Dcode.yield_orig pc = '\001');
          Alcotest.(check bool)
            (name ^ ": yield_ext")
            (C.yields_extended insn)
            (Bytes.get d.C.Dcode.yield_ext pc = '\001'))
        code.Val.insns)
    (codes_of decode_corpus)

(* The base cycles every instruction is charged, spelled out per cost
   class: the runner's table, indexed by the decoded class, must give
   exactly this on every machine for every corpus instruction, and the
   corpus must hold an instruction of every class. *)
let test_runner_cost_tbl () =
  let expected (c : Htm_sim.Machine.costs) : Val.insn -> int = function
    | Val.Send _ | Val.Invokeblock _ | Val.Newinstance _ ->
        c.cyc_insn + c.cyc_send
    | Val.Newthread _ -> c.cyc_insn + (10 * c.cyc_send)
    | Val.Newarray _ | Val.Newarray_sized | Val.Newhash _ | Val.Newstring _
    | Val.Newrange _ ->
        c.cyc_insn + c.cyc_alloc
    | Val.Defclass _ | Val.Defmethod _ -> 4 * c.cyc_insn
    | _ -> c.cyc_insn
  in
  let codes = codes_of decode_corpus in
  List.iter
    (fun (m : Htm_sim.Machine.t) ->
      let t = Core.Runner.create (Core.Runner.config m) ~source:"nil" in
      let seen = Array.map (fun _ -> false) t.Core.Runner.cost_tbl in
      List.iter
        (fun (code : Val.code) ->
          let d = C.decode code in
          Array.iteri
            (fun pc insn ->
              let cls = d.C.Dcode.cost.(pc) in
              seen.(cls) <- true;
              Alcotest.(check int)
                (Printf.sprintf "%s: %s@%d" m.name code.Val.code_name pc)
                (expected m.costs insn)
                t.Core.Runner.cost_tbl.(cls))
            code.Val.insns)
        codes;
      Alcotest.(check bool) "every cost class occurs" true
        (Array.for_all Fun.id seen);
      Rvm.Vm.release t.Core.Runner.vm)
    Htm_sim.Machine.[ zec12; xeon_e3; xeon_x5670 ]

(* Opcode ids are load-bearing: [Interp.step_d] dispatches on the literal
   ints, so pin [opcode_of] to the published constants. *)
let test_opcode_ids () =
  let site = { Val.ss_sym = 0; ss_argc = 0; ss_block = None; ss_cache = 0 } in
  List.iter
    (fun (insn, expect) ->
      Alcotest.(check int) "opcode id" expect (C.opcode_of insn))
    [
      (Val.Nop, C.Dcode.op_nop);
      (Val.Push Val.VNil, C.Dcode.op_push);
      (Val.Pushself, C.Dcode.op_pushself);
      (Val.Getlocal (3, 0), C.Dcode.op_getlocal0);
      (Val.Getlocal (3, 2), C.Dcode.op_getlocal);
      (Val.Setlocal (1, 0), C.Dcode.op_setlocal0);
      (Val.Setlocal (1, 1), C.Dcode.op_setlocal);
      (Val.Getivar (0, 0), C.Dcode.op_getivar);
      (Val.Jump 0, C.Dcode.op_jump);
      (Val.Branchunless 0, C.Dcode.op_branchunless);
      (Val.Leave, C.Dcode.op_leave);
      (Val.Opt_plus, C.Dcode.op_opt_plus);
      (Val.Opt_pow, C.Dcode.op_opt_pow);
      (Val.Opt_aref, C.Dcode.op_opt_aref);
      (Val.Send site, C.Dcode.op_send);
      (Val.Newarray 1, C.Dcode.op_generic);
      (Val.Newthread site, C.Dcode.op_generic);
      (Val.Defmethod (0, mk_code [| Val.Leave |]), C.Dcode.op_generic);
    ]

(* ---- differential: threaded tier vs the reference switch loop --------- *)

let assert_same_tier name (a : Core.Runner.result) (b : Core.Runner.result) =
  Alcotest.(check int) (name ^ ": wall_cycles") b.wall_cycles a.wall_cycles;
  Alcotest.(check int) (name ^ ": total_insns") b.total_insns a.total_insns;
  Alcotest.(check string) (name ^ ": output") b.output a.output;
  Alcotest.(check int)
    (name ^ ": gil acquisitions")
    b.gil_acquisitions a.gil_acquisitions;
  Alcotest.(check int)
    (name ^ ": txn begins")
    b.htm_stats.Htm_sim.Stats.begins a.htm_stats.Htm_sim.Stats.begins;
  Alcotest.(check int)
    (name ^ ": txn commits")
    b.htm_stats.Htm_sim.Stats.commits a.htm_stats.Htm_sim.Stats.commits;
  Alcotest.(check int)
    (name ^ ": txn conflict aborts")
    b.htm_stats.Htm_sim.Stats.aborts_conflict
    a.htm_stats.Htm_sim.Stats.aborts_conflict;
  Alcotest.(check int)
    (name ^ ": txn accesses")
    b.htm_stats.Htm_sim.Stats.txn_accesses a.htm_stats.Htm_sim.Stats.txn_accesses;
  Alcotest.(check int)
    (name ^ ": stm begins")
    b.stm_stats.Stm.begins a.stm_stats.Stm.begins;
  Alcotest.(check int)
    (name ^ ": stm commits")
    b.stm_stats.Stm.commits a.stm_stats.Stm.commits;
  Alcotest.(check int) (name ^ ": gc runs") b.gc_runs a.gc_runs;
  Alcotest.(check int) (name ^ ": allocs") b.allocs a.allocs;
  Alcotest.(check int)
    (name ^ ": requests completed")
    b.requests_completed a.requests_completed

let run_tier ~interp ~scheme ?(threads = 1) source =
  ignore threads;
  let cfg = Core.Runner.config ~scheme ~interp Htm_sim.Machine.zec12 in
  Core.Runner.run_source cfg ~source

(* Single-VM guest corpus under every scheme the figures use, with each
   program's expected output. *)
let tier_corpus =
  [
    ( "loop",
      "i = 0\ns = 0\nwhile i < 200\n  s += i\n  i += 1\nend\nputs s",
      "19900\n" );
    ( "methods+ivars",
      {|class Acc
  def initialize
    @xs = []
    @n = 0
  end
  def add(v)
    @xs << v
    @n += 1
    self
  end
  def mean
    @xs.sum / @n
  end
end
a = Acc.new
i = 0
while i < 50
  a.add(i * 3)
  i += 1
end
puts a.mean|},
      "73\n" );
    ( "strings+hash",
      {|h = {}
i = 0
while i < 40
  h["k#{i % 7}"] = i
  i += 1
end
puts h.size
puts h["k3"]|},
      "7\n38\n" );
    ( "threads+mutex",
      {|m = Mutex.new
total = 0
ts = []
t = 0
while t < 4
  ts << Thread.new do
    i = 0
    while i < 100
      m.synchronize { total += 1 }
      i += 1
    end
  end
  t += 1
end
ts.each { |th| th.join }
puts total|},
      "400\n" );
    ( "defmethod-invalidation",
      {|def f
  1
end
puts f
def f
  2
end
puts f|},
      "1\n2\n" );
    (* a hot loop, a redefinition, then a hot loop again: the second loop
       must dispatch to the new method, not a cached translation *)
    ( "redefine-method-hot",
      {|def f(v)
  v + 1
end
s = 0
i = 0
while i < 200
  s = f(s)
  i += 1
end
def f(v)
  v + 2
end
j = 0
while j < 200
  s = f(s)
  j += 1
end
puts s|},
      "600\n" );
    ( "reopen-class-hot",
      {|class C
  def g
    1
  end
end
c = C.new
s = 0
i = 0
while i < 200
  s += c.g
  i += 1
end
class C
  def g
    2
  end
end
j = 0
while j < 200
  s += c.g
  j += 1
end
puts s|},
      "600\n" );
    (* one send site, alternating receiver classes: every call misses the
       fill-once inline cache and must take the full lookup *)
    ( "megamorphic-site",
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
objs = []
i = 0
while i < 200
  if i % 2 == 0
    objs << A.new
  else
    objs << B.new
  end
  i += 1
end
s = 0
objs.each { |o| s += o.tag }
puts s|},
      "300\n" );
  ]

let test_tier_corpus () =
  List.iter
    (fun (name, source, expected) ->
      List.iter
        (fun scheme ->
          let nm =
            Printf.sprintf "%s/%s" name (Core.Scheme.to_string scheme)
          in
          let thr =
            run_tier ~interp:Core.Runner.Interp_threaded ~scheme source
          and ref_ = run_tier ~interp:Core.Runner.Interp_ref ~scheme source in
          Alcotest.(check string) (nm ^ ": expected output") expected
            ref_.output;
          assert_same_tier (nm ^ " (threaded)") thr ref_)
        [
          Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid;
          Core.Scheme.Fine_grained;
        ])
    tier_corpus

let run_workload ~interp ~scheme (w : Workloads.Workload.t) ~threads =
  let source = w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test in
  let cfg = Core.Runner.config ~scheme ~interp Htm_sim.Machine.zec12 in
  Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None) cfg ~source

let test_tier_workloads () =
  let workloads =
    Workloads.Workload.micro
    @ List.filter
        (fun (w : Workloads.Workload.t) -> w.name = "cg" || w.name = "is")
        Workloads.Workload.npb
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              let name =
                Printf.sprintf "%s/%s/%dT" w.name
                  (Core.Scheme.to_string scheme)
                  threads
              in
              let thr =
                run_workload ~interp:Core.Runner.Interp_threaded ~scheme w
                  ~threads
              and ref_ =
                run_workload ~interp:Core.Runner.Interp_ref ~scheme w ~threads
              in
              assert_same_tier (name ^ " (threaded)") thr ref_)
            [ 1; 2; 4 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid ])
    workloads

(* The BENCH_INTERP environment default, as the smoke script and CI use it;
   the server path also exercises netsim delivery under the threaded tier. *)
let test_tier_env_default () =
  let w = Option.get (Workloads.Workload.find "webrick") in
  let run v =
    Tutil.with_env "BENCH_INTERP" v
      (fun () ->
        let o =
          Harness.Exp.run
            (Harness.Exp.point ~workload:w ~machine:Htm_sim.Machine.xeon_e3
               ~scheme:Core.Scheme.Htm_dynamic ~threads:3
               ~size:Workloads.Size.Test ())
        in
        o.Harness.Exp.result)
  in
  let dflt = run "" and ref_ = run "ref" in
  Alcotest.(check bool) "served requests" true (dflt.requests_completed > 0);
  assert_same_tier "webrick/htm-dynamic/3c (env default)" dflt ref_

(* BENCH_INTERP names one of the two tiers or is unset; anything else must
   fail rather than quietly select the default. *)
let test_interp_env_parse () =
  let kind v =
    Tutil.with_env "BENCH_INTERP" v Core.Runner.default_interp_kind
  in
  List.iter
    (fun (v, expect) ->
      Alcotest.(check bool) (Printf.sprintf "BENCH_INTERP=%S" v) true
        (kind v = expect))
    [
      ("", Core.Runner.Interp_threaded);
      (" ", Core.Runner.Interp_threaded);
      ("threaded", Core.Runner.Interp_threaded);
      ("THREADED", Core.Runner.Interp_threaded);
      ("ref", Core.Runner.Interp_ref);
      ("Ref", Core.Runner.Interp_ref);
      ("switch", Core.Runner.Interp_ref);
    ];
  List.iter
    (fun v ->
      match kind v with
      | _ -> Alcotest.failf "BENCH_INTERP=%S accepted" v
      | exception Invalid_argument _ -> ())
    [ "rf"; "compiled"; "threaded,ref" ]

(* ---- randomized-program fuzz across tiers ----------------------------- *)

(* A tiny terminating program generator: straight-line arithmetic over
   three locals, bounded counted loops, conditionals, array/hash traffic.
   Programs can still take guest-level errors (coercion) — both tiers must
   then fail with the same message. *)
let gen_program =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  let atom =
    oneof
      [ map string_of_int (int_range (-9) 9); var;
        map (fun f -> Printf.sprintf "%.1f" f) (float_bound_inclusive 9.0) ]
  in
  let op = oneofl [ "+"; "-"; "*"; "/"; "%"; "**" ] in
  let expr =
    oneof
      [
        atom;
        (let* x = atom and* o = op and* y = atom in
         (* keep literal zero out of the divisor slot; a variable divisor
            can still be zero at run time, which is part of the test *)
         let y = if (o = "/" || o = "%") && y = "0" then "1" else y in
         return (Printf.sprintf "(%s %s %s)" x o y));
      ]
  in
  let stmt =
    oneof
      [
        (let* v = var and* e = expr in
         return (Printf.sprintf "%s = %s" v e));
        (let* v = var and* e = expr in
         return (Printf.sprintf "%s += %s" v e));
        (let* e = expr and* v = var in
         return (Printf.sprintf "if %s < %s\n  %s = %s + 1\nelse\n  %s = 0\nend" v e v v v));
        (let* n = int_range 1 6 and* v = var and* e = expr in
         return (Printf.sprintf "%d.times { |t| %s = %s + t }" n v e));
        (let* e = expr in return (Printf.sprintf "xs << %s" e));
        return "puts xs.length";
        (let* v = var in return (Printf.sprintf "puts %s" v));
      ]
  in
  let* stmts = list_size (int_range 3 14) stmt in
  return
    ("a = 1\nb = 2\nc = 3\nxs = []\n" ^ String.concat "\n" stmts
   ^ "\nputs a\nputs b\nputs c")

let outcome ~interp source =
  match
    run_tier ~interp ~scheme:Core.Scheme.Htm_dynamic source
  with
  | r -> Ok (r.Core.Runner.output, r.total_insns, r.wall_cycles)
  | exception Core.Runner.Guest_failure m -> Error m

let test_tier_fuzz =
  Tutil.qtest "random programs agree across tiers" ~count:60
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun source ->
      outcome ~interp:Core.Runner.Interp_threaded source
      = outcome ~interp:Core.Runner.Interp_ref source)

let suite =
  suite
  @ [
      Alcotest.test_case "opt arithmetic edges" `Quick test_arith_edges;
      Alcotest.test_case "decode consistency" `Quick test_decode_consistency;
      Alcotest.test_case "runner cost table" `Quick test_runner_cost_tbl;
      Alcotest.test_case "opcode ids" `Quick test_opcode_ids;
      Alcotest.test_case "tier differential: corpus" `Quick test_tier_corpus;
      Alcotest.test_case "tier differential: workloads" `Slow
        test_tier_workloads;
      Alcotest.test_case "tier differential: BENCH_INTERP env" `Quick
        test_tier_env_default;
      Alcotest.test_case "BENCH_INTERP rejects unknown values" `Quick
        test_interp_env_parse;
      test_tier_fuzz;
    ]

(* The hybrid-TM figure runs on a machine with a quarter of the store
   buffer, so windows overflow routinely and the runs live on the fallback
   paths (GIL serialisation, software transactions) — pressure the stock
   differential never reaches. The reference tier defines the expected
   instruction count; the threaded run gets a finite budget a bit above it
   so a divergence fails fast instead of spinning to the global budget. *)
let run_pressure ~interp ~scheme ~threads ~machine ?max_insns
    (w : Workloads.Workload.t) =
  let cfg =
    match max_insns with
    | None -> Core.Runner.config ~scheme ~interp machine
    | Some m -> Core.Runner.config ~scheme ~interp ~max_insns:m machine
  in
  let source = w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test in
  match w.Workloads.Workload.kind with
  | Workloads.Workload.Compute ->
      Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None) cfg
        ~source
  | Workloads.Workload.Server ->
      let requests = w.Workloads.Workload.server_requests Workloads.Size.Test in
      let io =
        (Option.get w.Workloads.Workload.make_io) ~clients:threads ~requests
      in
      Core.Runner.run_source ~io
        ~stop:(fun () -> Netsim.done_all io)
        ~setup:(w.Workloads.Workload.setup (Some io))
        cfg ~source

let test_tier_capacity_pressure () =
  let machine =
    { Htm_sim.Machine.zec12 with Htm_sim.Machine.ws_lines = 8 }
  in
  List.iter
    (fun wname ->
      let w = Option.get (Workloads.Workload.find wname) in
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              let name =
                Printf.sprintf "%s/%s/%dT (ws/4)" wname
                  (Core.Scheme.to_string scheme)
                  threads
              in
              let ref_ =
                run_pressure ~interp:Core.Runner.Interp_ref ~scheme ~threads
                  ~machine w
              in
              let budget = (3 * ref_.Core.Runner.total_insns) + 10_000 in
              let thr =
                run_pressure ~interp:Core.Runner.Interp_threaded ~scheme
                  ~threads ~machine ~max_insns:budget w
              in
              assert_same_tier (name ^ " (threaded)") thr ref_)
            [ 1; 2; 4; 6; 8; 12 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid ])
    [ "bt"; "cg"; "ft"; "is"; "lu"; "mg"; "sp"; "webrick" ]

let suite =
  suite
  @ [
      Alcotest.test_case "tier differential: capacity pressure" `Quick
        test_tier_capacity_pressure;
    ]
