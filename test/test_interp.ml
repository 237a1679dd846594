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
  (* a String receiver against a non-String argument sends :== *)
  check "!= is the negation of ==" "true\nfalse\nfalse\ntrue\n"
    {|puts("abc" != 5)
puts("abc" == 5)
puts("abc" != "abc")
puts("abc" != "abd")|};
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

(* ---- guest corpus: pinned outputs and one cross-commit digest --------- *)

(* FNV-1a, 64-bit. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* The digest of every corpus run's simulated results: output, cycles,
   instructions, HTM and STM begins/commits, conflict aborts, transactional
   accesses, GC runs and allocations. Every opcode's sequence of simulated
   reads and writes reaches these counters, so this constant is the test
   suite's pin on it. It was computed while a second, independently
   written opcode handler still existed (both gave this value), and held
   unchanged when that handler was deleted. Update it only in a change
   that means to move simulated results, and say why. *)
let guest_corpus_digest = "f2720f5a54be72ba"

(* Single-VM guest corpus under every scheme the figures use, with each
   program's expected output. *)
let guest_corpus =
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

let test_guest_corpus () =
  let runs = Buffer.create 4096 in
  List.iter
    (fun (name, source, expected) ->
      List.iter
        (fun scheme ->
          let nm = Printf.sprintf "%s/%s" name (Core.Scheme.to_string scheme) in
          let r = Tutil.run_source ~scheme source in
          Alcotest.(check string) (nm ^ ": expected output") expected r.output;
          let h = r.htm_stats and s = r.stm_stats in
          Printf.bprintf runs "%s %S %d %d %d %d %d %d %d %d %d %d\n" nm
            r.output r.wall_cycles r.total_insns h.Htm_sim.Stats.begins
            h.commits h.aborts_conflict h.txn_accesses s.Stm.begins s.commits
            r.gc_runs r.allocs)
        [
          Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid;
          Core.Scheme.Fine_grained;
        ])
    guest_corpus;
  Alcotest.(check string) "simulated-results digest" guest_corpus_digest
    (fnv64 (Buffer.contents runs))

let suite =
  suite
  @ [
      Alcotest.test_case "opt arithmetic edges" `Quick test_arith_edges;
      Alcotest.test_case "decode consistency" `Quick test_decode_consistency;
      Alcotest.test_case "runner cost table" `Quick test_runner_cost_tbl;
      Alcotest.test_case "guest corpus" `Quick test_guest_corpus;
    ]
