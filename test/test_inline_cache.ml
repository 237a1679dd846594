(* Inline-cache behaviour: the Section 4.4 changes (fill-once method caches,
   ivar-table-equality guards) must preserve semantics at polymorphic sites
   and across inheritance. *)

let poly_src =
  {|class A
  def tag
    "a"
  end
end
class B
  def tag
    "b"
  end
end
# one polymorphic call site, alternating receivers
objs = [A.new, B.new, A.new, B.new, A.new]
out = ""
objs.each { |o| out << o.tag }
puts out|}

let test_polymorphic_site () =
  List.iter
    (fun opts ->
      Alcotest.(check string) "alternating receivers" "ababa\n"
        (Tutil.output ~opts poly_src))
    [
      Rvm.Options.default;
      (* original CRuby: refill on every miss, class-equality guard *)
      { Rvm.Options.default with cache_fill_once = false };
      { Rvm.Options.default with ivar_guard = Rvm.Options.Class_equality };
    ]

let test_inherited_ivar_guard () =
  (* a subclass without its own ivars shares the parent's ivar table: the
     table-equality guard may reuse the cache, the class guard may not —
     both must read the right slots *)
  let src =
    {|class Base
  def initialize(v)
    @v = v
  end
  def v
    @v
  end
end
class Derived < Base
end
objs = [Base.new(1), Derived.new(2), Base.new(3), Derived.new(4)]
total = 0
objs.each { |o| total += o.v }
puts total|}
  in
  List.iter
    (fun guard ->
      Alcotest.(check string)
        (match guard with
        | Rvm.Options.Class_equality -> "class guard"
        | Rvm.Options.Table_equality -> "table guard")
        "10\n"
        (Tutil.output ~opts:{ Rvm.Options.default with ivar_guard = guard } src))
    [ Rvm.Options.Class_equality; Rvm.Options.Table_equality ]

let test_subclass_with_own_ivars () =
  (* once the subclass adds an ivar the layouts diverge: the table guard
     must stop sharing *)
  Tutil.check_output "diverged layouts" "7/9\n"
    {|class P
  def initialize
    @a = 7
  end
  def a
    @a
  end
end
class Q < P
  def initialize
    @a = 9
    @b = 1
  end
end
puts "#{P.new.a}/#{Q.new.a}"|}

let test_method_cache_under_htm () =
  (* shared inline caches filled concurrently: all threads get right answers *)
  Tutil.check_output ~scheme:Core.Scheme.Htm_dynamic "concurrent cache fill"
    "30\n"
    {|class W
  def ten
    10
  end
end
total = [0]
m = Mutex.new
ths = []
t = 0
while t < 3
  ths << Thread.new do
    w = W.new
    m.synchronize { total[0] += w.ten }
  end
  t += 1
end
ths.each { |th| th.join }
puts total[0]|}

let test_attr_cache_slots () =
  (* attr_accessor getters/setters carry their own cache slots *)
  Tutil.check_output "attrs across instances" "5 6\n"
    {|class Pt
  attr_accessor :x
end
a = Pt.new
b = Pt.new
a.x = 5
b.x = 6
puts "#{a.x} #{b.x}"|}

let suite =
  [
    Alcotest.test_case "polymorphic site, all cache policies" `Quick
      test_polymorphic_site;
    Alcotest.test_case "inherited ivar guards" `Quick test_inherited_ivar_guard;
    Alcotest.test_case "diverged subclass layouts" `Quick
      test_subclass_with_own_ivars;
    Alcotest.test_case "concurrent cache fill under HTM" `Quick
      test_method_cache_under_htm;
    Alcotest.test_case "attr cache slots" `Quick test_attr_cache_slots;
  ]
