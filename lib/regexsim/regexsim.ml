(* A small backtracking regular-expression engine, standing in for Ruby's
   Oniguruma. It is deliberately a "C extension": when run inside the VM it
   has no yield points, and its working set (reported via [steps]) is large,
   which is exactly why the paper saw footprint-overflow aborts inside the
   regular-expression library (Section 5.6).

   Supported syntax: literals, '.', character classes [a-z0-9] (with ^
   negation), '*', '+', '?', grouping (...), alternation |, anchors ^ $,
   and the escapes \d \w \s \. etc. *)

type node =
  | Char of char
  | Any
  | Class of (char -> bool)
  | Star of node
  | Plus of node
  | Opt of node
  | Seq of node list
  | Alt of node * node
  | Group of node
  | Bol
  | Eol

exception Parse_error of string

let parse pattern =
  let n = String.length pattern in
  let pos = ref 0 in
  let peek () = if !pos < n then Some pattern.[!pos] else None in
  let advance () = incr pos in
  let parse_class () =
    (* '[' already consumed *)
    let negated = peek () = Some '^' in
    if negated then advance ();
    let ranges = ref [] and chars = ref [] in
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> raise (Parse_error "unterminated character class")
      | Some ']' ->
          advance ();
          fin := true
      | Some c ->
          advance ();
          if peek () = Some '-' && !pos + 1 < n && pattern.[!pos + 1] <> ']' then begin
            advance ();
            let d = pattern.[!pos] in
            advance ();
            ranges := (c, d) :: !ranges
          end
          else chars := c :: !chars
    done;
    let ranges = !ranges and chars = !chars in
    let test ch =
      List.exists (fun (a, b) -> ch >= a && ch <= b) ranges || List.mem ch chars
    in
    Class (if negated then fun ch -> not (test ch) else test)
  in
  let escape c =
    match c with
    | 'd' -> Class (fun ch -> ch >= '0' && ch <= '9')
    | 'w' ->
        Class
          (fun ch ->
            (ch >= 'a' && ch <= 'z')
            || (ch >= 'A' && ch <= 'Z')
            || (ch >= '0' && ch <= '9')
            || ch = '_')
    | 's' -> Class (fun ch -> ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r')
    | 'n' -> Char '\n'
    | 't' -> Char '\t'
    | 'r' -> Char '\r'
    | c -> Char c
  in
  let rec parse_alt () =
    let left = parse_seq () in
    match peek () with
    | Some '|' ->
        advance ();
        Alt (left, parse_alt ())
    | _ -> left
  and parse_seq () =
    let items = ref [] in
    let fin = ref false in
    while not !fin do
      match peek () with
      | None | Some '|' | Some ')' -> fin := true
      | Some _ -> items := parse_postfix () :: !items
    done;
    Seq (List.rev !items)
  and parse_postfix () =
    let atom = parse_atom () in
    match peek () with
    | Some '*' ->
        advance ();
        Star atom
    | Some '+' ->
        advance ();
        Plus atom
    | Some '?' ->
        advance ();
        Opt atom
    | _ -> atom
  and parse_atom () =
    match peek () with
    | None -> raise (Parse_error "unexpected end of pattern")
    | Some '(' ->
        advance ();
        let inner = parse_alt () in
        (match peek () with
        | Some ')' -> advance ()
        | _ -> raise (Parse_error "missing )"));
        Group inner
    | Some '[' ->
        advance ();
        parse_class ()
    | Some '.' ->
        advance ();
        Any
    | Some '^' ->
        advance ();
        Bol
    | Some '$' ->
        advance ();
        Eol
    | Some '\\' ->
        advance ();
        (match peek () with
        | None -> raise (Parse_error "dangling backslash")
        | Some c ->
            advance ();
            escape c)
    | Some c ->
        advance ();
        Char c
  in
  let ast = parse_alt () in
  if !pos <> n then raise (Parse_error "trailing characters in pattern");
  ast

type t = { ast : node }

let compile pattern = { ast = parse pattern }

(* Match with an explicit step counter: the caller uses [steps] to charge the
   host VM for the engine's memory traffic. Returns the end position of the
   match starting at [start], if any, plus captured groups. *)
let match_at re s start =
  let n = String.length s in
  let steps = ref 0 in
  let groups = ref [] in
  let rec go node i (k : int -> int option) =
    incr steps;
    match node with
    | Char c -> if i < n && s.[i] = c then k (i + 1) else None
    | Any -> if i < n then k (i + 1) else None
    | Class f -> if i < n && f s.[i] then k (i + 1) else None
    | Bol -> if i = 0 || s.[i - 1] = '\n' then k i else None
    | Eol -> if i = n || s.[i] = '\n' then k i else None
    | Seq [] -> k i
    | Seq (x :: rest) -> go x i (fun j -> go (Seq rest) j k)
    | Opt x -> ( match go x i k with Some r -> Some r | None -> k i)
    | Star x ->
        let rec loop j =
          incr steps;
          match go x j (fun j' -> if j' > j then loop j' else k j') with
          | Some r -> Some r
          | None -> k j
        in
        loop i
    | Plus x -> go x i (fun j -> go (Star x) j k)
    | Alt (a, b) -> ( match go a i k with Some r -> Some r | None -> go b i k)
    | Group x ->
        go x i (fun j ->
            match k j with
            | Some r ->
                groups := (i, j) :: !groups;
                Some r
            | None -> None)
  in
  let result = go re.ast start (fun j -> Some j) in
  (result, List.rev !groups, !steps)

(* Find the first match anywhere in [s]. Returns
   (start, stop, groups, total backtracking steps) — failed attempts also
   contribute steps, like a real backtracker scanning the haystack. *)
let search re s =
  let n = String.length s in
  let rec from i total =
    if i > n then (None, total)
    else
      match match_at re s i with
      | Some stop, groups, steps -> (Some (i, stop, groups), total + steps)
      | None, _, steps -> from (i + 1) (total + steps)
  in
  from 0 0

let matches re s = match search re s with Some _, _ -> true | None, _ -> false
