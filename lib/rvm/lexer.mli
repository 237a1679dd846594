(** Hand-written lexer for MiniRuby. Newlines are tokens (they terminate
    statements) but are suppressed inside parentheses and brackets and after
    tokens that cannot end an expression; whitespace before a token is
    recorded because Ruby's grammar is whitespace-sensitive around command
    calls ([foo (x).y] vs [foo(x).y]). *)

type strpart =
  | SLit of string
  | SExpr of string * int
      (** an interpolated snippet and the line its [#{] opens on; the
          parser shifts the snippet's front-end errors onto that line *)

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | ISTRING of strpart list  (** "a#{expr}b": interpolated string *)
  | IDENT of string  (** lower-case identifier, possibly ending in ? or ! *)
  | CONSTANT of string
  | IVAR of string
  | CVAR of string
  | GVAR of string
  | SYMBOL of string
  | KW of string
  | OP of string
  | NEWLINE
  | EOF

type lexed = { tok : token; line : int; spaced : bool }

exception Error of string * int
(** message, line number *)

val keywords : string list
val is_keyword : string -> bool
val tokenize : string -> lexed list
