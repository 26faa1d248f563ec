(** Lexer for the GDP requirements language. [%] does {e not} start a
    comment here (it is the accuracy operator); comments are [//] to end
    of line and [/* ... */] (nesting). *)

type token =
  | Ident of string  (** lowercase-initial identifier *)
  | Var of string  (** uppercase/underscore-initial identifier *)
  | Int of int
  | Float of float
  | Str of string
  | Punct of string
      (** one of ( ) [ ] { } , . ; : ' @ & | and the operators
          => <- >= =< == \== \= =:= =\= > < = + - * / % *)
  | Raw of string  (** brace-delimited raw block, braces stripped *)
  | Eof

type t = { token : token; line : int; col : int }

exception Error of string
(** Message includes line:col. *)

type stream
(** A pull lexer: {!next} scans one token at a time, so a parser reading
    from it holds only its lookahead, never the whole token list. *)

val stream : ?raw_after:string list -> string -> stream
(** A stream over [src], positioned at line 1, column 1. Whenever the
    token sequence [Ident k; ...; Punct "{"] with [k] in [raw_after]
    (default none) is seen before the next [Punct "."], the braces'
    content is captured verbatim as a single [Raw] token (respecting
    nested braces and quoted atoms). The parser uses this for
    [metamodel name { ... }] blocks, whose interior is engine-clause
    syntax. *)

val next : stream -> t
(** The next token; [Eof] at the end of input, and again on every later
    call. Raises {!Error} at the first character that starts no token,
    or at an unterminated string, comment or raw block. *)

val tokens : ?raw_after:string list -> string -> t list
(** Drain a {!stream} over the whole input, [Eof] included. *)
