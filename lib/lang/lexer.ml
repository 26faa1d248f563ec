type token =
  | Ident of string
  | Var of string
  | Int of int
  | Float of float
  | Str of string
  | Punct of string
  | Raw of string
  | Eof

type t = { token : token; line : int; col : int }

exception Error of string

type stream = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  raw_after : string list;
  mutable pending_raw : bool;
      (* a [raw_after] keyword was seen since the last '.': the next '{'
         opens a raw block *)
}

let error st fmt =
  Format.kasprintf
    (fun msg -> raise (Error (Printf.sprintf "%d:%d: %s" st.line st.col msg)))
    fmt

(* The character [k] places ahead of the cursor; '\000' past the end.
   Callers that must tell a NUL byte from the end of input test [pos]. *)
let at st k =
  let i = st.pos + k in
  if i < st.len then String.unsafe_get st.src i else '\000'

let at_end st = st.pos >= st.len

let advance st =
  if st.pos < st.len then begin
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1
  end;
  st.pos <- st.pos + 1

let rec skip_ws st =
  if not (at_end st) then
    match at st 0 with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws st
    | '/' when at st 1 = '/' ->
        while (not (at_end st)) && at st 0 <> '\n' do
          advance st
        done;
        skip_ws st
    | '/' when at st 1 = '*' ->
        advance st;
        advance st;
        let rec go depth =
          if at_end st then error st "unterminated comment"
          else
            match at st 0 with
            | '*' when at st 1 = '/' ->
                advance st;
                advance st;
                if depth > 1 then go (depth - 1)
            | '/' when at st 1 = '*' ->
                advance st;
                advance st;
                go (depth + 1)
            | _ ->
                advance st;
                go depth
        in
        go 1;
        skip_ws st
    | _ -> ()

let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident c = is_lower c || is_upper c || is_digit c

(* identifiers and digit runs never span a newline, so the column moves
   with the cursor *)
let take_while st pred =
  let start = st.pos in
  while st.pos < st.len && pred (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  st.col <- st.col + (st.pos - start);
  String.sub st.src start (st.pos - start)

let lex_exponent st =
  (* called with the cursor on 'e'/'E'; only consumes when a digit (with
     optional sign) follows, so "2e" stays Int 2 + Ident e *)
  match at st 0 with
  | 'e' | 'E' ->
      let after_sign =
        match at st 1 with '+' | '-' -> at st 2 | other -> other
      in
      if is_digit after_sign then begin
        advance st;
        let sign =
          match at st 0 with
          | ('+' | '-') as c ->
              advance st;
              String.make 1 c
          | _ -> ""
        in
        Some ("e" ^ sign ^ take_while st is_digit)
      end
      else None
  | _ -> None

let lex_number st =
  let intpart = take_while st is_digit in
  if at st 0 = '.' && is_digit (at st 1) then begin
    advance st;
    let frac = take_while st is_digit in
    let expo = Option.value (lex_exponent st) ~default:"" in
    Float (float_of_string (intpart ^ "." ^ frac ^ expo))
  end
  else
    match lex_exponent st with
    | Some expo -> Float (float_of_string (intpart ^ ".0" ^ expo))
    | None -> Int (int_of_string intpart)

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated string"
    else
      match at st 0 with
      | '"' -> advance st
      | '\\' ->
          advance st;
          if at_end st then error st "unterminated escape";
          (match at st 0 with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          advance st;
          go ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          go ()
  in
  go ();
  Str (Buffer.contents buf)

(* Operators and punctuation, dispatched on the first character, longest
   match first: => <- >= =< == \== \= =:= =\= > < = and the
   single-character punctuation. Every token text is a shared string, so
   no punctuation token allocates one. *)
let punct st n p =
  for _ = 1 to n do
    advance st
  done;
  Punct p

let single_chars = "()[]{},.;:'@&%+-*/|"
let one_char = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let lex_punct st c =
  match c with
  | '=' -> (
      match at st 1 with
      | ':' when at st 2 = '=' -> punct st 3 "=:="
      | '\\' when at st 2 = '=' -> punct st 3 "=\\="
      | '>' -> punct st 2 "=>"
      | '<' -> punct st 2 "=<"
      | '=' -> punct st 2 "=="
      | _ -> punct st 1 "=")
  | '\\' when at st 1 = '=' ->
      if at st 2 = '=' then punct st 3 "\\==" else punct st 2 "\\="
  | '<' -> if at st 1 = '-' then punct st 2 "<-" else punct st 1 "<"
  | '>' -> if at st 1 = '=' then punct st 2 ">=" else punct st 1 ">"
  | c when String.contains single_chars c -> punct st 1 one_char.(Char.code c)
  | c -> error st "unexpected character %C" c

let next_token st =
  skip_ws st;
  let line = st.line and col = st.col in
  let token =
    if at_end st then Eof
    else
      let c = at st 0 in
      if is_digit c then lex_number st
      else if is_lower c then Ident (take_while st is_ident)
      else if is_upper c then Var (take_while st is_ident)
      else if c = '"' then lex_string st
      else lex_punct st c
  in
  { token; line; col }

let capture_raw st =
  (* st is positioned just after the opening '{' *)
  let buf = Buffer.create 128 in
  let rec go depth =
    if at_end st then error st "unterminated raw block"
    else
      match at st 0 with
      | '{' ->
          Buffer.add_char buf '{';
          advance st;
          go (depth + 1)
      | '}' ->
          advance st;
          if depth > 1 then begin
            Buffer.add_char buf '}';
            go (depth - 1)
          end
      | '\'' ->
          (* quoted atom: copy verbatim so braces inside quotes are safe *)
          Buffer.add_char buf '\'';
          advance st;
          let rec copy_quoted () =
            if at_end st then error st "unterminated quoted atom in raw block"
            else
              match at st 0 with
              | '\'' ->
                  Buffer.add_char buf '\'';
                  advance st
              | c ->
                  Buffer.add_char buf c;
                  advance st;
                  copy_quoted ()
          in
          copy_quoted ();
          go depth
      | c ->
          Buffer.add_char buf c;
          advance st;
          go depth
  in
  go 1;
  Buffer.contents buf

let stream ?(raw_after = []) src =
  { src; len = String.length src; pos = 0; line = 1; col = 1; raw_after;
    pending_raw = false }

let next st =
  let tok = next_token st in
  match tok.token with
  | Punct "{" when st.pending_raw ->
      st.pending_raw <- false;
      let line = st.line and col = st.col in
      { token = Raw (capture_raw st); line; col }
  | Ident k when st.raw_after <> [] && List.mem k st.raw_after ->
      st.pending_raw <- true;
      tok
  | Punct "." ->
      st.pending_raw <- false;
      tok
  | _ -> tok

let tokens ?raw_after src =
  let st = stream ?raw_after src in
  let rec go acc =
    let tok = next st in
    match tok.token with Eof -> List.rev (tok :: acc) | _ -> go (tok :: acc)
  in
  go []
