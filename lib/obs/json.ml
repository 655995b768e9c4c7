type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') x y
  | _ -> false

(* ----- emission -------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | Str s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  emit buf v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* ----- the pull lexer --------------------------------------------------- *)

(* The one JSON lexer: [of_string] below builds trees on it, and
   [Serve.Ingest] reads trace events straight off it.  One cursor per
   parse, so parses on several domains at once share nothing.  A token's
   payload lives in the cursor until the next token replaces it: an int
   unboxed, a string as a span of the input that is validated when lexed
   but decoded (copied) only on request.  The grammar functions check
   what may come next before lexing it, so a syntax error is reported at
   the first byte that cannot continue a JSON text. *)
module Lexer = struct
  exception Syntax_error of int * string

  type token =
    | Lbrace
    | Lbracket
    | String
    | Int
    | Float
    | True
    | False
    | Null

  type t = {
    s : string;
    n : int;
    mutable pos : int;
    mutable start : int; (* the last string token's span [start, stop) *)
    mutable stop : int;
    mutable escaped : bool; (* ... and whether it holds an escape *)
    mutable int_value : int;
    mutable float_value : float;
  }

  let create s =
    {
      s;
      n = String.length s;
      pos = 0;
      start = 0;
      stop = 0;
      escaped = false;
      int_value = 0;
      float_value = 0.;
    }

  let message pos msg = Printf.sprintf "json: at offset %d: %s" pos msg
  let fail lx msg = raise (Syntax_error (lx.pos, msg))

  let rec skip_ws lx =
    if lx.pos < lx.n then
      match String.unsafe_get lx.s lx.pos with
      | ' ' | '\t' | '\n' | '\r' ->
          lx.pos <- lx.pos + 1;
          skip_ws lx
      | _ -> ()

  (* after whitespace, is the next byte [c]? *)
  let at lx c =
    skip_ws lx;
    lx.pos < lx.n && String.unsafe_get lx.s lx.pos = c

  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> -1

  (* the code unit of the four bytes at [i] (RFC 8259: exactly four hex
     digits), or -1 *)
  let hex4 s i =
    let a = hex s.[i] and b = hex s.[i + 1] and c = hex s.[i + 2]
    and d = hex s.[i + 3] in
    if a lor b lor c lor d < 0 then -1
    else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

  (* Scan string contents from [i] to the closing quote, validating every
     escape; the contents are decoded later, only if asked for. *)
  let rec scan_string lx i escaped =
    if i >= lx.n then begin
      lx.pos <- lx.n;
      fail lx "unterminated string"
    end
    else
      match String.unsafe_get lx.s i with
      | '"' ->
          lx.stop <- i;
          lx.escaped <- escaped;
          lx.pos <- i + 1
      | '\\' ->
          if i + 1 >= lx.n then begin
            lx.pos <- lx.n;
            fail lx "unterminated escape"
          end
          else begin
            match String.unsafe_get lx.s (i + 1) with
            | '"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f' ->
                scan_string lx (i + 2) true
            | 'u' ->
                if i + 6 > lx.n then begin
                  lx.pos <- i + 2;
                  fail lx "truncated \\u escape"
                end
                else if hex4 lx.s (i + 2) < 0 then begin
                  lx.pos <- i + 6;
                  fail lx "bad \\u escape"
                end
                else scan_string lx (i + 6) true
            | _ ->
                lx.pos <- i + 2;
                fail lx "bad escape"
          end
      | _ -> scan_string lx (i + 1) escaped

  let lex_string lx =
    lx.start <- lx.pos + 1;
    scan_string lx (lx.pos + 1) false

  (* A number is an optional '-' and a run of digits and [.eE+-].  Digits
     alone are an int when [int_of_string_opt] would accept them (so
     [max_int] is, and [max_int + 1] falls back to a float); any other
     run is whatever [float_of_string_opt] makes of it. *)
  let rec number_end s n i =
    if i < n then
      match String.unsafe_get s i with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> number_end s n (i + 1)
      | _ -> i
    else i

  let lex_float lx start =
    lx.pos <- number_end lx.s lx.n lx.pos;
    match float_of_string_opt (String.sub lx.s start (lx.pos - start)) with
    | Some f ->
        lx.float_value <- f;
        Float
    | None -> fail lx "bad number"

  (* [acc * 10 - d] fits iff [acc > min_tenth], or [acc = min_tenth] and
     [d <= min_last] *)
  let min_tenth = min_int / 10
  let min_last = -(min_int mod 10)

  (* [acc] is minus the magnitude read so far, so that [min_int] fits;
     [fits] turns false once it no longer would *)
  let rec lex_digits lx start neg acc fits =
    if lx.pos < lx.n then
      match String.unsafe_get lx.s lx.pos with
      | '0' .. '9' as c ->
          let d = Char.code c - 48 in
          lx.pos <- lx.pos + 1;
          if fits && (acc > min_tenth || (acc = min_tenth && d <= min_last))
          then lex_digits lx start neg ((acc * 10) - d) true
          else lex_digits lx start neg 0 false
      | '.' | 'e' | 'E' | '+' | '-' -> lex_float lx start
      | _ -> end_digits lx start neg acc fits
    else end_digits lx start neg acc fits

  and end_digits lx start neg acc fits =
    let digits = lx.pos - start - if neg then 1 else 0 in
    if fits && digits > 0 && (neg || acc <> min_int) then begin
      lx.int_value <- (if neg then acc else -acc);
      Int
    end
    else lex_float lx start

  let lex_number lx =
    let start = lx.pos in
    let neg = lx.s.[start] = '-' in
    if neg then lx.pos <- start + 1;
    lex_digits lx start neg 0 true

  let rec same s i word k =
    k >= String.length word || (s.[i + k] = word.[k] && same s i word (k + 1))

  let literal lx word tok =
    if lx.pos + String.length word <= lx.n && same lx.s lx.pos word 0 then begin
      lx.pos <- lx.pos + String.length word;
      tok
    end
    else fail lx ("expected " ^ word)

  let value lx =
    skip_ws lx;
    if lx.pos >= lx.n then fail lx "unexpected end of input"
    else
      match String.unsafe_get lx.s lx.pos with
      | '"' ->
          lex_string lx;
          String
      | 't' -> literal lx "true" True
      | 'f' -> literal lx "false" False
      | 'n' -> literal lx "null" Null
      | '[' ->
          lx.pos <- lx.pos + 1;
          Lbracket
      | '{' ->
          lx.pos <- lx.pos + 1;
          Lbrace
      | '-' | '0' .. '9' -> lex_number lx
      | c -> fail lx (Printf.sprintf "unexpected %C" c)

  (* a member's key and its ':' *)
  let key lx =
    if at lx '"' then lex_string lx else fail lx "expected '\"'";
    if at lx ':' then lx.pos <- lx.pos + 1 else fail lx "expected ':'"

  let first_key lx =
    if at lx '}' then begin
      lx.pos <- lx.pos + 1;
      false
    end
    else begin
      key lx;
      true
    end

  let next_key lx =
    skip_ws lx;
    if lx.pos < lx.n && lx.s.[lx.pos] = ',' then begin
      lx.pos <- lx.pos + 1;
      key lx;
      true
    end
    else if lx.pos < lx.n && lx.s.[lx.pos] = '}' then begin
      lx.pos <- lx.pos + 1;
      false
    end
    else fail lx "expected ',' or '}'"

  let first_elem lx =
    if at lx ']' then begin
      lx.pos <- lx.pos + 1;
      false
    end
    else true

  let next_elem lx =
    skip_ws lx;
    if lx.pos < lx.n && lx.s.[lx.pos] = ',' then begin
      lx.pos <- lx.pos + 1;
      true
    end
    else if lx.pos < lx.n && lx.s.[lx.pos] = ']' then begin
      lx.pos <- lx.pos + 1;
      false
    end
    else fail lx "expected ',' or ']'"

  let rec skip lx = function
    | Lbrace -> if first_key lx then skip_members lx
    | Lbracket -> if first_elem lx then skip_elems lx
    | String | Int | Float | True | False | Null -> ()

  and skip_members lx =
    skip lx (value lx);
    if next_key lx then skip_members lx

  and skip_elems lx =
    skip lx (value lx);
    if next_elem lx then skip_elems lx

  let finish lx =
    skip_ws lx;
    if lx.pos <> lx.n then fail lx "trailing garbage"

  let int lx = lx.int_value
  let float lx = lx.float_value

  (* ----- string decoding ----- *)

  let set b j c = Bytes.unsafe_set b j (Char.unsafe_chr c)

  (* UTF-8 for code point [cp] at [j]; returns the next free index *)
  let put_utf8 b j cp =
    if cp < 0x80 then begin
      set b j cp;
      j + 1
    end
    else if cp < 0x800 then begin
      set b j (0xC0 lor (cp lsr 6));
      set b (j + 1) (0x80 lor (cp land 0x3F));
      j + 2
    end
    else if cp < 0x10000 then begin
      set b j (0xE0 lor (cp lsr 12));
      set b (j + 1) (0x80 lor ((cp lsr 6) land 0x3F));
      set b (j + 2) (0x80 lor (cp land 0x3F));
      j + 3
    end
    else begin
      set b j (0xF0 lor (cp lsr 18));
      set b (j + 1) (0x80 lor ((cp lsr 12) land 0x3F));
      set b (j + 2) (0x80 lor ((cp lsr 6) land 0x3F));
      set b (j + 3) (0x80 lor (cp land 0x3F));
      j + 4
    end

  (* The span was validated when it was lexed.  A high surrogate escape
     followed at once by a low one is one code point (RFC 8259 §7); a
     lone surrogate is encoded as it stands. *)
  let rec decode s stop b i j =
    if i >= stop then Bytes.sub_string b 0 j
    else
      match s.[i] with
      | '\\' -> (
          match s.[i + 1] with
          | 'u' ->
              let hi = hex4 s (i + 2) in
              let lo =
                if
                  hi >= 0xD800 && hi <= 0xDBFF && i + 12 <= stop
                  && s.[i + 6] = '\\'
                  && s.[i + 7] = 'u'
                then hex4 s (i + 8)
                else -1
              in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                decode s stop b (i + 12)
                  (put_utf8 b j (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)))
              else decode s stop b (i + 6) (put_utf8 b j hi)
          | e ->
              Bytes.unsafe_set b j
                (match e with
                | 'n' -> '\n'
                | 'r' -> '\r'
                | 't' -> '\t'
                | 'b' -> '\b'
                | 'f' -> '\012'
                | c -> c);
              decode s stop b (i + 2) (j + 1))
      | c ->
          Bytes.unsafe_set b j c;
          decode s stop b (i + 1) (j + 1)

  (* a decoding is never longer than its escaped form *)
  let string lx =
    if lx.escaped then
      decode lx.s lx.stop (Bytes.create (lx.stop - lx.start)) lx.start 0
    else String.sub lx.s lx.start (lx.stop - lx.start)

  let rec span_is s start stop lit k =
    k = stop - start
    || (String.unsafe_get s (start + k) = String.unsafe_get lit k
       && span_is s start stop lit (k + 1))

  let span_equal lx lit =
    lx.stop - lx.start = String.length lit && span_is lx.s lx.start lx.stop lit 0

  let string_is lx lit =
    if lx.escaped then String.equal (string lx) lit else span_equal lx lit

  (* A table finds a name in one probe: [first] maps a bucket of (length,
     first byte) to the first name in it; a miss there scans on, which
     only names that share a bucket, or an escaped token, ever need. *)
  type table = { names : string array; first : int array }

  let bucket s start len =
    ((len * 31) + if len = 0 then 0 else Char.code (String.unsafe_get s start))
    land 255

  let table names =
    let first = Array.make 256 (-1) in
    Array.iteri
      (fun i name ->
        let b = bucket name 0 (String.length name) in
        if first.(b) < 0 then first.(b) <- i)
      names;
    { names; first }

  let rec index_of names s i =
    if i >= Array.length names then -1
    else if String.equal names.(i) s then i
    else index_of names s (i + 1)

  let rec span_index lx names i =
    if i >= Array.length names then -1
    else if span_equal lx names.(i) then i
    else span_index lx names (i + 1)

  let string_index lx t =
    if lx.escaped then index_of t.names (string lx) 0
    else
      let i = t.first.(bucket lx.s lx.start (lx.stop - lx.start)) in
      if i < 0 then -1 else span_index lx t.names i
end

(* ----- the tree builder ------------------------------------------------ *)

let rec build lx = function
  | Lexer.Null -> Null
  | Lexer.True -> Bool true
  | Lexer.False -> Bool false
  | Lexer.Int -> Int (Lexer.int lx)
  | Lexer.Float -> Float (Lexer.float lx)
  | Lexer.String -> Str (Lexer.string lx)
  | Lexer.Lbracket -> List (if Lexer.first_elem lx then elems lx [] else [])
  | Lexer.Lbrace -> Obj (if Lexer.first_key lx then members lx [] else [])

and elems lx acc =
  let acc = build lx (Lexer.value lx) :: acc in
  if Lexer.next_elem lx then elems lx acc else List.rev acc

and members lx acc =
  let k = Lexer.string lx in
  let acc = (k, build lx (Lexer.value lx)) :: acc in
  if Lexer.next_key lx then members lx acc else List.rev acc

let of_string s =
  let lx = Lexer.create s in
  match
    let v = build lx (Lexer.value lx) in
    Lexer.finish lx;
    v
  with
  | v -> Ok v
  | exception Lexer.Syntax_error (pos, msg) -> Error (Lexer.message pos msg)

(* ----- accessors -------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float_opt = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
