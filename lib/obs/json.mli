(** A minimal JSON representation with a serializer, a pull lexer and a
    tree parser on top of it, hand-rolled so the observability layer adds
    no dependencies.

    The emitter produces one-line (no newline) renderings, which is what
    {!Export} needs for line-delimited JSON.  Floats that are NaN or
    infinite serialize as [null] (JSON has no representation for them).

    Every JSON reader in the tree goes through the one {!Lexer}:
    {!of_string} builds a {!t} on it for the JSONL readers ([Export],
    checkpoints, corpora, verdict logs, [rlin trace --validate]), and the
    [rlin serve] ingest reads trace events straight off it without
    building a tree. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool
(** Structural equality; [Int n] and [Float f] are distinct even when
    numerically equal (round-trips preserve the constructor). *)

val to_string : t -> string
(** Render on one line (no embedded newlines: strings are escaped). *)

(** A pull lexer over one JSON text.

    The caller drives the grammar: {!value} lexes the token that starts a
    value; after an {!Lbrace}, {!first_key} and {!next_key} step through
    the members (each [true] leaves the member's key as the current
    string token, with its [':'] consumed, so the caller calls {!value}
    next); after an {!Lbracket}, {!first_elem} and {!next_elem} do the
    same for elements; {!skip} consumes the rest of a value whose first
    token was just read; {!finish} requires the end of the input.  Any of
    them raises {!Syntax_error} at the first byte that cannot continue a
    JSON text, so a caller that walks the whole text validates all of it.

    Token payloads stay in the cursor until the next token: an int
    unboxed, a string as a validated span of the input that is decoded
    (copied) only by {!string}, or by {!string_is}/{!string_index} when it
    holds an escape.  Numbers follow one rule: an optional ['-'] and a run
    of [0-9.eE+-]; digits alone that [int_of_string_opt] accepts are an
    {!Int}, any other run is a {!Float} if [float_of_string_opt] accepts
    it.  [\u] escapes take exactly four hex digits, and a high/low
    surrogate pair decodes to one 4-byte UTF-8 sequence (RFC 8259 §7); a
    lone surrogate is encoded on its own as 3 bytes.

    A cursor holds all of a parse's state: parses on several domains at
    once need only one cursor each. *)
module Lexer : sig
  exception Syntax_error of int * string
  (** Offset and reason; {!message} renders them. *)

  type token =
    | Lbrace
    | Lbracket
    | String
    | Int
    | Float
    | True
    | False
    | Null

  type t

  val create : string -> t
  val message : int -> string -> string

  val value : t -> token
  (** Lex the token that starts the next value. *)

  val first_key : t -> bool
  val next_key : t -> bool
  val first_elem : t -> bool
  val next_elem : t -> bool

  val skip : t -> token -> unit
  (** Consume (and validate) the rest of the value that starts with the
      given token; a scalar has no rest. *)

  val finish : t -> unit

  val int : t -> int
  val float : t -> float

  val string : t -> string
  (** The current string token, decoded. *)

  val string_is : t -> string -> bool
  (** [string_is lx lit] is [string lx = lit], with no allocation unless
      the token holds an escape. *)

  type table
  (** A set of names to look string tokens up in. *)

  val table : string array -> table

  val string_index : t -> table -> int
  (** The index of the first name equal to the current string token, or
      [-1]: one probe and one comparison for a name in the table, no
      allocation unless the token holds an escape. *)
end

val of_string : string -> (t, string) result
(** Parse a single JSON value; [Error msg] carries a position.  Duplicate
    keys are kept in order, so {!member} sees the first. *)

val pp : Format.formatter -> t -> unit

(** {2 Accessors (total, for tests and tooling)} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
