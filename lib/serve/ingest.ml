module J = Obs.Json
module V = History.Value

(* Stream ingestion for [rlin serve]: a chunk-to-line reader that
   tolerates mid-write (partial) tails, plus a strict-but-total parser
   from the [Simkit.Trace.entry_json] JSONL schema into typed events.
   Every malformed shape becomes an [Error] for the quarantine — parsing
   never raises. *)

(* ----- partial-line-tolerant reader ------------------------------------- *)

module Reader = struct
  (* Bytes arrive in arbitrary chunks (pipe reads, socket frames, a tail
     of a file another process is still writing).  [feed] returns only
     the complete ('\n'-terminated) lines; a trailing fragment is
     buffered and completed by the next chunk.  [take_rest] surrenders
     the fragment at end-of-stream (a final line the writer never
     terminated). *)
  type t = { buf : Buffer.t }

  let create () = { buf = Buffer.create 256 }
  let pending t = if Buffer.length t.buf = 0 then None else Some (Buffer.contents t.buf)

  let feed t chunk =
    match String.index_opt chunk '\n' with
    | None ->
        Buffer.add_string t.buf chunk;
        []
    | Some _ ->
        let joined = Buffer.contents t.buf ^ chunk in
        Buffer.clear t.buf;
        let parts = String.split_on_char '\n' joined in
        (* the last part is the (possibly empty) unterminated tail *)
        let rec split_last acc = function
          | [] -> (List.rev acc, "")
          | [ last ] -> (List.rev acc, last)
          | x :: rest -> split_last (x :: acc) rest
        in
        let lines, tail = split_last [] parts in
        Buffer.add_string t.buf tail;
        lines

  let take_rest t =
    if Buffer.length t.buf = 0 then None
    else begin
      let s = Buffer.contents t.buf in
      Buffer.clear t.buf;
      Some s
    end
end

(* ----- reading records off the lexer ------------------------------------ *)

(* A record's fields are read straight off [Obs.Json.Lexer] into slots;
   no tree is built.  The semantics are those of a lookup in the parsed
   object: the first occurrence of a key wins, later ones and unknown
   keys are skipped (but still lexed, so still validated), and a key is
   matched on its decoded text, escapes and all.  A record is decided
   only once the whole line has lexed, so a syntax error anywhere on the
   line rejects it whatever its fields said.  A record's key table is an
   array of (name, tag) pairs; bit [i] of a slot set's [seen] records
   that key [i] has occurred. *)

module L = J.Lexer

let seen_bit i = 1 lsl i

(* ----- values ----------------------------------------------------------- *)

type value_key = Type | Vv | Va | Vb | Ts | Sq | Pid

let value_keys =
  [| ("type", Type); ("v", Vv); ("a", Va); ("b", Vb); ("ts", Ts); ("sq", Sq); ("pid", Pid) |]

let value_key_table = L.table (Array.map fst value_keys)

type value_type = No_type | Bot | Int | Pair | Vec | Lam | Other_type of string

let value_types = [| ("bot", Bot); ("int", Int); ("pair", Pair); ("vec", Vec); ("lam", Lam) |]
let value_type_table = L.table (Array.map fst value_types)

(* One value record's slots: each field's first occurrence, when it had
   the wanted JSON type (a string for "type", a list for "ts", an int
   for the rest). *)
type vslots = {
  mutable vseen : int;
  mutable ty : value_type;
  mutable v : int;
  mutable has_v : bool;
  mutable a : int;
  mutable has_a : bool;
  mutable b : int;
  mutable has_b : bool;
  mutable sq : int;
  mutable has_sq : bool;
  mutable pid : int;
  mutable has_pid : bool;
  mutable has_ts : bool;
  mutable ts : Clocks.Vector.entry list; (* reversed *)
  mutable ts_bad : bool; (* some entry is neither an int >= 0 nor "inf" *)
}

let vslots () =
  {
    vseen = 0;
    ty = No_type;
    v = 0;
    has_v = false;
    a = 0;
    has_a = false;
    b = 0;
    has_b = false;
    sq = 0;
    has_sq = false;
    pid = 0;
    has_pid = false;
    has_ts = false;
    ts = [];
    ts_bad = false;
  }

let set_int vs key n =
  match key with
  | Vv ->
      vs.v <- n;
      vs.has_v <- true
  | Va ->
      vs.a <- n;
      vs.has_a <- true
  | Vb ->
      vs.b <- n;
      vs.has_b <- true
  | Sq ->
      vs.sq <- n;
      vs.has_sq <- true
  | Pid ->
      vs.pid <- n;
      vs.has_pid <- true
  | Type | Ts -> ()

let missing_type = Error "value: missing \"type\""

(* The one decision on a value record (inverse of
   [Simkit.Trace.value_json]), whether its slots were filled off the
   lexer or from a tree. *)
let decide_value vs =
  match vs.ty with
  | No_type -> missing_type
  | Bot -> Ok V.Bot
  | Int -> if vs.has_v then Ok (V.Int vs.v) else Error "int value: missing \"v\""
  | Pair ->
      if vs.has_a && vs.has_b then Ok (V.Pair (vs.a, vs.b))
      else Error "pair value: missing \"a\" or \"b\""
  | Vec ->
      if not (vs.has_v && vs.has_ts) then Error "vec value: missing \"v\" or \"ts\""
      else if vs.ts_bad || vs.ts = [] then Error "vec value: bad \"ts\" entries"
      else Ok (V.VecStamped (vs.v, Clocks.Vector.of_list (List.rev vs.ts)))
  | Lam ->
      if not (vs.has_v && vs.has_sq && vs.has_pid) then
        Error "lam value: missing \"v\", \"sq\" or \"pid\""
      else if vs.sq >= 0 && vs.pid >= 1 then
        Ok (V.LamStamped (vs.v, Clocks.Lamport.make ~sq:vs.sq ~pid:vs.pid))
      else Error "lam value: sq/pid out of range"
  | Other_type ty -> Error (Printf.sprintf "unknown value type %S" ty)

let rec read_ts lx vs =
  (match L.value lx with
  | L.Int when L.int lx >= 0 -> vs.ts <- Clocks.Vector.Fin (L.int lx) :: vs.ts
  | L.String when L.string_is lx "inf" -> vs.ts <- Clocks.Vector.Inf :: vs.ts
  | tok ->
      L.skip lx tok;
      vs.ts_bad <- true);
  if L.next_elem lx then read_ts lx vs

let value_field lx vs key tok =
  match (key, tok) with
  | Type, L.String ->
      vs.ty <-
        (match L.string_index lx value_type_table with
        | -1 -> Other_type (L.string lx)
        | i -> snd value_types.(i))
  | Ts, L.Lbracket ->
      vs.has_ts <- true;
      if L.first_elem lx then read_ts lx vs
  | (Vv | Va | Vb | Sq | Pid), L.Int -> set_int vs key (L.int lx)
  | _ -> L.skip lx tok

(* after a member key inside a value object *)
let rec read_value_fields lx vs =
  let i = L.string_index lx value_key_table in
  let tok = L.value lx in
  if i >= 0 && vs.vseen land seen_bit i = 0 then begin
    vs.vseen <- vs.vseen lor seen_bit i;
    value_field lx vs (snd value_keys.(i)) tok
  end
  else L.skip lx tok;
  if L.next_key lx then read_value_fields lx vs

let read_value lx = function
  | L.Lbrace ->
      let vs = vslots () in
      if L.first_key lx then read_value_fields lx vs;
      decide_value vs
  | tok ->
      L.skip lx tok;
      missing_type

(* Inverse of [Simkit.Trace.value_json] on a tree (checkpoints hold their
   values as trees): the same slots, filled by lookup. *)
let value_of_json j =
  let vs = vslots () in
  Array.iter
    (fun (name, key) ->
      match (key, J.member name j) with
      | _, None -> ()
      | Type, Some (J.Str s) ->
          vs.ty <-
            (match List.assoc_opt s (Array.to_list value_types) with
            | Some ty -> ty
            | None -> Other_type s)
      | Ts, Some (J.List entries) ->
          vs.has_ts <- true;
          List.iter
            (function
              | J.Int k when k >= 0 -> vs.ts <- Clocks.Vector.Fin k :: vs.ts
              | J.Str "inf" -> vs.ts <- Clocks.Vector.Inf :: vs.ts
              | _ -> vs.ts_bad <- true)
            entries
      | (Vv | Va | Vb | Sq | Pid), Some (J.Int n) -> set_int vs key n
      | _, Some _ -> ())
    value_keys;
  decide_value vs

let value_json = Simkit.Trace.value_json

(* ----- events ----------------------------------------------------------- *)

type event =
  | Invoke of { op_id : int; proc : int; obj : string; kind : History.Op.kind }
  | Respond of { op_id : int; result : V.t option }

type parsed =
  | Event of { time : int; ev : event }
  | Annotation of string  (** a known non-history record kind *)

type event_key = T | Kind | Op | Proc | Obj | Opkind | Value | Result

let event_keys =
  [|
    ("t", T);
    ("kind", Kind);
    ("op", Op);
    ("proc", Proc);
    ("obj", Obj);
    ("opkind", Opkind);
    ("value", Value);
    ("result", Result);
  |]

let event_key_table = L.table (Array.map fst event_keys)

(* Trace annotations ride alongside history events in [rlin trace --out]
   streams; serve counts and skips them (they carry linearization points,
   coin flips and timestamps, not operations). *)
type record_kind =
  | No_kind
  | Invoke_kind
  | Respond_kind
  | Annotation_kind of string
  | Other_kind of string

let record_kinds =
  [| "invoke"; "respond"; "lin"; "coin"; "valwrite"; "ts"; "readts"; "note" |]

let record_kind_table = L.table record_kinds

type opkind = No_opkind | Read | Write | Other_opkind of string

(* One event record's slots, as [vslots]; "value" and "result" hold the
   decision on their first occurrence, whatever its JSON type (a null
   result is a read that returned nothing). *)
type eslots = {
  mutable seen : int;
  mutable t : int;
  mutable has_t : bool;
  mutable op : int;
  mutable has_op : bool;
  mutable proc : int;
  mutable has_proc : bool;
  mutable kind : record_kind;
  mutable obj : string option;
  mutable opkind : opkind;
  mutable value : (V.t, string) result option;
  mutable result : (V.t option, string) result option;
}

let event_field lx es key tok =
  match (key, tok) with
  | T, L.Int ->
      es.t <- L.int lx;
      es.has_t <- true
  | Op, L.Int ->
      es.op <- L.int lx;
      es.has_op <- true
  | Proc, L.Int ->
      es.proc <- L.int lx;
      es.has_proc <- true
  | Kind, L.String ->
      es.kind <-
        (match L.string_index lx record_kind_table with
        | 0 -> Invoke_kind
        | 1 -> Respond_kind
        | -1 -> Other_kind (L.string lx)
        | i -> Annotation_kind record_kinds.(i))
  | Obj, L.String -> es.obj <- Some (L.string lx)
  | Opkind, L.String ->
      es.opkind <-
        (if L.string_is lx "read" then Read
         else if L.string_is lx "write" then Write
         else Other_opkind (L.string lx))
  | Value, _ -> es.value <- Some (read_value lx tok)
  | Result, L.Null -> es.result <- Some (Ok None)
  | Result, _ -> es.result <- Some (Result.map Option.some (read_value lx tok))
  | _ -> L.skip lx tok

let rec read_event_fields lx es =
  let i = L.string_index lx event_key_table in
  let tok = L.value lx in
  if i >= 0 && es.seen land seen_bit i = 0 then begin
    es.seen <- es.seen lor seen_bit i;
    event_field lx es (snd event_keys.(i)) tok
  end
  else L.skip lx tok;
  if L.next_key lx then read_event_fields lx es

let invoke es obj kind =
  Ok (Event { time = es.t; ev = Invoke { op_id = es.op; proc = es.proc; obj; kind } })

let bad_opkind k =
  Error (Printf.sprintf "invoke: bad \"opkind\" %S or missing field" k)

let decide_event es =
  match es.kind with
  | No_kind -> Error "missing \"kind\""
  | Invoke_kind -> (
      let fields = es.has_t && es.has_op && es.has_proc in
      match (es.obj, es.opkind) with
      | Some obj, Read when fields -> invoke es obj History.Op.Read
      | Some obj, Write when fields -> (
          match es.value with
          | None -> Error "invoke: write without \"value\""
          | Some (Ok v) -> invoke es obj (History.Op.Write v)
          | Some (Error e) -> Error ("invoke: " ^ e))
      | _, No_opkind ->
          Error "invoke: missing \"t\", \"op\", \"proc\", \"obj\" or \"opkind\""
      | _, Read -> bad_opkind "read"
      | _, Write -> bad_opkind "write"
      | _, Other_opkind k -> bad_opkind k)
  | Respond_kind -> (
      match es.result with
      | Some (Ok result) when es.has_t && es.has_op ->
          Ok (Event { time = es.t; ev = Respond { op_id = es.op; result } })
      | Some (Error e) when es.has_t && es.has_op -> Error ("respond: " ^ e)
      | _ -> Error "respond: missing \"t\", \"op\" or \"result\"")
  | Annotation_kind k -> Ok (Annotation k)
  | Other_kind k -> Error (Printf.sprintf "unknown record kind %S" k)

let parse_line line =
  let lx = L.create line in
  let es =
    {
      seen = 0;
      t = 0;
      has_t = false;
      op = 0;
      has_op = false;
      proc = 0;
      has_proc = false;
      kind = No_kind;
      obj = None;
      opkind = No_opkind;
      value = None;
      result = None;
    }
  in
  match
    (match L.value lx with
    | L.Lbrace -> if L.first_key lx then read_event_fields lx es
    | tok -> L.skip lx tok);
    L.finish lx
  with
  | () -> decide_event es
  | exception L.Syntax_error (pos, msg) -> Error ("bad JSON: " ^ L.message pos msg)

(* ----- rendering (for tests and the experiment battery) ------------------ *)

let event_json ~time ev =
  Simkit.Trace.entry_json
    (Simkit.Trace.Ev
       {
         History.Event.time;
         event =
           (match ev with
           | Invoke { op_id; proc; obj; kind } ->
               History.Event.Invoke { op_id; proc; obj; kind }
           | Respond { op_id; result } ->
               History.Event.Respond { op_id; result });
       })
