open Tabv_psl

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

let escape buffer s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s

let to_string json =
  let buffer = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
    | Int n -> Buffer.add_string buffer (string_of_int n)
    | Float f ->
      (* RFC 8259 has no NaN/Infinity literal. *)
      (match Float.classify_float f with
       | Float.FP_nan | Float.FP_infinite -> Buffer.add_string buffer "null"
       | Float.FP_zero | Float.FP_subnormal | Float.FP_normal ->
         Buffer.add_string buffer (Printf.sprintf "%.6g" f))
    | String s ->
      Buffer.add_char buffer '"';
      escape buffer s;
      Buffer.add_char buffer '"'
    | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          emit item)
        items;
      Buffer.add_char buffer ']'
    | Assoc fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buffer ',';
          emit (String key);
          Buffer.add_char buffer ':';
          emit value)
        fields;
      Buffer.add_char buffer '}'
  in
  emit json;
  Buffer.contents buffer

(* --- parsing ---------------------------------------------------------

   A small recursive-descent RFC 8259 parser, self-contained like the
   emitter above.  It exists for the inputs the toolbox reads back —
   campaign manifests and previously emitted reports — so it accepts
   exactly the document model [to_string] produces: numbers without
   fraction/exponent parse as [Int], all others as [Float]; [\uXXXX]
   escapes outside ASCII are transcribed as UTF-8. *)

exception Parse_error of { line : int; col : int; message : string }

type parser_state = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the current line's first byte *)
}

let parse_fail st message =
  raise (Parse_error { line = st.line; col = st.pos - st.bol + 1; message })

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st =
  (match peek st with
   | Some '\n' ->
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   | Some _ | None -> ());
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some found when found = c -> advance st
  | Some found ->
    parse_fail st (Printf.sprintf "expected '%c', found '%c'" c found)
  | None -> parse_fail st (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.input && String.sub st.input st.pos n = word
  then begin
    for _ = 1 to n do
      advance st
    done;
    value
  end
  else parse_fail st (Printf.sprintf "invalid literal (expected %s)" word)

let utf8_of_code buffer code =
  (* Transcribe one Unicode scalar value to UTF-8 bytes (1..4 bytes;
     the caller guarantees [code <= 0x10FFFF] and no surrogates). *)
  if code < 0x80 then Buffer.add_char buffer (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buffer (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end

(* Exactly four hex digits (strict: [int_of_string "0x.."] would also
   accept underscores). *)
let hex4 st =
  if st.pos + 4 > String.length st.input then parse_fail st "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> parse_fail st "invalid \\u escape"
  in
  let code = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
     | Some c -> code := (!code lsl 4) lor digit c
     | None -> parse_fail st "truncated \\u escape");
    advance st
  done;
  !code

let is_high_surrogate code = code >= 0xD800 && code <= 0xDBFF
let is_low_surrogate code = code >= 0xDC00 && code <= 0xDFFF

(* One [\uXXXX] escape, the [\u] already consumed.  A high surrogate
   must be followed by [\uXXXX] with a low surrogate; the pair is
   combined into one supplementary-plane scalar (RFC 8259 §7).
   Unpaired surrogates are rejected — they have no UTF-8 encoding. *)
let parse_unicode_escape st buffer =
  let code = hex4 st in
  if is_low_surrogate code then parse_fail st "unpaired low surrogate"
  else if is_high_surrogate code then begin
    (match (peek st, st.pos + 1 < String.length st.input) with
     | (Some '\\', true) when st.input.[st.pos + 1] = 'u' ->
       advance st;
       advance st
     | _ -> parse_fail st "unpaired high surrogate");
    let low = hex4 st in
    if not (is_low_surrogate low) then parse_fail st "unpaired high surrogate";
    let scalar = 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00) in
    utf8_of_code buffer scalar
  end
  else utf8_of_code buffer code

let parse_string_body st =
  expect st '"';
  let buffer = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> parse_fail st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buffer
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some '"' -> Buffer.add_char buffer '"'; advance st
       | Some '\\' -> Buffer.add_char buffer '\\'; advance st
       | Some '/' -> Buffer.add_char buffer '/'; advance st
       | Some 'b' -> Buffer.add_char buffer '\b'; advance st
       | Some 'f' -> Buffer.add_char buffer '\012'; advance st
       | Some 'n' -> Buffer.add_char buffer '\n'; advance st
       | Some 'r' -> Buffer.add_char buffer '\r'; advance st
       | Some 't' -> Buffer.add_char buffer '\t'; advance st
       | Some 'u' ->
         advance st;
         parse_unicode_escape st buffer
       | Some c -> parse_fail st (Printf.sprintf "invalid escape '\\%c'" c)
       | None -> parse_fail st "unterminated escape");
      loop ()
    | Some c when Char.code c < 0x20 -> parse_fail st "raw control character in string"
    | Some c ->
      Buffer.add_char buffer c;
      advance st;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let integral = ref true in
  if peek st = Some '-' then advance st;
  let rec digits () =
    match peek st with
    | Some '0' .. '9' ->
      advance st;
      digits ()
    | Some _ | None -> ()
  in
  digits ();
  (match peek st with
   | Some '.' ->
     integral := false;
     advance st;
     digits ()
   | Some _ | None -> ());
  (match peek st with
   | Some ('e' | 'E') ->
     integral := false;
     advance st;
     (match peek st with
      | Some ('+' | '-') -> advance st
      | Some _ | None -> ());
     digits ()
   | Some _ | None -> ());
  let text = String.sub st.input start (st.pos - start) in
  if !integral then
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> parse_fail st (Printf.sprintf "invalid number %S" text)
  else
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_fail st (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_fail st "unexpected end of input"
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let item = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (item :: acc)
        | Some ']' ->
          advance st;
          List.rev (item :: acc)
        | Some c -> parse_fail st (Printf.sprintf "expected ',' or ']', found '%c'" c)
        | None -> parse_fail st "unterminated array"
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Assoc []
    end
    else begin
      let field () =
        skip_ws st;
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        (key, value)
      in
      let rec fields acc =
        let f = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields (f :: acc)
        | Some '}' ->
          advance st;
          List.rev (f :: acc)
        | Some c -> parse_fail st (Printf.sprintf "expected ',' or '}', found '%c'" c)
        | None -> parse_fail st "unterminated object"
      in
      Assoc (fields [])
    end
  | Some c -> parse_fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string input =
  let st = { input; pos = 0; line = 1; bol = 0 } in
  let value = parse_value st in
  skip_ws st;
  (match peek st with
   | Some c -> parse_fail st (Printf.sprintf "trailing content '%c'" c)
   | None -> ());
  value

(* --- accessors ------------------------------------------------------- *)

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None

(* --- checker statistics ---------------------------------------------

   [tabv_core] sits below the checker library in the dependency order,
   so the emitters speak the shared [Tabv_obs.Checker_snapshot]
   currency; {!Monitor.snapshot} plugs in directly (see [bin/tabv] and
   the bench harness). *)

let failure_json (f : Tabv_obs.Checker_snapshot.failure) =
  Assoc
    [ ("activation_time_ns", Int f.activation_time);
      ("failure_time_ns", Int f.failure_time) ]

let checker_snapshot_json (s : Tabv_obs.Checker_snapshot.t) =
  Assoc
    [ ("property", String s.property_name);
      ("engine", String s.engine);
      ("activations", Int s.activations);
      ("passes", Int s.passes);
      ("trivial_passes", Int s.trivial_passes);
      ("vacuous", Bool s.vacuous);
      ("peak_instances", Int s.peak_instances);
      ("peak_distinct_states", Int s.peak_distinct_states);
      ("pending", Int s.pending);
      ("steps", Int s.steps);
      ("cache_hits", Int s.cache_hits);
      ("cache_misses", Int s.cache_misses);
      ("cache_hit_rate", Float (Tabv_obs.Checker_snapshot.cache_hit_rate s));
      ("failures", List (List.map failure_json s.failures)) ]

(* The verdict subset of a snapshot: every field above that only
   depends on the property and the evaluation points it saw.  The
   transition-memo counters (cache_hits/cache_misses and the derived
   rate) are excluded on purpose — they depend on what else shares the
   process-wide checker universe, so a 4-worker recheck would diverge
   from a 1-worker one.  Everything here is universe-independent,
   which is what makes a live check and an offline recheck of the same
   run byte-comparable. *)
let checker_verdict_json (s : Tabv_obs.Checker_snapshot.t) =
  Assoc
    [ ("property", String s.property_name);
      ("engine", String s.engine);
      ("activations", Int s.activations);
      ("passes", Int s.passes);
      ("trivial_passes", Int s.trivial_passes);
      ("vacuous", Bool s.vacuous);
      ("peak_instances", Int s.peak_instances);
      ("peak_distinct_states", Int s.peak_distinct_states);
      ("pending", Int s.pending);
      ("steps", Int s.steps);
      ("failures", List (List.map failure_json s.failures)) ]

let verdict_schema_version = 1

let verdict_report_json ~run ~properties () =
  Assoc
    [ ("schema", Int verdict_schema_version);
      ("run", Assoc run);
      ("properties", List (List.map checker_verdict_json properties)) ]

let engine_cache_json ~cache_hits ~cache_misses ~cache_bypassed ~distinct_states
    ~distinct_transitions ~interned_formulas () =
  let total = cache_hits + cache_misses + cache_bypassed in
  let hit_rate =
    if total = 0 then 0. else float_of_int cache_hits /. float_of_int total
  in
  Assoc
    [ ("cache_hits", Int cache_hits);
      ("cache_misses", Int cache_misses);
      ("cache_bypassed", Int cache_bypassed);
      ("cache_hit_rate", Float hit_rate);
      ("distinct_states", Int distinct_states);
      ("distinct_transitions", Int distinct_transitions);
      ("interned_formulas", Int interned_formulas) ]

(* --- metrics registry ----------------------------------------------- *)

let metrics_value_json (v : Tabv_obs.Metrics.value) =
  match v with
  | Tabv_obs.Metrics.Counter n ->
    Assoc [ ("kind", String "counter"); ("value", Int n) ]
  | Tabv_obs.Metrics.Gauge n ->
    Assoc [ ("kind", String "gauge"); ("value", Int n) ]
  | Tabv_obs.Metrics.Histogram h ->
    Assoc
      [ ("kind", String "histogram");
        ("count", Int h.Tabv_obs.Metrics.count);
        ("sum", Int h.Tabv_obs.Metrics.sum);
        ("min", Int h.Tabv_obs.Metrics.min_value);
        ("max", Int h.Tabv_obs.Metrics.max_value);
        ( "buckets",
          List
            (List.map
               (fun (upper_bound, count) ->
                 Assoc [ ("le", Int upper_bound); ("count", Int count) ])
               h.Tabv_obs.Metrics.by_upper_bound) ) ]

let metrics_snapshot_json snapshot =
  Assoc (List.map (fun (name, v) -> (name, metrics_value_json v)) snapshot)

let metrics_schema_version = 1

let metrics_json ~run ~metrics ~properties ~engine () =
  Assoc
    [ ("schema", Int metrics_schema_version);
      ("run", Assoc run);
      ("metrics", metrics_snapshot_json metrics);
      ("properties", List properties);
      ("engine", engine) ]

let property_json p =
  Assoc
    [ ("name", String p.Property.name);
      ("formula", String (Ltl.to_string p.Property.formula));
      ("context", String (Context.to_string p.Property.context)) ]

let classification_string = function
  | Signal_abstraction.Unchanged -> "unchanged"
  | Signal_abstraction.Weakened -> "weakened"
  | Signal_abstraction.Needs_review -> "needs_review"

let of_report (r : Methodology.report) =
  Assoc
    [ ("input", property_json r.Methodology.input);
      ("nnf", String (Ltl.to_string r.Methodology.nnf));
      ( "signal_abstraction",
        Assoc
          [ ( "classification",
              String
                (classification_string
                   r.Methodology.signal_abstraction.Signal_abstraction.classification)
            );
            ( "applied_rules",
              List
                (List.map
                   (fun (rule : Signal_abstraction.applied_rule) ->
                     String rule.Signal_abstraction.rule)
                   r.Methodology.signal_abstraction.Signal_abstraction.applied) ) ] );
      ( "substitutions",
        List
          (List.map
             (fun s ->
               Assoc
                 [ ("tau", Int s.Next_substitution.tau);
                   ("cycles", Int s.Next_substitution.cycles);
                   ("eps_ns", Int s.Next_substitution.eps) ])
             r.Methodology.substitutions) );
      ( "simple_subset_warnings",
        List
          (List.map
             (fun (v : Simple_subset.violation) ->
               String (v.Simple_subset.path ^ ": " ^ v.Simple_subset.message))
             r.Methodology.simple_subset_violations) );
      ("requires_review", Bool r.Methodology.requires_review);
      ( "needs_dense_trace",
        match r.Methodology.output with
        | Some q -> Bool (Methodology.needs_dense_trace q.Property.formula)
        | None -> Null );
      ( "output",
        match r.Methodology.output with
        | Some q -> property_json q
        | None -> Null ) ]

let of_reports reports =
  let clock_period, abstracted_signals =
    match reports with
    | r :: _ -> (r.Methodology.clock_period, r.Methodology.abstracted_signals)
    | [] -> (0, [])
  in
  Assoc
    [ ("clock_period_ns", Int clock_period);
      ("abstracted_signals", List (List.map (fun s -> String s) abstracted_signals));
      ("properties", List (List.map of_report reports)) ]
