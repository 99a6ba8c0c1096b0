open Tabv_psl

exception Not_in_nnf of Ltl.t

(* ================================================================== *)
(* Interned engine: hash-consed obligations + memoized transitions.    *)
(* ================================================================== *)

(* Obligations are hash-consed exactly like Interned formulas: a state
   is one heap node with a dense id, so identical live instances
   collapse by construction and the transition memo can key on the id. *)

type t = {
  onode : onode;
  oid : int;
  has_at : bool;  (* contains a timed [At] wait *)
  otimed : bool;  (* stepping depends on the current time *)
  mutable memo : memo_entry;
      (* transition memo, inlined into the hash-consed state so the
         hot path is one pointer load instead of a hashtable probe *)
}

and onode =
  | OTrue
  | OFalse
  | OFormula of Interned.t
  | OAt of int * Interned.t
  | OAnd of t * t
  | OOr of t * t

(* For an obligation without timed parts, the result of one step is a
   pure function of the values of the atoms the progression reads —
   and because progression never short-circuits, the set and order of
   atoms read is fixed per state.  The memo therefore stores, per
   state, the atom read-set (discovered on the first miss) and a table
   from packed atom valuations to successor states: the paper's
   explicit checker automaton, built lazily and only over reachable
   states. *)
and memo_entry =
  | No_memo  (* state not stepped yet *)
  | Transitions of transitions
  | Unmemoizable  (* more than [max_memo_atoms] distinct atoms *)

(* The transition table of one state: an open-addressed, linearly
   probed map from packed valuation to successor, on plain int arrays
   (a polymorphic [Hashtbl] hashes and compares its keys through C
   calls).  Valuations are non-negative, so [-1] marks a free slot. *)
and transitions = {
  atoms : Interned.t array;  (* unique atoms read, first-read order *)
  mutable keys : int array;  (* packed valuation, or [-1] *)
  mutable succs : t array;  (* successor, parallel to [keys] *)
  mutable size : int;  (* occupied slots *)
}

let onode_equal a b =
  match a, b with
  | OTrue, OTrue | OFalse, OFalse -> true
  | OFormula f1, OFormula f2 -> f1 == f2
  | OAt (t1, f1), OAt (t2, f2) -> t1 = t2 && f1 == f2
  | OAnd (a1, b1), OAnd (a2, b2) -> a1 == a2 && b1 == b2
  | OOr (a1, b1), OOr (a2, b2) -> a1 == a2 && b1 == b2
  | (OTrue | OFalse | OFormula _ | OAt _ | OAnd _ | OOr _), _ -> false

(* Integer mixing instead of [Hashtbl.hash] on a tuple: stepping a
   timed obligation probes the table on every step, and the tuple
   would be allocated (and hashed through a C call) each time. *)
let mix h x =
  let h = (h lxor x) * 0x100000001B3 in
  h lxor (h lsr 29)

let onode_hash onode =
  let h =
    match onode with
    | OTrue -> 0
    | OFalse -> 1
    | OFormula f -> mix 2 (Interned.id f)
    | OAt (target, f) -> mix (mix 3 target) (Interned.id f)
    | OAnd (a, b) -> mix (mix 4 a.oid) b.oid
    | OOr (a, b) -> mix (mix 5 a.oid) b.oid
  in
  h land max_int

module Ob_table = Hashtbl.Make (struct
  type t = onode

  let equal = onode_equal
  let hash = onode_hash
end)

(* The canonical True/False states are shared by every domain: they
   are safe to share because they are the only obligations whose
   [memo] field is never written (stepping True/False returns the
   state itself before touching the memo), so they carry no mutable
   state in practice.  Sharing them keeps [is_true]/[is_false] a
   physical comparison against one node, domain-independent. *)
let ob_true = { onode = OTrue; oid = 0; has_at = false; otimed = false; memo = No_memo }

let ob_false =
  { onode = OFalse; oid = 1; has_at = false; otimed = false; memo = No_memo }

(* Per-domain obligation universe: hash-cons table, id counter and the
   transition-memo statistics all live behind [Domain.DLS], mirroring
   [Interned]'s per-domain formula universe, so concurrent campaign
   workers build their checker automata without sharing (or
   corrupting) any table.  Fresh universes are pre-seeded with the
   shared True/False states. *)
type stats_record = {
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
  mutable transitions : int;
}

type universe = {
  ob_table : t Ob_table.t;
  mutable ob_counter : int;
  ustats : stats_record;
}

let fresh_universe () =
  let ob_table = Ob_table.create 1024 in
  Ob_table.add ob_table OTrue ob_true;
  Ob_table.add ob_table OFalse ob_false;
  {
    ob_table;
    ob_counter = 2;
    ustats = { hits = 0; misses = 0; bypassed = 0; transitions = 0 };
  }

let universe_key : universe Domain.DLS.key = Domain.DLS.new_key fresh_universe
let universe () = Domain.DLS.get universe_key

(* Fresh obligation universe *and* fresh interned-formula universe for
   the calling domain: one call gives a batch runner a cold, isolated
   checker world per job. *)
let reset_universe () =
  Domain.DLS.set universe_key (fresh_universe ());
  Interned.reset_universe ()

let onode_has_at = function
  | OTrue | OFalse | OFormula _ -> false
  | OAt _ -> true
  | OAnd (a, b) | OOr (a, b) -> a.has_at || b.has_at

let onode_timed = function
  | OTrue | OFalse -> false
  | OFormula f -> Interned.is_timed f
  | OAt _ -> true
  | OAnd (a, b) | OOr (a, b) -> a.otimed || b.otimed

let make onode =
  let u = universe () in
  (* Exception-based probe: hits allocate nothing. *)
  match Ob_table.find u.ob_table onode with
  | ob -> ob
  | exception Not_found ->
    let oid = u.ob_counter in
    u.ob_counter <- oid + 1;
    let ob =
      {
        onode;
        oid;
        has_at = onode_has_at onode;
        otimed = onode_timed onode;
        memo = No_memo;
      }
    in
    Ob_table.add u.ob_table onode ob;
    ob

let formula f = make (OFormula f)
let at target f = make (OAt (target, f))

(* Conjunction/disjunction with unit/absorption laws and O(1)
   duplicate collapse.  Binary operands are ordered by id: [and]/[or]
   are commutative, so canonicalizing the operand order makes states
   reached through different evaluation orders coincide. *)
let ob_and a b =
  match a.onode, b.onode with
  | OFalse, _ | _, OFalse -> ob_false
  | OTrue, _ -> b
  | _, OTrue -> a
  | _ ->
    if a == b then a
    else if a.oid <= b.oid then make (OAnd (a, b))
    else make (OAnd (b, a))

let ob_or a b =
  match a.onode, b.onode with
  | OTrue, _ | _, OTrue -> ob_true
  | OFalse, _ -> b
  | _, OFalse -> a
  | _ ->
    if a == b then a
    else if a.oid <= b.oid then make (OOr (a, b))
    else make (OOr (b, a))

let id ob = ob.oid

let of_formula f =
  if not (Ltl.is_nnf f) then raise (Not_in_nnf f);
  formula (Interned.intern f)

let of_interned f =
  if not (Interned.is_nnf f) then raise (Not_in_nnf (Interned.to_ltl f));
  formula f

(* Thanks to the absorption laws in [ob_and]/[ob_or], OTrue/OFalse can
   only ever appear as the root of an obligation. *)
let is_true ob = ob == ob_true
let is_false ob = ob == ob_false

let verdict ob =
  if is_true ob then Some true else if is_false ob then Some false else None

let has_timed_wait ob = ob.has_at

let rec next_evaluation_time ob =
  match ob.onode with
  | OAt (target, _) -> Some target
  | OTrue | OFalse | OFormula _ -> None
  | OAnd (a, b) | OOr (a, b) ->
    if not ob.has_at then None
    else (
      match next_evaluation_time a, next_evaluation_time b with
      | None, t | t, None -> t
      | Some x, Some y -> Some (min x y))

(* --- transition memo ---------------------------------------------- *)

let max_memo_atoms = 62

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_bypassed : int;
  distinct_states : int;
  distinct_transitions : int;
  interned_formulas : int;
}

let cache_stats () =
  let u = universe () in
  {
    cache_hits = u.ustats.hits;
    cache_misses = u.ustats.misses;
    cache_bypassed = u.ustats.bypassed;
    (* The pre-seeded True/False states count, exactly as they did
       when they were interned at module-init time. *)
    distinct_states = Ob_table.length u.ob_table;
    distinct_transitions = u.ustats.transitions;
    interned_formulas = Interned.node_count ();
  }

(* --- progression over interned terms ------------------------------- *)

(* [eval] evaluates an interned [Atom] node at the current instant; it
   is the only window through which progression observes the DUV, so
   wrapping it (recording, per-instant caching) captures exactly the
   atoms read. *)
let rec progress ~time eval f =
  match Interned.node f with
  | Interned.Atom _ -> if eval f then ob_true else ob_false
  | Interned.Not inner ->
    (match Interned.node inner with
     | Interned.Atom _ -> if eval inner then ob_false else ob_true
     | _ -> raise (Not_in_nnf (Interned.to_ltl f)))
  | Interned.Implies _ -> raise (Not_in_nnf (Interned.to_ltl f))
  | Interned.And (p, q) ->
    ob_and (progress ~time eval p) (progress ~time eval q)
  | Interned.Or (p, q) -> ob_or (progress ~time eval p) (progress ~time eval q)
  | Interned.Next_n (1, p) -> formula p
  | Interned.Next_n (n, p) -> formula (Interned.next_n (n - 1) p)
  | Interned.Next_event (ne, p) -> at (time + ne.Ltl.eps) p
  | Interned.Until (p, q) ->
    ob_or (progress ~time eval q) (ob_and (progress ~time eval p) (formula f))
  | Interned.Release (p, q) ->
    ob_and (progress ~time eval q) (ob_or (progress ~time eval p) (formula f))
  | Interned.Always p -> ob_and (progress ~time eval p) (formula f)
  | Interned.Eventually p -> ob_or (progress ~time eval p) (formula f)

(* Structural step without memoization (used to compute misses). *)
let rec compute ~time eval ob =
  match ob.onode with
  | OTrue | OFalse -> ob
  | OFormula f -> progress ~time eval f
  | OAt (target, f) ->
    if time < target then ob
    else if time = target then progress ~time eval f
    else ob_false
  | OAnd (a, b) -> ob_and (compute ~time eval a) (compute ~time eval b)
  | OOr (a, b) -> ob_or (compute ~time eval a) (compute ~time eval b)

exception Too_many_atoms

(* --- transition tables --------------------------------------------- *)

let free = -1

(* Fibonacci hashing: valuations are small bit sets, so the low bits
   alone would cluster. *)
let rec probe keys mask bits i =
  let k = Array.unsafe_get keys i in
  if k = bits || k = free then i else probe keys mask bits ((i + 1) land mask)

let slot_of keys bits =
  let mask = Array.length keys - 1 in
  probe keys mask bits (((bits * 0x9E3779B97F4A7C1) lsr 20) land mask)

let rec insert tr bits successor =
  if 2 * (tr.size + 1) > Array.length tr.keys then begin
    let keys = tr.keys and succs = tr.succs in
    tr.keys <- Array.make (2 * Array.length keys) free;
    tr.succs <- Array.make (2 * Array.length keys) ob_false;
    tr.size <- 0;
    Array.iteri (fun i k -> if k <> free then insert tr k succs.(i)) keys
  end;
  let i = slot_of tr.keys bits in
  tr.keys.(i) <- bits;
  tr.succs.(i) <- successor;
  tr.size <- tr.size + 1

let transitions atoms bits successor =
  let tr =
    { atoms; keys = Array.make 8 free; succs = Array.make 8 ob_false; size = 0 }
  in
  insert tr bits successor;
  tr

(* Memoized step of an untimed obligation.  The hot path — a state
   already carrying its transition table — costs one pointer load, one
   atom-evaluation pass to pack the valuation bits, and one probe of
   the state's int table; nothing is allocated on a hit. *)
let step_untimed_in stats ~time eval ob =
  match ob.memo with
  | Transitions tr ->
    let atoms = tr.atoms in
    let bits = ref 0 in
    for i = 0 to Array.length atoms - 1 do
      if eval (Array.unsafe_get atoms i) then bits := !bits lor (1 lsl i)
    done;
    let bits = !bits in
    let i = slot_of tr.keys bits in
    if Array.unsafe_get tr.keys i = bits then begin
      stats.hits <- stats.hits + 1;
      Array.unsafe_get tr.succs i
    end
    else begin
      stats.misses <- stats.misses + 1;
      let successor = compute ~time eval ob in
      stats.transitions <- stats.transitions + 1;
      insert tr bits successor;
      successor
    end
  | Unmemoizable ->
    stats.bypassed <- stats.bypassed + 1;
    compute ~time eval ob
  | No_memo ->
    (match ob.onode with
     | OTrue | OFalse -> ob
     | _ ->
       (* First visit: run the progression with a recording evaluator
          to discover the atom read-set, then seed the entry. *)
       stats.misses <- stats.misses + 1;
       let read : (int, int) Hashtbl.t = Hashtbl.create 8 in
       let order = ref [] in
       let count = ref 0 in
       let bits = ref 0 in
       let recording atom =
         let v = eval atom in
         let id = Interned.id atom in
         if not (Hashtbl.mem read id) then begin
           if !count >= max_memo_atoms then raise Too_many_atoms;
           Hashtbl.add read id !count;
           order := atom :: !order;
           if v then bits := !bits lor (1 lsl !count);
           incr count
         end;
         v
       in
       (match compute ~time recording ob with
        | successor ->
          stats.transitions <- stats.transitions + 1;
          ob.memo <-
            Transitions (transitions (Array.of_list (List.rev !order)) !bits successor);
          successor
        | exception Too_many_atoms ->
          ob.memo <- Unmemoizable;
          stats.bypassed <- stats.bypassed + 1;
          compute ~time eval ob))

(* Full step: timed parts recurse structurally (their transitions
   depend on absolute time and cannot be tabled); every untimed
   subtree reached on the way goes through the memo. *)
let rec step_eval_in stats ~time eval ob =
  if not ob.otimed then step_untimed_in stats ~time eval ob
  else
    match ob.onode with
    | OTrue | OFalse -> ob
    | OFormula f -> progress ~time eval f
    | OAt (target, f) ->
      if time < target then ob
      else if time = target then progress ~time eval f
      else ob_false
    | OAnd (a, b) ->
      ob_and
        (step_eval_in stats ~time eval a)
        (step_eval_in stats ~time eval b)
    | OOr (a, b) ->
      ob_or
        (step_eval_in stats ~time eval a)
        (step_eval_in stats ~time eval b)

let eval_of_lookup lookup atom =
  match Interned.node atom with
  | Interned.Atom e -> Expr.eval lookup e
  | _ -> assert false

let step ~time lookup ob =
  step_eval_in (universe ()).ustats ~time (eval_of_lookup lookup) ob

(* A handle is the calling domain's live statistics record itself:
   grabbing it once per monitor step replaces the per-state (and
   per-counter-read) [Domain.DLS] lookups of the naive API with plain
   field accesses — the DLS get is ~10ns, which multiplied by every
   live state of every monitor at every instant was a measurable slice
   of the interned engine's hot path. *)
type handle = stats_record

let handle () = (universe ()).ustats
let handle_hits (h : handle) = h.hits
let handle_misses (h : handle) = h.misses
let handle_bypassed (h : handle) = h.bypassed
let step_atoms_in (h : handle) ~time eval ob = step_eval_in h ~time eval ob

let rec pp ppf ob =
  match ob.onode with
  | OTrue -> Format.pp_print_string ppf "T"
  | OFalse -> Format.pp_print_string ppf "F"
  | OFormula f -> Format.fprintf ppf "{%a}" Interned.pp f
  | OAt (target, f) -> Format.fprintf ppf "at[%dns]{%a}" target Interned.pp f
  | OAnd (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | OOr (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
