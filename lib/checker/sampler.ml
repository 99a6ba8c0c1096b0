open Tabv_psl

(* Shared evaluation-point sampler.

   All monitors attached to the same observation point (a socket's
   end-of-transaction stream, a clock edge) see the same environment
   at a given instant, so each distinct atomic proposition needs to be
   evaluated exactly once per instant — not once per live checker
   instance per monitor.  The sampler is that per-instant cache: atoms
   are keyed by their interned node id and invalidated whenever the
   instant changes.

   Sharing discipline: a sampler may be shared by every monitor whose
   evaluation points observe the same environment within one delta
   phase (signal updates in the simulator are delta-delayed, so values
   are stable while the handlers of one instant run).  Monitors
   sampling at different phases of the same instant (e.g. a grid
   wrapper vs. a strict transaction wrapper) should use separate
   samplers. *)

(* Cached values live inside the interned atom nodes themselves
   ({!Interned.set_sample}): each node carries one (stamp, value)
   pair, and the sampler owns a globally unique stamp per instant.  A
   cache hit is then one load and one integer compare — no hashtable
   on the hot path.  Stamps come from a process-global counter, so two
   samplers active at the same instant never mistake each other's
   values (they just overwrite the slot, which only costs a
   re-evaluation).

   The stamp counter is domain-local ([Domain.DLS]), matching the
   interning universe: stamps only need to be unique among the
   samplers of one domain because interned nodes — and hence the
   scratch slots the stamps tag — are confined to the domain that
   created them. *)

let stamp_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_stamp () =
  let global_stamp = Domain.DLS.get stamp_key in
  incr global_stamp;
  !global_stamp

type t = {
  resolve : Expr.resolver;  (* the observed environment's signals *)
  mutable now : int;  (* instant of the cached values *)
  mutable stamp : int;  (* stamp tagging this sampler's values at [now] *)
  mutable queries : int;  (* atom evaluations requested *)
  mutable evals : int;  (* atom evaluations actually performed *)
  mutable atoms : Interned.t array;  (* registered for batched priming *)
  mutable readers : (unit -> bool) array;  (* compiled, parallel to [atoms] *)
  mutable by_id : (unit -> bool) array;  (* atom id -> compiled reader *)
  mutable primed : int;  (* stamp the batch pass last ran for *)
  mutable eval : Interned.t -> bool;  (* {!evaluator}, allocated once *)
}

(* Atoms are compiled against the resolver once, at registration (or
   at their first read for an atom nobody registered); the compiled
   readers live here, with the run, and die with it. *)
let uncompiled () = assert false

let reader_of t atom =
  let id = Interned.id atom in
  if id < Array.length t.by_id && t.by_id.(id) != uncompiled then t.by_id.(id)
  else begin
    let reader =
      match Interned.node atom with
      | Interned.Atom e -> Expr.compile t.resolve e
      | _ -> invalid_arg "Sampler.eval_atom: not an atom node"
    in
    if id >= Array.length t.by_id then begin
      let by_id = Array.make (max (id + 1) (2 * Array.length t.by_id)) uncompiled in
      Array.blit t.by_id 0 by_id 0 (Array.length t.by_id);
      t.by_id <- by_id
    end;
    t.by_id.(id) <- reader;
    reader
  end

let miss t atom =
  let v = (reader_of t atom) () in
  t.evals <- t.evals + 1;
  Interned.set_sample atom ~stamp:t.stamp ~value:v;
  v

let read t atom =
  t.queries <- t.queries + 1;
  if Interned.sample_stamp atom = t.stamp then Interned.sample_value atom
  else miss t atom

let create resolve =
  let t =
    {
      resolve;
      now = min_int;
      stamp = fresh_stamp ();
      queries = 0;
      evals = 0;
      atoms = [||];
      readers = [||];
      by_id = [||];
      primed = 0;
      eval = (fun _ -> false);
    }
  in
  t.eval <- read t;
  t

let refresh t ~time =
  if t.now <> time then begin
    t.now <- time;
    t.stamp <- fresh_stamp ()
  end

let eval_atom t ~time atom =
  refresh t ~time;
  read t atom

let evaluator t ~time =
  refresh t ~time;
  t.eval

let lookup t name = Option.map Expr.read (t.resolve name)

(* Batched sampling: monitors register their atom sets at creation;
   the attach layer then primes the sampler once per evaluation point,
   so the environment (signal arena or transaction mirror) is read in
   one pass and every monitor's step is answered from the cache.
   Priming counts its queries and evaluations exactly as [eval_atom]
   would, so the accounting is identical on every engine and whether
   or not a caller primes. *)

let register t atom =
  if not (Array.exists (fun a -> a == atom) t.atoms) then begin
    let reader = reader_of t atom in
    t.atoms <- Array.append t.atoms [| atom |];
    t.readers <- Array.append t.readers [| reader |]
  end

(* Newest registration first, the order the pass has always used: the
   first atom to raise {!Expr.Eval_error} decides the message. *)
let prime t ~time =
  refresh t ~time;
  if t.primed <> t.stamp then begin
    t.primed <- t.stamp;
    let atoms = t.atoms and readers = t.readers and stamp = t.stamp in
    for i = Array.length atoms - 1 downto 0 do
      let atom = Array.unsafe_get atoms i in
      t.queries <- t.queries + 1;
      if Interned.sample_stamp atom <> stamp then begin
        let v = (Array.unsafe_get readers i) () in
        t.evals <- t.evals + 1;
        Interned.set_sample atom ~stamp ~value:v
      end
    done
  end

let registered_atoms t = Array.length t.atoms

let queries t = t.queries
let evals t = t.evals

let hit_rate t =
  if t.queries = 0 then 0. else float_of_int (t.queries - t.evals) /. float_of_int t.queries
