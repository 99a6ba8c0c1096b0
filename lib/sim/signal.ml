(* Storage split: a generic signal keeps its value pair in its own
   record ([S_heap]); the typed constructors ([create_bool] & co.)
   claim a slot of the kernel's dense arena instead ([S_slot]), so
   signal traffic is flat-array loads and stores with a dirty-flag
   slot standing in for the per-signal pending flag.  Both storages
   behave identically — the arena is a layout change, not a semantics
   change. *)
type 'a store =
  | S_heap
  | S_slot of {
      pool : 'a Arena.pool;
      slot : int;
    }

type 'a t = {
  kernel : Kernel.t;
  uid : int;  (* process-global, keys the elaboration graph *)
  name : string;
  equal : 'a -> 'a -> bool;
  store : 'a store;
  mutable current : 'a;  (* S_heap storage; initial value for S_slot *)
  mutable next : 'a;
  mutable update_pending : bool;  (* S_heap; S_slot uses the dirty bit *)
  mutable transform : ('a -> 'a) option;  (* saboteur interposition *)
  changed : Event.t;
  mutable changes : int;
  update_thunk : unit -> unit;  (* preallocated: no closure per update *)
  m_writes : Tabv_obs.Metrics.counter;  (* shared per kernel *)
  m_updates : Tabv_obs.Metrics.counter;
}

let uid_counter = ref 0

let name t = t.name
let uid t = t.uid

let read t =
  match t.store with
  | S_heap -> t.current
  | S_slot { pool; slot } -> Arena.get pool slot

(* The observation read: tracing and reporting go through this
   alias instead of reaching into signal internals, so they are
   agnostic to where the value lives. *)
let observe = read

let get_next t =
  match t.store with
  | S_heap -> t.next
  | S_slot { pool; slot } -> Arena.get_next pool slot

let set_next t v =
  match t.store with
  | S_heap -> t.next <- v
  | S_slot { pool; slot } -> Arena.set_next pool slot v

let set_current t v =
  match t.store with
  | S_heap -> t.current <- v
  | S_slot { pool; slot } -> Arena.set_cur pool slot v

let pending t =
  match t.store with
  | S_heap -> t.update_pending
  | S_slot { pool; slot } -> Arena.dirty pool slot

let set_pending t =
  match t.store with
  | S_heap -> t.update_pending <- true
  | S_slot { pool; slot } -> Arena.set_dirty pool slot

let clear_pending t =
  match t.store with
  | S_heap -> t.update_pending <- false
  | S_slot { pool; slot } -> Arena.clear_dirty pool slot

let apply_update t () =
  clear_pending t;
  let next =
    (* The interposition hook: a saboteur sees the driven value and
       may replace it.  The next slot keeps the honest driven value so
       a disarmed saboteur restores it at the next refresh/update. *)
    match t.transform with
    | None -> get_next t
    | Some f -> f (get_next t)
  in
  if not (t.equal (read t) next) then begin
    set_current t next;
    t.changes <- t.changes + 1;
    Tabv_obs.Metrics.incr t.m_updates;
    Event.notify t.changed
  end

let make kernel ~name ~equal ~store init =
  let metrics = Kernel.metrics kernel in
  incr uid_counter;
  let rec t =
    {
      kernel;
      uid = !uid_counter;
      name;
      equal;
      store;
      current = init;
      next = init;
      update_pending = false;
      transform = None;
      changed = Event.create kernel (name ^ ".changed");
      changes = 0;
      update_thunk = (fun () -> apply_update t ());
      m_writes = Tabv_obs.Metrics.counter metrics "signal.writes";
      m_updates = Tabv_obs.Metrics.counter metrics "signal.updates";
    }
  in
  t

let create kernel ~name ?(equal = ( = )) init =
  make kernel ~name ~equal ~store:S_heap init

let bool_equal (a : bool) b = a = b
let int_equal (a : int) b = a = b

let create_bool kernel ~name init =
  let pool = Arena.bools (Kernel.arena kernel) in
  let slot = Arena.alloc pool init in
  make kernel ~name ~equal:bool_equal ~store:(S_slot { pool; slot }) init

let create_int kernel ~name init =
  let pool = Arena.ints (Kernel.arena kernel) in
  let slot = Arena.alloc pool init in
  make kernel ~name ~equal:int_equal ~store:(S_slot { pool; slot }) init

let create_int64 kernel ~name init =
  let pool = Arena.int64s (Kernel.arena kernel) in
  let slot = Arena.alloc pool init in
  make kernel ~name ~equal:Int64.equal ~store:(S_slot { pool; slot }) init

let schedule_update t =
  if not (pending t) then begin
    set_pending t;
    Kernel.request_update t.kernel t.update_thunk
  end

let write t v =
  set_next t v;
  Tabv_obs.Metrics.incr t.m_writes;
  schedule_update t

let interpose t f =
  match t.transform with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Signal.interpose: %s already has an interposer" t.name)
  | None -> t.transform <- Some f

let clear_interpose t = t.transform <- None
let interposed t = t.transform <> None

let refresh t = schedule_update t

let changed t = t.changed
let change_count t = t.changes

let force t v =
  set_current t v;
  set_next t v
