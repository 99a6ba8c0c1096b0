(* Statistics and span helpers of the benchmark: order statistics,
   failure accounting, and an in-memory span recorder with self-time
   attribution.  Pure apart from the clock; covered by [Selftest]. *)

let now = Unix.gettimeofday

(* --- order statistics ---------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so a spread computed here matches
   the one an outside script computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = len + 1 in
  let cut i =
    let j = max 1 (min (len - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

(* The highest percentile that has at least [beyond] samples above it:
   the ([beyond]+1)-th largest value.  Returns [(value, percentile)]
   with the percentile in 0..100; [None] when there are not enough
   samples for any such percentile. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    Some
      ( a.(n - beyond - 1),
        100. *. float_of_int (n - beyond) /. float_of_int n )

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with
  | [] -> nan
  | _ -> sum xs /. float_of_int (List.length xs)

(* --- failure accounting -------------------------------------------- *)

(* Units attempted and failed.  A unit fails when it errored, was
   rejected after its retries, or failed its correctness check; the
   first few reasons are kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (* newest first, at most [max_reasons] *)
}

let max_reasons = 5
let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error reason ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if List.length t.reasons < max_reasons then t.reasons <- reason :: t.reasons

let failed_frac t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

(* --- spans ---------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  start : float;
  stop : float;
}

(* One recorder per thread; span ids are unique across recorders.  A
   disabled recorder runs the body and records nothing: that is how
   the untraced runs measure. *)
type recorder = {
  enabled : bool;
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;
}

let recorder ~enabled = { enabled; spans = []; stack = [] }
let next_id = Atomic.make 0

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      match r.stack with
      | p :: _ -> p
      | [] -> -1
    in
    r.stack <- id :: r.stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        r.stack <- List.tl r.stack;
        r.spans <- { id; parent; name; start; stop } :: r.spans)
      f
  end

let spans r = List.rev r.spans
let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] ->
      (match cur with
       | None -> acc
       | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest ->
      (match cur with
       | None -> go acc (Some (a, b)) rest
       | Some (ca, cb) when a <= cb -> go acc (Some (ca, max cb b)) rest
       | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

(* Self time of every span: its duration minus the part of its
   interval covered by its direct children.  Returns [(span, self)]
   in input order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Per-name totals: [(name, count, total_s, self_s)], sorted by name. *)
let by_name spans =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let c, t, st =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (c + 1, t +. duration s, st +. self))
    (self_times spans);
  Hashtbl.fold (fun name (c, t, st) l -> (name, c, t, st) :: l) acc []
  |> List.sort compare

(* Write spans as JSON lines (times in epoch seconds). *)
let write_jsonl path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \"stop\": %.6f}\n"
            s.id s.parent s.name s.start s.stop)
        spans)
