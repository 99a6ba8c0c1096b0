type value =
  | VBool of bool
  | VInt of int
[@@deriving eq]

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
[@@deriving eq, ord]

type arith =
  | Int of int
  | Avar of string
  | Add of arith * arith
  | Sub of arith * arith
  | Mul of arith * arith
[@@deriving eq, ord]

type t =
  | Bool of bool
  | Var of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * arith * arith
[@@deriving eq, ord]

exception Eval_error of string

let rec signals_arith_acc acc = function
  | Int _ -> acc
  | Avar v -> v :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) ->
    signals_arith_acc (signals_arith_acc acc a) b

let rec signals_acc acc = function
  | Bool _ -> acc
  | Var v -> v :: acc
  | Not e -> signals_acc acc e
  | And (a, b) | Or (a, b) -> signals_acc (signals_acc acc a) b
  | Cmp (_, a, b) -> signals_arith_acc (signals_arith_acc acc a) b

let signals e = List.sort_uniq String.compare (signals_acc [] e)
let signals_arith a = List.sort_uniq String.compare (signals_arith_acc [] a)

let mentions_any e names =
  List.exists (fun s -> List.mem s names) (signals e)

let unbound_message v = Printf.sprintf "unbound signal %S" v
let not_int_message v = Printf.sprintf "signal %S is boolean, expected integer" v
let unbound_signal v = raise (Eval_error (unbound_message v))

let eval_value lookup v =
  match lookup v with
  | Some value -> value
  | None -> unbound_signal v

let rec eval_arith lookup = function
  | Int n -> n
  | Avar v ->
    (match eval_value lookup v with
     | VInt n -> n
     | VBool _ -> raise (Eval_error (not_int_message v)))
  | Add (a, b) -> eval_arith lookup a + eval_arith lookup b
  | Sub (a, b) -> eval_arith lookup a - eval_arith lookup b
  | Mul (a, b) -> eval_arith lookup a * eval_arith lookup b

let apply_cmp op a b =
  match op with
  | Eq -> a = b
  | Neq -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let rec eval lookup = function
  | Bool b -> b
  | Var v ->
    (match eval_value lookup v with
     | VBool b -> b
     | VInt n -> n <> 0)
  | Not e -> not (eval lookup e)
  | And (a, b) -> eval lookup a && eval lookup b
  | Or (a, b) -> eval lookup a || eval lookup b
  | Cmp (op, a, b) -> apply_cmp op (eval_arith lookup a) (eval_arith lookup b)

(* --- compiled readers ------------------------------------------------ *)

type reader =
  | Bool_reader of (unit -> bool)
  | Int_reader of (unit -> int)
  | Value_reader of (unit -> value)

type resolver = string -> reader option

let resolver bindings name = List.assoc_opt name bindings

let read = function
  | Bool_reader r -> VBool (r ())
  | Int_reader r -> VInt (r ())
  | Value_reader r -> r ()

(* Resolution failures are compiled into readers that raise when (and
   only when) the interpreter would have: at the first read, after the
   same short-circuits.  Binary arithmetic and comparisons read their
   right operand first, which is the order the native and bytecode
   compilers evaluate the operands of [eval_arith] and [apply_cmp]. *)
let failing msg () = raise (Eval_error msg)

let rec compile_arith resolve = function
  | Int n -> fun () -> n
  | Avar v ->
    (match resolve v with
     | Some (Int_reader r) -> r
     | Some (Bool_reader _) -> failing (not_int_message v)
     | Some (Value_reader r) ->
       fun () ->
         (match r () with
          | VInt n -> n
          | VBool _ -> raise (Eval_error (not_int_message v)))
     | None -> failing (unbound_message v))
  | Add (a, b) ->
    let ra = compile_arith resolve a and rb = compile_arith resolve b in
    fun () ->
      let y = rb () in
      ra () + y
  | Sub (a, b) ->
    let ra = compile_arith resolve a and rb = compile_arith resolve b in
    fun () ->
      let y = rb () in
      ra () - y
  | Mul (a, b) ->
    let ra = compile_arith resolve a and rb = compile_arith resolve b in
    fun () ->
      let y = rb () in
      ra () * y

let compile_cmp op ra rb : unit -> bool =
  match op with
  | Eq -> fun () -> let y = rb () in Int.equal (ra ()) y
  | Neq -> fun () -> let y = rb () in not (Int.equal (ra ()) y)
  | Lt -> fun () -> let y = rb () in ra () < y
  | Le -> fun () -> let y = rb () in ra () <= y
  | Gt -> fun () -> let y = rb () in ra () > y
  | Ge -> fun () -> let y = rb () in ra () >= y

(* Comparison against a constant, the common shape of DUV atoms
   ([indata == 0], [addr < 128]): one reader call, no operand thunk. *)
let compile_cmp_const op ra (n : int) : unit -> bool =
  match op with
  | Eq -> fun () -> Int.equal (ra ()) n
  | Neq -> fun () -> not (Int.equal (ra ()) n)
  | Lt -> fun () -> ra () < n
  | Le -> fun () -> ra () <= n
  | Gt -> fun () -> ra () > n
  | Ge -> fun () -> ra () >= n

let rec compile resolve = function
  | Bool b -> fun () -> b
  | Var v ->
    (match resolve v with
     | Some (Bool_reader r) -> r
     | Some (Int_reader r) -> fun () -> r () <> 0
     | Some (Value_reader r) ->
       fun () ->
         (match r () with
          | VBool b -> b
          | VInt n -> n <> 0)
     | None -> failing (unbound_message v))
  | Not e ->
    let r = compile resolve e in
    fun () -> not (r ())
  | And (a, b) ->
    let ra = compile resolve a and rb = compile resolve b in
    fun () -> ra () && rb ()
  | Or (a, b) ->
    let ra = compile resolve a and rb = compile resolve b in
    fun () -> ra () || rb ()
  | Cmp (op, a, Int n) -> compile_cmp_const op (compile_arith resolve a) n
  | Cmp (op, a, b) ->
    compile_cmp op (compile_arith resolve a) (compile_arith resolve b)

let rec simplify = function
  | (Bool _ | Var _) as e -> e
  | Not e ->
    (match simplify e with
     | Bool b -> Bool (not b)
     | Not inner -> inner
     | e' -> Not e')
  | And (a, b) ->
    (match simplify a, simplify b with
     | Bool false, _ | _, Bool false -> Bool false
     | Bool true, e | e, Bool true -> e
     | a', b' -> And (a', b'))
  | Or (a, b) ->
    (match simplify a, simplify b with
     | Bool true, _ | _, Bool true -> Bool true
     | Bool false, e | e, Bool false -> e
     | a', b' -> Or (a', b'))
  | Cmp (op, a, b) as e ->
    (match a, b with
     | Int x, Int y -> Bool (apply_cmp op x y)
     | _ -> e)

let pp_value ppf = function
  | VBool b -> Format.pp_print_bool ppf b
  | VInt n -> Format.pp_print_int ppf n

let cmp_symbol = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Arithmetic precedence: Add/Sub = 1, Mul = 2, primary = 3. *)
let rec pp_arith_prec prec ppf a =
  let paren p body =
    if p < prec then Format.fprintf ppf "(%t)" body else body ppf
  in
  match a with
  | Int n ->
    if n < 0 then Format.fprintf ppf "(%d)" n else Format.pp_print_int ppf n
  | Avar v -> Format.pp_print_string ppf v
  | Add (x, y) ->
    paren 1 (fun ppf ->
      Format.fprintf ppf "%a + %a" (pp_arith_prec 1) x (pp_arith_prec 2) y)
  | Sub (x, y) ->
    paren 1 (fun ppf ->
      Format.fprintf ppf "%a - %a" (pp_arith_prec 1) x (pp_arith_prec 2) y)
  | Mul (x, y) ->
    paren 2 (fun ppf ->
      Format.fprintf ppf "%a * %a" (pp_arith_prec 2) x (pp_arith_prec 3) y)

let pp_arith ppf a = pp_arith_prec 0 ppf a

(* Boolean precedence: Or = 1, And = 2, Not = 3, Cmp/primary = 4. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if p < prec then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Bool b -> Format.pp_print_bool ppf b
  | Var v -> Format.pp_print_string ppf v
  | Not inner ->
    paren 3 (fun ppf -> Format.fprintf ppf "!%a" (pp_prec 3) inner)
  | And (a, b) ->
    paren 2 (fun ppf ->
      Format.fprintf ppf "%a && %a" (pp_prec 2) a (pp_prec 3) b)
  | Or (a, b) ->
    paren 1 (fun ppf ->
      Format.fprintf ppf "%a || %a" (pp_prec 1) a (pp_prec 2) b)
  | Cmp (op, a, b) ->
    paren 4 (fun ppf ->
      Format.fprintf ppf "%a %s %a" pp_arith a (cmp_symbol op) pp_arith b)

let pp ppf e = pp_prec 0 ppf e
let to_string e = Format.asprintf "%a" pp e
