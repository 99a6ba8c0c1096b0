let int_of_data v =
  if v = 0L then 0
  else
    let truncated = Int64.to_int v in
    if truncated = 0 then 1 else truncated

let env_of_bindings bindings =
  List.map (fun (name, reader) -> (name, Tabv_psl.Expr.read reader)) bindings

let vbool b = Tabv_psl.Expr.VBool b
let vint n = Tabv_psl.Expr.VInt n
let vdata v = Tabv_psl.Expr.VInt (int_of_data v)
