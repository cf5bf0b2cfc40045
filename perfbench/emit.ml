(* The benchmark's one result writer: a JSON value type and its renderer.
   Every line perfbench.exe prints goes through [line]. *)

type v = Int of int | Num of float | Str of string | Bool of bool | Obj of (string * v) list

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec render = function
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> quote s
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ render v) kvs)
    ^ "}"

let line v = print_endline (render v)
