(* The control protocol between the load generator and the deployment
   process: one line per message, space-separated [name=value] fields.
   Names and values never contain spaces or '='. *)

let to_line fields = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let of_line line =
  List.filter_map
    (fun field ->
      match String.index_opt field '=' with
      | Some i -> Some (String.sub field 0 i, String.sub field (i + 1) (String.length field - i - 1))
      | None -> None)
    (String.split_on_char ' ' (String.trim line))

let find fields k = List.assoc_opt k fields

let float fields k = match find fields k with Some v -> float_of_string v | None -> 0.0

let int fields k = match find fields k with Some v -> int_of_string v | None -> 0

(* Fields whose name starts with [prefix], with the prefix stripped. *)
let with_prefix fields prefix =
  let pl = String.length prefix in
  List.filter_map
    (fun (k, v) ->
      if String.length k > pl && String.sub k 0 pl = prefix then
        Some (String.sub k pl (String.length k - pl), v)
      else None)
    fields
