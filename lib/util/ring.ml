type 'a t = {
  mutable data : 'a option array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; head = 0; len = 0 }

let capacity t = Array.length t.data
let length t = t.len
let is_empty t = t.len = 0

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.head <- 0;
  t.len <- 0

let push t x =
  let cap = capacity t in
  if t.len = cap then begin
    (* Full: overwrite oldest, advance head. *)
    t.data.(t.head) <- Some x;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.data.((t.head + t.len) mod cap) <- Some x;
    t.len <- t.len + 1
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  match t.data.((t.head + i) mod capacity t) with
  | Some x -> x
  | None -> assert false

let newest t = if t.len = 0 then None else Some (get t (t.len - 1))
let oldest t = if t.len = 0 then None else Some (get t 0)

let to_list t = List.init t.len (get t)

let drop_while_oldest pred t =
  let continue = ref true in
  while !continue && t.len > 0 do
    match oldest t with
    | Some x when pred x ->
      t.data.(t.head) <- None;
      t.head <- (t.head + 1) mod capacity t;
      t.len <- t.len - 1
    | _ -> continue := false
  done
