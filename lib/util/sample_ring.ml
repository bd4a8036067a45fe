type t = {
  capacity : int;
  mutable times : int array;
  mutable values : Float.Array.t;
  mutable head : int; (* slot of the oldest sample *)
  mutable len : int;
}

(* Slots a fresh ring starts with; it doubles from here on demand. *)
let initial_slots = 16

let create ~capacity =
  if capacity <= 0 then invalid_arg "Sample_ring.create: capacity must be positive";
  let n = min capacity initial_slots in
  { capacity; times = Array.make n 0; values = Float.Array.make n 0.; head = 0; len = 0 }

let length t = t.len
let is_full t = t.len = t.capacity

(* Physical slot of logical index [i] (0 <= i < slots). *)
let slot t i =
  let j = t.head + i and n = Array.length t.times in
  if j >= n then j - n else j

(* Unwrap into arrays twice the size (at most [capacity]), oldest
   sample first. Only called when every slot is in use. *)
let grow t =
  let n = Array.length t.times in
  let n' = min t.capacity (2 * n) in
  let times = Array.make n' 0 and values = Float.Array.make n' 0. in
  let tail = n - t.head in
  Array.blit t.times t.head times 0 tail;
  Array.blit t.times 0 times tail t.head;
  Float.Array.blit t.values t.head values 0 tail;
  Float.Array.blit t.values 0 values tail t.head;
  t.times <- times;
  t.values <- values;
  t.head <- 0

let push t at v =
  if t.len = Array.length t.times && t.len < t.capacity then grow t;
  if t.len = t.capacity then begin
    Array.unsafe_set t.times t.head at;
    Float.Array.unsafe_set t.values t.head v;
    let h = t.head + 1 in
    t.head <- (if h = t.capacity then 0 else h)
  end
  else begin
    let j = slot t t.len in
    Array.unsafe_set t.times j at;
    Float.Array.unsafe_set t.values j v;
    t.len <- t.len + 1
  end

let time t i =
  if i < 0 || i >= t.len then invalid_arg "Sample_ring.time: index out of range";
  Array.unsafe_get t.times (slot t i)

let value t i =
  if i < 0 || i >= t.len then invalid_arg "Sample_ring.value: index out of range";
  Float.Array.unsafe_get t.values (slot t i)

let first_after t cutoff =
  (* Invariant: every index < lo is at or before the cutoff; every
     index >= hi is after it. *)
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.times (slot t mid) > cutoff then hi := mid else lo := mid + 1
  done;
  !lo

let blit_values t i dst pos n =
  if n < 0 || i < 0 || i + n > t.len || pos < 0 || pos + n > Array.length dst then
    invalid_arg "Sample_ring.blit_values: range out of bounds";
  for k = 0 to n - 1 do
    Array.unsafe_set dst (pos + k) (Float.Array.unsafe_get t.values (slot t (i + k)))
  done
