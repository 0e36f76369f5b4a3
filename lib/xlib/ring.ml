type 'a t = {
  mutable buf : 'a option array;
  mutable head : int; (* index of the front element *)
  mutable len : int;
  mutable hwm : int;
  bound : int; (* bounded mode: the exact capacity; -1 for a growable ring *)
  mutable total : int; (* pushes since creation or the last clear *)
  mutable dropped : int; (* of those, overwritten by a bounded push *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let make size bound =
  { buf = Array.make (pow2 (max 1 size) 1) None; head = 0; len = 0; hwm = 0;
    bound; total = 0; dropped = 0 }

let create ?(capacity = 16) () = make capacity (-1)
let bounded capacity = make capacity (max 1 capacity)

let length t = t.len
let is_empty t = t.len = 0
let high_water t = t.hwm
let capacity t = if t.bound > 0 then t.bound else Array.length t.buf
let total t = t.total
let dropped t = t.dropped

let grow t =
  if t.bound > 0 then invalid_arg "Ring: a bounded ring never grows";
  let cap = Array.length t.buf in
  let buf = Array.make (cap * 2) None in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) land (Array.length t.buf - 1);
    t.len <- t.len - 1;
    x
  end

let push t x =
  if t.len = t.bound then begin
    (* Bounded and full: the oldest entry makes room. *)
    ignore (pop t);
    t.dropped <- t.dropped + 1
  end
  else if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- Some x;
  t.len <- t.len + 1;
  t.total <- t.total + 1;
  if t.len > t.hwm then t.hwm <- t.len

let push_front t x =
  if t.len = Array.length t.buf then grow t;
  t.head <- (t.head - 1) land (Array.length t.buf - 1);
  t.buf.(t.head) <- Some x;
  t.len <- t.len + 1;
  if t.len > t.hwm then t.hwm <- t.len

let peek t = if t.len = 0 then None else t.buf.(t.head)

let back_index t = (t.head + t.len - 1) land (Array.length t.buf - 1)
let peek_back t = if t.len = 0 then None else t.buf.(back_index t)

let replace_back t x =
  if t.len = 0 then invalid_arg "Ring.replace_back: empty"
  else t.buf.(back_index t) <- Some x

(* Logical-index access: index 0 is the front (oldest) element.  Used by
   the overload shed policy, which scans for droppable entries at cap. *)
let get t i =
  if i < 0 || i >= t.len then None
  else t.buf.((t.head + i) land (Array.length t.buf - 1))

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Ring.set: out of range"
  else t.buf.((t.head + i) land (Array.length t.buf - 1)) <- Some x

(* O(n) shift toward the head; acceptable because removal only happens at
   the queue cap, where bounding memory matters more than the shed cost. *)
let remove t i =
  if i < 0 || i >= t.len then None
  else begin
    let mask = Array.length t.buf - 1 in
    let removed = t.buf.((t.head + i) land mask) in
    for j = i downto 1 do
      t.buf.((t.head + j) land mask) <- t.buf.((t.head + j - 1) land mask)
    done;
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) land mask;
    t.len <- t.len - 1;
    removed
  end

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0;
  t.total <- 0;
  t.dropped <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) land (Array.length t.buf - 1)) with
    | Some x -> f x
    | None -> ()
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    match get t i with Some x -> acc := x :: !acc | None -> ()
  done;
  !acc
