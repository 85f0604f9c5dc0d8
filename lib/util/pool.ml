(* The free values are the first [len] slots of [items].  Doubling copies
   [items] into both halves instead of filling the new half with the pushed
   value, which may be young: an array of more than 256 slots is made in
   the major heap, and [Array.make] of one with a young filler forces a
   minor collection. *)
type 'a t = { mutable items : 'a array; mutable len : int }

let create () = { items = [||]; len = 0 }
let is_empty s = s.len = 0

let push s x =
  if s.len = Array.length s.items then
    s.items <- (if s.len = 0 then Array.make 16 x else Array.append s.items s.items);
  s.items.(s.len) <- x;
  s.len <- s.len + 1

let pop s =
  if s.len = 0 then invalid_arg "Pool.pop: empty";
  s.len <- s.len - 1;
  s.items.(s.len)
