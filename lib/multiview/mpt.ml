(* Minipages sorted by offset in the first [n] slots of [sorted].  The
   allocator adds them in increasing offset order, so [add] appends; an
   out-of-order add shifts the tail.  A lookup bisects and allocates
   nothing. *)
type t = { mutable sorted : Minipage.t array; mutable n : int }

let create () = { sorted = [||]; n = 0 }

(* Fills the free slots.  A grown array of more than 256 slots lives in the
   major heap, and making one filled with a young minipage would force a
   minor collection to promote it first. *)
let free_slot = Minipage.make ~id:(-1) ~view:0 ~offset:0 ~length:1

(* Index of the last minipage starting at or before [off]; -1 when none. *)
let last_at_or_before t off =
  let lo = ref 0 and hi = ref t.n in
  (* invariant: slots below [lo] start at or before [off], slots from [hi]
     start after it *)
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.sorted.(mid).Minipage.offset <= off then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Slot of the minipage containing [off]; -1 when none does. *)
let index t off =
  let i = last_at_or_before t off in
  if i >= 0 && Minipage.contains t.sorted.(i) off then i else -1

let find_exn t off =
  let i = index t off in
  if i < 0 then raise Not_found else t.sorted.(i)

let find t off =
  let i = index t off in
  if i < 0 then None else Some t.sorted.(i)

let overlaps t (mp : Minipage.t) =
  (* a minipage overlapping [mp] would either contain mp.offset or start
     inside mp's range *)
  let i = last_at_or_before t mp.offset in
  (i >= 0 && Minipage.contains t.sorted.(i) mp.offset)
  || (i + 1 < t.n && t.sorted.(i + 1).Minipage.offset < Minipage.end_offset mp)

let add t mp =
  if overlaps t mp then
    invalid_arg (Format.asprintf "Mpt.add: %a overlaps an existing minipage" Minipage.pp mp);
  if t.n = Array.length t.sorted then begin
    let grown = Array.make (max 16 (2 * t.n)) free_slot in
    Array.blit t.sorted 0 grown 0 t.n;
    t.sorted <- grown
  end;
  let at = last_at_or_before t mp.Minipage.offset + 1 in
  Array.blit t.sorted at t.sorted (at + 1) (t.n - at);
  t.sorted.(at) <- mp;
  t.n <- t.n + 1

let count t = t.n

let iter t f =
  for i = 0 to t.n - 1 do
    f t.sorted.(i)
  done

let total_bytes t =
  let total = ref 0 in
  iter t (fun mp -> total := !total + mp.Minipage.length);
  !total

let max_views_on_a_page t ~page_size =
  let per_page : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  iter t (fun mp ->
      for page = Minipage.first_vpage mp ~page_size to Minipage.last_vpage mp ~page_size do
        let views = Option.value ~default:[] (Hashtbl.find_opt per_page page) in
        if not (List.mem mp.Minipage.view views) then
          Hashtbl.replace per_page page (mp.Minipage.view :: views)
      done);
  Hashtbl.fold (fun _ views acc -> max acc (List.length views)) per_page 0
