type chunking = Fine of int | Page_grain

type t = {
  chunking : chunking;
  page_size : int;
  object_size : int;
  views : int;
  mpt : Mpt.t;
  used : (int * int, unit) Hashtbl.t;  (* (page, view) already taken *)
  mutable next_off : int;
  mutable next_id : int;
  mutable views_used : int;
  mutable open_chunk : (Minipage.t * int) option;  (* minipage, remaining slots *)
}

exception Out_of_memory
exception Out_of_views

let create ?(chunking = Fine 1) ~page_size ~object_size ~views () =
  (match chunking with
  | Fine k when k < 1 -> invalid_arg "Allocator.create: chunking level must be >= 1"
  | Fine _ | Page_grain -> ());
  if views < 1 then invalid_arg "Allocator.create: need at least one view";
  {
    chunking;
    page_size;
    object_size;
    views;
    mpt = Mpt.create ();
    used = Hashtbl.create 256;
    next_off = 0;
    next_id = 0;
    views_used = 0;
    open_chunk = None;
  }

let align4 n = (n + 3) land lnot 3

let pages_of t ~off ~len =
  let first = off / t.page_size and last = (off + len - 1) / t.page_size in
  List.init (last - first + 1) (fun i -> first + i)

let view_free t ~page ~view = not (Hashtbl.mem t.used (page, view))

let mark t ~pages ~view =
  List.iter (fun page -> Hashtbl.replace t.used (page, view) ()) pages;
  if view + 1 > t.views_used then t.views_used <- view + 1

let choose_view t ~pages =
  let rec go v =
    if v >= t.views then raise Out_of_views
    else if List.for_all (fun page -> view_free t ~page ~view:v) pages then v
    else go (v + 1)
  in
  go 0

let fresh_minipage t ~off ~len =
  let pages = pages_of t ~off ~len in
  let view = choose_view t ~pages in
  mark t ~pages ~view;
  let mp = Minipage.make ~id:t.next_id ~view ~offset:off ~length:len in
  t.next_id <- t.next_id + 1;
  Mpt.add t.mpt mp;
  mp

(* Placement policy, matching the view counts of Table 2: allocations are
   4-byte aligned and, under fine-grain layout, a sub-page allocation never
   straddles a page boundary (it is bumped to the next page instead, like a
   conventional sub-page malloc); allocations larger than a page start
   page-aligned.  The page-grain layout packs continuously, "disregarding
   minipage boundaries" (§4.4's "none"), so allocations do straddle pages. *)
let reserve t size =
  if size <= 0 then invalid_arg "Allocator.malloc: size must be positive";
  let next_page = ((t.next_off / t.page_size) + 1) * t.page_size in
  let off =
    match t.chunking with
    | Page_grain -> t.next_off
    | Fine _ ->
      if size <= t.page_size then
        if (t.next_off mod t.page_size) + size <= t.page_size then t.next_off
        else next_page
      else if t.next_off mod t.page_size = 0 then t.next_off
      else next_page
  in
  if off + size > t.object_size then raise Out_of_memory;
  t.next_off <- off + align4 size;
  off

(* Page-grain layout: allocations pack into page-sized, view-0 minipages
   created on demand — the classic page-based DSM layout. *)
let malloc_page_grain t size =
  let off = reserve t size in
  let pages = pages_of t ~off ~len:size in
  let mp_for_page page =
    match Mpt.find t.mpt (page * t.page_size) with
    | Some mp -> mp
    | None ->
      let mp =
        Minipage.make ~id:t.next_id ~view:0 ~offset:(page * t.page_size)
          ~length:t.page_size
      in
      t.next_id <- t.next_id + 1;
      mark t ~pages:[ page ] ~view:0;
      Mpt.add t.mpt mp;
      mp
  in
  let first_mp = mp_for_page (List.hd pages) in
  List.iter (fun page -> ignore (mp_for_page page)) pages;
  (first_mp, off)

(* Try to grow the open chunk's minipage over [off, off+len); fails when the
   extension reaches a page where the chunk's view is already taken. *)
let try_extend t (mp : Minipage.t) ~off ~len =
  if off <> Minipage.end_offset mp && off <> align4 (Minipage.end_offset mp) then false
  else begin
    let old_last = Minipage.last_vpage mp ~page_size:t.page_size in
    let new_len = off + len - mp.offset in
    let new_last = (mp.offset + new_len - 1) / t.page_size in
    let new_pages = List.init (max 0 (new_last - old_last)) (fun i -> old_last + 1 + i) in
    if List.for_all (fun page -> view_free t ~page ~view:mp.view) new_pages then begin
      mark t ~pages:new_pages ~view:mp.view;
      mp.length <- new_len;
      true
    end
    else false
  end

(* A chunk grows contiguously, straddling page boundaries if needed (the
   paper's optimal WATER minipages are 2688/3360 bytes, i.e. packed chunks);
   only a fresh minipage gets the no-straddle placement. *)
let malloc_fine t level size =
  let fresh () =
    let off = reserve t size in
    let mp = fresh_minipage t ~off ~len:size in
    t.open_chunk <- (if level > 1 then Some (mp, level - 1) else None);
    (mp, off)
  in
  match t.open_chunk with
  | Some (mp, remaining) when remaining > 0 ->
    let off = t.next_off in
    if size > 0 && off + size <= t.object_size && try_extend t mp ~off ~len:size then begin
      t.next_off <- off + align4 size;
      let remaining = remaining - 1 in
      t.open_chunk <- (if remaining = 0 then None else Some (mp, remaining));
      (mp, off)
    end
    else fresh ()
  | Some _ | None -> fresh ()

let malloc t size =
  match t.chunking with
  | Page_grain -> malloc_page_grain t size
  | Fine level -> malloc_fine t level size

let mpt t = t.mpt
let chunking t = t.chunking
let views_used t = max 1 t.views_used
let object_size t = t.object_size
let page_size t = t.page_size
