(* One unit per page of view 0, bump-allocated in 8-byte steps; a block no
   larger than a page never straddles a page boundary. *)
module Pages = struct
  type t = { mutable next_off : int }

  let name = "lrc"
  let views = 1
  let ps = Rc.page_size

  let alloc g size =
    let next_page = ((g.next_off / ps) + 1) * ps in
    let off =
      if size <= ps then if (g.next_off mod ps) + size <= ps then g.next_off else next_page
      else if g.next_off mod ps = 0 then g.next_off
      else next_page
    in
    if off + size > Rc.object_size then failwith "Lrc.malloc: out of memory";
    g.next_off <- (off + size + 7) land lnot 7;
    off

  let find g off =
    if off < g.next_off then
      Some (Mp_multiview.Minipage.make ~id:(off / ps) ~view:0 ~offset:(off / ps * ps) ~length:ps)
    else None
end

include Rc.Make (Pages)

let create engine ~hosts ?polling () = create engine ~hosts ?polling { Pages.next_off = 0 }
