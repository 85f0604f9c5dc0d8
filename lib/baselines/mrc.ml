open Mp_multiview

(* One unit per minipage of MultiView's dynamic layout, 32 views. *)
module Minipages = struct
  type t = Allocator.t

  let name = "mrc"
  let views = 32
  let alloc a size = snd (Allocator.malloc a size)
  let find a off = Mpt.find (Allocator.mpt a) off
end

include Rc.Make (Minipages)

let create engine ~hosts ?(chunking = Allocator.Fine 1) ?polling () =
  create engine ~hosts ?polling
    (Allocator.create ~chunking ~page_size:Rc.page_size ~object_size:Rc.object_size
       ~views:Minipages.views ())

let views_used t = Allocator.views_used (grain t)
