module Params = struct
  type t = {
    page_size : int;
    tlb_entries : int;
    l1_size : int;
    l1_line : int;
    l1_assoc : int;
    l2_size : int;
    l2_line : int;
    l2_assoc : int;
    cyc_base : float;
    cyc_l1_hit : float;
    cyc_l2_hit : float;
    cyc_mem : float;
    cyc_walk : float;
    cyc_pte_evicted_os : float;
    mhz : float;
  }

  let pentium_ii =
    {
      page_size = 4096;
      tlb_entries = 64;
      l1_size = 16 * 1024;
      l1_line = 32;
      l1_assoc = 4;
      l2_size = 512 * 1024;
      l2_line = 32;
      l2_assoc = 4;
      cyc_base = 2.0;
      cyc_l1_hit = 1.0;
      cyc_l2_hit = 8.0;
      cyc_mem = 60.0;
      cyc_walk = 8.0;
      cyc_pte_evicted_os = 550.0;
      mhz = 300.0;
    }
end

type t = {
  p : Params.t;
  tlb : Cache.t;  (* one set: fully associative over vpns *)
  l1 : Cache.t;
  l2 : Cache.t;
  mutable mapped_vpns : int;
      (* declared through [commit_vpns]: their PTEs are the "active PT
         entries" of §4.1; the OS surcharge applies once 4 bytes per entry
         exceed the L2-sized budget, which is where the paper locates the
         breaking points. *)
}

(* PTEs live in their own region of the physical address space, far above any
   data the model touches, but they compete for the same L2 sets. *)
let pt_base = 1 lsl 40

let create () =
  let p = Params.pentium_ii in
  {
    p;
    tlb = Cache.create ~size_bytes:p.tlb_entries ~line_bytes:1 ~assoc:p.tlb_entries;
    l1 = Cache.create ~size_bytes:p.l1_size ~line_bytes:p.l1_line ~assoc:p.l1_assoc;
    l2 = Cache.create ~size_bytes:p.l2_size ~line_bytes:p.l2_line ~assoc:p.l2_assoc;
    mapped_vpns = 0;
  }

let params t = t.p

let touch_vpage t ~vpn =
  if Cache.access t.tlb vpn then 0.0
  else begin
    let pte_addr = pt_base + (vpn * 4) in
    let surcharge =
      if 4 * t.mapped_vpns > t.p.l2_size then t.p.cyc_pte_evicted_os else 0.0
    in
    let cost =
      if Cache.access t.l2 pte_addr then t.p.cyc_l2_hit else t.p.cyc_mem +. surcharge
    in
    t.p.cyc_walk +. cost
  end

let touch_data t ~addr =
  if Cache.access t.l1 addr then t.p.cyc_l1_hit
  else begin
    let cost = if Cache.access t.l2 addr then t.p.cyc_l2_hit else t.p.cyc_mem in
    t.p.cyc_l1_hit +. cost
  end

let commit_vpns t n =
  if n < 0 then invalid_arg "Mmu.commit_vpns";
  t.mapped_vpns <- t.mapped_vpns + n

let cycles_to_us t cycles = cycles /. t.p.mhz

let tlb_misses t = Cache.misses t.tlb
let l2_misses t = Cache.misses t.l2
