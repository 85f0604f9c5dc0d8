type result = {
  views : int;
  array_bytes : int;
  us_per_iter : float;
  tlb_misses_per_iter : float;
  l2_misses_per_iter : float;
}

let run ?(iterations = 3) ?(order = `Interleaved) ?allocated_bytes ~array_bytes ~views () =
  if views <= 0 then invalid_arg "Overhead_model.run: views";
  let mmu = Mmu.create () in
  let p = Mmu.params mmu in
  let alloc = Option.value allocated_bytes ~default:array_bytes in
  if alloc < array_bytes then invalid_arg "Overhead_model.run: allocated_bytes below array_bytes";
  if p.page_size mod views <> 0 then
    invalid_arg "Overhead_model.run: views must divide the page size";
  if array_bytes < p.page_size then invalid_arg "Overhead_model.run: array too small";
  let pages = array_bytes / p.page_size in
  (* every view maps every page of the allocation, accessed or not *)
  Mmu.commit_vpns mmu (views * (pages + ((alloc - array_bytes) / p.page_size)));
  let line = p.l1_line in
  let minipage = p.page_size / views in
  (* Cost of one full traversal in cycles.  Per page: each of the [views]
     minipages is reached through its own view, touching one vpage per
     minipage; the data itself is physical, one line per [line] bytes. *)
  let visit_minipage cycles page m =
    (* vpn unique per (view, page); consecutive pages of one view are
       adjacent so their PTEs share cache lines, as in a real PT. *)
    let vpn = (m * pages) + page in
    cycles := !cycles +. Mmu.touch_vpage mmu ~vpn;
    (* Lines covered by this minipage.  For minipages smaller than a line,
       several minipages share one physical line; charge the line once, on
       the minipage containing its first byte: only lines *starting* inside
       this minipage are charged here. *)
    let first_byte = (page * p.page_size) + (m * minipage) in
    let last_byte = first_byte + minipage - 1 in
    let first_line = (first_byte + line - 1) / line in
    let last_line = last_byte / line in
    for l = first_line to last_line do
      cycles := !cycles +. Mmu.touch_data mmu ~addr:(l * line)
    done
  in
  let traverse () =
    let cycles = ref 0.0 in
    (match order with
    | `Interleaved ->
      (* consecutive elements: views alternate within each page *)
      for page = 0 to pages - 1 do
        for m = 0 to views - 1 do
          visit_minipage cycles page m
        done
      done
    | `View_major ->
      (* all of one view first: consecutive vpns, so PTE lines are consumed
         eight at a time before moving on — the §5 locality argument *)
      for m = 0 to views - 1 do
        for page = 0 to pages - 1 do
          visit_minipage cycles page m
        done
      done);
    !cycles +. (p.cyc_base *. float_of_int array_bytes)
  in
  (* One warm-up traversal, not measured.  The working set declared above
     holds once every array vpage has been touched, that is from the end of
     the first traversal on; the surcharge changes costs, never TLB or cache
     state, so the measured traversals are exact. *)
  ignore (traverse ());
  let tlb0 = Mmu.tlb_misses mmu and l20 = Mmu.l2_misses mmu in
  let cycles = ref 0.0 in
  for _ = 1 to iterations do
    cycles := !cycles +. traverse ()
  done;
  let n = float_of_int iterations in
  {
    views;
    array_bytes;
    us_per_iter = Mmu.cycles_to_us mmu (!cycles /. n);
    tlb_misses_per_iter = float_of_int (Mmu.tlb_misses mmu - tlb0) /. n;
    l2_misses_per_iter = float_of_int (Mmu.l2_misses mmu - l20) /. n;
  }

let slowdown ~baseline r = r.us_per_iter /. baseline.us_per_iter

let max_views_for ?(va_bytes = 1_630_000_000) ~array_bytes () =
  max 1 (va_bytes / array_bytes)
