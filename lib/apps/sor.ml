(** Red-black Successive Over-Relaxation (the TreadMarks benchmark).

    The matrix is allocated row by row, so a 256-byte row (64 single-precision
    elements) is naturally the sharing unit — the one application of Table 2
    that needed no source changes.  Rows are block-partitioned across hosts;
    each iteration updates red rows then black rows with a barrier after each
    phase, so only the two boundary rows per host ever move between hosts. *)

type params = {
  rows : int;
  cols : int;
  iterations : int;
  elem_us : float;  (** compute cost per element update *)
}

(* Paper input: 32768x64, 8 MB shared.  The default is scaled down so the
   simulator executes in seconds; [elem_us] is raised correspondingly to
   preserve the paper's compute-to-communication ratio (boundary faults per
   phase are constant, so the ratio is what the speedup shape depends on). *)
let default_params = { rows = 512; cols = 64; iterations = 10; elem_us = 20.0 }
let paper_params = { rows = 32768; cols = 64; iterations = 10; elem_us = 0.08 }

let row_bytes p = p.cols * 4

(* The update stencil: integer-valued floats keep parallel and sequential
   runs bit-identical regardless of summation order. *)
let stencil up down left right =
  Float.round ((up +. down +. left +. right) /. 4.0)

let initial ~rows ~cols r c =
  if r = 0 || r = rows - 1 || c = 0 || c = cols - 1 then
    float_of_int (((r * 31) + (c * 17)) mod 64)
  else 0.0

(* Sequential reference producing the exact expected matrix.  Updates happen
   in place with the same traversal order as the parallel version: rows of
   one parity only read rows of the other parity, so the only intra-phase
   dependency is the left neighbor within a row, which both versions see
   freshly updated. *)
let reference_uncached p =
  let m =
    Array.init p.rows (fun r -> Array.init p.cols (initial ~rows:p.rows ~cols:p.cols r))
  in
  for _ = 1 to p.iterations do
    List.iter
      (fun parity ->
        for r = 1 to p.rows - 2 do
          if r mod 2 = parity then
            for c = 1 to p.cols - 2 do
              m.(r).(c) <- stencil m.(r - 1).(c) m.(r + 1).(c) m.(r).(c - 1) m.(r).(c + 1)
            done
        done)
      [ 0; 1 ]
  done;
  m

let reference = Memo.memo reference_uncached

module Make (D : Mp_dsm.Dsm_intf.S) = struct
  type handle = { rows_addr : int array; p : params; result : float array array }

  let elem_addr h r c = h.rows_addr.(r) + (4 * c)

  let setup t p =
    let rows_addr = Array.init p.rows (fun _ -> D.malloc t (row_bytes p)) in
    let h = { rows_addr; p; result = Array.make_matrix p.rows p.cols 0.0 } in
    for r = 0 to p.rows - 1 do
      for c = 0 to p.cols - 1 do
        D.init_write_f32 t (elem_addr h r c) (initial ~rows:p.rows ~cols:p.cols r c)
      done
    done;
    let hosts = D.hosts t in
    for host = 0 to hosts - 1 do
      D.spawn t ~host ~name:(Printf.sprintf "sor.h%d" host) (fun ctx ->
          let first, past = Partition.block_range ~items:p.rows ~parts:hosts ~part:host in
          let lo = max first 1 and hi = min past (p.rows - 1) in
          for _ = 1 to p.iterations do
            List.iter
              (fun parity ->
                for r = lo to hi - 1 do
                  if r mod 2 = parity then begin
                    for c = 1 to p.cols - 2 do
                      let v =
                        stencil
                          (D.read_f32 ctx (elem_addr h (r - 1) c))
                          (D.read_f32 ctx (elem_addr h (r + 1) c))
                          (D.read_f32 ctx (elem_addr h r (c - 1)))
                          (D.read_f32 ctx (elem_addr h r (c + 1)))
                      in
                      D.write_f32 ctx (elem_addr h r c) v
                    done;
                    D.compute ctx (p.elem_us *. float_of_int (p.cols - 2))
                  end
                done;
                D.barrier ctx)
              [ 0; 1 ]
          done;
          (* host 0 gathers the final matrix for verification *)
          D.barrier ctx;
          if D.host ctx = 0 then
            for r = 0 to p.rows - 1 do
              for c = 0 to p.cols - 1 do
                h.result.(r).(c) <- D.read_f32 ctx (elem_addr h r c)
              done
            done)
    done;
    h

  let result h = h.result

  let verify h =
    let expect = reference h.p in
    let ok = ref true in
    for r = 0 to h.p.rows - 1 do
      for c = 0 to h.p.cols - 1 do
        if expect.(r).(c) <> h.result.(r).(c) then ok := false
      done
    done;
    !ok
end
