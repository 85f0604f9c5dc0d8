(** LU-contiguous from SPLASH-2: blocked right-looking LU factorization
    without pivoting.

    The matrix is built from separately allocated BxB blocks (32x32 singles =
    4 KB in the paper), so the block is the sharing unit and one view
    suffices — minipages of exactly a page.  Block (I,J) is owned 2D
    round-robin; each step k: the diagonal owner factors A[k][k]; perimeter
    owners update their row/column blocks; interior owners update
    A[i][j] -= L[i][k] * U[k][j].  Prefetch calls (as inserted by the
    authors, §4.3.1) pull the diagonal and perimeter blocks while hosts
    wait at the step barriers. *)

type params = {
  n : int;  (** matrix dimension *)
  block : int;  (** block dimension (32 in the paper) *)
  block_op_us : float;  (** cost of one BxB block multiply-update *)
  use_prefetch : bool;
}

(* [block_op_us] is the compute-ratio knob: the real 32x32 block update is
   ~220 µs at 300 MHz with 32 steps; the scaled default has 12 steps, so the
   per-block cost is raised to keep compute-to-fetch ratios in the paper's
   regime. *)
let default_params = { n = 512; block = 32; block_op_us = 700.0; use_prefetch = true }
let paper_params = { n = 1024; block = 32; block_op_us = 220.0; use_prefetch = true }

let blocks p = p.n / p.block

(* Integer-valued, diagonally dominant input keeps the factorization exact
   in f32 and identical between sequential and parallel runs. *)
let initial p bi bj i j =
  let gi = (bi * p.block) + i and gj = (bj * p.block) + j in
  if gi = gj then 4096.0 else float_of_int (((gi * 7) + (gj * 13)) mod 4 - 2)

let reference_uncached p =
  let nb = blocks p and b = p.block in
  let a =
    Array.init (blocks p) (fun bi ->
        Array.init (blocks p) (fun bj ->
            Array.init b (fun i -> Array.init b (initial p bi bj i))))
  in
  let get bi bj i j = a.(bi).(bj).(i).(j) in
  (* every store rounds through f32, exactly like the DSM's 4-byte elements,
     so reference and parallel runs stay bit-identical *)
  let set bi bj i j v = a.(bi).(bj).(i).(j) <- Int32.float_of_bits (Int32.bits_of_float v) in
  for k = 0 to nb - 1 do
    (* factor diagonal block (unblocked LU, no pivoting) *)
    for d = 0 to b - 1 do
      for i = d + 1 to b - 1 do
        set k k i d (get k k i d /. get k k d d);
        for j = d + 1 to b - 1 do
          set k k i j (get k k i j -. (get k k i d *. get k k d j))
        done
      done
    done;
    (* perimeter row: U[k][j] = L(kk)^-1 A[k][j]; column: L[i][k] = A[i][k] U(kk)^-1 *)
    for j = k + 1 to nb - 1 do
      for d = 0 to b - 1 do
        for i = d + 1 to b - 1 do
          for c = 0 to b - 1 do
            set k j i c (get k j i c -. (get k k i d *. get k j d c))
          done
        done
      done
    done;
    for i = k + 1 to nb - 1 do
      for d = 0 to b - 1 do
        for r = 0 to b - 1 do
          set i k r d (get i k r d /. get k k d d);
          for j = d + 1 to b - 1 do
            set i k r j (get i k r j -. (get i k r d *. get k k d j))
          done
        done
      done
    done;
    (* interior update *)
    for i = k + 1 to nb - 1 do
      for j = k + 1 to nb - 1 do
        for r = 0 to b - 1 do
          for d = 0 to b - 1 do
            let l = get i k r d in
            if l <> 0.0 then
              for c = 0 to b - 1 do
                set i j r c (get i j r c -. (l *. get k j d c))
              done
          done
        done
      done
    done
  done;
  a

(* the reference is pure in [p]: cache it so sweeps over host counts pay for
   the O(n^3) sequential factorization once *)
let reference = Memo.memo reference_uncached

module Make (D : Mp_dsm.Dsm_intf.S) = struct
  type handle = {
    block_addr : int array array;
    p : params;
    result : float array array array array;
  }

  let elem_addr h bi bj i j = h.block_addr.(bi).(bj) + (4 * ((i * h.p.block) + j))

  (* SPLASH-style 2D scatter ("cookie-cutter"): a pr x pc processor grid
     tiled over the block matrix, so no single host owns a whole block row
     or column *)
  let owner _p ~hosts bi bj =
    let rec grid pr = if hosts mod pr = 0 then pr else grid (pr - 1) in
    let pr = grid (int_of_float (sqrt (float_of_int hosts))) in
    let pc = hosts / pr in
    ((bi mod pr) * pc) + (bj mod pc)

  let setup t p =
    if p.n mod p.block <> 0 then invalid_arg "Lu.setup: block must divide n";
    let nb = blocks p and b = p.block in
    let block_addr =
      Array.init nb (fun _ -> Array.init nb (fun _ -> D.malloc t (4 * b * b)))
    in
    let h =
      {
        block_addr;
        p;
        result = Array.init nb (fun _ -> Array.init nb (fun _ -> Array.make_matrix b b 0.0));
      }
    in
    for bi = 0 to nb - 1 do
      for bj = 0 to nb - 1 do
        for i = 0 to b - 1 do
          for j = 0 to b - 1 do
            D.init_write_f32 t (elem_addr h bi bj i j) (initial p bi bj i j)
          done
        done
      done
    done;
    let hosts = D.hosts t in
    for host = 0 to hosts - 1 do
      D.spawn t ~host ~name:(Printf.sprintf "lu.h%d" host) (fun ctx ->
          let get bi bj i j = D.read_f32 ctx (elem_addr h bi bj i j) in
          let set bi bj i j v = D.write_f32 ctx (elem_addr h bi bj i j) v in
          let mine bi bj = owner p ~hosts bi bj = host in
          for k = 0 to nb - 1 do
            if mine k k then begin
              for d = 0 to b - 1 do
                for i = d + 1 to b - 1 do
                  set k k i d (get k k i d /. get k k d d);
                  for j = d + 1 to b - 1 do
                    set k k i j (get k k i j -. (get k k i d *. get k k d j))
                  done
                done
              done;
              D.compute ctx p.block_op_us
            end;
            if p.use_prefetch then D.prefetch ctx h.block_addr.(k).(k) Mp_memsim.Prot.Read;
            D.barrier ctx;
            (* perimeter *)
            for j = k + 1 to nb - 1 do
              if mine k j then begin
                for d = 0 to b - 1 do
                  for i = d + 1 to b - 1 do
                    for c = 0 to b - 1 do
                      set k j i c (get k j i c -. (get k k i d *. get k j d c))
                    done
                  done
                done;
                D.compute ctx p.block_op_us
              end
            done;
            for i = k + 1 to nb - 1 do
              if mine i k then begin
                for d = 0 to b - 1 do
                  for r = 0 to b - 1 do
                    set i k r d (get i k r d /. get k k d d);
                    for j = d + 1 to b - 1 do
                      set i k r j (get i k r j -. (get i k r d *. get k k d j))
                    done
                  done
                done;
                D.compute ctx p.block_op_us
              end
            done;
            D.barrier ctx;
            (* prefetch every perimeter block this host's interior updates
               will consume: issued back-to-back right after the barrier the
               fetches overlap each other instead of stalling one at a time *)
            if p.use_prefetch then begin
              for i = k + 1 to nb - 1 do
                for j = k + 1 to nb - 1 do
                  if mine i j then begin
                    D.prefetch ctx h.block_addr.(i).(k) Mp_memsim.Prot.Read;
                    D.prefetch ctx h.block_addr.(k).(j) Mp_memsim.Prot.Read
                  end
                done
              done
            end;
            (* interior *)
            for i = k + 1 to nb - 1 do
              for j = k + 1 to nb - 1 do
                if mine i j then begin
                  for r = 0 to b - 1 do
                    for d = 0 to b - 1 do
                      let l = get i k r d in
                      if l <> 0.0 then
                        for c = 0 to b - 1 do
                          set i j r c (get i j r c -. (l *. get k j d c))
                        done
                    done
                  done;
                  D.compute ctx p.block_op_us
                end
              done
            done;
            D.barrier ctx
          done;
          if D.host ctx = 0 then
            for bi = 0 to nb - 1 do
              for bj = 0 to nb - 1 do
                for i = 0 to b - 1 do
                  for j = 0 to b - 1 do
                    h.result.(bi).(bj).(i).(j) <- get bi bj i j
                  done
                done
              done
            done)
    done;
    h

  let verify h =
    let expect = reference h.p in
    let nb = blocks h.p and b = h.p.block in
    let ok = ref true in
    for bi = 0 to nb - 1 do
      for bj = 0 to nb - 1 do
        for i = 0 to b - 1 do
          for j = 0 to b - 1 do
            if expect.(bi).(bj).(i).(j) <> h.result.(bi).(bj).(i).(j) then ok := false
          done
        done
      done
    done;
    !ok
end
