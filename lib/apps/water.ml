(** WATER-nsquared from SPLASH-2, restructured as in the paper: each molecule
    (672 bytes) is allocated separately so it gets its own minipage.

    An iteration has the phases the paper discusses:
    - a {e read phase} where every host walks all molecule positions (this is
      what chunking accelerates in Figure 7);
    - an O(n²) force computation over an interaction subset, accumulating
      contributions privately;
    - a {e merge phase} where contributions to remote molecules are added
      into the shared force fields under per-molecule locks (the benchmark's
      heavy lock traffic);
    - an owner-only position/velocity update;
    - a global energy reduction under one lock.

    All arithmetic is integer-valued in doubles, so parallel merge order
    cannot perturb results and the run verifies exactly against the
    sequential reference. *)

type params = {
  molecules : int;
  iterations : int;
  pair_us : float;  (** compute cost per interacting pair *)
  interaction_pct : int;  (** percentage of pairs that interact (cutoff) *)
  merge_group : int;
      (** molecules covered by one force-merge lock; 3 reproduces the lock
          volume of Table 2 (≈6720 for the paper input) *)
  composed_read_phase : bool;
      (** fetch the whole molecule array through a composed view (§5)
          instead of faulting molecule by molecule *)
}

let default_params =
  {
    molecules = 512;
    iterations = 5;
    pair_us = 25.0;
    interaction_pct = 35;
    merge_group = 1;
    composed_read_phase = false;
  }

let paper_params = default_params

let mol_bytes = 672

(* deterministic symmetric interaction cutoff *)
let interacts p i j =
  let a = min i j and b = max i j in
  ((a * 2654435761) + (b * 40503) + (a * b * 97)) mod 100 < p.interaction_pct

let initial_pos i d = float_of_int (((i * 37) + (d * 11)) mod 23)
let initial_vel i d = float_of_int ((((i + d) * 13) mod 7) - 3)

type mol = { pos : float array; vel : float array; force : float array }

let reference_uncached p =
  let mols =
    Array.init p.molecules (fun i ->
        {
          pos = Array.init 3 (initial_pos i);
          vel = Array.init 3 (initial_vel i);
          force = Array.make 3 0.0;
        })
  in
  let energy = ref 0.0 in
  for _ = 1 to p.iterations do
    (* forces *)
    for i = 0 to p.molecules - 1 do
      for j = i + 1 to p.molecules - 1 do
        if interacts p i j then
          for d = 0 to 2 do
            let f = Float.round mols.(i).pos.(d) -. Float.round mols.(j).pos.(d) in
            mols.(i).force.(d) <- mols.(i).force.(d) +. f;
            mols.(j).force.(d) <- mols.(j).force.(d) -. f
          done
      done
    done;
    (* update *)
    Array.iter
      (fun m ->
        for d = 0 to 2 do
          m.vel.(d) <- Float.round ((m.vel.(d) +. m.force.(d)) /. 2.0);
          m.pos.(d) <- Float.round (m.pos.(d) +. m.vel.(d)) ;
          m.pos.(d) <- Float.rem m.pos.(d) 1024.0;
          m.force.(d) <- 0.0
        done)
      mols;
    (* energy *)
    Array.iter (fun m -> energy := !energy +. m.pos.(0)) mols
  done;
  (mols, !energy)

let reference = Memo.memo reference_uncached

module Make (D : Mp_dsm.Dsm_intf.S) = struct
  type handle = {
    mol_addr : int array;
    energy_addr : int;
    p : params;
    mutable energy : float;
    final_pos : float array array;
  }

  let pos_addr h i d = h.mol_addr.(i) + (8 * d)
  let vel_addr h i d = h.mol_addr.(i) + 24 + (8 * d)
  let force_addr h i d = h.mol_addr.(i) + 48 + (8 * d)
  let energy_lock = 1_000_000
  let mol_lock i = i

  let setup t p =
    let mol_addr = Array.init p.molecules (fun _ -> D.malloc t mol_bytes) in
    (* padded global: a full molecule page leaves a 64-byte tail, so a
       128-byte cell lands on its own page and the suite keeps the 6 views
       of Table 2 *)
    let energy_addr = D.malloc t 128 in
    let h =
      {
        mol_addr;
        energy_addr;
        p;
        energy = 0.0;
        final_pos = Array.make_matrix p.molecules 3 0.0;
      }
    in
    D.init_write_f64 t energy_addr 0.0;
    for i = 0 to p.molecules - 1 do
      for d = 0 to 2 do
        D.init_write_f64 t (pos_addr h i d) (initial_pos i d);
        D.init_write_f64 t (vel_addr h i d) (initial_vel i d);
        D.init_write_f64 t (force_addr h i d) 0.0
      done
    done;
    let hosts = D.hosts t in
    let group =
      if p.composed_read_phase then Some (D.compose t mol_addr) else None
    in
    for host = 0 to hosts - 1 do
      D.spawn t ~host ~name:(Printf.sprintf "water.h%d" host) (fun ctx ->
          let first, past = Partition.block_range ~items:p.molecules ~parts:hosts ~part:host in
          let contrib = Array.make_matrix p.molecules 3 0.0 in
          let touched = Array.make p.molecules false in
          for _ = 1 to p.iterations do
            (* read phase: bring in the entire molecule structure — either
               one coarse composed-view fetch or a fault per molecule *)
            (match group with
            | Some g -> D.fetch_group ctx g
            | None -> ());
            let acc = ref 0.0 in
            for j = 0 to p.molecules - 1 do
              acc := !acc +. D.read_f64 ctx (pos_addr h j 0)
            done;
            ignore !acc;
            D.compute ctx (0.05 *. float_of_int p.molecules);
            D.barrier ctx;
            (* force computation into private accumulators, with the n²
               half-window pair split of the SPLASH original: owner of i
               handles pairs (i, i+1 .. i+n/2 mod n), so each host's
               contributions stay within a window instead of touching every
               molecule *)
            Array.iteri (fun j row -> touched.(j) <- false; Array.fill row 0 3 0.0) contrib;
            let n = p.molecules in
            let max_off = n / 2 in
            for i = first to past - 1 do
              let pairs_i = ref 0 in
              for o = 1 to max_off do
                if not (n mod 2 = 0 && o = max_off && i >= n / 2) then begin
                  let j = (i + o) mod n in
                  if interacts p i j then begin
                    incr pairs_i;
                    for d = 0 to 2 do
                      let f =
                        Float.round (D.read_f64 ctx (pos_addr h i d))
                        -. Float.round (D.read_f64 ctx (pos_addr h j d))
                      in
                      contrib.(i).(d) <- contrib.(i).(d) +. f;
                      contrib.(j).(d) <- contrib.(j).(d) -. f
                    done;
                    touched.(i) <- true;
                    touched.(j) <- true
                  end
                end
              done;
              (* charge per molecule, not per phase: the host's CPU is busy
                 while its peers fault on data it holds, which is what makes
                 polling responsiveness matter (§3.5) *)
              D.compute ctx (p.pair_us *. float_of_int !pairs_i)
            done;
            (* merge immediately — no barrier: as in the SPLASH-2 original,
               hosts still reading positions overlap hosts already
               lock-updating force fields on the same minipages, which is
               the Write-Read interleaving behind the paper's competing
               requests.  Contributions go under molecule-group locks; hosts
               start at their own block and wrap, avoiding a lock convoy. *)
            let groups = (p.molecules + p.merge_group - 1) / p.merge_group in
            let first_group = first / p.merge_group in
            for s = 0 to groups - 1 do
              let g = (first_group + s) mod groups in
              let jlo = g * p.merge_group in
              let jhi = min (jlo + p.merge_group) p.molecules in
              let any = ref false in
              for j = jlo to jhi - 1 do
                if touched.(j) then any := true
              done;
              if !any then begin
                D.lock ctx (mol_lock g);
                for j = jlo to jhi - 1 do
                  if touched.(j) then
                    for d = 0 to 2 do
                      let a = force_addr h j d in
                      D.write_f64 ctx a (D.read_f64 ctx a +. contrib.(j).(d))
                    done
                done;
                D.unlock ctx (mol_lock g)
              end
            done;
            D.barrier ctx;
            (* update phase: owners advance their molecules; odd hosts walk
               their block backwards, so neighbours hit the shared boundary
               chunk at the same time — the unsynchronized phase overlap
               that makes chunked false sharing visible (Figure 7) *)
            let updates = past - first in
            for s = 0 to updates - 1 do
              let i = if host mod 2 = 0 then first + s else past - 1 - s in
              for d = 0 to 2 do
                let v =
                  Float.round
                    ((D.read_f64 ctx (vel_addr h i d) +. D.read_f64 ctx (force_addr h i d))
                    /. 2.0)
                in
                D.write_f64 ctx (vel_addr h i d) v;
                let np = Float.rem (Float.round (D.read_f64 ctx (pos_addr h i d) +. v)) 1024.0 in
                D.write_f64 ctx (pos_addr h i d) np;
                D.write_f64 ctx (force_addr h i d) 0.0
              done
            done;
            D.compute ctx (0.2 *. float_of_int (past - first));
            D.barrier ctx;
            (* energy reduction *)
            let local = ref 0.0 in
            for i = first to past - 1 do
              local := !local +. D.read_f64 ctx (pos_addr h i 0)
            done;
            D.lock ctx energy_lock;
            D.write_f64 ctx h.energy_addr (D.read_f64 ctx h.energy_addr +. !local);
            D.unlock ctx energy_lock;
            D.barrier ctx
          done;
          if D.host ctx = 0 then begin
            h.energy <- D.read_f64 ctx h.energy_addr;
            for i = 0 to p.molecules - 1 do
              for d = 0 to 2 do
                h.final_pos.(i).(d) <- D.read_f64 ctx (pos_addr h i d)
              done
            done
          end)
    done;
    h

  let verify h =
    let mols, energy = reference h.p in
    let ok = ref (h.energy = energy) in
    Array.iteri
      (fun i m ->
        for d = 0 to 2 do
          if m.pos.(d) <> h.final_pos.(i).(d) then ok := false
        done)
      mols;
    !ok

  let energy h = h.energy
end
