(** Integer Sort from the NAS parallel benchmarks (bucket-counting phase).

    The shared region is the global histogram — 2 KB for the paper's 2^9 key
    values — divided into one region per host, each allocated separately so
    regions land in distinct minipages (the Table 2 modification).  Every
    iteration each host counts its private keys, then the hosts add their
    local histograms into the shared regions in a staggered ring (host h
    starts at region h+1) with a barrier between steps, which gives the
    benchmark its barrier-heavy profile and no locks. *)

type params = {
  keys : int;  (** total keys, split across hosts *)
  max_key : int;  (** number of distinct key values (2^9 in the paper) *)
  iterations : int;
  key_us : float;  (** per-key counting cost *)
  seed : int;
}

let default_params =
  { keys = 1 lsl 20; max_key = 1 lsl 9; iterations = 10; key_us = 0.15; seed = 12 }

let paper_params =
  { keys = 1 lsl 23; max_key = 1 lsl 9; iterations = 10; key_us = 0.02; seed = 12 }

(* Deterministic private key streams, one per host. *)
let keys_for p ~hosts ~host =
  let rng = Mp_util.Prng.create ~seed:(p.seed + (1000 * host)) in
  let first, past = Partition.block_range ~items:p.keys ~parts:hosts ~part:host in
  Array.init (past - first) (fun _ -> Mp_util.Prng.int rng p.max_key)

let reference p ~hosts =
  let hist = Array.make p.max_key 0 in
  for host = 0 to hosts - 1 do
    Array.iter (fun k -> hist.(k) <- hist.(k) + p.iterations) (keys_for p ~hosts ~host)
  done;
  hist

module Make (D : Mp_dsm.Dsm_intf.S) = struct
  type handle = {
    region_addr : int array;  (** one shared region per host *)
    buckets_per_region : int;
    hosts : int;
    p : params;
    result : int array;
  }

  let bucket_addr h b =
    let region = b / h.buckets_per_region in
    h.region_addr.(region) + (4 * (b mod h.buckets_per_region))

  let setup t p =
    let hosts = D.hosts t in
    (* regions of ceil(max_key/hosts) buckets; the last one may be shorter *)
    let buckets_per_region = (p.max_key + hosts - 1) / hosts in
    let region_buckets r =
      min buckets_per_region (p.max_key - (r * buckets_per_region))
    in
    let region_addr =
      Array.init hosts (fun r -> D.malloc t (4 * max 1 (region_buckets r)))
    in
    let h =
      { region_addr; buckets_per_region; hosts; p; result = Array.make p.max_key 0 }
    in
    for b = 0 to p.max_key - 1 do
      D.init_write_i32 t (bucket_addr h b) 0l
    done;
    for host = 0 to hosts - 1 do
      let keys = keys_for p ~hosts ~host in
      D.spawn t ~host ~name:(Printf.sprintf "is.h%d" host) (fun ctx ->
          (* the key stream is identical every iteration, so the histogram is
             computed once; the per-iteration counting cost is still charged *)
          let local = Array.make p.max_key 0 in
          Array.iter (fun k -> local.(k) <- local.(k) + 1) keys;
          for _ = 1 to p.iterations do
            D.compute ctx (p.key_us *. float_of_int (Array.length keys));
            D.barrier ctx;
            (* staggered reduction: step s adds into region (host+s) mod n *)
            for s = 0 to hosts - 1 do
              let region = (host + s) mod hosts in
              (* request write access up front so the read-modify-write of
                 the region costs one protocol round instead of two *)
              if region_buckets region > 0 then
                D.prefetch ctx
                  (bucket_addr h (region * buckets_per_region))
                  Mp_memsim.Prot.Write;
              for i = 0 to region_buckets region - 1 do
                let b = (region * buckets_per_region) + i in
                if local.(b) > 0 then begin
                  let a = bucket_addr h b in
                  D.write_i32 ctx a (Int32.add (D.read_i32 ctx a) (Int32.of_int local.(b)))
                end
              done;
              D.compute ctx (0.02 *. float_of_int buckets_per_region);
              D.barrier ctx
            done
          done;
          D.barrier ctx;
          if D.host ctx = 0 then
            for b = 0 to p.max_key - 1 do
              h.result.(b) <- Int32.to_int (D.read_i32 ctx (bucket_addr h b))
            done)
    done;
    h

  let result h = h.result

  let verify h = reference h.p ~hosts:h.hosts = h.result
end
