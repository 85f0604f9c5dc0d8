(** Branch-and-bound Traveling Salesperson (the TreadMarks benchmark).

    Partial tours up to a fixed recursion level are generated at init into a
    shared array of 148-byte tour elements — each extended exclusively by one
    task, exactly the structure the paper extracted out of the global struct
    so that adjacent tours (often assigned to different processors) stop
    false-sharing.  The global minimum bound is lock-protected for updates
    and, as in the paper's fix for the benign read race, every improvement is
    pushed to all hosts so the hot unprotected reads stay local. *)

type params = {
  cities : int;
  level : int;  (** tours are prefixes of this length *)
  node_us : float;  (** compute cost per search-tree node *)
  batch : int;  (** tour-pool tasks claimed per lock acquisition *)
  seed : int;
}

let default_params = { cities = 12; level = 3; node_us = 2.5; batch = 12; seed = 5 }
let paper_params = { cities = 19; level = 12; node_us = 0.3; batch = 8; seed = 5 }

let tour_bytes = 148

let distances p =
  let rng = Mp_util.Prng.create ~seed:p.seed in
  let d = Array.make_matrix p.cities p.cities 0 in
  for i = 0 to p.cities - 1 do
    for j = i + 1 to p.cities - 1 do
      let v = 1 + Mp_util.Prng.int rng 99 in
      d.(i).(j) <- v;
      d.(j).(i) <- v
    done
  done;
  d

(* All tour prefixes of length [level] starting at city 0. *)
let prefixes p =
  let out = ref [] in
  let rec go path used len =
    if len = p.level then out := List.rev path :: !out
    else
      for c = p.cities - 1 downto 1 do
        if not (List.mem c used) then go (c :: path) (c :: used) (len + 1)
      done
  in
  go [ 0 ] [ 0 ] 1;
  List.rev !out

(* Exhaustive best completion of a prefix, with branch-and-bound pruning
   against [bound]; returns (best, visited_nodes). *)
let solve_prefix dist ncities prefix bound =
  let visited = ref 0 in
  let best = ref bound in
  let used = Array.make ncities false in
  let prefix_cost = ref 0 in
  List.iteri
    (fun i c ->
      used.(c) <- true;
      if i > 0 then prefix_cost := !prefix_cost + dist.(List.nth prefix (i - 1)).(c))
    prefix;
  let last = List.nth prefix (List.length prefix - 1) in
  let rec go city cost remaining =
    incr visited;
    if cost >= !best then ()
    else if remaining = 0 then begin
      let total = cost + dist.(city).(0) in
      if total < !best then best := total
    end
    else
      for next = 1 to ncities - 1 do
        if not used.(next) then begin
          used.(next) <- true;
          go next (cost + dist.(city).(next)) (remaining - 1);
          used.(next) <- false
        end
      done
  in
  go last !prefix_cost (ncities - List.length prefix);
  (!best, !visited)

(* Greedy nearest-neighbour tour: the initial bound.  Without it the first
   tasks (searched with an infinite bound) have huge subtrees and their owner
   straggles; with it parallel and sequential searches both start pruned. *)
let greedy_bound dist ncities =
  let used = Array.make ncities false in
  used.(0) <- true;
  let cost = ref 0 and city = ref 0 in
  for _ = 1 to ncities - 1 do
    let best_city = ref (-1) and best_d = ref max_int in
    for c = 0 to ncities - 1 do
      if (not used.(c)) && dist.(!city).(c) < !best_d then begin
        best_city := c;
        best_d := dist.(!city).(c)
      end
    done;
    used.(!best_city) <- true;
    cost := !cost + !best_d;
    city := !best_city
  done;
  !cost + dist.(!city).(0)

let reference_uncached p =
  let dist = distances p in
  let best = ref (greedy_bound dist p.cities) in
  List.iter
    (fun prefix ->
      let b, _ = solve_prefix dist p.cities prefix !best in
      if b < !best then best := b)
    (prefixes p);
  !best

let reference = Memo.memo reference_uncached

module Make (D : Mp_dsm.Dsm_intf.S) = struct
  type handle = {
    tour_addr : int array;  (** one shared 148-byte element per prefix task *)
    min_addr : int;
    next_addr : int;  (** lock-protected cursor into the shared tour pool *)
    p : params;
    ntasks : int;
    mutable best : int;
  }

  let min_lock = 0
  let pool_lock = 1

  let setup t p =
    let prefs = Array.of_list (prefixes p) in
    let tour_addr = Array.init (Array.length prefs) (fun _ -> D.malloc t tour_bytes) in
    let min_addr = D.malloc t 64 in
    let next_addr = D.malloc t 64 in
    let h =
      { tour_addr; min_addr; next_addr; p; ntasks = Array.length prefs; best = max_int }
    in
    D.init_write_int t min_addr (greedy_bound (distances p) p.cities);
    D.init_write_int t next_addr 0;
    (* store each prefix into its tour element: length then cities *)
    Array.iteri
      (fun ti prefix ->
        D.init_write_i32 t tour_addr.(ti) (Int32.of_int (List.length prefix));
        List.iteri
          (fun i c -> D.init_write_i32 t (tour_addr.(ti) + 4 + (4 * i)) (Int32.of_int c))
          prefix)
      prefs;
    let hosts = D.hosts t in
    let dist = distances p in
    for host = 0 to hosts - 1 do
      D.spawn t ~host ~name:(Printf.sprintf "tsp.h%d" host) (fun ctx ->
          (* claim batches of tours from the shared pool under a lock: the
             dynamic distribution that keeps the search balanced *)
          let claim () =
            D.lock ctx pool_lock;
            let i = D.read_int ctx h.next_addr in
            D.write_int ctx h.next_addr (i + p.batch);
            D.unlock ctx pool_lock;
            i
          in
          let process ti =
            let addr = tour_addr.(ti) in
            (* read the tour element (exclusive to this task) *)
            let len = Int32.to_int (D.read_i32 ctx addr) in
            let prefix =
              List.init len (fun i -> Int32.to_int (D.read_i32 ctx (addr + 4 + (4 * i))))
            in
            (* bound read is unprotected: pushes keep a fresh read copy local *)
            let bound = D.read_int ctx min_addr in
            let best, visited = solve_prefix dist p.cities prefix bound in
            D.compute ctx (p.node_us *. float_of_int visited);
            (* record the task result in its own tour element *)
            D.write_i32 ctx (addr + 80) (Int32.of_int best);
            if best < bound then begin
              D.lock ctx min_lock;
              if best < D.read_int ctx min_addr then begin
                D.write_int ctx min_addr best;
                D.push_to_all ctx min_addr
              end;
              D.unlock ctx min_lock
            end
          in
          let batch_start = ref (claim ()) in
          let in_batch = ref 0 in
          let running = ref (!batch_start < h.ntasks) in
          while !running do
            process (!batch_start + !in_batch);
            incr in_batch;
            if !in_batch = p.batch then begin
              in_batch := 0;
              batch_start := claim ()
            end;
            if !batch_start + !in_batch >= h.ntasks then running := false
          done;
          D.barrier ctx;
          if D.host ctx = 0 then h.best <- D.read_int ctx min_addr)
    done;
    h

  let best h = h.best
  let verify h = h.best = reference h.p
end
