(* A schedule's recorded history and the two oracles that read it: the
   per-location coherence check, and an executable sequential
   specification of the DSM's memory — a MapSpec-style map over minipage
   locations (see spec.mli for the semantics). *)

type entry =
  | Read of { time : float; host : int; loc : int; value : int }
  | Write of { time : float; host : int; loc : int; value : int }
  | Acquire of { host : int; key : int }
  | Release of { host : int; key : int }
  | Barrier of { host : int }

(* Every location's value before its first write: rank 0 in both checks. *)
let initial = 0

type hist = {
  mutable entries_rev : entry list;
  mutable ops : int;  (* reads and writes *)
  mutable next_value : int;  (* lowest value fresh_value may hand out *)
}

let hist () = { entries_rev = []; ops = 0; next_value = initial + 1 }

let record h e =
  h.entries_rev <- e :: h.entries_rev;
  match e with
  | Read _ -> h.ops <- h.ops + 1
  | Write { value; _ } ->
    h.ops <- h.ops + 1;
    (* keep the allocator ahead of manually chosen write values *)
    if value >= h.next_value then h.next_value <- value + 1
  | Acquire _ | Release _ | Barrier _ -> ()

let fresh_value h =
  let v = h.next_value in
  h.next_value <- v + 1;
  v

let entries h = List.rev h.entries_rev
let operations h = h.ops

(* ------------------------ the coherence check -------------------------- *)

let coherence entries =
  let violations = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let time = function Read { time; _ } | Write { time; _ } -> time | _ -> 0.0 in
  (* stable sort by time keeps the recording order for simultaneous ops *)
  let ops =
    List.filter (function Read _ | Write _ -> true | _ -> false) entries
    |> List.stable_sort (fun a b -> Float.compare (time a) (time b))
  in
  let by_loc = Hashtbl.create 16 in
  List.iter
    (function
      | (Read { loc; _ } | Write { loc; _ }) as op ->
        let l = Option.value ~default:[] (Hashtbl.find_opt by_loc loc) in
        Hashtbl.replace by_loc loc (op :: l)
      | Acquire _ | Release _ | Barrier _ -> ())
    ops;
  Hashtbl.iter
    (fun loc rev_ops ->
      let ops = List.rev rev_ops in
      (* write order = completion order; ranks start at 1, initial value = 0 *)
      let rank = Hashtbl.create 16 in
      Hashtbl.add rank initial 0;
      let next = ref 0 in
      List.iter
        (function
          | Write { value; _ } ->
            incr next;
            if Hashtbl.mem rank value then
              flag "loc %d: write value %d is not unique" loc value;
            Hashtbl.replace rank value !next
          | Read _ | Acquire _ | Release _ | Barrier _ -> ())
        ops;
      (* per-host monotonicity *)
      let seen = Hashtbl.create 8 in
      List.iter
        (function
          | Read { time; host; value; _ } | Write { time; host; value; _ } -> (
            match Hashtbl.find_opt rank value with
            | None ->
              flag "loc %d: host %d read value %d that nobody wrote" loc host value
            | Some r ->
              let prev = Option.value ~default:(-1) (Hashtbl.find_opt seen host) in
              if r < prev then
                flag
                  "loc %d: host %d observed write #%d after having observed write \
                   #%d (stale read at t=%.1f)"
                  loc host r prev time;
              Hashtbl.replace seen host (max r prev))
          | Acquire _ | Release _ | Barrier _ -> ())
        ops)
    by_loc;
  List.rev !violations

(* --------------------------- the simulation ---------------------------- *)

type mode = Sc | Weak

(* Per-location write ranks: rank 0 is the initial value, rank k the kth
   write in history order.  Uniqueness of write values (guaranteed by the
   history's fresh_value allocator) makes value -> rank a function. *)

type locst = {
  rank_of : (int, int) Hashtbl.t; (* value -> rank *)
  mutable next : int; (* rank of the next write *)
  mutable latest : int; (* rank of the newest write so far *)
}

type st = {
  mode : mode;
  (* with [hb] off (crash scenarios) only value provenance and no-future
     are enforced: recovery rollback legitimately regresses what a host
     has already observed, so fronts and floors would false-positive *)
  hb : bool;
  locs : (int, locst) Hashtbl.t;
  (* smallest rank host h may still legally read from loc l: raised by h's
     own observations (monotonicity) and by acquires (happens-before) *)
  front : (int * int, int) Hashtbl.t; (* (host, loc) -> rank *)
  (* writes the lock's releasers have published, per location: an acquirer
     inherits these as its new floor *)
  released : (int, (int, int) Hashtbl.t) Hashtbl.t; (* key -> loc -> rank *)
  (* global channel the barrier releases into / acquires from *)
  bar_released : (int, int) Hashtbl.t; (* loc -> rank *)
  mutable violations : string list;
  mutable checked_reads : int;
}

let locst st loc =
  match Hashtbl.find_opt st.locs loc with
  | Some l -> l
  | None ->
    let l = { rank_of = Hashtbl.create 16; next = 1; latest = 0 } in
    Hashtbl.add l.rank_of initial 0;
    Hashtbl.add st.locs loc l;
    l

let flag st fmt =
  Printf.ksprintf (fun s -> st.violations <- s :: st.violations) fmt

let get ?(d = 0) tbl k = Option.value ~default:d (Hashtbl.find_opt tbl k)

let raise_to tbl k r = if r > get tbl k then Hashtbl.replace tbl k r

let step st = function
  | Write { host; loc; value; _ } ->
    let l = locst st loc in
    if Hashtbl.mem l.rank_of value then
      flag st "refinement: loc %d write value %d duplicates an earlier write" loc
        value
    else begin
      let r = l.next in
      Hashtbl.add l.rank_of value r;
      l.next <- r + 1;
      l.latest <- r;
      (* the writer has observed its own write *)
      if st.hb then raise_to st.front (host, loc) r
    end
  | Read { host; loc; value; _ } -> (
    let l = locst st loc in
    st.checked_reads <- st.checked_reads + 1;
    match Hashtbl.find_opt l.rank_of value with
    | None ->
      flag st "refinement: host %d read loc %d value %d that the spec never wrote"
        host loc value
    | Some r ->
      (match st.mode with
      | Sc ->
        if r <> l.latest then
          flag st
            "refinement: host %d read loc %d value %d (write #%d) but the spec \
             map holds write #%d"
            host loc value r l.latest
      | Weak ->
        if r > l.latest then
          flag st
            "refinement: host %d read loc %d value %d (write #%d) from the \
             future (spec front is #%d)"
            host loc value r l.latest;
        if st.hb then begin
          let floor = get st.front (host, loc) in
          if r < floor then
            flag st
              "refinement: host %d read loc %d value %d (write #%d) below \
               its happens-before floor #%d"
              host loc value r floor
        end);
      if st.hb then raise_to st.front (host, loc) r)
  | Release { host; key } when st.hb ->
    (* publish everything the releaser has observed or written, location by
       location, into the lock's channel (transitive: its own floor already
       folds in earlier acquires) *)
    let chan =
      match Hashtbl.find_opt st.released key with
      | Some c -> c
      | None ->
        let c = Hashtbl.create 8 in
        Hashtbl.add st.released key c;
        c
    in
    Hashtbl.iter
      (fun (h, loc) r -> if h = host then raise_to chan loc r)
      st.front
  | Acquire { host; key } when st.hb -> (
    match Hashtbl.find_opt st.released key with
    | None -> ()
    | Some chan ->
      Hashtbl.iter (fun loc r -> raise_to st.front (host, loc) r) chan)
  | Barrier { host } when st.hb ->
    (* release into and acquire from the global channel; a full barrier
       round makes every pre-barrier write visible to every participant *)
    Hashtbl.iter
      (fun (h, loc) r -> if h = host then raise_to st.bar_released loc r)
      st.front;
    Hashtbl.iter (fun loc r -> raise_to st.front (host, loc) r) st.bar_released
  | Release _ | Acquire _ | Barrier _ -> ()

type verdict = { passed : bool; reads_checked : int; violations : string list }

let check ?(hb = true) ~mode entries =
  let st =
    {
      mode;
      hb;
      locs = Hashtbl.create 16;
      front = Hashtbl.create 64;
      released = Hashtbl.create 16;
      bar_released = Hashtbl.create 16;
      violations = [];
      checked_reads = 0;
    }
  in
  List.iter (step st) entries;
  {
    passed = st.violations = [];
    reads_checked = st.checked_reads;
    violations = List.rev st.violations;
  }
