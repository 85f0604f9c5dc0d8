(* Sharing-pattern signatures and the online classifier.

   Pure data + decision logic: Profile feeds a signature per sharing unit
   (minipage) from the event stream and asks this module what the unit's
   pattern is.  Keeping the classifier side-effect free makes it directly
   testable on synthetic signatures and guarantees determinism (no clocks,
   no randomness — the verdict is a function of the signature alone). *)

open Mp_util

type pattern =
  | Private
  | Read_mostly
  | Migratory
  | Producer_consumer
  | Write_shared
  | Falsely_shared
  | Low_traffic

let pattern_name = function
  | Private -> "private"
  | Read_mostly -> "read-mostly"
  | Migratory -> "migratory"
  | Producer_consumer -> "producer-consumer"
  | Write_shared -> "write-shared"
  | Falsely_shared -> "falsely-shared"
  | Low_traffic -> "low-traffic"

(* Per-host byte footprint within a unit, kept as a sorted disjoint interval
   list [lo, hi).  Used to decide whether two hosts' accesses to the same
   minipage actually overlap (true sharing) or touch disjoint sub-ranges
   (intra-unit false sharing). *)
module Footprint = struct
  type t = (int * int) list  (* sorted by lo, disjoint, non-adjacent merged *)

  let empty = []

  let add ~lo ~hi t =
    if hi <= lo then t
    else begin
      let rec insert = function
        | [] -> [ (lo, hi) ]
        | ((l, h) :: rest) as all ->
          if hi < l then (lo, hi) :: all
          else if h < lo then (l, h) :: insert rest
          else
            (* overlap or adjacency: merge and keep folding *)
            let merged_lo = min lo l and merged_hi = max hi h in
            let rec absorb lo hi = function
              | (l2, h2) :: rest2 when l2 <= hi -> absorb lo (max hi h2) rest2
              | rest2 -> (lo, hi) :: rest2
            in
            absorb merged_lo merged_hi rest
      in
      insert t
    end

  let overlaps a b =
    let rec go a b =
      match (a, b) with
      | [], _ | _, [] -> false
      | (la, ha) :: ra, (lb, hb) :: rb ->
        if ha <= lb then go ra b
        else if hb <= la then go a rb
        else true
    in
    go a b
end

type signature_ = {
  mutable reads : int;  (* read faults resolved to this unit *)
  mutable writes : int;  (* write faults resolved to this unit *)
  mutable readers : Host_set.t;
  mutable writers : Host_set.t;
  mutable transfers : int;  (* Reply (data movement) events *)
  mutable bytes_in : int;
  mutable invals : int;  (* invalidation messages for this unit *)
  mutable inval_rounds : int;  (* distinct write-upgrade rounds *)
  mutable inval_targets : int;  (* sum of targets over rounds *)
  mutable false_invals : int;  (* invalidations judged unnecessary for us *)
  mutable false_caused : int;  (* invalidations our writers forced on others *)
  mutable last_writer : int;  (* -1 until the first write *)
  mutable writer_changes : int;  (* write rounds where the writer moved *)
  mutable footprints : (int * Footprint.t) list;  (* per host, assoc *)
}

let fresh () =
  {
    reads = 0;
    writes = 0;
    readers = Host_set.empty;
    writers = Host_set.empty;
    transfers = 0;
    bytes_in = 0;
    invals = 0;
    inval_rounds = 0;
    inval_targets = 0;
    false_invals = 0;
    false_caused = 0;
    last_writer = -1;
    writer_changes = 0;
    footprints = [];
  }

let footprint s host =
  match List.assoc_opt host s.footprints with
  | Some f -> f
  | None -> Footprint.empty

let touch s host ~lo ~hi =
  let f = Footprint.add ~lo ~hi (footprint s host) in
  s.footprints <- (host, f) :: List.remove_assoc host s.footprints

(* One read or write of the 8 bytes at [addr] by [host]: the access rule
   the offline profiler and the online governor share. *)
let note_access s host ~write ~addr =
  touch s host ~lo:addr ~hi:(addr + 8);
  if write then begin
    s.writes <- s.writes + 1;
    s.writers <- Host_set.add host s.writers;
    if s.last_writer >= 0 && s.last_writer <> host then
      s.writer_changes <- s.writer_changes + 1;
    s.last_writer <- host
  end
  else begin
    s.reads <- s.reads + 1;
    s.readers <- Host_set.add host s.readers
  end

let accesses s = s.reads + s.writes

(* Exponential decay for windowed (online) classification: halve every
   counter so old evidence fades geometrically while recent behaviour
   dominates.  Structural facts — who ever read/wrote, where they touched,
   who wrote last — are kept: they are cheap, and forgetting them would make
   the classifier flap between [Private] and the sharing verdicts.  Integer
   halving is deterministic and self-limiting (a counter incremented k times
   per window settles near 2k). *)
let decay s =
  s.reads <- s.reads / 2;
  s.writes <- s.writes / 2;
  s.transfers <- s.transfers / 2;
  s.bytes_in <- s.bytes_in / 2;
  s.invals <- s.invals / 2;
  s.inval_rounds <- s.inval_rounds / 2;
  s.inval_targets <- s.inval_targets / 2;
  s.false_invals <- s.false_invals / 2;
  s.false_caused <- s.false_caused / 2;
  s.writer_changes <- s.writer_changes / 2

(* ------------------------------------------------------------------ *)
(* Thresholds                                                          *)
(* ------------------------------------------------------------------ *)

type thresholds = {
  min_accesses : int;
      (* below this the unit is Low_traffic: not enough evidence *)
  write_ratio : float;
      (* writes/accesses at or below this (with >1 reader) is Read_mostly *)
  migratory_alternation : float;
      (* fraction of write rounds that moved the writer; at or above marks
         Migratory together with the target bound *)
  migratory_max_targets : float;
      (* average invalidation fan-out per round; migratory data invalidates
         roughly one previous owner, write-shared data sprays many *)
  false_ratio : float;
      (* false invals relative to total disturbance (invals received + false
         pressure) at or above this marks Falsely_shared *)
}

let default_thresholds =
  {
    min_accesses = 4;
    write_ratio = 0.05;
    migratory_alternation = 0.5;
    migratory_max_targets = 1.5;
    false_ratio = 0.25;
  }

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* Decision order matters: false sharing first (it is a layout pathology
   that masquerades as any other pattern), then the cheap structural cases,
   then the write-pattern split. *)
let classify ?(thresholds = default_thresholds) s =
  let t = thresholds in
  let acc = accesses s in
  if acc < t.min_accesses then Low_traffic
  else begin
    let false_pressure = s.false_invals + s.false_caused in
    let disturbance = s.invals + false_pressure in
    if
      false_pressure > 0 && disturbance > 0
      && float_of_int false_pressure /. float_of_int disturbance
         >= t.false_ratio
    then Falsely_shared
    else begin
      let nr = Host_set.cardinal s.readers
      and nw = Host_set.cardinal s.writers in
      if nr + nw <= 1 || nr = 1 && nw = 1 && s.readers = s.writers then Private
      else if
        nw = 0
        || float_of_int s.writes /. float_of_int acc <= t.write_ratio && nr > 1
      then Read_mostly
      else if nw >= 2 then begin
        (* the migratory verdict needs invalidation evidence from the
           window itself: with no rounds (e.g. a freshly promoted RC
           minipage, whose writes travel as diffs), decayed residue of
           [writer_changes] over a phantom round would misread concurrent
           writers as ownership hops *)
        if s.inval_rounds = 0 then Write_shared
        else begin
          let rounds = s.inval_rounds in
          let alternation =
            float_of_int s.writer_changes /. float_of_int rounds
          in
          let avg_targets =
            float_of_int s.inval_targets /. float_of_int rounds
          in
          if
            alternation >= t.migratory_alternation
            && avg_targets <= t.migratory_max_targets
            && Host_set.subset s.writers s.readers
          then Migratory
          else Write_shared
        end
      end
      else
        (* exactly one writer, other hosts read it: producer-consumer *)
        Producer_consumer
    end
  end

let to_json s =
  Printf.sprintf
    "{\"reads\":%d,\"writes\":%d,\"readers\":%d,\"writers\":%d,\"transfers\":%d,\"bytes_in\":%d,\"invals\":%d,\"inval_rounds\":%d,\"false_invals\":%d,\"false_caused\":%d}"
    s.reads s.writes
    (Host_set.cardinal s.readers)
    (Host_set.cardinal s.writers)
    s.transfers s.bytes_in s.invals s.inval_rounds s.false_invals
    s.false_caused
