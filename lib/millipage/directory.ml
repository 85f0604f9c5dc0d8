open Mp_util

type read_flight = {
  mutable rf_req : int;
  mutable rf_from : int;
  mutable rf_supplier : int;
  mutable rf_group : bool;
  mutable rf_next : read_flight;
}

(* Ends every flight list; never tracked itself. *)
let rec no_flight =
  { rf_req = -1; rf_from = -1; rf_supplier = -1; rf_group = false; rf_next = no_flight }

type pending =
  | No_op
  | Reads_in_flight
  | Write_waiting_invals of {
      req_id : int;
      from : int;
      targets : Host_set.t;
      mutable waiting : Host_set.t;
    }
  | Write_in_flight of { req_id : int; from : int; mutable supplier : int }
  | Push_waiting_acks of { req_id : int; from : int; mutable waiting : Host_set.t }
  | Mode_switch_wait of { epoch : int; mutable waiting : Host_set.t }
      (** epoch fence of a consistency-mode switch: every sharer must drop
          its copy and acknowledge before any post-switch access starts
          (concurrent requests queue behind the fence) *)

type entry = {
  mp : Mp_multiview.Minipage.t;
  mutable owner : int;
  mutable copyset : Host_set.t;
  mutable pending : pending;
  mutable reads : read_flight;
  queue : queued Queue.t;
  mutable shadow : bytes option;
  mutable lost : bool;
  mutable mode : Proto.mode;
      (** which protocol serves this minipage; switched only at sync points *)
  mutable epoch : int;  (** bumped on every mode switch *)
}

and queued =
  | Q_request of { req_id : int; from : int; access : Proto.access; addr : int }
  | Q_push of { req_id : int; from : int; data : bytes }

(* Request ids, each with a float when [stamped], in one open-addressed
   table with linear probing: no bucket and no box per id.  It starts
   empty, doubles when half full, and allocates nothing else.

   Crash recovery lists a table, and its trace records the order.  That
   order stays the one of the [Hashtbl] this table replaced: by hash bucket,
   the newest id first within a bucket.  So each slot keeps when its id was
   added, and [buckets] follows the [Hashtbl]'s bucket count, which doubles
   whenever the table passes twice that many ids and never shrinks. *)
module Ids = struct
  type t = {
    stamped : bool;  (* else [stamps] and [added] stay empty *)
    mutable keys : int array;
    mutable stamps : Float.Array.t;
    mutable added : int array;  (* [next] when the slot's id was added *)
    mutable count : int;
    mutable next : int;
    mutable buckets : int;
  }

  let free = min_int
  let no_stamps = Float.Array.create 0

  let create ~stamped =
    { stamped; keys = [||]; stamps = no_stamps; added = [||]; count = 0; next = 0;
      buckets = 64 }

  let length t = t.count

  let[@inline] hash id =
    let h = id * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)

  (* The slot holding [id], or the free slot that ends its probe run. *)
  let rec probe keys id i =
    let k = keys.(i) in
    if k = id || k = free then i else probe keys id ((i + 1) land (Array.length keys - 1))

  let slot t id = probe t.keys id (hash id land (Array.length t.keys - 1))
  let mem t id = t.count > 0 && t.keys.(slot t id) = id

  let grow t =
    let keys = t.keys and stamps = t.stamps and added = t.added in
    let cap = max 16 (2 * Array.length keys) in
    t.keys <- Array.make cap free;
    if t.stamped then begin
      t.stamps <- Float.Array.create cap;
      t.added <- Array.make cap 0
    end;
    Array.iteri
      (fun j id ->
        if id <> free then begin
          let i = slot t id in
          t.keys.(i) <- id;
          if t.stamped then begin
            Float.Array.set t.stamps i (Float.Array.get stamps j);
            t.added.(i) <- added.(j)
          end
        end)
      keys

  (* The slot of [id], which is added when absent (its stamp then unset). *)
  let rec add t id =
    if Array.length t.keys = 0 then grow t;
    let i = slot t id in
    if t.keys.(i) = id then i
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      grow t;
      add t id
    end
    else begin
      t.keys.(i) <- id;
      if t.stamped then t.added.(i) <- t.next;
      t.next <- t.next + 1;
      t.count <- t.count + 1;
      if t.count > 2 * t.buckets then t.buckets <- 2 * t.buckets;
      i
    end

  (* Empty slot [hole] and close the gap it leaves in its probe run: each
     later id of the run whose home slot does not lie cyclically in
     (hole, j] moves back into the hole. *)
  let rec close t hole j =
    let mask = Array.length t.keys - 1 in
    let id = t.keys.(j) in
    if id = free then t.keys.(hole) <- free
    else
      let home = hash id land mask in
      let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
      if stays then close t hole ((j + 1) land mask)
      else begin
        t.keys.(hole) <- id;
        if t.stamped then begin
          Float.Array.set t.stamps hole (Float.Array.get t.stamps j);
          t.added.(hole) <- t.added.(j)
        end;
        close t j ((j + 1) land mask)
      end

  let remove_slot t i =
    t.count <- t.count - 1;
    close t i ((i + 1) land (Array.length t.keys - 1))

  let remove t id = if mem t id then remove_slot t (slot t id)

  (* Remove every id stamped before [before], calling [dropped] on each, and
     return how many went.  A prune with nothing to drop reads each stamp
     once and moves nothing.  A removal can move a later id of the run back
     into slot [i], so [i] is read again before the scan moves on; an id
     moved from the start of the array to its end is read twice and kept. *)
  let prune t ~before ~dropped =
    let n = ref 0 in
    let i = ref 0 in
    while !i < Array.length t.keys do
      let id = t.keys.(!i) in
      if id <> free && Float.Array.get t.stamps !i < before then begin
        remove_slot t !i;
        dropped id;
        incr n
      end
      else incr i
    done;
    !n

  (* [f id stamp] for every id, in the [Hashtbl]'s order (see above). *)
  let iter f t =
    let bucket i = Hashtbl.hash t.keys.(i) land (t.buckets - 1) in
    let slots = List.filter (fun i -> t.keys.(i) <> free) (List.init (Array.length t.keys) Fun.id) in
    List.sort
      (fun i j -> match compare (bucket i) (bucket j) with 0 -> compare t.added.(j) t.added.(i) | c -> c)
      slots
    |> List.iter (fun i -> f t.keys.(i) (Float.Array.get t.stamps i))
end

type t = {
  initial_owner : int;
  table : (int, entry) Hashtbl.t;
  mutable competing : int;
  mutable queued_now : int;
  mutable queued_max : int;
  (* idempotence state for the reliable transport: request ids the manager
     has accepted, and those whose operation has fully completed (stamped
     with the completion time so both tables can be pruned once the
     retransmission window has passed — req_ids are globally unique so there
     is no reuse to fear, only memory growth). *)
  seen_reqs : Ids.t;
  completed_reqs : Ids.t;
  free_reads : read_flight Pool.t;
}

let create ~initial_owner =
  {
    initial_owner;
    table = Hashtbl.create 256;
    competing = 0;
    queued_now = 0;
    queued_max = 0;
    seen_reqs = Ids.create ~stamped:false;
    completed_reqs = Ids.create ~stamped:true;
    free_reads = Pool.create ();
  }

let register t mp =
  let entry =
    {
      mp;
      owner = t.initial_owner;
      copyset = Host_set.singleton t.initial_owner;
      pending = No_op;
      reads = no_flight;
      queue = Queue.create ();
      shadow = None;
      lost = false;
      mode = Proto.Sc;
      epoch = 0;
    }
  in
  Hashtbl.replace t.table mp.Mp_multiview.Minipage.id entry

let entry t ~mp_id = Hashtbl.find t.table mp_id

let find t ~mp_id = Hashtbl.find_opt t.table mp_id
let adopt t e = Hashtbl.replace t.table e.mp.Mp_multiview.Minipage.id e
let remove t ~mp_id = Hashtbl.remove t.table mp_id

let busy e = e.pending <> No_op

let enqueue t e q =
  t.competing <- t.competing + 1;
  t.queued_now <- t.queued_now + 1;
  if t.queued_now > t.queued_max then t.queued_max <- t.queued_now;
  Queue.add q e.queue

let dequeue t e =
  let q = Queue.take_opt e.queue in
  (match q with Some _ -> t.queued_now <- t.queued_now - 1 | None -> ());
  q

let drop_queued t e ~keep =
  let dropped = ref [] in
  let kept = Queue.create () in
  Queue.iter
    (fun q -> if keep q then Queue.add q kept else dropped := q :: !dropped)
    e.queue;
  Queue.clear e.queue;
  Queue.transfer kept e.queue;
  t.queued_now <- t.queued_now - List.length !dropped;
  List.rev !dropped

let note_request t ~req_id =
  if Ids.mem t.seen_reqs req_id then false
  else begin
    ignore (Ids.add t.seen_reqs req_id);
    true
  end

let mark_completed_slot t ~req_id a i =
  let slot = Ids.add t.completed_reqs req_id in
  Float.Array.set t.completed_reqs.stamps slot (Float.Array.get a i)

let mark_completed t ~req_id ~now =
  let slot = Ids.add t.completed_reqs req_id in
  Float.Array.set t.completed_reqs.stamps slot now

let completed t ~req_id = Ids.mem t.completed_reqs req_id

let prune_completed t ~before =
  Ids.prune t.completed_reqs ~before ~dropped:(fun req_id -> Ids.remove t.seen_reqs req_id)

let idempotence_size t = Ids.length t.seen_reqs + Ids.length t.completed_reqs

let completed_stamps t =
  let stamps = ref [] in
  Ids.iter (fun req_id at -> stamps := (req_id, at) :: !stamps) t.completed_reqs;
  !stamps

(* Read flights: an intrusive list from [e.reads], newest first, whose
   records come from and go back to the shard's free stack. *)

let add_read t e ~req_id ~from ~supplier ~group =
  let older = match e.pending with Reads_in_flight -> e.reads | _ -> no_flight in
  let f =
    if Pool.is_empty t.free_reads then
      { rf_req = req_id; rf_from = from; rf_supplier = supplier; rf_group = group;
        rf_next = older }
    else begin
      let f = Pool.pop t.free_reads in
      f.rf_req <- req_id;
      f.rf_from <- from;
      f.rf_supplier <- supplier;
      f.rf_group <- group;
      f.rf_next <- older;
      f
    end
  in
  e.reads <- f;
  e.pending <- Reads_in_flight

let release_read t f =
  f.rf_next <- no_flight;
  Pool.push t.free_reads f

let rec find_read f ~req_id =
  if f == no_flight || f.rf_req = req_id then f else find_read f.rf_next ~req_id

let rec before_read f p = if p.rf_next == f then p else before_read f p.rf_next

let remove_read t e ~req_id =
  let f = find_read e.reads ~req_id in
  if f == no_flight || find_read f.rf_next ~req_id != no_flight then false
  else begin
    if e.reads == f then e.reads <- f.rf_next
    else (before_read f e.reads).rf_next <- f.rf_next;
    release_read t f;
    if e.reads == no_flight then e.pending <- No_op;
    true
  end

let filter_reads t e ~keep =
  let rec go prev f =
    if f != no_flight then begin
      let next = f.rf_next in
      if keep f then go f next
      else begin
        if prev == no_flight then e.reads <- next else prev.rf_next <- next;
        release_read t f;
        go prev next
      end
    end
  in
  go no_flight e.reads;
  if e.reads == no_flight then e.pending <- No_op

let peek e = Queue.peek_opt e.queue
let competing_requests t = t.competing
let queue_depth t = t.queued_now
let max_queue_depth t = t.queued_max
let entries t = Hashtbl.to_seq_values t.table

(* ------------------------------------------------------------------ *)
(* Backup replica: the receiving side of a home's directory log.       *)
(* ------------------------------------------------------------------ *)

type shard = t

module Replica = struct
  type rentry = {
    mutable r_owner : int;
    mutable r_copyset : Host_set.t;
    mutable r_shadow : bytes option;
    mutable r_mode : Proto.mode;
    mutable r_epoch : int;
  }

  type nonrec t = {
    r_entries : (int, rentry) Hashtbl.t;  (* mp_id -> replicated state *)
    r_completed : Ids.t;  (* req_id -> original stamp *)
    r_open : (int, int) Hashtbl.t;  (* admitted, not yet completed *)
    mutable r_applied : int;  (* highest applied lseq *)
  }

  let create () =
    {
      r_entries = Hashtbl.create 64;
      r_completed = Ids.create ~stamped:true;
      r_open = Hashtbl.create 16;
      r_applied = 0;
    }

  let rentry t ~mp_id ~owner =
    match Hashtbl.find_opt t.r_entries mp_id with
    | Some r -> r
    | None ->
      let r =
        {
          r_owner = owner;
          r_copyset = Host_set.singleton owner;
          r_shadow = None;
          r_mode = Proto.Sc;
          r_epoch = 0;
        }
      in
      Hashtbl.add t.r_entries mp_id r;
      r

  (* Seed a fresh minipage's replica at allocation time (the init phase is
     message-free, mirroring how hint caches are seeded). *)
  let seed t ~mp_id ~owner = ignore (rentry t ~mp_id ~owner)

  let apply t ~lseq (record : Proto.log_record) =
    t.r_applied <- lseq;
    match record with
    | Proto.L_admit { req_id; mp_id } -> Hashtbl.replace t.r_open req_id mp_id
    | Proto.L_complete { req_id; at } ->
      Hashtbl.remove t.r_open req_id;
      let slot = Ids.add t.r_completed req_id in
      Float.Array.set t.r_completed.stamps slot at
    | Proto.L_state { mp_id; owner; copyset } ->
      let r = rentry t ~mp_id ~owner in
      r.r_owner <- owner;
      r.r_copyset <- Host_set.of_list copyset
    | Proto.L_shadow { mp_id; data } ->
      let r = rentry t ~mp_id ~owner:0 in
      r.r_shadow <- Some (Bytes.copy data)
    | Proto.L_mode { mp_id; mode; epoch } ->
      let r = rentry t ~mp_id ~owner:0 in
      r.r_mode <- mode;
      r.r_epoch <- epoch
    | Proto.L_diff { mp_id; diff } -> (
      (* a switch to Rc always logs a full L_shadow before the first L_diff,
         so the patch target exists; a diff racing a demotion's final
         records can arrive after the shadow was dropped — harmless, the
         next L_shadow re-seeds it whole *)
      match Hashtbl.find_opt t.r_entries mp_id with
      | Some ({ r_shadow = Some s; _ } as r) ->
        let s = Bytes.copy s in
        Twin_diff.apply diff s;
        r.r_shadow <- Some s
      | Some _ | None -> ())

  let applied t = t.r_applied
  let find t ~mp_id = Hashtbl.find_opt t.r_entries mp_id

  (* Same horizon as the primary's [prune_completed]: a completion older
     than the retransmission window suppresses nothing, so replicating it
     forever would unbound the replica on soak runs. *)
  let prune t ~before = Ids.prune t.r_completed ~before ~dropped:ignore

  let open_admissions t = Hashtbl.fold (fun r mp acc -> (r, mp) :: acc) t.r_open []
  let completed_count t = Ids.length t.r_completed

  (* Promotion-time idempotence handoff: install every replicated completion
     into the promoted shard's tables, carrying the ORIGINAL completion
     stamps so the duplicate-suppression horizon is the primary's, not the
     promotion time (a stamp reset would also re-extend retention of
     long-dead ids past their prune window). *)
  let handoff_idempotence t ~(into : shard) =
    Ids.iter
      (fun req_id at ->
        ignore (Ids.add into.seen_reqs req_id);
        mark_completed into ~req_id ~now:at)
      t.r_completed
end
