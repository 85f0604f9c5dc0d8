open Mp_util

type read_flight = {
  rf_req : int;
  rf_from : int;
  mutable rf_supplier : int;
  rf_group : bool;
}

type pending =
  | No_op
  | Reads_in_flight of { mutable flights : read_flight list }
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
  seen_reqs : (int, unit) Hashtbl.t;
  completed_reqs : (int, float) Hashtbl.t;
}

let create ~initial_owner =
  {
    initial_owner;
    table = Hashtbl.create 256;
    competing = 0;
    queued_now = 0;
    queued_max = 0;
    seen_reqs = Hashtbl.create 64;
    completed_reqs = Hashtbl.create 64;
  }

let register t mp =
  let entry =
    {
      mp;
      owner = t.initial_owner;
      copyset = Host_set.singleton t.initial_owner;
      pending = No_op;
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
  if Hashtbl.mem t.seen_reqs req_id then false
  else begin
    Hashtbl.add t.seen_reqs req_id ();
    true
  end

let mark_completed t ~req_id ~now = Hashtbl.replace t.completed_reqs req_id now
let completed t ~req_id = Hashtbl.mem t.completed_reqs req_id

(* Whether [stamps] holds a completion older than [before].  Dropping in
   place rebuilds the [Some] of every entry it keeps, and a lossy fabric's
   retention window keeps nearly all of them, so a prune with nothing to
   drop stops here. *)
let any_before stamps ~before =
  match Hashtbl.iter (fun _ at -> if at < before then raise_notrace Exit) stamps with
  | () -> false
  | exception Exit -> true

(* Dropping in place keeps each bucket's survivors in order, and neither
   table resizes, so the tables end as a fold-then-remove would leave them. *)
let prune_completed t ~before =
  let pruned = ref 0 in
  if any_before t.completed_reqs ~before then
    Hashtbl.filter_map_inplace
      (fun req_id at ->
        if at < before then begin
          Hashtbl.remove t.seen_reqs req_id;
          incr pruned;
          None
        end
        else Some at)
      t.completed_reqs;
  !pruned

let idempotence_size t = Hashtbl.length t.seen_reqs + Hashtbl.length t.completed_reqs

let completed_stamps t =
  Hashtbl.fold (fun req_id at acc -> (req_id, at) :: acc) t.completed_reqs []

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
    r_completed : (int, float) Hashtbl.t;  (* req_id -> original stamp *)
    r_open : (int, int) Hashtbl.t;  (* admitted, not yet completed *)
    mutable r_applied : int;  (* highest applied lseq *)
  }

  let create () =
    {
      r_entries = Hashtbl.create 64;
      r_completed = Hashtbl.create 64;
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
      Hashtbl.replace t.r_completed req_id at
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
  let prune t ~before =
    let pruned = ref 0 in
    if any_before t.r_completed ~before then
      Hashtbl.filter_map_inplace
        (fun _ at ->
          if at < before then begin
            incr pruned;
            None
          end
          else Some at)
        t.r_completed;
    !pruned

  let open_admissions t = Hashtbl.fold (fun r mp acc -> (r, mp) :: acc) t.r_open []
  let completed_count t = Hashtbl.length t.r_completed

  (* Promotion-time idempotence handoff: install every replicated completion
     into the promoted shard's tables, carrying the ORIGINAL completion
     stamps so the duplicate-suppression horizon is the primary's, not the
     promotion time (a stamp reset would also re-extend retention of
     long-dead ids past their prune window). *)
  let handoff_idempotence t ~(into : shard) =
    Hashtbl.iter
      (fun req_id at ->
        Hashtbl.replace into.seen_reqs req_id ();
        Hashtbl.replace into.completed_reqs req_id at)
      t.r_completed
end
