open Mp_util
open Mp_sim
open Mp_memsim
open Mp_net

module Config = struct
  type t = {
    page_size : int;
    subpage_bytes : int;
    address_space : int;
    resident_pages : int;
    prefetch_rest : bool;
    fault_us : float;
    set_prot_us : float;
    access_us : float;
    seed : int;
  }

  let default =
    {
      page_size = 4096;
      subpage_bytes = 1024;
      address_space = 1024 * 1024;
      resident_pages = 64;
      prefetch_rest = false;
      fault_us = 26.0;
      set_prot_us = 12.0;
      access_us = 0.05;
      seed = 1;
    }
end

type body =
  | Fetch of { req_id : int; page : int; sub : int; from : int }
  | Fetch_reply of { req_id : int; page : int; sub : int; data : bytes }
  | Store of { page : int; sub : int; data : bytes }

type page_state = {
  present : bool array;  (* per subpage *)
  dirty : bool array;
  mutable last_used : float;
}

type inflight = { event : Sync.Event.t; mutable demand : bool }

type t = {
  engine : Engine.t;
  config : Config.t;
  fabric : body Fabric.t;
  vm : Vm.t;
  servers : int;
  subs : int;  (* subpages per page *)
  pages : int;
  resident : (int, page_state) Hashtbl.t;
  fetching : (int * int, inflight) Hashtbl.t;  (* (page, sub) *)
  store : (int * int, bytes) Hashtbl.t array;  (* per server: backing pages *)
  mutable next_req : int;
  mutable misses : int;
  mutable fetches : int;
  mutable evictions : int;
  mutable writebacks : int;
  miss_stall : Stats.Summary.t;
}

let client = 0
let header_bytes = 32

let home t page = 1 + (page mod t.servers)

(* ------------------------------------------------------------------ *)
(* Server side                                                          *)
(* ------------------------------------------------------------------ *)

let on_server_message t server (m : body Fabric.msg) =
  let table = t.store.(server - 1) in
  match m.Fabric.body with
  | Fetch { req_id; page; sub; from } ->
    Engine.delay 8.0;
    let data =
      match Hashtbl.find_opt table (page, sub) with
      | Some b -> b
      | None -> Bytes.make t.config.subpage_bytes '\000'
    in
    Fabric.send t.fabric ~src:server ~dst:from
      ~bytes:(header_bytes + t.config.subpage_bytes)
      (Fetch_reply { req_id; page; sub; data })
  | Store { page; sub; data } ->
    Engine.delay 8.0;
    Hashtbl.replace table (page, sub) data
  | Fetch_reply _ -> failwith "gms: server received a reply"

(* ------------------------------------------------------------------ *)
(* Client side                                                          *)
(* ------------------------------------------------------------------ *)

let sub_off t ~page ~sub = (page * t.config.page_size) + (sub * t.config.subpage_bytes)

let protect_sub t ~page ~sub prot =
  Engine.delay t.config.set_prot_us;
  Vm.protect t.vm ~view:sub ~vpage:page prot

let send_fetch t ~page ~sub ~demand =
  match Hashtbl.find_opt t.fetching (page, sub) with
  | Some inflight ->
    if demand then inflight.demand <- true;
    inflight
  | None ->
    t.next_req <- t.next_req + 1;
    let inflight = { event = Sync.Event.create ~auto_reset:false ~name:"gms.fetch" (); demand } in
    Hashtbl.add t.fetching (page, sub) inflight;
    t.fetches <- t.fetches + 1;
    Fabric.send t.fabric ~src:client ~dst:(home t page) ~bytes:header_bytes
      (Fetch { req_id = t.next_req; page; sub; from = client });
    inflight

let on_client_message t (m : body Fabric.msg) =
  match m.Fabric.body with
  | Fetch_reply { req_id = _; page; sub; data } -> (
    Engine.delay (0.0086 *. float_of_int t.config.subpage_bytes);
    (match Hashtbl.find_opt t.resident page with
    | Some ps when not ps.present.(sub) ->
      Vm.priv_write_bytes t.vm ~off:(sub_off t ~page ~sub) data;
      ps.present.(sub) <- true;
      protect_sub t ~page ~sub Prot.Read_only
    | Some _ | None ->
      (* page was evicted while the fetch was in flight: drop the data *)
      ());
    match Hashtbl.find_opt t.fetching (page, sub) with
    | Some inflight ->
      Hashtbl.remove t.fetching (page, sub);
      Sync.Event.set inflight.event
    | None -> ())
  | Fetch _ | Store _ -> failwith "gms: client received a request"

let evict_one t ~keep =
  let victim = ref (-1) and oldest = ref infinity in
  Hashtbl.iter
    (fun page ps ->
      if page <> keep && ps.last_used < !oldest then begin
        oldest := ps.last_used;
        victim := page
      end)
    t.resident;
  if !victim < 0 then failwith "gms: resident budget too small";
  let page = !victim in
  let ps = Hashtbl.find t.resident page in
  t.evictions <- t.evictions + 1;
  for sub = 0 to t.subs - 1 do
    if ps.present.(sub) then begin
      if ps.dirty.(sub) then begin
        t.writebacks <- t.writebacks + 1;
        let data = Vm.priv_read_bytes t.vm ~off:(sub_off t ~page ~sub) ~len:t.config.subpage_bytes in
        Fabric.send t.fabric ~src:client ~dst:(home t page)
          ~bytes:(header_bytes + t.config.subpage_bytes)
          (Store { page; sub; data })
      end;
      protect_sub t ~page ~sub Prot.No_access
    end
  done;
  Hashtbl.remove t.resident page

let on_fault t (f : Vm.fault) =
  let cfg = t.config in
  Engine.delay cfg.fault_us;
  let page = f.vpage and sub = f.view in
  let ps =
    match Hashtbl.find_opt t.resident page with
    | Some ps -> ps
    | None ->
      if Hashtbl.length t.resident >= cfg.resident_pages then evict_one t ~keep:page;
      let ps =
        {
          present = Array.make t.subs false;
          dirty = Array.make t.subs false;
          last_used = Engine.now t.engine;
        }
      in
      Hashtbl.add t.resident page ps;
      ps
  in
  ps.last_used <- Engine.now t.engine;
  if not ps.present.(sub) then begin
    t.misses <- t.misses + 1;
    let inflight = send_fetch t ~page ~sub ~demand:true in
    let t0 = Engine.now t.engine in
    Sync.Event.wait inflight.event;
    Stats.Summary.add t.miss_stall (Engine.now t.engine -. t0);
    if cfg.prefetch_rest then
      for s = 0 to t.subs - 1 do
        if (not ps.present.(s)) && not (Hashtbl.mem t.fetching (page, s)) then
          ignore (send_fetch t ~page ~sub:s ~demand:false)
      done
  end;
  match f.access with
  | Prot.Write ->
    ps.dirty.(sub) <- true;
    protect_sub t ~page ~sub Prot.Read_write
  | Prot.Read -> ()

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create engine ?(config = Config.default) ~servers () =
  if servers <= 0 then invalid_arg "Gms.create: need at least one server";
  if config.page_size mod config.subpage_bytes <> 0 then
    invalid_arg "Gms.create: subpage must divide the page size";
  let subs = config.page_size / config.subpage_bytes in
  let obj = Memobject.create ~page_size:config.page_size ~size:config.address_space () in
  let vm = Vm.create obj in
  for _ = 1 to subs do
    ignore (Vm.map_view vm Prot.No_access)
  done;
  ignore (Vm.map_privileged_view vm);
  let fabric =
    Fabric.create engine ~hosts:(servers + 1) ~polling:Polling.Fast ~seed:config.seed ()
  in
  let t =
    {
      engine;
      config;
      fabric;
      vm;
      servers;
      subs;
      pages = Memobject.pages obj;
      resident = Hashtbl.create 128;
      fetching = Hashtbl.create 16;
      store = Array.init servers (fun _ -> Hashtbl.create 256);
      next_req = 0;
      misses = 0;
      fetches = 0;
      evictions = 0;
      writebacks = 0;
      miss_stall = Stats.Summary.create ();
    }
  in
  Vm.set_fault_handler vm (fun f -> on_fault t f);
  Fabric.set_handler fabric ~host:client (fun m -> on_client_message t m);
  for s = 1 to servers do
    Fabric.set_handler fabric ~host:s (fun m -> on_server_message t s m)
  done;
  t

(* ------------------------------------------------------------------ *)
(* Client operations                                                    *)
(* ------------------------------------------------------------------ *)

(* translate a flat logical address into the view of its subpage; an access
   must not straddle a subpage boundary (align your objects, as real subpage
   systems require) *)
let view_addr t addr len =
  if addr < 0 || addr + len > t.config.address_space then
    invalid_arg "Gms: address out of range";
  let sub = addr mod t.config.page_size / t.config.subpage_bytes in
  let last_sub = (addr + len - 1) mod t.config.page_size / t.config.subpage_bytes in
  if sub <> last_sub then invalid_arg "Gms: access straddles a subpage boundary";
  Vm.address t.vm ~view:sub addr

let read_u8 t addr =
  Engine.delay t.config.access_us;
  Vm.read_u8 t.vm (view_addr t addr 1)

let write_u8 t addr v =
  Engine.delay t.config.access_us;
  Vm.write_u8 t.vm (view_addr t addr 1) v

let read_int t addr =
  Engine.delay t.config.access_us;
  Vm.read_int t.vm (view_addr t addr 8)

let write_int t addr v =
  Engine.delay t.config.access_us;
  Vm.write_int t.vm (view_addr t addr 8) v

let spawn_client t f = Engine.spawn t.engine ~name:"gms.client" (fun () -> f ())
let run t = Engine.run t.engine

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let page_misses t = t.misses
let subpage_fetches t = t.fetches
let evictions t = t.evictions
let writebacks t = t.writebacks
let bytes_transferred t = (Fabric.stats t.fabric).bytes
let mean_miss_us t = Stats.Summary.mean t.miss_stall
