(* [prot] starts as the table shared by every view mapped with the same
   initial protection; the view's first change copies it ([shared] false
   from then on). *)
type view = { base : int; mutable prot : Prot.t array; mutable shared : bool; fixed : bool }

type t = {
  mem : Phys_mem.t;
  mutable views : view array;
  mutable tables : (Prot.t * Prot.t array) list;  (* shared tables, never written *)
  page_size : int;
  page_shift : int;  (* log2 page_size: [Memobject] takes only powers of two *)
  vpages : int;
  size : int;  (* bytes spanned by each view *)
  stride : int;  (* distance between consecutive view bases *)
  first_base : int;
  mutable handler : (fault -> unit) option;
  mutable read_faults : int;
  mutable write_faults : int;
}

and fault = { addr : int; access : Prot.access; view : int; vpage : int; phys_off : int }

exception Access_violation of fault
exception Fault_storm of fault
exception Bad_address of int

let max_fault_retries = 64

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create obj =
  let page_size = Memobject.page_size obj in
  let size = Memobject.size obj in
  (* One guard page between views catches stray pointer arithmetic. *)
  {
    mem = Memobject.mem obj;
    views = [||];
    tables = [];
    page_size;
    page_shift = log2 page_size;
    vpages = Memobject.pages obj;
    size;
    stride = size + page_size;
    first_base = page_size;
    handler = None;
    read_faults = 0;
    write_faults = 0;
  }

let view_size t = t.size
let page_size t = t.page_size
let vpages_per_view t = t.vpages

let shared_table t prot =
  match List.assoc_opt prot t.tables with
  | Some table -> table
  | None ->
    let table = Array.make t.vpages prot in
    t.tables <- (prot, table) :: t.tables;
    table

let map_view ?(fixed = false) t initial =
  let index = Array.length t.views in
  let base = t.first_base + (index * t.stride) in
  let view = { base; prot = shared_table t initial; shared = true; fixed } in
  t.views <- Array.append t.views [| view |];
  index

let map_privileged_view t = map_view ~fixed:true t Prot.Read_write

let view t i =
  if i < 0 || i >= Array.length t.views then invalid_arg "Vm: no such view";
  t.views.(i)

let view_base t i = (view t i).base

let address t ~view:i off =
  if off < 0 || off >= t.size then invalid_arg "Vm.address: offset out of range";
  (view t i).base + off

(* The view index of [addr]; raises [Bad_address] outside every view. *)
let view_of t addr =
  let rel = addr - t.first_base in
  if rel < 0 then raise (Bad_address addr);
  let idx = rel / t.stride in
  if idx >= Array.length t.views || rel - (idx * t.stride) >= t.size then
    raise (Bad_address addr);
  idx

let phys_off t addr = addr - t.views.(view_of t addr).base

let translate t addr =
  let idx = view_of t addr in
  let off = addr - t.views.(idx).base in
  (idx, off lsr t.page_shift, off)

let protect t ~view:i ~vpage prot =
  let v = view t i in
  if v.fixed then invalid_arg "Vm.protect: view protection is fixed";
  if vpage < 0 || vpage >= t.vpages then invalid_arg "Vm.protect: bad vpage";
  if v.prot.(vpage) <> prot then begin
    if v.shared then begin
      v.prot <- Array.copy v.prot;
      v.shared <- false
    end;
    v.prot.(vpage) <- prot
  end

let protect_range t ~view:i ~phys_off ~len prot =
  if len <= 0 then invalid_arg "Vm.protect_range: non-positive length";
  let first = phys_off / t.page_size in
  let last = (phys_off + len - 1) / t.page_size in
  for vpage = first to last do
    protect t ~view:i ~vpage prot
  done

let protection t ~view:i ~vpage =
  if vpage < 0 || vpage >= t.vpages then invalid_arg "Vm.protection: bad vpage";
  (view t i).prot.(vpage)

let set_fault_handler t handler = t.handler <- Some handler
let read_faults t = t.read_faults
let write_faults t = t.write_faults

(* Call the handler for the first vpage of [first, last] that forbids
   [access], and retry, as the hardware would re-execute the faulting
   instruction. *)
let rec fault_until_allowed t addr access idx v first last n =
  let vp = ref first in
  while !vp <= last && Prot.allows v.prot.(!vp) access do
    incr vp
  done;
  if !vp <= last then begin
    let vpage = !vp in
    let fault = { addr; access; view = idx; vpage; phys_off = vpage * t.page_size } in
    (match access with
    | Prot.Read -> t.read_faults <- t.read_faults + 1
    | Prot.Write -> t.write_faults <- t.write_faults + 1);
    (match t.handler with
    | None -> raise (Access_violation fault)
    | Some h ->
      if n >= max_fault_retries then raise (Fault_storm fault);
      h fault);
    fault_until_allowed t addr access idx v first last (n + 1)
  end

(* The physical offset of [addr, addr+len) once every vpage it covers allows
   [access].  An access within one vpage that is allowed returns without
   allocating. *)
let ensure_access t addr len access =
  let idx = view_of t addr in
  let v = t.views.(idx) in
  let off = addr - v.base in
  let first = off lsr t.page_shift in
  let last = (off + len - 1) lsr t.page_shift in
  if last >= t.vpages then raise (Bad_address (addr + len - 1));
  if first <> last || not (Prot.allows v.prot.(first) access) then
    fault_until_allowed t addr access idx v first last 0;
  off

let read_access t addr len = ensure_access t addr len Prot.Read
let write_access t addr len = ensure_access t addr len Prot.Write

let read_u8 t addr = Phys_mem.get_u8 t.mem (read_access t addr 1)
let write_u8 t addr v = Phys_mem.set_u8 t.mem (write_access t addr 1) v
let read_i32 t addr = Phys_mem.get_i32 t.mem (read_access t addr 4)
let write_i32 t addr v = Phys_mem.set_i32 t.mem (write_access t addr 4) v
let read_f32 t addr = Phys_mem.get_f32 t.mem (read_access t addr 4)
let write_f32 t addr v = Phys_mem.set_f32 t.mem (write_access t addr 4) v
let read_f64 t addr = Phys_mem.get_f64 t.mem (read_access t addr 8)
let write_f64 t addr v = Phys_mem.set_f64 t.mem (write_access t addr 8) v
let read_int t addr = Phys_mem.get_int t.mem (read_access t addr 8)
let write_int t addr v = Phys_mem.set_int t.mem (write_access t addr 8) v

let priv_read_bytes t ~off ~len = Phys_mem.read_bytes t.mem ~off ~len
let priv_read_into t ~off b = Phys_mem.read_into t.mem ~off b
let priv_write_bytes t ~off b = Phys_mem.write_bytes t.mem ~off b
