type t = {
  line_shift : int;
  set_mask : int;
  assoc : int;
  tags : int array;  (* sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps; 0 = invalid *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size_bytes ~line_bytes ~assoc =
  if not (is_power_of_two line_bytes) then invalid_arg "Cache.create: line size";
  if assoc <= 0 then invalid_arg "Cache.create: assoc";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  if not (is_power_of_two sets) then invalid_arg "Cache.create: set count";
  {
    line_shift = log2 line_bytes;
    set_mask = sets - 1;
    assoc;
    tags = Array.make (sets * assoc) (-1);
    stamps = Array.make (sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* The slot holding [line] among the ways [slot .. stop - 1], or -1. *)
let rec find t line slot stop =
  if slot = stop then -1 else if t.tags.(slot) = line then slot else find t line (slot + 1) stop

(* First way of the set [line] maps to. *)
let set_base t line = (line land t.set_mask) * t.assoc

let access t addr =
  let line = addr lsr t.line_shift in
  let base = set_base t line in
  t.clock <- t.clock + 1;
  let slot = find t line base (base + t.assoc) in
  if slot >= 0 then begin
    t.hits <- t.hits + 1;
    t.stamps.(slot) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict the set's LRU way; an invalid way's stamp 0 is below any
       valid one, so a set fills before it evicts *)
    let victim = ref base in
    for i = 1 to t.assoc - 1 do
      if t.stamps.(base + i) < t.stamps.(!victim) then victim := base + i
    done;
    t.tags.(!victim) <- line;
    t.stamps.(!victim) <- t.clock;
    false
  end

let probe t addr =
  let line = addr lsr t.line_shift in
  let base = set_base t line in
  find t line base (base + t.assoc) >= 0

let hits t = t.hits
let misses t = t.misses
