(* A binary heap stored as three parallel arrays, so pushing and popping
   allocate nothing once the arrays have grown: times live unboxed in a
   [Float.Array], and no per-entry record or result tuple is built.  The
   helpers take slot indices, never floats, so none of them boxes one. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

let create () = { times = Float.Array.create 0; seqs = [||]; values = [||]; size = 0 }
let is_empty t = t.size = 0
let length t = t.size

let less t i j =
  let a = Float.Array.get t.times i and b = Float.Array.get t.times j in
  a < b || (a = b && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = Float.Array.get t.times i in
  Float.Array.set t.times i (Float.Array.get t.times j);
  Float.Array.set t.times j time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let value = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- value

(* [value] only fills the fresh slots of the value array. *)
let grow t value =
  let ncap = max 16 (2 * Array.length t.values) in
  let times = Float.Array.make ncap 0.0 in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let values = Array.make ncap value in
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let push t ~time ~seq value =
  if t.size = Array.length t.values then grow t value;
  let i = ref t.size in
  Float.Array.set t.times !i time;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- value;
  t.size <- t.size + 1;
  (* sift up *)
  while !i > 0 && less t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

let min_time t = if t.size = 0 then infinity else Float.Array.get t.times 0

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let top = t.values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    swap t 0 n;
    (* sift down *)
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = if l < n && less t l !i then l else !i in
      let smallest = if r < n && less t r smallest then r else smallest in
      if smallest = !i then sifting := false
      else begin
        swap t smallest !i;
        i := smallest
      end
    done
  end;
  top

(* Every entry sharing the root's time has an ancestor chain of equal
   times, so a tie at the minimum always shows at a child of the root. *)
let min_tied t =
  (t.size > 1 && Float.Array.get t.times 1 = Float.Array.get t.times 0)
  || (t.size > 2 && Float.Array.get t.times 2 = Float.Array.get t.times 0)

let pop_min_group t =
  if t.size = 0 then None
  else begin
    let time = min_time t in
    (* pops come out (time, seq)-ordered, so the group is already seq-sorted *)
    let rec drain acc =
      if t.size > 0 && Float.Array.get t.times 0 = time then begin
        let seq = t.seqs.(0) in
        let value = pop t in
        drain ((seq, value) :: acc)
      end
      else List.rev acc
    in
    Some (time, drain [])
  end
