(* Bit [h land 7] of byte [h lsr 3] is host [h]; the last byte is never
   zero, so every set has exactly one representation. *)
type t = string

let empty = ""
let is_empty s = String.length s = 0
let byte s i = Char.code (String.unsafe_get s i)

let mem h s =
  h >= 0 && h lsr 3 < String.length s && byte s (h lsr 3) land (1 lsl (h land 7)) <> 0

(* The length of [s]'s first [n] bytes less their trailing zero bytes. *)
let rec prefix_len s n =
  if n > 0 && String.unsafe_get s (n - 1) = '\000' then prefix_len s (n - 1) else n

(* [b] as a set, dropping its trailing zero bytes. *)
let of_bytes b =
  let n = prefix_len (Bytes.unsafe_to_string b) (Bytes.length b) in
  if n = Bytes.length b then Bytes.unsafe_to_string b else Bytes.sub_string b 0 n

let add h s =
  if h < 0 then invalid_arg "Host_set.add: negative host";
  if mem h s then s
  else begin
    let i = h lsr 3 and len = String.length s in
    let b = Bytes.make (if i < len then len else i + 1) '\000' in
    Bytes.blit_string s 0 b 0 len;
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lor (1 lsl (h land 7)));
    Bytes.unsafe_to_string b
  end

let singleton h = add h empty

let remove h s =
  if not (mem h s) then s
  else begin
    let i = h lsr 3 and len = String.length s in
    let v = byte s i land lnot (1 lsl (h land 7)) in
    (* emptying the last byte drops it and the zero bytes before it *)
    let n = if v = 0 && i = len - 1 then prefix_len s i else len in
    let b = Bytes.create n in
    Bytes.blit_string s 0 b 0 n;
    if i < n then Bytes.set_uint8 b i v;
    Bytes.unsafe_to_string b
  end

let popcount8 x =
  let x = x - ((x lsr 1) land 0x55) in
  let x = (x land 0x33) + ((x lsr 2) land 0x33) in
  (x + (x lsr 4)) land 0x0f

let cardinal s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    n := !n + popcount8 (byte s i)
  done;
  !n

let equal = String.equal

let subset a b =
  String.length a <= String.length b
  &&
  let ok = ref true in
  for i = 0 to String.length a - 1 do
    if byte a i land lnot (byte b i) <> 0 then ok := false
  done;
  !ok

let diff a b =
  let r = Bytes.of_string a in
  for i = 0 to min (String.length a) (String.length b) - 1 do
    Bytes.set_uint8 r i (byte a i land lnot (byte b i))
  done;
  of_bytes r

let min_elt s =
  if is_empty s then raise Not_found;
  let i = ref 0 in
  while byte s !i = 0 do
    incr i
  done;
  let v = byte s !i and j = ref 0 in
  while v land (1 lsl !j) = 0 do
    incr j
  done;
  (!i lsl 3) lor !j

let iter f s =
  for i = 0 to String.length s - 1 do
    let v = byte s i in
    for j = 0 to 7 do
      if v land (1 lsl j) <> 0 then f ((i lsl 3) lor j)
    done
  done

let fold f s acc =
  let acc = ref acc in
  for i = 0 to String.length s - 1 do
    let v = byte s i in
    for j = 0 to 7 do
      if v land (1 lsl j) <> 0 then acc := f ((i lsl 3) lor j) !acc
    done
  done;
  !acc

let filter p s =
  let r = Bytes.of_string s in
  iter
    (fun h ->
      if not (p h) then
        Bytes.set_uint8 r (h lsr 3) (Bytes.get_uint8 r (h lsr 3) land lnot (1 lsl (h land 7))))
    s;
  of_bytes r

let elements s =
  let l = ref [] in
  for i = String.length s - 1 downto 0 do
    let v = byte s i in
    for j = 7 downto 0 do
      if v land (1 lsl j) <> 0 then l := ((i lsl 3) lor j) :: !l
    done
  done;
  !l

let of_list l = List.fold_left (fun s h -> add h s) empty l
