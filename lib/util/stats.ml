module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

  let min t =
    if t.n = 0 then invalid_arg "Summary.min: empty";
    t.min

  let max t =
    if t.n = 0 then invalid_arg "Summary.max: empty";
    t.max

  let total t = t.total

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
        total = a.total +. b.total;
      }
    end
end

module Counters = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  (* One lookup, and no allocation once the key exists. *)
  let add t name k =
    match Hashtbl.find t name with
    | r -> r := !r + k
    | exception Not_found -> Hashtbl.add t name (ref k)

  let incr t name = add t name 1
  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset t = Hashtbl.reset t
  let merge_into ~dst t = Hashtbl.iter (fun name r -> add dst name !r) t
end

module Histogram = struct
  (* [counts] covers the buckets up to the highest one used so far; it
     doubles as samples land, capped at the declared [buckets]. *)
  type t = { width : float; buckets : int; mutable counts : int array; mutable n : int }

  let create ~bucket_width ~buckets =
    if bucket_width <= 0.0 || buckets <= 0 then invalid_arg "Histogram.create";
    { width = bucket_width; buckets; counts = [||]; n = 0 }

  (* Widens [counts] to the smallest doubling that covers bucket [i]. *)
  let grow t i =
    let len = ref (Stdlib.max 1 (Array.length t.counts)) in
    while !len <= i do
      len := 2 * !len
    done;
    let counts = Array.make (Stdlib.min !len t.buckets) 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts

  (* NaN and out-of-range samples land in defined buckets: NaN and +inf /
     overflow clamp into the last bucket, negatives (and -inf) into the
     first.  The comparison happens in float space so [int_of_float] is
     never applied to a value outside the bucket range (where its result is
     unspecified). *)
  let add t x =
    let last = t.buckets - 1 in
    let q = x /. t.width in
    let i =
      if Float.is_nan q then last
      else if q < 0.0 then 0
      else if q >= float_of_int last then last
      else int_of_float q
    in
    if i >= Array.length t.counts then grow t i;
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let bucket_counts t =
    let all = Array.make t.buckets 0 in
    Array.blit t.counts 0 all 0 (Array.length t.counts);
    all

  (* Every sample sits inside [counts], so the walk reaches its target
     before running off the end; the buckets past it are all zero. *)
  let percentile t p =
    if t.n = 0 then invalid_arg "Histogram.percentile: empty";
    if p < 0.0 || p > 1.0 then invalid_arg "Histogram.percentile: p";
    let target = int_of_float (ceil (p *. float_of_int t.n)) in
    let target = Stdlib.max target 1 in
    let rec go i seen =
      let seen = seen + t.counts.(i) in
      if seen >= target || i = Array.length t.counts - 1 then
        float_of_int (i + 1) *. t.width
      else go (i + 1) seen
    in
    go 0 0
end
