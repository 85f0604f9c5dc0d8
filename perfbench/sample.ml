(** A growable sample of floats and the order statistics the benchmark
    reports: the median, and the highest percentile that still has at least
    ten samples beyond it. *)

type t = { mutable xs : float array; mutable n : int }

let create () = { xs = Array.make 16 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.xs then begin
    let ys = Array.make (2 * t.n) 0.0 in
    Array.blit t.xs 0 ys 0 t.n;
    t.xs <- ys
  end;
  t.xs.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let of_list l = List.fold_left (fun t x -> add t x; t) (create ()) l

let sorted t =
  let a = Array.sub t.xs 0 t.n in
  Array.sort Float.compare a;
  a

let median t =
  let a = sorted t and n = t.n in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** [tail t] is [Some (p, v)]: [v] is the 11th-largest sample, the highest
    order statistic with ten samples beyond it, and [p] = 100·(n−10)/n its
    percentile.  [None] below 11 samples. *)
let tail t =
  if t.n < 11 then None
  else
    let a = sorted t in
    Some (100.0 *. float_of_int (t.n - 10) /. float_of_int t.n, a.(t.n - 11))
