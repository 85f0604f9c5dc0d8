open Mp_util

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_int_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_int_covers_all_values () =
  let rng = Prng.create ~seed:3 in
  let seen = Array.make 8 false in
  for _ = 1 to 2_000 do
    seen.(Prng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let rng = Prng.create ~seed:11 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_gaussian_moments () =
  let rng = Prng.create ~seed:13 in
  let n = 50_000 in
  let s = Stats.Summary.create () in
  for _ = 1 to n do
    Stats.Summary.add s (Prng.gaussian rng ~mu:10.0 ~sigma:3.0)
  done;
  Alcotest.(check bool) "mean" true (Float.abs (Stats.Summary.mean s -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev" true (Float.abs (Stats.Summary.stddev s -. 3.0) < 0.1)

let test_exponential_mean () =
  let rng = Prng.create ~seed:17 in
  let n = 50_000 in
  let s = Stats.Summary.create () in
  for _ = 1 to n do
    Stats.Summary.add s (Prng.exponential rng ~mean:4.0)
  done;
  Alcotest.(check bool) "mean near 4" true (Float.abs (Stats.Summary.mean s -. 4.0) < 0.1)

let test_split_independence () =
  let parent = Prng.create ~seed:21 in
  let child = Prng.split parent in
  let a = Prng.bits64 parent and b = Prng.bits64 child in
  Alcotest.(check bool) "streams differ after split" true (a <> b)

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:23 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* Draws recorded from the generator's reference construction: a change to
   how the state is stored must keep every stream bit for bit. *)
let test_streams_pinned () =
  let a = Prng.create ~seed:42 in
  Alcotest.(check (list int64))
    "seed 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L ]
    (List.init 3 (fun _ -> Prng.bits64 a));
  let b = Prng.create ~seed:7 in
  Alcotest.(check (list int)) "seed 7 ints" [ 186; 770; 926; 952; 952 ]
    (List.init 5 (fun _ -> Prng.int b 1000));
  Alcotest.(check (list string))
    "then floats"
    [ "0x1.bedc39c76c431p-1"; "0x1.f1ae5852bd8bp-5"; "0x1.abc4dcb546f6p-4" ]
    (List.init 3 (fun _ -> Printf.sprintf "%h" (Prng.float b 1.0)))

(* The state is read and written unboxed: [int] allocates nothing, and
   [float] only its boxed result. *)
let test_draw_allocation () =
  let rng = Prng.create ~seed:5 and n = 10_000 in
  let per f = Test_memsim.allocated_words f /. float_of_int n in
  Alcotest.(check (float 0.05))
    "words per int" 0.0
    (per (fun () ->
         for _ = 1 to n do
           ignore (Sys.opaque_identity (Prng.int rng 1000))
         done));
  Alcotest.(check (float 0.05))
    "words per float" 2.0
    (per (fun () ->
         for _ = 1 to n do
           ignore (Sys.opaque_identity (Prng.float rng 1.0))
         done))

let qcheck_int_in_range =
  QCheck.Test.make ~name:"prng int always in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers all values" `Quick test_int_covers_all_values;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    QCheck_alcotest.to_alcotest qcheck_int_in_range;
    Alcotest.test_case "streams pinned" `Quick test_streams_pinned;
    Alcotest.test_case "draw allocation" `Quick test_draw_allocation;
  ]
