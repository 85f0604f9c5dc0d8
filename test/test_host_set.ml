(* Bitmap host sets: the same answers as [Set.Make (Int)], in the same
   order, one representation per set, and no allocation on the handlers'
   reads. *)

open Mp_util
module Ref = Set.Make (Int)

type op = Add of int | Remove of int

let apply (s, r) = function
  | Add h -> (Host_set.add h s, Ref.add h r)
  | Remove h -> (Host_set.remove h s, Ref.remove h r)

let gen_ops =
  let open QCheck.Gen in
  list_size (0 -- 40)
    (oneof [ map (fun h -> Add h) (0 -- 70); map (fun h -> Remove h) (0 -- 70) ])

let print_ops ops =
  String.concat "; "
    (List.map (function Add h -> Printf.sprintf "+%d" h | Remove h -> Printf.sprintf "-%d" h) ops)

let build ops = List.fold_left apply (Host_set.empty, Ref.empty) ops

let qcheck_matches_set =
  QCheck.Test.make ~name:"host sets match Set.Make (Int)" ~count:500
    (QCheck.make ~print:(fun (a, b) -> print_ops a ^ " | " ^ print_ops b)
       (QCheck.Gen.pair gen_ops gen_ops))
    (fun (ops_a, ops_b) ->
      let a, ra = build ops_a and b, rb = build ops_b in
      let ascending s =
        List.rev (Host_set.fold (fun h acc -> h :: acc) s [])
      in
      let iterated s =
        let l = ref [] in
        Host_set.iter (fun h -> l := h :: !l) s;
        List.rev !l
      in
      Host_set.elements a = Ref.elements ra
      && ascending a = Ref.elements ra
      && iterated a = Ref.elements ra
      && Host_set.cardinal a = Ref.cardinal ra
      && Host_set.is_empty a = Ref.is_empty ra
      && List.for_all (fun h -> Host_set.mem h a = Ref.mem h ra) (List.init 80 Fun.id)
      && (Ref.is_empty ra || Host_set.min_elt a = Ref.min_elt ra)
      && Host_set.subset a b = Ref.subset ra rb
      && Host_set.elements (Host_set.diff a b) = Ref.elements (Ref.diff ra rb)
      && Host_set.elements (Host_set.filter (fun h -> h mod 3 = 0) a)
         = Ref.elements (Ref.filter (fun h -> h mod 3 = 0) ra)
      (* one representation per set *)
      && Host_set.equal a b = Ref.equal ra rb
      && (a = b) = Ref.equal ra rb
      && Host_set.equal a (Host_set.of_list (List.rev (Ref.elements ra))))

let test_edges () =
  Alcotest.(check bool) "empty" true (Host_set.is_empty Host_set.empty);
  Alcotest.check_raises "min_elt of empty" Not_found (fun () ->
      ignore (Host_set.min_elt Host_set.empty));
  Alcotest.check_raises "negative host" (Invalid_argument "Host_set.add: negative host")
    (fun () -> ignore (Host_set.add (-1) Host_set.empty));
  Alcotest.(check bool) "negative is no member" false (Host_set.mem (-1) (Host_set.singleton 0));
  let s = Host_set.of_list [ 63; 0; 9 ] in
  Alcotest.(check (list int)) "ascending" [ 0; 9; 63 ] (Host_set.elements s);
  Alcotest.(check bool) "removing the highest host trims" true
    (Host_set.remove 63 s = Host_set.of_list [ 0; 9 ]);
  Alcotest.(check bool) "back to empty" true
    (Host_set.is_empty (Host_set.remove 0 (Host_set.singleton 0)))

(* The home's reads of a copyset and an ack's [add] of a reader the set
   already holds allocate nothing, at WATER's 8 hosts and [bench scale]'s
   64. *)
let test_no_allocation () =
  List.iter
    (fun hosts ->
      let s = Host_set.of_list (List.init hosts (fun h -> if h mod 3 = 0 then h else 0)) in
      let sum = ref 0 in
      let f h = sum := !sum + h in
      let words name run =
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s at %d hosts" name hosts)
          0.0
          (Test_memsim.allocated_words (fun () ->
               for _ = 1 to 1_000 do
                 run ()
               done))
      in
      words "mem" (fun () -> ignore (Sys.opaque_identity (Host_set.mem (hosts - 1) s)));
      words "iter" (fun () -> Host_set.iter f s);
      words "add of a member" (fun () -> ignore (Sys.opaque_identity (Host_set.add 0 s)));
      Alcotest.(check bool) "iterated" true (!sum > 0))
    [ 8; 64 ]

let suite =
  [
    Alcotest.test_case "edges" `Quick test_edges;
    Alcotest.test_case "reads allocate nothing" `Quick test_no_allocation;
    QCheck_alcotest.to_alcotest qcheck_matches_set;
  ]
