open Mp_util

(* Forty pushes grow the stack from 16 slots to 32 and then 64; the pops
   return the values last in, first out. *)
let test_lifo_across_growth () =
  let s = Pool.create () in
  for i = 1 to 40 do
    Pool.push s i
  done;
  let popped = List.init 40 (fun _ -> Pool.pop s) in
  Alcotest.(check (list int)) "last in, first out" (List.init 40 (fun i -> 40 - i)) popped;
  Alcotest.(check bool) "empty" true (Pool.is_empty s);
  Alcotest.check_raises "pop of an empty stack" (Invalid_argument "Pool.pop: empty")
    (fun () -> ignore (Pool.pop s))

(* Once the stack has grown to 64 slots, neither a push nor a pop
   allocates: the counts are exact, because [allocated_words] empties the
   minor heap before each reading. *)
let test_no_allocation () =
  let s = Pool.create () and v = ref 0 in
  for _ = 1 to 40 do
    Pool.push s v
  done;
  for _ = 1 to 40 do
    ignore (Pool.pop s)
  done;
  let words name f =
    Alcotest.(check (float 0.0)) name 0.0
      (Test_memsim.allocated_words (fun () ->
           for _ = 1 to 60 do
             f ()
           done))
  in
  words "words per push" (fun () -> Pool.push s v);
  words "words per pop" (fun () -> ignore (Sys.opaque_identity (Pool.pop s)));
  Alcotest.(check bool) "empty again" true (Pool.is_empty s)

let suite =
  [
    Alcotest.test_case "lifo across two doublings" `Quick test_lifo_across_growth;
    Alcotest.test_case "push and pop allocate nothing" `Quick test_no_allocation;
  ]
