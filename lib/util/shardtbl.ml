type ('a, 'b) t = {
  mutexes : Mutex.t array;
  shards : ('a, 'b) Hashtbl.t array;
}

let stripes = 64

let create ?(size = 64) () =
  {
    mutexes = Array.init stripes (fun _ -> Mutex.create ());
    shards = Array.init stripes (fun _ -> Hashtbl.create size);
  }

let stripe t k = Hashtbl.hash k land (Array.length t.shards - 1)

let locked t i f =
  Mutex.lock t.mutexes.(i);
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutexes.(i)) f

let replace t k v =
  let i = stripe t k in
  locked t i (fun () -> Hashtbl.replace t.shards.(i) k v)

let length t =
  let n = ref 0 in
  Array.iteri
    (fun i shard -> locked t i (fun () -> n := !n + Hashtbl.length shard))
    t.shards;
  !n

let fold t f init =
  let acc = ref init in
  Array.iteri
    (fun i shard ->
      locked t i (fun () -> Hashtbl.iter (fun k v -> acc := f k v !acc) shard))
    t.shards;
  !acc

let keys t = fold t (fun k _ acc -> k :: acc) []
