module Event = struct
  type t = {
    name : string;
    auto_reset : bool;
    mutable signaled : bool;
    waiters : (unit -> unit) Queue.t;
    park : (unit -> unit) -> unit;  (* queues a waiter; built once, not per wait *)
  }

  let create ?(auto_reset = true) ?(name = "event") () =
    let waiters = Queue.create () in
    {
      name;
      auto_reset;
      signaled = false;
      waiters;
      park = (fun resume -> Queue.add resume waiters);
    }

  let wait t =
    if t.signaled then begin
      if t.auto_reset then t.signaled <- false
    end
    else Engine.suspend ~name:t.name t.park

  (* Here and in [Mutex] and [Semaphore], a wake checks [Queue.is_empty]
     before [Queue.take]: [Queue.take_opt] would allocate an option per
     waiter woken. *)
  let set t =
    if t.auto_reset then begin
      if Queue.is_empty t.waiters then t.signaled <- true else (Queue.take t.waiters) ()
    end
    else begin
      t.signaled <- true;
      while not (Queue.is_empty t.waiters) do
        (Queue.take t.waiters) ()
      done
    end

  let reset t = t.signaled <- false
  let is_set t = t.signaled
  let waiters t = Queue.length t.waiters
end

module Mutex = struct
  type t = { name : string; mutable held : bool; waiters : (unit -> unit) Queue.t }

  let create ?(name = "mutex") () = { name; held = false; waiters = Queue.create () }

  let lock t =
    if not t.held then t.held <- true
    else Engine.suspend ~name:t.name (fun resume -> Queue.add resume t.waiters)

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    if Queue.is_empty t.waiters then t.held <- false
    else (Queue.take t.waiters) () (* ownership transfers directly to the waiter *)

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f

  let locked t = t.held
end

module Semaphore = struct
  type t = { name : string; mutable count : int; waiters : (unit -> unit) Queue.t }

  let create ?(name = "sem") count =
    if count < 0 then invalid_arg "Sync.Semaphore.create: negative count";
    { name; count; waiters = Queue.create () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Engine.suspend ~name:t.name (fun resume -> Queue.add resume t.waiters)

  let release t =
    if Queue.is_empty t.waiters then t.count <- t.count + 1 else (Queue.take t.waiters) ()

  let count t = t.count
end
