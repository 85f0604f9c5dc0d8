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

  let set t =
    if t.auto_reset then begin
      match Queue.take_opt t.waiters with
      | Some resume -> resume ()
      | None -> t.signaled <- true
    end
    else begin
      t.signaled <- true;
      let rec drain () =
        match Queue.take_opt t.waiters with
        | Some resume ->
          resume ();
          drain ()
        | None -> ()
      in
      drain ()
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
    match Queue.take_opt t.waiters with
    | Some resume -> resume () (* ownership transfers directly to the waiter *)
    | None -> t.held <- false

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
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> t.count <- t.count + 1

  let count t = t.count
end
