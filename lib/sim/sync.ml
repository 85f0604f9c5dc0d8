(* Each primitive parks its waiters on an engine ring, so a wait allocates
   only the waiter's continuation. *)

module Event = struct
  type t = { name : string; auto_reset : bool; mutable signaled : bool; waiters : Engine.ring }

  let create ?(auto_reset = true) ?(name = "event") () =
    { name; auto_reset; signaled = false; waiters = Engine.ring () }

  let wait t =
    if t.signaled then begin
      if t.auto_reset then t.signaled <- false
    end
    else Engine.park t.waiters ~name:t.name

  let set t =
    if t.auto_reset then begin
      if Engine.parked t.waiters = 0 then t.signaled <- true else Engine.wake t.waiters
    end
    else begin
      t.signaled <- true;
      while Engine.parked t.waiters > 0 do
        Engine.wake t.waiters
      done
    end

  let reset t = t.signaled <- false
  let is_set t = t.signaled
  let waiters t = Engine.parked t.waiters
end

module Mutex = struct
  type t = { name : string; mutable held : bool; waiters : Engine.ring }

  let create ?(name = "mutex") () = { name; held = false; waiters = Engine.ring () }

  let lock t = if not t.held then t.held <- true else Engine.park t.waiters ~name:t.name

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    if Engine.parked t.waiters = 0 then t.held <- false
    else Engine.wake t.waiters (* ownership transfers directly to the waiter *)

  let locked t = t.held
end

module Semaphore = struct
  type t = { name : string; mutable count : int; waiters : Engine.ring }

  let create ?(name = "sem") count =
    if count < 0 then invalid_arg "Sync.Semaphore.create: negative count";
    { name; count; waiters = Engine.ring () }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1 else Engine.park t.waiters ~name:t.name

  let release t = if Engine.parked t.waiters = 0 then t.count <- t.count + 1 else Engine.wake t.waiters

  let count t = t.count
end
