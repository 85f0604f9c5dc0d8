(** [memo f] is [f] with its results kept per argument.  The sequential
    references are pure in their parameters, so a sweep over host counts
    or schedules pays for each once.  The table is shared by every domain
    of a parallel mpcheck exploration, behind a lock. *)
let memo f =
  let cache = Hashtbl.create 4 in
  let lock = Mutex.create () in
  fun p ->
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt cache p with
        | Some r -> r
        | None ->
          let r = f p in
          Hashtbl.add cache p r;
          r)
