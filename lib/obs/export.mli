(** Trace exporters.

    {!perfetto_json} renders the typed event stream as Chrome trace-event
    JSON — open it at {:https://ui.perfetto.dev} or [chrome://tracing].  One
    process ("track group") per host, fault services as duration slices,
    manager queue-wait / invalidation rounds as slices on the manager track,
    messages as instant events, manager queue depth as a counter series.
    Timestamps are simulated µs.

    {!write_jsonl} writes one JSON object per event, one per line — easy to
    post-process with jq or load into a dataframe. *)

val counter : name:string -> ts:float -> pid:int -> value:int -> string
(** Render one pre-formatted "C" (counter) trace event, for use with
    [?extra] below. *)

val perfetto_json : ?extra:string list -> Event.t list -> string
(** [extra] is a list of pre-rendered trace-event JSON objects appended to
    [traceEvents] — {!Profile.perfetto_counters} uses it to add counter
    series computed outside the event ring. *)

val write_perfetto : ?extra:string list -> string -> Event.t list -> unit
val write_jsonl : string -> Event.t list -> unit
(** Writes the trace a line at a time, without building it as one string. *)
