open Mp_util

type gauge = { mutable value : float; mutable max : float }

type latency = { summary : Stats.Summary.t; hist : Stats.Histogram.t }

type t = {
  counters : Stats.Counters.t;
  gauges : (string, gauge) Hashtbl.t;
  latencies : (string, latency) Hashtbl.t;
}

let default_bucket_width = 2.0
let default_buckets = 4096

let create () =
  { counters = Stats.Counters.create (); gauges = Hashtbl.create 16;
    latencies = Hashtbl.create 32 }

let counters t = t.counters
let incr t name = Stats.Counters.incr t.counters name
let add t name k = Stats.Counters.add t.counters name k

let gauge_cell t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { value = 0.0; max = neg_infinity } in
    Hashtbl.add t.gauges name g;
    g

let gauge_set t name v =
  let g = gauge_cell t name in
  g.value <- v;
  if v > g.max then g.max <- v

let latency_cell t ?(bucket_width = default_bucket_width) ?(buckets = default_buckets)
    name =
  match Hashtbl.find_opt t.latencies name with
  | Some l -> l
  | None ->
    let l =
      { summary = Stats.Summary.create (); hist = Stats.Histogram.create ~bucket_width ~buckets }
    in
    Hashtbl.add t.latencies name l;
    l

let observe t ?bucket_width ?buckets name x =
  let l = latency_cell t ?bucket_width ?buckets name in
  Stats.Summary.add l.summary x;
  Stats.Histogram.add l.hist x

let percentile t name p =
  match Hashtbl.find_opt t.latencies name with
  | Some l when Stats.Summary.count l.summary > 0 ->
    Some (Stats.Histogram.percentile l.hist p)
  | Some _ | None -> None

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let latency_rows t =
  sorted_keys t.latencies
  |> List.map (fun name ->
         let l = Hashtbl.find t.latencies name in
         let s = l.summary in
         let n = Stats.Summary.count s in
         let pct p = if n = 0 then 0.0 else Stats.Histogram.percentile l.hist p in
         [ name; string_of_int n;
           Tab.fu (Stats.Summary.mean s);
           Tab.fu (pct 0.5); Tab.fu (pct 0.95); Tab.fu (pct 0.99);
           Tab.fu (if n = 0 then 0.0 else Stats.Summary.max s);
           Tab.fu (Stats.Summary.total s) ])

let latency_table t =
  match latency_rows t with
  | [] -> ""
  | rows ->
    Tab.render ~header:[ "latency (us)"; "n"; "mean"; "p50"; "p95"; "p99"; "max"; "total" ]
      rows

let counters_table t =
  match Stats.Counters.to_list t.counters with
  | [] -> ""
  | kvs ->
    Tab.render ~header:[ "counter"; "value" ]
      (List.map (fun (k, v) -> [ k; string_of_int v ]) kvs)

let gauges_table t =
  match sorted_keys t.gauges with
  | [] -> ""
  | keys ->
    Tab.render ~header:[ "gauge"; "value"; "max" ]
      (List.map
         (fun k ->
           let g = Hashtbl.find t.gauges k in
           [ k; Tab.fu g.value; Tab.fu (if g.max > neg_infinity then g.max else 0.0) ])
         keys)

let report t =
  String.concat "\n"
    (List.filter (fun s -> s <> "") [ latency_table t; gauges_table t; counters_table t ])
