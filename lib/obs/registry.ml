type shard = {
  sid : int;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  spans : Span.collector;
  mutable flushes : (unit -> unit) list;
}

type t = {
  lock : Mutex.t;
  mutable shards : shard list; (* reversed: newest first *)
  mutable next_sid : int;
  span_capacity : int;
}

let create ?(span_capacity = 4096) () =
  { lock = Mutex.create (); shards = []; next_sid = 0; span_capacity }

let shard ?span_capacity t =
  Mutex.lock t.lock;
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let s =
    {
      sid;
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 8;
      spans =
        Span.collector
          ~capacity:(Option.value ~default:t.span_capacity span_capacity)
          ();
      flushes = [];
    }
  in
  t.shards <- s :: t.shards;
  Mutex.unlock t.lock;
  s

let shard_id s = s.sid
let on_snapshot s f = s.flushes <- f :: s.flushes

let find_or tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.add tbl name m;
      m

let counter s name = find_or s.counters name Counter.create
let gauge s name = find_or s.gauges name Gauge.create
let histogram s name = find_or s.histograms name Histogram.create
let inc s name = Counter.incr (counter s name)
let count s name v = Counter.add (counter s name) v
let observe s name v = Histogram.observe (histogram s name) v
let span s sp = Span.add s.spans sp

type op = { name : string; ring : Span.collector; hist : Histogram.t; count : Counter.t }

let op s name =
  {
    name;
    ring = s.spans;
    hist = histogram s ("op." ^ name ^ ".accesses");
    count = counter s ("op." ^ name ^ ".count");
  }

let record o ~pid ~start_step ~end_step ~accesses ~annotations =
  Span.record o.ring ~name:o.name ~pid ~start_step ~end_step ~accesses ~annotations;
  Histogram.observe o.hist accesses;
  Counter.incr o.count

let shard_spans s = Span.items s.spans
let shard_spans_dropped s = Span.dropped s.spans

type snapshot = {
  shards : int;
  counters : (string * int) list;
  gauges : (string * Gauge.snap) list;
  histograms : (string * Histogram.snap) list;
  spans : Span.t list;
  spans_dropped : int;
}

let sorted_bindings merged = List.sort (fun (a, _) (b, _) -> String.compare a b) merged

let snapshot t =
  Mutex.lock t.lock;
  let shards = List.rev t.shards in
  Mutex.unlock t.lock;
  (* let deferred publishers (e.g. Store tallies) push their deltas
     into shard metrics before we merge *)
  List.iter (fun (s : shard) -> List.iter (fun f -> f ()) s.flushes) shards;
  let counters = Hashtbl.create 32 in
  let gauges = Hashtbl.create 32 in
  let histograms = Hashtbl.create 16 in
  let spans_dropped = ref 0 in
  List.iter
    (fun (s : shard) ->
      Hashtbl.iter
        (fun name c ->
          Counter.merge ~into:(find_or counters name Counter.create) c)
        s.counters;
      Hashtbl.iter
        (fun name g -> Gauge.merge ~into:(find_or gauges name Gauge.create) g)
        s.gauges;
      Hashtbl.iter
        (fun name h ->
          Histogram.merge ~into:(find_or histograms name Histogram.create) h)
        s.histograms;
      spans_dropped := !spans_dropped + Span.dropped s.spans)
    shards;
  let bindings tbl f = sorted_bindings (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []) in
  {
    shards = List.length shards;
    counters = bindings counters Counter.get;
    gauges = bindings gauges Gauge.snap;
    histograms = bindings histograms Histogram.snap;
    spans = List.concat_map (fun (s : shard) -> Span.items s.spans) shards;
    spans_dropped = !spans_dropped;
  }
