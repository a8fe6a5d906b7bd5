module Store = Shared_mem.Store
module Layout = Shared_mem.Layout
module Any = Renaming.Protocol.Any

type workload = Server_cold | Server_warm | Protocol_direct

let workloads =
  [ ("server-cold", Server_cold); ("server-warm", Server_warm); ("protocol-direct", Protocol_direct) ]

(* The server's default geometry (4 shards × k = 4, warm capacity 2,
   batch 8) and one shard of it for protocol-direct.  Two client
   domains; the main domain only waits, so two cores carry the whole
   load. *)
let clients = 2
let k = 4
let source_space = 4096
let hot_set = 4
let get_bound = 7 * (k - 1)
let stream_len = 1 lsl 16
let batch = 64

(* ----- the traced protocol: spans around every call, accesses counted ----- *)

module Traced (P : Renaming.Protocol.S) : Renaming.Protocol.S with type t = P.t = struct
  include P

  let counter = Domain.DLS.new_key Store.counter

  let timed kind ops f =
    let sp = Spans.current () and c = Domain.DLS.get counter in
    Store.reset c;
    let i = Spans.open_ sp kind in
    let r = f (Store.counting c ops) in
    Spans.close sp i ~accesses:(Store.accesses c);
    r

  let get_name t ops = timed Spans.proto_get ops (fun o -> P.get_name t o)
  let release_name t ops l = timed Spans.proto_release ops (fun o -> P.release_name t o l)

  let reset_footprint =
    Option.map
      (fun f t ops l -> timed Spans.proto_reset ops (fun o -> f t o l))
      P.reset_footprint
end

module Traced_split = Traced (Renaming.Split)

type backend = Layout.t -> stage:int -> k:int -> Any.t

let split_backend ~traced : backend =
 fun layout ~stage ~k ->
  let inst = Renaming.Split.create ~stage layout ~k in
  if traced then Any.pack (module Traced_split) inst
  else Any.pack (module Renaming.Split) inst

(* ----- correctness checks on every grant ----- *)

type grant_check = Grant_ok | Over_bound | Warm_accessed

let check_grant ~warm ~accesses =
  if warm then if accesses = 0 then Grant_ok else Warm_accessed
  else if accesses > get_bound then Over_bound
  else Grant_ok

(* ----- per-domain state, one per client index and round configuration ----- *)

type worker = {
  acq : Samples.t;
  rel : Samples.t;
  spans : Spans.t;
  mutable issued : int;
  mutable granted : int;
  mutable busy : int;
  mutable shed : int;
  mutable violations : int;
  mutable over_bound : int;
  mutable warm_accessed : int;
  mutable round_granted : int;
  mutable finish : int;
}

let worker ~traced =
  {
    acq = Samples.create ();
    rel = Samples.create ();
    spans = (if traced then Spans.create () else Spans.disabled);
    issued = 0;
    granted = 0;
    busy = 0;
    shed = 0;
    violations = 0;
    over_bound = 0;
    warm_accessed = 0;
    round_granted = 0;
    finish = 0;
  }

(* Stands in for a client's state until its domain allocates it: each
   client's counters and sample records come from its own domain's
   heap, so the two clients never write to one cache line. *)
let unused = worker ~traced:false

let score ws ~warm ~accesses =
  match check_grant ~warm ~accesses with
  | Grant_ok -> ()
  | Over_bound -> ws.over_bound <- ws.over_bound + 1
  | Warm_accessed -> ws.warm_accessed <- ws.warm_accessed + 1

(* Bench-side uniqueness: a name's holder count must be 0 when it is
   granted; it is dropped again before the release call.  One padded
   cell per name, so holders of different names share no line. *)
let hold ws holders name =
  let cells = Runtime.Pad.cells holders in
  if name < 0 || name >= Array.length cells then ws.violations <- ws.violations + 1
  else begin
    if Atomic.fetch_and_add cells.(name) 1 <> 0 then ws.violations <- ws.violations + 1;
    Atomic.decr cells.(name)
  end

(* One round configuration's running totals.  Latency percentiles are
   taken per round and reported as their median over rounds; [acq] and
   [rel] pool every round's samples. *)
type totals = {
  traced : bool;
  workers : worker array;
  acq : Samples.t;
  rel : Samples.t;
  round_acq : Samples.t;
  round_rel : Samples.t;
  mutable acq_p50 : float list;
  mutable acq_p99 : float list;
  mutable rel_p99 : float list;
  mutable cps : float list;
  mutable setup : float list;
  mutable cycles : int;
  mutable after_drain : int;
  mutable outstanding : int;
  mutable agg_violations : int;
  mutable warm_hits : int;
  mutable drains : int;
  mutable drained : int;
  mutable fenced : int;
  mutable failovers : int;
  mutable scans : int;
  mutable deaths : int;
  mutable drain_heals : int;
  mutable quarantines : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let totals ~traced =
  {
    traced;
    workers = Array.make clients unused;
    acq = Samples.create ();
    rel = Samples.create ();
    round_acq = Samples.create ();
    round_rel = Samples.create ();
    acq_p50 = [];
    acq_p99 = [];
    rel_p99 = [];
    cps = [];
    setup = [];
    cycles = 0;
    after_drain = 0;
    outstanding = 0;
    agg_violations = 0;
    warm_hits = 0;
    drains = 0;
    drained = 0;
    fenced = 0;
    failovers = 0;
    scans = 0;
    deaths = 0;
    drain_heals = 0;
    quarantines = 0;
    minor_gcs = 0;
    major_gcs = 0;
  }

(* Client [w]'s state, allocated on first use by the calling domain. *)
let own_worker tot w =
  if tot.workers.(w) == unused then tot.workers.(w) <- worker ~traced:tot.traced;
  tot.workers.(w)

(* ----- one round: spawn the clients, release them together, watch the clock ----- *)

type round = Finished | Hung | Crashed of string

(* [prepare w] runs on client domain [w] before the start line and
   returns its timed loop.  The main domain only waits: it polls for
   completion until [round_ns + grace_ns] after the start, and reports
   the round hung past that. *)
let spawn_round ~round_ns ~grace_ns tot (prepare : int -> until:int -> unit) =
  let ready = Atomic.make 0 and go = Atomic.make 0 and finished = Atomic.make 0 in
  let crash = Atomic.make None in
  let gc0 = Gc.quick_stat () in
  let domains =
    Array.init clients (fun w ->
        Domain.spawn (fun () ->
            (try
               let loop = prepare w in
               Atomic.incr ready;
               while Atomic.get go = 0 do
                 Domain.cpu_relax ()
               done;
               loop ~until:(Atomic.get go + round_ns)
             with e ->
               Atomic.incr ready;
               ignore (Atomic.compare_and_set crash None (Some (Printexc.to_string e)) : bool));
            Atomic.incr finished))
  in
  while Atomic.get ready < clients do
    Unix.sleepf 1e-4
  done;
  let t_go = Clock.now_ns () in
  Atomic.set go t_go;
  (* one sleep through the timed region, so the main domain does not
     wake on the clients' cores while they are measured *)
  Unix.sleepf (float_of_int round_ns /. 1e9);
  let deadline = t_go + round_ns + grace_ns in
  while Atomic.get finished < clients && Clock.now_ns () < deadline do
    Unix.sleepf 1e-3
  done;
  if Atomic.get finished < clients then Hung
  else begin
    Array.iter Domain.join domains;
    let gc1 = Gc.quick_stat () in
    tot.minor_gcs <- tot.minor_gcs + gc1.minor_collections - gc0.minor_collections;
    tot.major_gcs <- tot.major_gcs + gc1.major_collections - gc0.major_collections;
    let last = Array.fold_left (fun m ws -> max m ws.finish) t_go tot.workers in
    let n = Array.fold_left (fun s ws -> s + ws.round_granted) 0 tot.workers in
    tot.cycles <- tot.cycles + n;
    tot.cps <- (float_of_int n /. (float_of_int (last - t_go) /. 1e9)) :: tot.cps;
    Array.iter
      (fun (ws : worker) ->
        Samples.merge ~into:tot.round_acq ws.acq;
        Samples.merge ~into:tot.round_rel ws.rel;
        Samples.clear ws.acq;
        Samples.clear ws.rel)
      tot.workers;
    let pct s q = float_of_int (Samples.percentile s q) in
    tot.acq_p50 <- pct tot.round_acq 0.50 :: tot.acq_p50;
    tot.acq_p99 <- pct tot.round_acq 0.99 :: tot.acq_p99;
    tot.rel_p99 <- pct tot.round_rel 0.99 :: tot.rel_p99;
    Samples.merge ~into:tot.acq tot.round_acq;
    Samples.merge ~into:tot.rel tot.round_rel;
    Samples.clear tot.round_acq;
    Samples.clear tot.round_rel;
    match Atomic.get crash with Some m -> Crashed m | None -> Finished
  end

(* The closed loop every client runs: [batch] requests between clock
   checks and span folds. *)
let timed_loop ws ~until request =
  ws.round_granted <- 0;
  let go = ref true and i = ref 0 in
  while !go do
    for _ = 1 to batch do
      request !i;
      incr i
    done;
    if Spans.needs_fold ws.spans then Spans.fold ws.spans;
    if Clock.now_ns () >= until then go := false
  done;
  ws.finish <- Clock.now_ns ()

(* ----- server workloads ----- *)

let round_seed ~seed ~round = ((seed * 1_000_003) + round) land max_int

(* Fill each client's request stream for this round, in place. *)
let fill_streams workload streams ~seed ~round =
  let rs = round_seed ~seed ~round in
  let spec c = Workload.server_churn ~s:source_space ~requests:stream_len ~seed:rs ~client:c () in
  let hot =
    (* private hot sets: [hot_set] distinct sources per client, no
       source shared between clients *)
    let st = Random.State.make [| seed; round |] in
    let seen = Hashtbl.create 16 and a = Array.make (clients * hot_set) 0 in
    let n = ref 0 in
    while !n < Array.length a do
      let s = Random.State.int st source_space in
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        a.(!n) <- s;
        incr n
      end
    done;
    a
  in
  Array.iteri
    (fun c buf ->
      let sp =
        match workload with
        | Server_warm -> Workload.pin ~sources:(Array.sub hot (c * hot_set) hot_set) (spec c)
        | _ -> spec c
      in
      Array.iteri (fun i _ -> buf.(i) <- sp.source i) buf)
    streams

let server_round workload streams ~backend ~traced ~registry ~seed ~round ~round_ns ~grace_ns tot =
  (* start every round from a collected heap: the previous round's
     server is garbage, and collecting it here keeps that work out of
     both the set-up and the timed region *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  fill_streams workload streams ~seed ~round;
  let config = Server.default_config ~clients ~source_space () in
  let registry = if registry then Some (Obs.Registry.create ()) else None in
  let t = Server.create ?registry ~backend:(backend ~traced) config in
  let holders = Runtime.Pad.create (Server.name_space t) 0 in
  tot.setup <- (float_of_int (Clock.now_ns () - t0) /. 1e9) :: tot.setup;
  let prepare w =
    let ws = own_worker tot w and c = Server.client t w and src = streams.(w) in
    let sp = ws.spans in
    Spans.install sp;
    let request i =
      ws.issued <- ws.issued + 1;
      let st = Spans.open_ sp Spans.tend in
      Server.tend t c;
      Spans.close sp st;
      let sa = Spans.open_ sp Spans.acquire_cold in
      let t0 = Clock.now_ns () in
      match Server.acquire t c ~src:(Array.unsafe_get src (i land (stream_len - 1))) with
      | Server.Granted g ->
          let t1 = Clock.now_ns () in
          Spans.close sp sa;
          if g.warm then Spans.set_kind sp sa Spans.acquire_warm;
          Samples.add ws.acq (t1 - t0);
          score ws ~warm:g.warm ~accesses:g.accesses;
          hold ws holders g.name;
          let sr = Spans.open_ sp Spans.release in
          let t2 = Clock.now_ns () in
          Server.release t c ~token:g.token;
          let t3 = Clock.now_ns () in
          Spans.close sp sr;
          Samples.add ws.rel (t3 - t2);
          ws.granted <- ws.granted + 1;
          ws.round_granted <- ws.round_granted + 1
      | Server.Busy ->
          Spans.close sp sa;
          Spans.set_kind sp sa Spans.acquire_refused;
          ws.busy <- ws.busy + 1
      | Server.Shed ->
          Spans.close sp sa;
          Spans.set_kind sp sa Spans.acquire_refused;
          ws.shed <- ws.shed + 1
    in
    fun ~until ->
      timed_loop ws ~until request;
      Server.flush t c
  in
  let r = spawn_round ~round_ns ~grace_ns tot prepare in
  if r = Finished then begin
    (* epilogue: every client flushed its warm cache; retire what the
       pending lists still hold.  A lease that no pending list reaches
       any more is retired only by the reclaimer's scans, so settle as
       [Churn.run] does — scan and drain, within two lease TTLs — and
       count what is left.  The server's own counts are read before the
       settle: they describe the timed round. *)
    let c0 = Server.client t 0 in
    Server.drain_all t c0;
    tot.after_drain <- tot.after_drain + Server.outstanding t;
    for w = 0 to clients - 1 do
      let s = Server.client_stats (Server.client t w) in
      tot.warm_hits <- tot.warm_hits + s.warm_hits;
      tot.drains <- tot.drains + s.drains;
      tot.drained <- tot.drained + s.drained_releases
    done;
    let rs = Server.resilience_stats t in
    tot.fenced <- tot.fenced + rs.fenced;
    tot.failovers <- tot.failovers + rs.failovers;
    tot.scans <- tot.scans + rs.scans;
    tot.deaths <- tot.deaths + rs.deaths;
    tot.drain_heals <- tot.drain_heals + rs.drain_heals;
    tot.quarantines <- tot.quarantines + rs.quarantines;
    let budget = (2 * config.resilience.lease_ttl) + 2 in
    let settle = ref 0 in
    while Server.outstanding t > 0 && !settle < budget do
      incr settle;
      Server.scan t c0;
      Server.drain_all t c0
    done;
    tot.outstanding <- tot.outstanding + Server.outstanding t;
    tot.agg_violations <-
      tot.agg_violations + (Runtime.Agg.result (Server.scoreboard t)).violations
  end;
  r

(* ----- protocol-direct ----- *)

let protocol_round ~backend ~traced ~seed ~round ~round_ns ~grace_ns tot =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let layout = Layout.create () in
  let inst = backend ~traced layout ~stage:0 ~k in
  let store = Runtime.Atomic_store.create layout in
  let holders = Runtime.Pad.create (Any.name_space inst) 0 in
  (* fresh source names: client [w]'s cycle [i] is [base + 2i + w] *)
  let base = Random.State.bits (Random.State.make [| seed; round |]) in
  tot.setup <- (float_of_int (Clock.now_ns () - t0) /. 1e9) :: tot.setup;
  let prepare w =
    let ws = own_worker tot w in
    Spans.install ws.spans;
    let tally = Store.tally () in
    let ops = Store.tallying tally (Runtime.Atomic_store.ops store ~pid:0) in
    let request i =
      let ops = { ops with pid = base + (2 * i) + w } in
      ws.issued <- ws.issued + 1;
      Store.tally_mark tally;
      let t0 = Clock.now_ns () in
      let lease = Any.get_name inst ops in
      let t1 = Clock.now_ns () in
      Samples.add ws.acq (t1 - t0);
      score ws ~warm:false ~accesses:(Store.tally_since tally);
      hold ws holders (Any.name_of inst lease);
      let t2 = Clock.now_ns () in
      Any.release_name inst ops lease;
      let t3 = Clock.now_ns () in
      Samples.add ws.rel (t3 - t2);
      ws.granted <- ws.granted + 1;
      ws.round_granted <- ws.round_granted + 1
    in
    fun ~until -> timed_loop ws ~until request
  in
  spawn_round ~round_ns ~grace_ns tot prepare

(* ----- the model checker: the same splitter code under Sim ----- *)

(* The long-lived splitter under the Theorem 5 occupancy monitor:
   [procs] processes, [cycles] enter/release cycles each. *)
let splitter_builder ~procs ~cycles () : Sim.Model_check.config =
  let layout = Layout.create () in
  let sp = Renaming.Splitter.create layout in
  let work = Layout.alloc layout ~name:"work" 0 in
  let o = Sim.Checks.occupancy () in
  let body (ops : Store.ops) =
    for _ = 1 to cycles do
      Sim.Sched.emit (Sim.Event.Note ("begin", 0));
      let tok = Renaming.Splitter.enter sp ops in
      let d = Renaming.Splitter.direction tok in
      Sim.Sched.emit (Sim.Event.Note ("in", d));
      ignore (ops.read work);
      Sim.Sched.emit (Sim.Event.Note ("out", d));
      Renaming.Splitter.release sp ops tok;
      Sim.Sched.emit (Sim.Event.Note ("end", 0))
    done
  in
  {
    layout;
    procs = Array.init procs (fun p -> (p + 1, body));
    monitor = Sim.Checks.occupancy_monitor o;
  }

(* ----- the run ----- *)

type metric = { name : string; value : float; unit : string; samples : int option }

type report = {
  correct : bool;
  hung : bool;
  attempted : int;
  failed : int;
  problems : string list;
  stamp : string;
  metrics : metric list;
}

let end_to_end =
  [
    ("cycles_per_s", "1/s");
    ("acquire_p50_ns", "ns");
    ("acquire_p99_ns", "ns");
    ("release_p99_ns", "ns");
    ("served_frac", "ratio");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("server.acquire_self_p50_ns", "ns");
    ("server.acquire_self_p99_ns", "ns");
    ("server.release_self_p50_ns", "ns");
    ("server.release_self_p99_ns", "ns");
    ("server.tend_mean_ns", "ns");
    ("server.tend_p99_ns", "ns");
    ("server.grant_frac", "ratio");
    ("server.warm_hit_frac", "ratio");
    ("server.busy_frac", "ratio");
    ("server.shed_frac", "ratio");
    ("server.releases_per_drain", "count");
    ("server.scans", "count");
    ("server.drain_heals", "count");
    ("server.quarantines", "count");
    ("server.failovers", "count");
    ("server.deaths", "count");
    ("server.fenced", "count");
    ("server.outstanding_after_drain", "count");
    ("protocol.get_p50_ns", "ns");
    ("protocol.get_p99_ns", "ns");
    ("protocol.release_p50_ns", "ns");
    ("protocol.get_share", "ratio");
    ("store.accesses_per_get_mean", "count");
    ("store.accesses_per_get_max", "count");
    ("store.accesses_per_release_mean", "count");
    ("store.ns_per_access", "ns");
    ("obs.registry_tax", "ratio");
    ("runtime.minor_gcs", "count/Mcycle");
    ("runtime.major_gcs", "count/Mcycle");
    ("mc.paths", "count");
    ("mc.states", "count");
    ("mc.pruned_by_sleep", "count");
    ("mc.pruned_by_cache", "count");
    ("mc.ns_per_state", "ns");
    ("mc.check_s", "s");
    ("failed_frac", "ratio");
    ("trace_overhead", "ratio");
    ("acquire_tail_ns", "ns");
    ("acquire_tail_pct", "%");
  ]

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let sum_workers tot f = Array.fold_left (fun s ws -> s + f ws) 0 tot.workers

let merged_spans tot =
  let s = Spans.create ~capacity:1 () in
  Array.iter (fun ws -> Spans.merge ~into:s ws.spans) tot.workers;
  s

let sample_metric name unit s v = { name; value = fi v; unit; samples = Some (Samples.count s) }

let round_median name s per_round =
  { name; value = median per_round; unit = "ns"; samples = Some (Samples.count s) }

(* End-to-end metrics, from untraced rounds. *)
let end_to_end_metrics tot =
  let issued = sum_workers tot (fun ws -> ws.issued) in
  let granted = sum_workers tot (fun ws -> ws.granted) in
  let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
  [
    { name = "cycles_per_s"; value = median tot.cps; unit = "1/s"; samples = Some (List.length tot.cps) };
    round_median "acquire_p50_ns" tot.acq tot.acq_p50;
    round_median "acquire_p99_ns" tot.acq tot.acq_p99;
    round_median "release_p99_ns" tot.rel tot.rel_p99;
    {
      name = "served_frac";
      value = ratio (fi (granted - tot.outstanding)) (fi issued);
      unit = "ratio";
      samples = Some issued;
    };
    { name = "setup_s"; value = median tot.setup; unit = "s"; samples = Some (List.length tot.setup) };
    { name = "peak_heap_mb"; value = fi heap /. 1048576.; unit = "MB"; samples = None };
  ]

type mc = { paths : int; states : int; sleep : int; cache : int; check_ns : int }

(* Per-layer metrics: counters from untraced rounds [a], spans from
   traced rounds [b], the registry tax from registry-free rounds [c]. *)
let per_layer_metrics ~server ~mc a b c =
  let sp = merged_spans b in
  let self_of kinds =
    let s = Samples.create () in
    List.iter (fun k -> Samples.merge ~into:s (Spans.self sp k)) kinds;
    s
  in
  let acq_self = self_of Spans.[ acquire_cold; acquire_warm; acquire_refused ] in
  let rel_self = self_of [ Spans.release ] and tend_self = self_of [ Spans.tend ] in
  let get = Spans.self sp Spans.proto_get and prel = Spans.self sp Spans.proto_release in
  let issued = sum_workers a (fun ws -> ws.issued) in
  let granted = sum_workers a (fun ws -> ws.granted) in
  let busy = sum_workers a (fun ws -> ws.busy) and shed = sum_workers a (fun ws -> ws.shed) in
  let acq = a.acq in
  let n_get = Spans.count sp Spans.proto_get and n_rel = Spans.count sp Spans.proto_release in
  let get_ns = Spans.duration_sum sp Spans.proto_get
  and rel_ns = Spans.duration_sum sp Spans.proto_release in
  let get_acc = Spans.accesses_sum sp Spans.proto_get
  and rel_acc = Spans.accesses_sum sp Spans.proto_release in
  (* the protocol's share of a cold acquire; in protocol-direct the
     acquire is the top-level get itself *)
  let top_get = Spans.child_sum sp ~parent:Spans.kinds ~child:Spans.proto_get in
  let get_share =
    ratio
      (fi (Spans.child_sum sp ~parent:Spans.acquire_cold ~child:Spans.proto_get + top_get))
      (fi (Spans.duration_sum sp Spans.acquire_cold + top_get))
  in
  let per_mcycle n = ratio (fi n *. 1e6) (fi a.cycles) in
  let tail_q, tail_v, tail_beyond =
    match Samples.tail acq with Some t -> t | None -> (0., 0, 0)
  in
  let on_server v = if server then v else 0. in
  let m name unit ?samples value = { name; value; unit; samples } in
  let sm name unit s v = sample_metric name unit s v in
  [
    sm "server.acquire_self_p50_ns" "ns" acq_self (Samples.percentile acq_self 0.50);
    sm "server.acquire_self_p99_ns" "ns" acq_self (Samples.percentile acq_self 0.99);
    sm "server.release_self_p50_ns" "ns" rel_self (Samples.percentile rel_self 0.50);
    sm "server.release_self_p99_ns" "ns" rel_self (Samples.percentile rel_self 0.99);
    m "server.tend_mean_ns" "ns" ~samples:(Samples.count tend_self) (Samples.mean tend_self);
    sm "server.tend_p99_ns" "ns" tend_self (Samples.percentile tend_self 0.99);
    m "server.grant_frac" "ratio" ~samples:issued (on_server (ratio (fi granted) (fi issued)));
    m "server.warm_hit_frac" "ratio" ~samples:granted (ratio (fi a.warm_hits) (fi granted));
    m "server.busy_frac" "ratio" ~samples:issued (ratio (fi busy) (fi issued));
    m "server.shed_frac" "ratio" ~samples:issued (ratio (fi shed) (fi issued));
    m "server.releases_per_drain" "count" ~samples:a.drains (ratio (fi a.drained) (fi a.drains));
    m "server.scans" "count" (fi a.scans);
    m "server.drain_heals" "count" (fi a.drain_heals);
    m "server.quarantines" "count" (fi a.quarantines);
    m "server.failovers" "count" (fi a.failovers);
    m "server.deaths" "count" (fi a.deaths);
    m "server.fenced" "count" (fi a.fenced);
    m "server.outstanding_after_drain" "count" (fi a.after_drain);
    sm "protocol.get_p50_ns" "ns" get (Samples.percentile get 0.50);
    sm "protocol.get_p99_ns" "ns" get (Samples.percentile get 0.99);
    sm "protocol.release_p50_ns" "ns" prel (Samples.percentile prel 0.50);
    m "protocol.get_share" "ratio" ~samples:n_get get_share;
    m "store.accesses_per_get_mean" "count" ~samples:n_get (ratio (fi get_acc) (fi n_get));
    m "store.accesses_per_get_max" "count" ~samples:n_get
      (fi (Spans.accesses_max sp Spans.proto_get));
    m "store.accesses_per_release_mean" "count" ~samples:n_rel (ratio (fi rel_acc) (fi n_rel));
    m "store.ns_per_access" "ns" ~samples:(get_acc + rel_acc)
      (ratio (fi (get_ns + rel_ns)) (fi (get_acc + rel_acc)));
    m "obs.registry_tax" "ratio" ~samples:(List.length c.cps)
      (on_server (ratio (median c.cps) (median a.cps)));
    m "runtime.minor_gcs" "count/Mcycle" ~samples:a.cycles (per_mcycle a.minor_gcs);
    m "runtime.major_gcs" "count/Mcycle" ~samples:a.cycles (per_mcycle a.major_gcs);
    m "mc.paths" "count" (fi mc.paths);
    m "mc.states" "count" (fi mc.states);
    m "mc.pruned_by_sleep" "count" (fi mc.sleep);
    m "mc.pruned_by_cache" "count" (fi mc.cache);
    m "mc.ns_per_state" "ns" ~samples:mc.states (ratio (fi mc.check_ns) (fi mc.states));
    m "mc.check_s" "s" (fi mc.check_ns /. 1e9);
    m "failed_frac" "ratio" ~samples:issued (ratio (fi (busy + shed + a.outstanding)) (fi issued));
    m "trace_overhead" "ratio" ~samples:(List.length b.cps) (ratio (median a.cps) (median b.cps));
    m "acquire_tail_ns" "ns" ~samples:tail_beyond (fi tail_v);
    m "acquire_tail_pct" "%" ~samples:(Samples.count acq) (100. *. tail_q);
  ]

let run ?(backend = split_backend) ?(check = (3, 1)) ?rounds ?(grace_s = 10.) workload ~seed
    ~seconds ~trace =
  let server = workload <> Protocol_direct in
  let rounds = match rounds with Some r -> r | None -> max 3 (int_of_float (4. *. seconds)) in
  let round_ns = int_of_float (seconds *. 1e9 /. fi rounds) in
  let grace_ns = int_of_float (grace_s *. 1e9) in
  (* A: untraced, registry on — the end-to-end configuration.  A traced
     run alternates it with B (traced) and, on the server, C (no
     registry), round by round. *)
  let a = totals ~traced:false in
  let b = if trace then totals ~traced:true else a in
  let c = if trace && server then totals ~traced:false else a in
  let configs =
    if not trace then [| (a, false, true) |]
    else if server then [| (a, false, true); (b, true, true); (c, false, false) |]
    else [| (a, false, true); (b, true, true) |]
  in
  let streams = Array.init (if server then clients else 0) (fun _ -> Array.make stream_len 0) in
  let problems = ref [] and hung = ref false in
  let r = ref 0 in
  while !r < rounds && not !hung do
    let tot, traced, registry = configs.(!r mod Array.length configs) in
    let outcome =
      if server then
        server_round workload streams ~backend ~traced ~registry ~seed ~round:!r ~round_ns
          ~grace_ns tot
      else protocol_round ~backend ~traced ~seed ~round:!r ~round_ns ~grace_ns tot
    in
    (match outcome with
    | Finished -> ()
    | Hung ->
        hung := true;
        problems := Printf.sprintf "round %d hung past its deadline" !r :: !problems
    | Crashed m -> problems := Printf.sprintf "round %d raised %s" !r m :: !problems);
    incr r
  done;
  let all = Array.to_list (Array.map (fun (t, _, _) -> t) configs) in
  if !problems = [] then List.iter (fun t -> Array.iter (fun ws -> Spans.fold ws.spans) t.workers) all;
  let mc =
    if trace && (not server) && not !hung then begin
      let procs, cycles = check in
      let t0 = Clock.now_ns () in
      let rep = Sim.Model_check.check (splitter_builder ~procs ~cycles) in
      let check_ns = Clock.now_ns () - t0 in
      if not rep.outcome.complete then problems := "model check incomplete" :: !problems;
      Option.iter
        (fun (v : Sim.Model_check.violation) ->
          problems := ("model check violation: " ^ v.message) :: !problems)
        rep.outcome.violation;
      {
        paths = rep.outcome.paths;
        states = rep.stats.states;
        sleep = rep.stats.pruned_by_sleep;
        cache = rep.stats.pruned_by_cache;
        check_ns;
      }
    end
    else { paths = 0; states = 0; sleep = 0; cache = 0; check_ns = 0 }
  in
  let total f = List.fold_left (fun s t -> s + sum_workers t f) 0 all in
  let attempted = total (fun ws -> ws.issued) in
  let count what n = if n > 0 then problems := Printf.sprintf "%d %s" n what :: !problems in
  let violations = total (fun ws -> ws.violations) in
  let agg = List.fold_left (fun s t -> s + t.agg_violations) 0 all in
  let over = total (fun ws -> ws.over_bound) and warm = total (fun ws -> ws.warm_accessed) in
  let nest = sum_workers b (fun ws -> Spans.nest_errors ws.spans) in
  let outstanding = List.fold_left (fun s t -> s + t.outstanding) 0 all in
  count "uniqueness violations seen by the benchmark" violations;
  count "uniqueness violations seen by the server scoreboard" agg;
  count (Printf.sprintf "cold gets over 7(k-1) = %d accesses" get_bound) over;
  count "warm grants with shared accesses" warm;
  count "spans closed out of order" nest;
  let failed = violations + agg + over + warm + outstanding + if !hung then 1 else 0 in
  let stamp =
    Printf.sprintf
      "workload=%s seed=%d seconds=%g trace=%d rounds=%d round_ms=%g clients=%d nproc=%d ocaml=%s \
       minor_heap_words=%d"
      (fst (List.find (fun (_, w) -> w = workload) workloads))
      seed seconds (Bool.to_int trace) rounds
      (fi round_ns /. 1e6)
      clients
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (Gc.get ()).minor_heap_size
  in
  let metrics =
    if trace then per_layer_metrics ~server ~mc a b c else end_to_end_metrics a
  in
  {
    correct = !problems = [];
    hung = !hung;
    attempted = max 1 attempted;
    failed;
    problems = List.rev !problems;
    stamp;
    metrics;
  }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print report =
  Printf.printf "# perfbench %s\n" report.stamp;
  List.iter (fun p -> Printf.printf "# FAILED: %s\n" p) report.problems;
  List.iter
    (fun m ->
      Printf.printf "%-34s %16.6g %-12s %s\n" m.name m.value m.unit
        (match m.samples with Some n -> Printf.sprintf "n=%d" n | None -> ""))
    report.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
         report.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    report.correct report.attempted report.failed metrics
