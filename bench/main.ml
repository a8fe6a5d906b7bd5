(* Benchmark harness: regenerates every experiment in DESIGN.md §4
   (exact shared-access counts on the simulator) and then runs the
   Bechamel wall-clock micro-benchmarks (B1–B5) on the sequential
   store.

     dune exec bench/main.exe             -- everything
     dune exec bench/main.exe -- e4 e6    -- selected experiments
     dune exec bench/main.exe -- wall     -- wall-clock benches only
     dune exec bench/main.exe -- modelcheck -- model-checker throughput only
     dune exec bench/main.exe -- obs      -- lib/obs instrumentation overhead only
     dune exec bench/main.exe -- obs --smoke -- same, with a short measurement quota
     dune exec bench/main.exe -- trace    -- flight-recorder overhead only
     dune exec bench/main.exe -- recovery -- lib/recovery lease-wrapper overhead only
     dune exec bench/main.exe -- shootout -- cross-backend shootout only
     dune exec bench/main.exe -- --csv    -- also write results/<id>_<n>.csv
     dune exec bench/main.exe -- obs --rebaseline -- record bench/obs_baseline.json

   The modelcheck bench additionally writes BENCH_modelcheck.json (one
   JSON line per configuration: paths, states, pruning counters,
   paths/sec).  The obs bench writes BENCH_obs.json (bare vs
   instrumented ns/cycle and their ratio) and fails if the ratio
   regresses to more than 2x the recorded bench/obs_baseline.json.
   The trace bench ("trace") does the same for the structural flight
   recorder — BENCH_trace.json, gated at 1.5x
   bench/trace_baseline.json.
   The recovery bench ("recovery") writes BENCH_recovery.json (bare vs
   lease-wrapped ns/cycle plus deterministic simulated reclamation
   latencies) and fails if the wrapper overhead regresses to more than
   1.5x the recorded bench/recovery_baseline.json.
   The server bench ("server") drives the sharded name server with
   Zipf churn across 4 client domains (1M+ acquire/release cycles when
   not --smoke), with the full telemetry stack on (registry shards,
   windowed rollups, the sampler domain), and writes BENCH_server.json
   (sustained acquires/sec, latency percentiles, warm-vs-cold access
   costs, a false-sharing probe); full runs fail if throughput drops
   below 0.9x the recorded bench/server_baseline.json (0.4x under
   --smoke).  The obs bench likewise measures with the sampler live
   and gates full runs at min(2.0, 2x baseline).
   The shootout bench ("shootout") races every registered backend
   (lib/core/backends.ml) over the fault campaign's seed matrix —
   names used, shared accesses, solo wall-clock and name-server
   warm-hit rate per backend — and writes BENCH_backends.json,
   failing on any uniqueness violation or truncated run.
   The chaos bench ("chaos") runs the whole-server fault campaign
   (crash holding leases, crash mid-drain, crash on the reclaimer
   seat, parked drainer, hot-shard stall over a 32-seed matrix, 4
   under --smoke) plus a clean run, writes BENCH_chaos.json, and
   fails if any cell breaks its invariants, the clean warm path
   touches shared memory, or matrix-minimum availability drops below
   0.9x the recorded bench/chaos_baseline.json.
   The trend bench ("trend") runs obs + server gated plus the
   shootout and chaos (smoke quota) and appends one timestamped JSON
   line combining the payloads to BENCH_history.jsonl, the cross-run
   log consumed by the CLI's [observe diff].

   Every gate fails closed: a missing or unreadable baseline fails it
   (the message names the file), as does a non-finite measurement.
   [--rebaseline] records the measured value as the new baseline
   instead of gating, and refuses a non-finite one.  All paths —
   baselines, BENCH_*.json, BENCH_history.jsonl, results/ — resolve
   from the checkout root, the parent of the _build directory this
   executable sits in, whatever the working directory.  An unknown id
   is a failure (exit 1). *)

open Shared_mem
module Split = Renaming.Split
module Filter = Renaming.Filter
module Ma = Renaming.Ma
module Pipeline = Renaming.Pipeline

(* ----- where results and baselines live (see the header) ----- *)

let root =
  match Stats.Bench.find_root Sys.executable_name with
  | Some root -> root
  | None ->
      Printf.eprintf "bench: no _build directory above %s; cannot locate the checkout root\n"
        Sys.executable_name;
      exit 1

let at rel = Filename.concat root rel

let write_result name json =
  Stats.Bench.write_file (at name) json;
  Printf.printf "wrote %s\n" (at name)

let gate = Stats.Bench.gate ~dir:(at "bench")

(* ----- B1–B4: wall-clock get/release cycles (solo, sequential store) ----- *)

let bench_split () =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:123_456_789 in
  Bechamel.Test.make ~name:"B1 split k=8 get+release"
    (Bechamel.Staged.stage (fun () ->
         let lease = Split.get_name sp ops in
         Split.release_name sp ops lease))

let bench_filter () =
  let layout = Layout.create () in
  let s = 2 * 4 * 4 * 4 * 4 in
  let f =
    Filter.create layout { k = 4; d = 3; z = 29; s; participants = [| 17; 170; 340; 500 |] }
  in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:17 in
  Bechamel.Test.make ~name:"B2 filter k=4 S=512 get+release"
    (Bechamel.Staged.stage (fun () ->
         let lease = Filter.get_name f ops in
         Filter.release_name f ops lease))

let bench_ma () =
  let layout = Layout.create () in
  let m = Ma.create layout ~k:4 ~s:1024 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:512 in
  Bechamel.Test.make ~name:"B3 ma k=4 S=1024 get+release (O(kS))"
    (Bechamel.Staged.stage (fun () ->
         let lease = Ma.get_name m ops in
         Ma.release_name m ops lease))

let bench_pipeline () =
  let layout = Layout.create () in
  let p = Pipeline.create layout ~k:4 ~s:1_000_000 ~participants:[| 271_828 |] in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:271_828 in
  Bechamel.Test.make ~name:"B4 pipeline k=4 S=1e6 get+release"
    (Bechamel.Staged.stage (fun () ->
         let lease = Pipeline.get_name p ops in
         Pipeline.release_name p ops lease))

let bench_tas () =
  let layout = Layout.create () in
  let t = Renaming.Tas_baseline.create layout ~k:4 in
  let mem = Store.seq_create layout in
  let ops = Store.seq_ops mem ~pid:2 in
  Bechamel.Test.make ~name:"B5 tas k=4 get+release (Test&Set)"
    (Bechamel.Staged.stage (fun () ->
         let lease = Renaming.Tas_baseline.get_name t ops in
         Renaming.Tas_baseline.release_name t ops lease))

let run_wall_clock () =
  print_endline "\n=== Wall-clock micro-benchmarks (Bechamel, sequential store) ===";
  let tests =
    Bechamel.Test.make_grouped ~name:"renaming"
      [ bench_split (); bench_filter (); bench_ma (); bench_pipeline (); bench_tas () ]
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5) ~kde:None ()
  in
  let raw =
    Bechamel.Benchmark.all cfg [ Bechamel.Toolkit.Instance.monotonic_clock ] tests
  in
  let ols =
    Bechamel.Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw in
  let tbl = Stats.table [ "benchmark"; "ns/cycle"; "r^2" ] in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         let est =
           match Bechamel.Analyze.OLS.estimates ols with
           | Some (e :: _) -> Printf.sprintf "%.0f" e
           | Some [] | None -> "n/a"
         in
         let r2 =
           match Bechamel.Analyze.OLS.r_square ols with
           | Some r -> Printf.sprintf "%.4f" r
           | None -> "n/a"
         in
         Stats.add_row tbl [ name; est; r2 ]);
  Stats.print tbl

(* ----- model-checker throughput (sleep sets + state cache) ----- *)

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

let pf_mutex_builder ~cycles () : Sim.Model_check.config =
  let layout = Layout.create () in
  let b = Renaming.Pf_mutex.create layout in
  let work = Layout.alloc layout ~name:"work" 0 in
  let in_cs = ref 0 in
  let body dir (ops : Store.ops) =
    for _ = 1 to cycles do
      let slot = Renaming.Pf_mutex.enter b ops ~dir in
      let rec spin n =
        if Renaming.Pf_mutex.check b ops ~dir slot then begin
          Sim.Sched.emit (Sim.Event.Note ("cs", dir));
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Note ("cs_exit", dir))
        end
        else if n > 0 then spin (n - 1)
      in
      spin 6;
      Renaming.Pf_mutex.release b ops ~dir slot
    done
  in
  {
    layout;
    procs = [| (0, body 0); (1, body 1) |];
    monitor =
      Sim.Sched.monitor
        ~on_event:(fun _ _ ev ->
          match ev with
          | Sim.Event.Note ("cs", _) ->
              incr in_cs;
              if !in_cs > 1 then raise (Sim.Model_check.Violation "double CS")
          | Sim.Event.Note ("cs_exit", _) -> decr in_cs
          | _ -> ())
        ();
  }

let run_modelcheck_bench () =
  print_endline "\n=== Model checker (sleep-set POR + state cache) ===";
  let buf = Buffer.create 1024 in
  let tbl =
    Stats.table
      [ "config"; "paths"; "states"; "sleep-pruned"; "cache-pruned"; "complete"; "paths/s" ]
  in
  let run label options builder =
    let rep = Sim.Model_check.check ~options builder in
    Buffer.add_string buf (Sim.Model_check.report_json ~label rep);
    Buffer.add_char buf '\n';
    let o = rep.outcome and s = rep.stats in
    Stats.add_row tbl
      [
        label;
        string_of_int o.paths;
        string_of_int s.states;
        string_of_int s.pruned_by_sleep;
        string_of_int s.pruned_by_cache;
        string_of_bool o.complete;
        Printf.sprintf "%.0f"
          (if s.elapsed_s > 0. then float_of_int o.paths /. s.elapsed_s else 0.);
      ]
  in
  let reduced = Sim.Model_check.default_options in
  let plain = { reduced with Sim.Model_check.por = false; cache_bound = 0 } in
  run "splitter_l2_plain" plain (splitter_builder ~procs:2 ~cycles:1);
  run "splitter_l2_reduced" reduced (splitter_builder ~procs:2 ~cycles:1);
  run "splitter_l3_reduced" reduced (splitter_builder ~procs:3 ~cycles:1);
  run "pf_mutex_reduced" reduced (pf_mutex_builder ~cycles:2);
  Stats.print tbl;
  write_result "BENCH_modelcheck.json" (Buffer.contents buf)

(* ----- lib/obs instrumentation overhead ----- *)

(* ns/cycle for one staged thunk, measured like run_wall_clock. *)
let measure_ns ~quota ~name thunk =
  let test = Bechamel.Test.make ~name (Bechamel.Staged.stage thunk) in
  let cfg = Bechamel.Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second quota) ~kde:None () in
  let raw = Bechamel.Benchmark.all cfg [ Bechamel.Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ ols acc ->
      match Bechamel.Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> acc)
    results nan

(* Direct timed loop, best of [reps].  The obs bench cannot use
   Bechamel once the sampler domain is live: Bechamel's inter-sample
   GC stabilization turns into a cross-domain stop-the-world
   rendezvous with a sleeping domain on every sample, and that
   millisecond-scale stall lands inside the measured quota — the
   ratio would price Bechamel's GC discipline, not the probe path
   (measured ~4x inflation on a 1-core host; a direct loop shows the
   sampler itself costs ~0).  Scheduler noise only ever adds time, so
   the minimum over reps is the robust reading. *)
let measure_direct_ns ~reps ~iters thunk =
  for _ = 1 to iters / 10 do
    thunk ()
  done;
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      thunk ()
    done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
    if ns < !best then best := ns
  done;
  !best

let run_obs_bench ~smoke ~rebaseline () =
  Printf.printf
    "\n=== lib/obs instrumentation overhead (split k=8, sequential store, sampler on)%s ===\n"
    (if smoke then " [smoke]" else "");
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let pid = 123_456_789 in
  let bare_ops = Store.seq_ops mem ~pid in
  let registry = Obs.Registry.create () in
  let sh = Obs.Registry.shard ~span_capacity:4096 registry in
  (* Mirrors Domain_runner's per-operation instrumentation: the flat
     tally arena (grouped access counts materialize at snapshot, not
     per access), a span per op clocked by its own access delta, and
     op.*.accesses histograms through handles resolved once. *)
  let tally = Store.tally () in
  let inst_ops = Store.observed_into tally sh bare_ops in
  let clock = ref 0 in
  let get_h = Obs.Registry.histogram sh "op.get.accesses" in
  let get_c = Obs.Registry.counter sh "op.get.count" in
  let rel_h = Obs.Registry.histogram sh "op.release.accesses" in
  let rel_c = Obs.Registry.counter sh "op.release.count" in
  let record op hist count annotations =
    let accesses = Store.tally_since tally in
    Obs.Registry.record_span sh ~name:op ~pid ~start_step:!clock
      ~end_step:(!clock + accesses) ~accesses ~annotations;
    clock := !clock + accesses;
    Obs.Histogram.observe hist accesses;
    Obs.Counter.incr count
  in
  let bare () =
    let lease = Split.get_name sp bare_ops in
    Split.release_name sp bare_ops lease
  in
  let instrumented () =
    Store.tally_mark tally;
    let lease = Split.get_name sp inst_ops in
    record "get" get_h get_c [ ("name", Split.name_of sp lease) ];
    Store.tally_mark tally;
    Split.release_name sp inst_ops lease;
    record "release" rel_h rel_c []
  in
  let reps = if smoke then 1 else 3 in
  let iters = if smoke then 50_000 else 500_000 in
  let bare_ns = measure_direct_ns ~reps ~iters bare in
  (* Journey-recorder tax, priced the way the server pays it on a cold
     grant: start, one stage dwell, the access count, finish (the fold
     into reservoir + blame + exemplar-linked histogram).  A synthetic
     advancing clock isolates the stamping cost itself; the real
     clock-read cost is priced end-to-end by the server bench gate. *)
  let jr = Obs.Journey.create () in
  let jnow = ref 0 in
  let jid = ref 0 in
  let journeyed () =
    incr jid;
    jnow := !jnow + 64;
    Obs.Journey.start jr ~id:!jid ~now:!jnow;
    let t0 = !jnow in
    let lease = Split.get_name sp bare_ops in
    jnow := !jnow + 16;
    Obs.Journey.dwell jr Obs.Journey.Acquire (!jnow - t0);
    Obs.Journey.accesses jr 14;
    Split.release_name sp bare_ops lease;
    jnow := !jnow + 16;
    Obs.Journey.finish jr ~now:!jnow
  in
  let journey_ns = measure_direct_ns ~reps ~iters journeyed in
  let journey_overhead = journey_ns /. bare_ns in
  (* The ratio below is the cost of telemetry as deployed: the live
     sampler domain polls the arena throughout the instrumented
     measurement, exactly like the server's always-on sampler. *)
  let sampler =
    Obs.Sampler.create ~window_ns:1_000_000
      ~shard:(Obs.Registry.shard registry)
      [
        { Obs.Sampler.name = "tally.total"; read = (fun () -> Store.tally_total tally) };
      ]
  in
  let handle =
    Obs.Sampler.start sampler
      ~now_ns:(fun () -> int_of_float (Unix.gettimeofday () *. 1e9))
      ~sleep:(fun () -> Unix.sleepf 0.001)
  in
  let inst_ns = measure_direct_ns ~reps ~iters instrumented in
  Obs.Sampler.stop handle;
  let ticks = Obs.Sampler.ticks sampler in
  let overhead = inst_ns /. bare_ns in
  Printf.printf "bare          : %8.1f ns/cycle\n" bare_ns;
  Printf.printf "instrumented  : %8.1f ns/cycle\n" inst_ns;
  Printf.printf "journeyed     : %8.1f ns/cycle (%.2fx, stamping only)\n" journey_ns
    journey_overhead;
  Printf.printf "overhead      : %8.2fx\n" overhead;
  Printf.printf "sampler ticks : %8d\n" ticks;
  let json =
    Printf.sprintf
      "{\"id\":\"obs\",\"smoke\":%b,\"bare_ns\":%.1f,\"instrumented_ns\":%.1f,\"overhead\":%.3f,\"journeyed_ns\":%.1f,\"journey_overhead\":%.3f,\"sampler_ticks\":%d}\n"
      smoke bare_ns inst_ns overhead journey_ns journey_overhead ticks
  in
  write_result "BENCH_obs.json" json;
  (* full runs also enforce the absolute 2x ceiling from the telemetry
     SLO; smoke quotas are too noisy for an absolute bound, so they
     gate relative to the baseline only *)
  gate ?cap:(if smoke then None else Some 2.0) ~rebaseline ~id:"obs" ~key:"overhead"
    Stats.Bench.At_most ~factor:2.0 overhead

(* ----- flight-recorder overhead ----- *)

let run_trace_bench ~smoke ~rebaseline () =
  Printf.printf "\n=== flight-recorder overhead (split k=8, sequential store)%s ===\n"
    (if smoke then " [smoke]" else "");
  let quota = if smoke then 0.1 else 0.5 in
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let pid = 123_456_789 in
  let bare_ops = Store.seq_ops mem ~pid in
  let ring = Obs.Flight.create () in
  let clock = ref 0 in
  let traced_ops =
    Store.probed (Obs.Flight.probe ring ~pid ~clock:(fun () -> !clock)) bare_ops
  in
  let bare () =
    let lease = Split.get_name sp bare_ops in
    Split.release_name sp bare_ops lease
  in
  let traced () =
    incr clock;
    let lease = Split.get_name sp traced_ops in
    Obs.Flight.record ring ~clock:!clock ~pid
      (Obs.Flight.Acquired (Split.name_of sp lease));
    Split.release_name sp traced_ops lease;
    Obs.Flight.record ring ~clock:!clock ~pid
      (Obs.Flight.Released (Split.name_of sp lease))
  in
  let bare_ns = measure_ns ~quota ~name:"bare" bare in
  let traced_ns = measure_ns ~quota ~name:"traced" traced in
  let overhead = traced_ns /. bare_ns in
  Printf.printf "bare          : %8.1f ns/cycle\n" bare_ns;
  (* per cycle: 7 splitters x (Enter + Exit + Release) + Acquired + Released *)
  Printf.printf "traced        : %8.1f ns/cycle (23 ring record(s)/cycle)\n" traced_ns;
  Printf.printf "overhead      : %8.2fx\n" overhead;
  let json =
    Printf.sprintf
      "{\"id\":\"trace\",\"smoke\":%b,\"bare_ns\":%.1f,\"traced_ns\":%.1f,\"overhead\":%.3f}\n"
      smoke bare_ns traced_ns overhead
  in
  write_result "BENCH_trace.json" json;
  (* the raw-arena record path pays for a tighter gate: 1.5x of the
     recorded baseline, down from the pre-paydown 2x *)
  gate ~rebaseline ~id:"trace" ~key:"overhead" Stats.Bench.At_most ~factor:1.5 overhead

(* ----- lib/recovery wrapper overhead + reclamation latency ----- *)

(* Deterministic simulated reclamation latency: 2-process split under
   the recovery wrapper, round-robin schedule, the first process
   crashing at its first grant.  Returns the simulated shared accesses
   between the corpse's grant and its lease's reclamation. *)
let reclaim_latency_steps ~lease_ttl =
  let layout = Layout.create () in
  let sp = Split.create layout ~k:2 in
  let pids = [| 1; 2 |] in
  let rc =
    Recovery.create
      (module Split)
      sp ~layout ~pids
      (Recovery.default_config ~lease_ttl ~capacity:2 ())
  in
  let work = Layout.alloc layout ~name:"work" 0 in
  let tref = ref None in
  let now () = match !tref with Some t -> Sim.Sched.total_steps t | None -> 0 in
  let crash_step = ref (-1) and reclaim_step = ref (-1) in
  let worker cycles (ops : Store.ops) =
    for _ = 1 to cycles do
      match
        Recovery.acquire rc ops ~on_grant:(fun n ->
            if ops.pid = pids.(0) && !crash_step < 0 then crash_step := now ();
            Sim.Sched.emit (Sim.Event.Acquired n))
      with
      | Recovery.Shed -> ()
      | Recovery.Acquired l ->
          Recovery.heartbeat rc ops l;
          ignore
            (Recovery.release rc ops l ~on_live:(fun n ->
                 Sim.Sched.emit (Sim.Event.Released n))
              : bool)
    done
  in
  let stop = ref (fun () -> false) in
  let reclaimer (ops : Store.ops) =
    let budget = ref 10_000 in
    while (not (!stop ()) || Recovery.outstanding rc > 0) && !budget > 0 do
      decr budget;
      ignore (ops.read work);
      ignore
        (Recovery.scan rc ops ~on_reclaim:(fun ~pid:_ ~name ~latency:_ ->
             reclaim_step := now ();
             Sim.Sched.emit (Sim.Event.Note ("reclaimed", name)))
          : int)
    done
  in
  let ctrl =
    Sim.Faults.controller (Result.get_ok (Sim.Faults.of_string "crash@p0:acquire"))
  in
  let t =
    Sim.Sched.create ~monitor:(Sim.Faults.monitor ctrl) layout
      [| (pids.(0), worker 1); (pids.(1), worker 4); (3, reclaimer) |]
  in
  tref := Some t;
  stop :=
    (fun () ->
      let frozen = Sim.Faults.parked ctrl in
      let ok i = Sim.Sched.finished t i || List.mem i frozen in
      ok 0 && ok 1);
  ignore (Sim.Faults.run ~max_steps:100_000 ctrl t Sim.Sched.round_robin : Sim.Sched.outcome);
  Sim.Sched.abort t;
  !reclaim_step - !crash_step

let run_recovery_bench ~smoke ~rebaseline () =
  Printf.printf
    "\n=== lib/recovery wrapper overhead (split k=8, sequential store)%s ===\n"
    (if smoke then " [smoke]" else "");
  let quota = if smoke then 0.1 else 0.5 in
  let layout = Layout.create () in
  let sp = Split.create layout ~k:8 in
  let mem = Store.seq_create layout in
  let pid = 123_456_789 in
  let bare_ops = Store.seq_ops mem ~pid in
  let bare () =
    let lease = Split.get_name sp bare_ops in
    Split.release_name sp bare_ops lease
  in
  (* the wrapper over the same protocol: admission, grant bookkeeping,
     one heartbeat per hold, epoch-checked release *)
  let wlayout = Layout.create () in
  let wsp = Split.create wlayout ~k:8 in
  let rc =
    Recovery.create
      (module Split)
      wsp ~layout:wlayout ~pids:[| pid |]
      (Recovery.default_config ~lease_ttl:8 ~capacity:1 ())
  in
  let wmem = Store.seq_create wlayout in
  let wops = Store.seq_ops wmem ~pid in
  let wrapped () =
    match Recovery.acquire rc wops with
    | Recovery.Shed -> failwith "solo acquire shed"
    | Recovery.Acquired l ->
        Recovery.heartbeat rc wops l;
        ignore (Recovery.release rc wops l : bool)
  in
  let bare_ns = measure_ns ~quota ~name:"bare" bare in
  let wrapped_ns = measure_ns ~quota ~name:"wrapped" wrapped in
  let overhead = wrapped_ns /. bare_ns in
  Printf.printf "bare          : %8.1f ns/cycle\n" bare_ns;
  Printf.printf "lease-wrapped : %8.1f ns/cycle\n" wrapped_ns;
  Printf.printf "overhead      : %8.2fx\n" overhead;
  let ttls = [ 2; 4; 8 ] in
  let latencies = List.map (fun ttl -> (ttl, reclaim_latency_steps ~lease_ttl:ttl)) ttls in
  List.iter
    (fun (ttl, steps) ->
      Printf.printf "reclaim ttl=%d : %8d simulated accesses grant -> reclamation\n" ttl
        steps)
    latencies;
  let json =
    Printf.sprintf
      "{\"id\":\"recovery\",\"smoke\":%b,\"bare_ns\":%.1f,\"wrapped_ns\":%.1f,\"overhead\":%.3f,\"reclaim_steps\":{%s}}\n"
      smoke bare_ns wrapped_ns overhead
      (String.concat ","
         (List.map
            (fun (ttl, steps) -> Printf.sprintf "\"ttl%d\":%d" ttl steps)
            latencies))
  in
  write_result "BENCH_recovery.json" json;
  gate ~rebaseline ~id:"recovery" ~key:"overhead" Stats.Bench.At_most ~factor:1.5 overhead

(* ----- name server under churn ----- *)

(* Ping [cells] from one domain each: adjacent plain atomics share
   cache lines, Pad cells do not.  [Gc.full_major] first moves fresh
   cells out of the minor heap to where they live for the run (OCaml 5
   packs promoted 2-word atomics four to a line).  Pass no more cells
   than cores: timesliced domains never ping-pong a line. *)
let hammer_ns ~iters cells =
  let n = Array.length cells in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let ds =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to iters do
              Atomic.incr cells.(i)
            done))
  in
  Array.iter Domain.join ds;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (iters * n)

let run_server_bench ~smoke ~rebaseline () =
  Printf.printf "\n=== name server under churn (4 shards x k=4, 4 client domains)%s ===\n"
    (if smoke then " [smoke]" else "");
  let clients = 4 in
  (* ~16% of closed-loop requests land Busy on a claimed hot name, so
     350k requests/client keeps completed cycles comfortably over 1M *)
  let requests = if smoke then 10_000 else 350_000 in
  let s = 4096 in
  let config =
    Server.default_config ~shards:4 ~k_per_shard:4 ~warm_capacity:2 ~batch:8 ~clients
      ~source_space:s ()
  in
  (* telemetry on: registry shards per client, windowed rollups, and
     the sampler domain polling the server probes — the throughput
     gate below prices the always-on stack, not a stripped server *)
  let registry = Obs.Registry.create () in
  let report =
    Churn.run ~config ~registry
      ~spec:(fun client -> Workload.server_churn ~s ~requests ~seed:42 ~client ())
      ()
  in
  let r = report.Churn.result in
  (* Second run with journey recorders wired on every client: the
     tail-tracing tax must stay within 1.15x of the journeys-off
     throughput (smoke runs are too short for that bound and gate
     loosely), the warm path must stay at 0 shared accesses, and the
     run's own p100 must be explained by a retained journey. *)
  let jbound = 7 * (4 - 1) in
  let jarr =
    Array.init clients (fun _ -> Obs.Journey.create ~seed:42 ~bound:jbound ())
  in
  let jreport =
    Churn.run ~config ~journeys:jarr
      ~spec:(fun client -> Workload.server_churn ~s ~requests ~seed:42 ~client ())
      ()
  in
  let j =
    match jreport.Churn.journeys with Some j -> j | None -> assert false
  in
  let jsnap = Obs.Journey.snapshot j in
  let junexplained = Obs.Journey.unexplained_tail j in
  let jwarm = jreport.Churn.warm_accesses in
  let journey_overhead =
    if jreport.Churn.throughput > 0. then
      report.Churn.throughput /. jreport.Churn.throughput
    else Float.infinity
  in
  let jp999 = Obs.Histogram.percentile (Obs.Journey.hist j) 0.999 in
  let top_stage =
    match Obs.Journey.top_blame_stage jsnap with
    | Some (st, _) -> Obs.Journey.stage_name st
    | None -> "none"
  in
  let iters = if smoke then 200_000 else 1_000_000 in
  let hammers = min clients (Domain.recommended_domain_count ()) in
  let adj_ns = hammer_ns ~iters (Array.init hammers (fun _ -> Atomic.make 0)) in
  let padded = Runtime.Pad.create hammers 0 in
  let pad_ns = hammer_ns ~iters (Runtime.Pad.cells padded) in
  let lat = report.Churn.latency in
  let cold = report.Churn.cold_accesses and warm = report.Churn.warm_accesses in
  let hit_rate =
    if report.Churn.acquires = 0 then 0.
    else float_of_int report.Churn.warm_hits /. float_of_int report.Churn.acquires
  in
  Printf.printf "cycles        : %d across %d domains (%.3f s)\n" report.Churn.cycles
    clients report.Churn.elapsed_s;
  Printf.printf "throughput    : %8.0f acquires/sec\n" report.Churn.throughput;
  Printf.printf "latency ns    : p50=%d p95=%d p99=%d p100=%d\n" lat.p50 lat.p95
    lat.p99 lat.p100;
  Printf.printf "warm hits     : %d (%.1f%% of acquires), %d shared accesses each\n"
    report.Churn.warm_hits (100. *. hit_rate) warm.p100;
  Printf.printf "cold accesses : mean=%.1f p99=%d\n" cold.mean cold.p99;
  Printf.printf "busy / shed   : %d / %d\n" report.Churn.busy report.Churn.shed;
  Printf.printf "sampler ticks : %d (%d series)\n"
    report.Churn.telemetry.Churn.sampler_ticks
    (List.length report.Churn.telemetry.Churn.samples);
  Printf.printf "atomics ns/inc: adjacent=%.1f padded=%.1f (false-sharing probe)\n"
    adj_ns pad_ns;
  Printf.printf "journeys      : %.2fx throughput tax, top blame %s, p999=%d ns%s\n"
    journey_overhead top_stage jp999
    (match junexplained with
    | Some _ -> " (UNEXPLAINED TAIL)"
    | None -> "");
  Printf.printf "violations    : %d   leaked: %d\n" r.violations r.leaked;
  let json =
    Printf.sprintf
      "{\"id\":\"server\",\"smoke\":%b,\"clients\":%d,\"shards\":%d,\"k_per_shard\":%d,\"source_space\":%d,\"requests_per_client\":%d,\"cycles\":%d,\"elapsed_s\":%.3f,\"acquires_per_sec\":%.0f,\"latency_ns\":{\"p50\":%d,\"p95\":%d,\"p99\":%d,\"p100\":%d},\"warm_hits\":%d,\"warm_hit_rate\":%.4f,\"warm_accesses_p100\":%d,\"cold_accesses_mean\":%.1f,\"cold_accesses_p99\":%d,\"busy\":%d,\"shed\":%d,\"drains\":%d,\"drained_releases\":%d,\"false_sharing_ns\":{\"adjacent\":%.1f,\"padded\":%.1f},\"violations\":%d,\"leaked\":%d,\"sampler_ticks\":%d,\"tail_blame\":{\"top_blame_stage\":\"%s\",\"tail_p999_ns\":%d,\"journey_overhead\":%.3f,\"completed\":%d,\"flagged\":%d,\"unexplained\":%b}}\n"
      smoke clients 4 4 s requests report.Churn.cycles report.Churn.elapsed_s
      report.Churn.throughput lat.p50 lat.p95 lat.p99 lat.p100 report.Churn.warm_hits
      hit_rate warm.p100 cold.mean cold.p99 report.Churn.busy report.Churn.shed
      report.Churn.drains report.Churn.drained_releases adj_ns pad_ns r.violations
      r.leaked report.Churn.telemetry.Churn.sampler_ticks top_stage jp999
      journey_overhead jsnap.Obs.Journey.completed jsnap.Obs.Journey.flagged
      (junexplained <> None)
  in
  write_result "BENCH_server.json" json;
  let correct =
    r.violations = 0 && r.leaked = 0 && report.Churn.warm_hits > 0 && warm.p100 = 0
    && cold.mean > 0.
    && jreport.Churn.result.violations = 0
    && jwarm.p100 = 0
    && junexplained = None
  in
  let journey_gate = if smoke then 1.6 else 1.15 in
  let journey_ok = journey_overhead <= journey_gate in
  if not journey_ok then
    Printf.printf "journey gate  : FAILED (%.2fx > %.2fx throughput tax)\n"
      journey_overhead journey_gate;
  if not correct then begin
    print_endline
      "correctness   : FAILED (violation, leak, warm cache inert or taxed, or \
       unexplained tail)";
    false
  end
  else if not journey_ok then false
  else
    (* full runs must hold 0.9x of the telemetry-on baseline; smoke runs
       are too short for a tight throughput bound, and their generous
       0.4x absorbs CI-runner noise — the gate is for order-of-magnitude
       collapses (a lost batch path, an accidental global lock) *)
    gate ~rebaseline ~id:"server" ~key:"acquires_per_sec" Stats.Bench.At_least
      ~factor:(if smoke then 0.4 else 0.9)
      report.Churn.throughput

(* ----- chaos: availability under the fault campaign ----- *)

(* A clean (no-fault) run prices the resilience stack and records the
   availability baseline; the seeded chaos matrix then gates that
   availability holds to within 0.9x of it with every fault plan
   firing.  The warm path must stay at zero shared accesses in the
   clean run — resilience must not tax the fast path. *)
let run_chaos_bench ~smoke ~rebaseline () =
  let seeds =
    List.filteri (fun i _ -> i < if smoke then 4 else 32) Campaign.default_seeds
  in
  let requests = if smoke then 600 else 1500 in
  Printf.printf "\n=== chaos campaign (%d seeds x %d faults, %d requests/client)%s ===\n"
    (List.length seeds)
    (List.length Campaign.chaos_faults)
    requests
    (if smoke then " [smoke]" else "");
  let clean = Campaign.chaos_clean ~requests ~seed:(List.hd seeds) () in
  let oc = clean.Churn.outcomes in
  let clean_avail =
    if oc.Churn.issued = 0 then 0.
    else float_of_int oc.Churn.granted /. float_of_int oc.Churn.issued
  in
  let warm_p100 = clean.Churn.warm_accesses.Obs.Histogram.p100 in
  let clean_unexplained =
    match clean.Churn.journeys with
    | Some j -> Obs.Journey.unexplained_tail j <> None
    | None -> false
  in
  Printf.printf "clean         : %.4f availability, warm p100=%d accesses, tail %s\n"
    clean_avail warm_p100
    (if clean_unexplained then "UNEXPLAINED" else "explained");
  let outcomes = Campaign.run_chaos ~seeds ~requests () in
  let matrix_ok = Campaign.chaos_ok outcomes in
  let avail =
    List.fold_left
      (fun m o -> Float.min m o.Campaign.co_availability)
      clean_avail outcomes
  in
  let deaths =
    List.fold_left (fun s o -> s + o.Campaign.co_deaths) 0 outcomes
  in
  let worst_reclaim =
    List.fold_left (fun m o -> max m o.Campaign.co_reclaim_scans) 0 outcomes
  in
  List.iter
    (fun o ->
      if not o.Campaign.co_ok then
        Printf.printf "cell FAILED   : seed=%#x fault=%s: %s\n" o.Campaign.co_seed
          (Campaign.chaos_fault_name o.Campaign.co_fault)
          o.Campaign.co_msg)
    outcomes;
  Printf.printf "matrix        : %d cells, %d deaths, worst reclaim %d scans -> %s\n"
    (List.length outcomes) deaths worst_reclaim
    (if matrix_ok then "OK" else "FAILED");
  Printf.printf "availability  : %.4f (matrix minimum)\n" avail;
  let json =
    Printf.sprintf
      "{\"id\":\"chaos\",\"smoke\":%b,\"seeds\":%d,\"requests_per_client\":%d,\"cells\":%d,\"matrix_ok\":%b,\"deaths\":%d,\"worst_reclaim_scans\":%d,\"clean_availability\":%.4f,\"warm_accesses_p100\":%d,\"clean_tail_unexplained\":%b,\"chaos_availability\":%.4f}\n"
      smoke (List.length seeds) requests (List.length outcomes) matrix_ok deaths
      worst_reclaim clean_avail warm_p100 clean_unexplained avail
  in
  write_result "BENCH_chaos.json" json;
  if warm_p100 <> 0 then begin
    Printf.printf "warm path     : FAILED (%d shared accesses on a warm grant)\n"
      warm_p100;
    false
  end
  else if clean_unexplained then begin
    print_endline
      "tail          : FAILED (clean-run p100 has no journey behind it)";
    false
  end
  else if not matrix_ok then false
  else gate ~rebaseline ~id:"chaos" ~key:"availability" Stats.Bench.At_least ~factor:0.9 avail

(* ----- cross-backend shootout ----- *)

(* Every registered backend (lib/core/backends.ml), one row each, over
   the fault campaign's seed matrix: names used and shared-access
   distribution from seeded concurrent simulator runs (gated on zero
   uniqueness violations), solo wall-clock on the sequential store,
   and — for backends that can serve arbitrary source names — the
   warm-hit rate and sustained throughput of the real name server
   under Zipf churn.  Writes BENCH_backends.json: one JSON object,
   one line, with a per-backend array plus the two cross-backend
   scalars ("worst_get_accesses", "best_warm_hit_rate") that [observe
   diff] tracks across trend entries. *)

type shootout_row = {
  b_spec : Renaming.Backends.spec;
  b_name_space : int;
  b_names_used : int;
  b_max_name : int;
  b_get_mean : float;
  b_get_max : int;
  b_rel_mean : float;
  b_wall_ns : float;
  b_warm : (float * float) option;  (** hit rate, acquires/sec *)
  b_violations : int;
  b_truncated : int;
}

let run_backends_bench ~smoke () =
  Printf.printf "\n=== cross-backend shootout (k=4, campaign seed matrix)%s ===\n"
    (if smoke then " [smoke]" else "");
  let k = 4 and s = 64 in
  let seeds =
    let all = Campaign.default_seeds in
    if smoke then List.filteri (fun i _ -> i < 8) all else all
  in
  let cycles = if smoke then 2 else 4 in
  let measure_backend (spec : Renaming.Backends.spec) =
    let pids = Renaming.Backends.default_pids ~k ~s in
    let module A = Renaming.Protocol.Any in
    (* --- seeded concurrent runs: names used, access costs, uniqueness --- *)
    let name_space = ref 0 in
    let names_used = ref 0 and max_name = ref (-1) in
    let get_costs = ref [] and rel_costs = ref [] in
    let violations = ref 0 and truncated = ref 0 in
    List.iter
      (fun seed ->
        let layout = Layout.create () in
        let proto = spec.build layout ~k ~s ~participants:pids in
        name_space := A.name_space proto;
        let work = Layout.alloc layout ~name:"work" 0 in
        let body (ops : Store.ops) =
          let c = Store.counter () in
          let counted = Store.counting c ops in
          for _ = 1 to cycles do
            Store.reset c;
            let lease = A.get_name proto counted in
            get_costs := Store.accesses c :: !get_costs;
            Sim.Sched.emit (Sim.Event.Acquired (A.name_of proto lease));
            ignore (ops.read work);
            Sim.Sched.emit (Sim.Event.Released (A.name_of proto lease));
            Store.reset c;
            A.release_name proto counted lease;
            rel_costs := Store.accesses c :: !rel_costs
          done
        in
        let u = Sim.Checks.uniqueness ~name_space:!name_space () in
        let t =
          Sim.Sched.create
            ~monitor:(Sim.Checks.uniqueness_monitor u)
            layout
            (Array.map (fun pid -> (pid, body)) pids)
        in
        (match
           Sim.Sched.run ~max_steps:2_000_000 t (Sim.Sched.random (Sim.Rng.make seed))
         with
        | outcome -> if outcome.Sim.Sched.truncated then incr truncated
        | exception Sim.Model_check.Violation _ -> incr violations);
        names_used := max !names_used (Sim.Checks.names_used u);
        max_name := max !max_name (Sim.Checks.max_name u))
      seeds;
    let mean = function
      | [] -> 0.
      | l ->
          float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
    in
    let maxi l = List.fold_left max 0 l in
    (* --- solo wall clock, sequential store --- *)
    let wall_ns =
      let layout = Layout.create () in
      let proto = spec.build layout ~k ~s ~participants:pids in
      let mem = Store.seq_create layout in
      let ops = Store.seq_ops mem ~pid:pids.(0) in
      let reps = if smoke then 1 else 3 in
      let iters = if smoke then 20_000 else 200_000 in
      measure_direct_ns ~reps ~iters (fun () ->
          let lease = A.get_name proto ops in
          A.release_name proto ops lease)
    in
    (* --- name server under Zipf churn: warm-hit rate --- *)
    let warm =
      if spec.fixed_participants then None
      else begin
        let source_space = 256 in
        let config =
          Server.default_config ~shards:2 ~k_per_shard:k ~warm_capacity:2 ~batch:8
            ~clients:2 ~source_space ()
        in
        let backend layout ~stage:_ ~k =
          spec.build layout ~k ~s:source_space
            ~participants:(Renaming.Backends.default_pids ~k ~s:source_space)
        in
        let requests = if smoke then 2_000 else 20_000 in
        let report =
          Churn.run ~backend ~config
            ~spec:(fun client ->
              Workload.server_churn ~s:source_space ~requests ~seed:42 ~client ())
            ()
        in
        if report.Churn.result.violations > 0 || report.Churn.result.leaked > 0 then begin
          incr violations;
          None
        end
        else
          let rate =
            if report.Churn.acquires = 0 then 0.
            else
              float_of_int report.Churn.warm_hits /. float_of_int report.Churn.acquires
          in
          Some (rate, report.Churn.throughput)
      end
    in
    {
      b_spec = spec;
      b_name_space = !name_space;
      b_names_used = !names_used;
      b_max_name = !max_name;
      b_get_mean = mean !get_costs;
      b_get_max = maxi !get_costs;
      b_rel_mean = mean !rel_costs;
      b_wall_ns = wall_ns;
      b_warm = warm;
      b_violations = !violations;
      b_truncated = !truncated;
    }
  in
  let rows = List.map measure_backend (Renaming.Backends.all ()) in
  let tbl =
    Stats.table
      [
        "backend"; "names (space)"; "max"; "get acc mean"; "get max"; "rel mean";
        "ns/cycle"; "warm hit"; "verdict";
      ]
  in
  List.iter
    (fun r ->
      Stats.add_row tbl
        [
          r.b_spec.name;
          Printf.sprintf "%d (%d)" r.b_names_used r.b_name_space;
          string_of_int r.b_max_name;
          Printf.sprintf "%.1f" r.b_get_mean;
          string_of_int r.b_get_max;
          Printf.sprintf "%.1f" r.b_rel_mean;
          Printf.sprintf "%.0f" r.b_wall_ns;
          (match r.b_warm with
          | Some (rate, _) -> Printf.sprintf "%.1f%%" (100. *. rate)
          | None -> "n/a");
          (if r.b_violations = 0 && r.b_truncated = 0 then "OK" else "FAILED");
        ])
    rows;
  Stats.print tbl;
  let worst_get =
    List.fold_left (fun acc r -> max acc r.b_get_max) 0 rows
  in
  let best_warm =
    List.fold_left
      (fun acc r -> match r.b_warm with Some (rate, _) -> Float.max acc rate | None -> acc)
      0. rows
  in
  let row_json r =
    Printf.sprintf
      "{\"backend\":%S,\"summary\":%S,\"read_write_only\":%b,\"name_space\":%d,\"names_used\":%d,\"max_name\":%d,\"get_accesses\":{\"mean\":%.2f,\"max\":%d},\"release_accesses_mean\":%.2f,\"wall_ns\":%.1f,%s\"violations\":%d,\"truncated\":%d}"
      r.b_spec.name r.b_spec.summary r.b_spec.read_write_only r.b_name_space
      r.b_names_used r.b_max_name r.b_get_mean r.b_get_max r.b_rel_mean r.b_wall_ns
      (match r.b_warm with
      | Some (rate, tput) ->
          Printf.sprintf "\"warm_hit_rate\":%.4f,\"server_acquires_per_sec\":%.0f," rate
            tput
      | None -> "\"warm_hit_rate\":null,")
      r.b_violations r.b_truncated
  in
  let json =
    Printf.sprintf
      "{\"id\":\"backends\",\"smoke\":%b,\"k\":%d,\"s\":%d,\"seeds\":%d,\"cycles\":%d,\"worst_get_accesses\":%d,\"best_warm_hit_rate\":%.4f,\"backends\":[%s]}\n"
      smoke k s (List.length seeds) cycles worst_get best_warm
      (String.concat "," (List.map row_json rows))
  in
  write_result "BENCH_backends.json" json;
  let bad =
    List.filter (fun r -> r.b_violations > 0 || r.b_truncated > 0) rows
  in
  List.iter
    (fun r ->
      Printf.printf "uniqueness gate: %s FAILED (%d violations, %d truncated)\n"
        r.b_spec.name r.b_violations r.b_truncated)
    bad;
  bad = []

(* ----- trend: both gated benches, appended to the history log ----- *)

(* Every gated run of [bench trend] appends one JSON line (timestamp +
   the BENCH_obs.json and BENCH_server.json payloads it just wrote) to
   BENCH_history.jsonl.  [observe diff] in the CLI compares the last
   two entries and fails on regression beyond tolerance — the history
   file is the cross-run memory the per-run gates don't have. *)
let history_path = at "BENCH_history.jsonl"

let run_trend_bench ~smoke ~rebaseline () =
  let obs_ok = run_obs_bench ~smoke ~rebaseline () in
  let server_ok = run_server_bench ~smoke ~rebaseline () in
  (* shootout always runs in smoke quota under trend: the tracked keys
     (worst accesses, warm-hit rate) are seed-deterministic counts and
     rates, not wall-clock, so the short quota does not blur them *)
  let backends_ok = run_backends_bench ~smoke:true () in
  (* chaos likewise runs in smoke quota under trend: the tracked key
     (matrix-minimum availability) is a rate over a seeded fault
     matrix, not wall-clock, and four seeds bound the tail well enough
     for the cross-run diff *)
  let chaos_ok = run_chaos_bench ~smoke:true ~rebaseline () in
  let entry key name =
    match Option.map String.trim (Stats.Bench.read_file (at name)) with
    | Some line when line <> "" -> Printf.sprintf "%S:%s" key line
    | Some _ | None -> Printf.sprintf "%S:null" key
  in
  let line =
    Printf.sprintf "{\"ts\":%.0f,%s,%s,%s,%s}\n" (Unix.time ())
      (entry "obs" "BENCH_obs.json")
      (entry "server" "BENCH_server.json")
      (entry "backends" "BENCH_backends.json")
      (entry "chaos" "BENCH_chaos.json")
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
  output_string oc line;
  close_out oc;
  Printf.printf
    "\nappended trend entry to %s (obs %s, server %s, backends %s, chaos %s)\n"
    history_path
    (if obs_ok then "OK" else "FAILED")
    (if server_ok then "OK" else "FAILED")
    (if backends_ok then "OK" else "FAILED")
    (if chaos_ok then "OK" else "FAILED");
  obs_ok && server_ok && backends_ok && chaos_ok

(* ----- driver ----- *)

let write_csvs (r : Experiments.report) =
  let dir = at "results" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iteri
    (fun i (_, tbl) ->
      Stats.Bench.write_file
        (Filename.concat dir (Printf.sprintf "%s_%d.csv" r.id i))
        (Stats.to_csv tbl ^ "\n"))
    r.tables

let () =
  (* Every minor collection in a multi-domain run (sampler, churn
     clients) is a cross-domain stop-the-world rendezvous; an 8M-word
     nursery keeps that rendezvous rate off the measured paths.  The
     same sizing is the deployment guidance in EXPERIMENTS.md. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  let csv = List.mem "--csv" args in
  let smoke = List.mem "--smoke" args in
  let rebaseline = List.mem "--rebaseline" args in
  let args =
    List.filter (fun a -> not (List.mem a [ "--csv"; "--smoke"; "--rebaseline" ])) args
  in
  let wanted = if args = [] then List.map (fun (id, _, _) -> id) Experiments.all else args in
  let failures = ref 0 in
  let reports = ref [] in
  List.iter
    (fun id ->
      if String.equal id "wall" then run_wall_clock ()
      else if String.equal id "modelcheck" then run_modelcheck_bench ()
      else if String.equal id "obs" then begin
        if not (run_obs_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "trace" then begin
        if not (run_trace_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "recovery" then begin
        if not (run_recovery_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "server" then begin
        if not (run_server_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "chaos" then begin
        if not (run_chaos_bench ~smoke ~rebaseline ()) then incr failures
      end
      else if String.equal id "shootout" then begin
        if not (run_backends_bench ~smoke ()) then incr failures
      end
      else if String.equal id "trend" then begin
        if not (run_trend_bench ~smoke ~rebaseline ()) then incr failures
      end
      else
        match Experiments.find id with
        | None ->
            Printf.eprintf "unknown experiment %S (known: e1..e12, wall, modelcheck, obs, trace, recovery, server, chaos, shootout, trend)\n"
              id;
            incr failures
        | Some run ->
            let r = run () in
            Format.printf "%a" Experiments.pp_report r;
            if csv then write_csvs r;
            reports := r :: !reports;
            if not r.ok then incr failures)
    wanted;
  if args = [] then begin
    run_wall_clock ();
    run_modelcheck_bench ();
    if not (run_obs_bench ~smoke ~rebaseline ()) then incr failures;
    if not (run_trace_bench ~smoke ~rebaseline ()) then incr failures;
    if not (run_recovery_bench ~smoke ~rebaseline ()) then incr failures;
    if not (run_server_bench ~smoke ~rebaseline ()) then incr failures
  end;
  (match !reports with
  | [] -> ()
  | rs ->
      print_endline "\n=== Summary ===";
      let tbl = Stats.table [ "experiment"; "title"; "result" ] in
      List.iter
        (fun (r : Experiments.report) ->
          Stats.add_row tbl [ r.id; r.title; (if r.ok then "OK" else "FAILED") ])
        (List.rev rs);
      Stats.print tbl);
  if !failures > 0 then exit 1
