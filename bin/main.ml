(* renaming-cli: drive the protocols from the command line.

   Subcommands:
     simulate    acquire/release cycles under a seeded random schedule
     modelcheck  bounded-exhaustive interleaving exploration
     params      show chosen FILTER parameters and pipeline stages
     experiment  run reproduction experiments (e1..e12)
     trace       print an access-by-access execution trace
     domains     run a protocol across real OS domains
     observe     run instrumented and export the metrics snapshot
     faults      adversarial fault campaigns (discrimination matrix)
     recover     run under the crash-recovery wrapper (leases, reclamation)
     server      the sharded name server under heavy churn (real domains)

   simulate/modelcheck/experiment additionally take --metrics FILE to
   write the run's lib/obs snapshot as JSON. *)

open Cmdliner
open Shared_mem
module Split = Renaming.Split
module Filter = Renaming.Filter
module Ma = Renaming.Ma
module Pipeline = Renaming.Pipeline
module Params = Renaming.Params

type packed_setup =
  | Setup : {
      proto : (module Renaming.Protocol.S with type t = 'a);
      inst : 'a;
      label : string;
    }
      -> packed_setup

(* Build the requested protocol over a fresh layout; returns the pids
   the workload should run with. *)
let build name layout ~k ~s ~procs =
  let pids = Array.init procs (fun i -> ((i * (s / max 1 procs)) + (s / 7)) mod s) in
  match name with
  | "split" ->
      let sp = Split.create layout ~k in
      (Setup { proto = (module Split); inst = sp; label = "split" }, pids)
  | "filter" ->
      let (p : Params.filter_params) = Params.choose ~k ~s in
      let f = Filter.create layout { k; d = p.d; z = p.z; s; participants = pids } in
      ( Setup
          {
            proto = (module Filter);
            inst = f;
            label = Printf.sprintf "filter (d=%d z=%d)" p.d p.z;
          },
        pids )
  | "ma" ->
      let m = Ma.create layout ~k ~s in
      (Setup { proto = (module Ma); inst = m; label = "ma" }, pids)
  | "tas" ->
      let t = Renaming.Tas_baseline.create layout ~k in
      (Setup { proto = (module Renaming.Tas_baseline); inst = t; label = "tas (k names)" }, pids)
  | "level" ->
      let la = Renaming.Level_array.create layout ~k in
      ( Setup
          {
            proto = (module Renaming.Level_array);
            inst = la;
            label =
              Printf.sprintf "level (%d levels, %d names)"
                (Renaming.Level_array.levels la)
                (Renaming.Level_array.name_space la);
          },
        pids )
  | "compact" ->
      let cs = Renaming.Compact_split.create layout ~k in
      ( Setup
          {
            proto = (module Renaming.Compact_split);
            inst = cs;
            label =
              Printf.sprintf "compact (%d cells, %d names)"
                (Renaming.Compact_split.cells cs)
                (Renaming.Compact_split.name_space cs);
          },
        pids )
  | "pipeline" ->
      let p = Pipeline.create layout ~k ~s ~participants:pids in
      let label =
        Printf.sprintf "pipeline (%s)"
          (String.concat "+" (List.map (fun (st : Pipeline.stage_info) -> st.kind)
               (Pipeline.stages p)))
      in
      (Setup { proto = (module Pipeline); inst = p; label }, pids)
  | "costly" ->
      (* test-only: the cost mutant from lib/core/mutations — correct
         names, but every GetName blows the MA access bound.  Reached
         via `observe --mutant`, never from the protocol enum. *)
      let m = Renaming.Mutations.Mutant_costly.create layout
          Renaming.Mutations.Mutant_costly.Quadratic_rescan ~k ~s in
      ( Setup
          {
            proto = (module Renaming.Mutations.Mutant_costly);
            inst = m;
            label = "ma (costly mutant)";
          },
        pids )
  | other -> failwith (Printf.sprintf "unknown protocol %S" other)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  if String.length s = 0 || s.[String.length s - 1] <> '\n' then output_char oc '\n';
  close_out oc

(* Worst-case GetName access bound the snapshot is checked against
   (mirrors Params.plan's per-stage formulas). *)
let bound_for protocol ~k ~s =
  match protocol with
  | "split" -> Some ("Theorem 2", 7 * (k - 1))
  | "filter" ->
      let (p : Params.filter_params) = Params.choose ~k ~s in
      let levels = Numeric.Intmath.ceil_log2 (max s 2) in
      let set_size = 2 * p.d * (k - 1) in
      Some ("Theorem 10", (4 * set_size * levels) + (6 * p.d * (k - 1) * levels))
  | "ma" -> Some ("Moir-Anderson", (k * (s + 4)) + 1)
  | "pipeline" -> Some ("Theorem 11 plan", Params.plan_worst_get (Params.plan ~k ~s))
  | "compact" ->
      (* every stage costs at most 7 accesses per cell on the solo
         path; worst case walks all k-1 stages plus side descents *)
      Some ("compact cascade", 7 * k * (k - 1) / 2)
  | _ -> None

(* ----- simulate ----- *)

let simulate protocol k s procs cycles seed crash metrics =
  let layout = Layout.create () in
  let Setup { proto = (module P); inst; label }, pids = build protocol layout ~k ~s ~procs in
  let work = Layout.alloc layout ~name:"work" 0 in
  let registry = Obs.Registry.create () in
  let obs =
    match metrics with
    | None -> None
    | Some _ ->
        let shard =
          Obs.Registry.shard ~span_capacity:(max 4096 (2 * cycles * procs)) registry
        in
        Some (Sim.Observe.create shard)
  in
  let get_costs = ref [] and rel_costs = ref [] in
  let body (ops : Store.ops) =
    let c = Store.counter () in
    let counted = Store.counting c ops in
    for _ = 1 to cycles do
      Store.reset c;
      Sim.Observe.op_begin "get";
      let lease = P.get_name inst counted in
      get_costs := Store.accesses c :: !get_costs;
      Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
      ignore (ops.read work);
      Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
      Store.reset c;
      Sim.Observe.op_begin "release";
      P.release_name inst counted lease;
      rel_costs := Store.accesses c :: !rel_costs
    done
  in
  let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
  let monitor =
    Sim.Checks.combine
      (Sim.Checks.uniqueness_monitor u
      :: (match obs with Some o -> [ Sim.Observe.monitor o ] | None -> []))
  in
  let t = Sim.Sched.create ~monitor layout (Array.map (fun pid -> (pid, body)) pids) in
  let rng = Sim.Rng.make seed in
  let strategy st en =
    if crash && not (Sim.Sched.finished st 0) then
      Array.iter
        (fun i -> if i > 0 && Sim.Sched.steps_of st i >= (4 * i) + 2 then Sim.Sched.pause st i)
        en;
    let en = match Sim.Sched.enabled st with [||] -> en | e -> e in
    en.(Sim.Rng.int rng (Array.length en))
  in
  let outcome = Sim.Sched.run ~max_steps:50_000_000 t strategy in
  Fmt.pr "protocol       : %s@." label;
  Fmt.pr "source space   : %d, destination space: %d@." s (P.name_space inst);
  Fmt.pr "registers      : %d@." (Layout.size layout);
  Fmt.pr "processes      : %d (pids %a)%s@." procs
    Fmt.(array ~sep:comma int)
    pids
    (if crash then ", all but pid[0] crashed mid-run" else "");
  Fmt.pr "completed      : %d/%d, total accesses: %d@."
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 outcome.completed)
    procs outcome.total;
  Fmt.pr "distinct names : %d (max concurrent %d, largest %d)@." (Sim.Checks.names_used u)
    (Sim.Checks.max_concurrent u) (Sim.Checks.max_name u);
  (match !get_costs with
  | [] -> ()
  | costs ->
      let s = Stats.summarize_ints costs in
      Fmt.pr "GetName cost   : mean %.1f, p95 %.0f, max %.0f accesses@." s.mean s.p95 s.max);
  (match !rel_costs with
  | [] -> ()
  | costs ->
      let s = Stats.summarize_ints costs in
      Fmt.pr "ReleaseName    : mean %.1f, max %.0f accesses@." s.mean s.max);
  Fmt.pr "uniqueness     : OK (monitor raised no violation)@.";
  (match (metrics, obs) with
  | Some file, Some o ->
      Sim.Observe.finalize o;
      write_file file (Obs.Export.to_json (Obs.Registry.snapshot registry));
      Fmt.pr "metrics        : wrote %s@." file
  | _ -> ());
  0

(* ----- modelcheck ----- *)

let modelcheck protocol k s procs cycles max_paths shortest por cache_bound stats json
    metrics =
  (* [markers] adds the span-begin notes (and [extra] the monitors) for
     metrics replays only: the checked bodies must stay marker-free so
     partial-order reduction sees as few event-emitting steps as
     possible, and a schedule found here replays identically against
     the marker-bearing bodies (markers cost no shared access). *)
  let mk_builder ?(markers = false) ?(extra = []) () : Sim.Model_check.config =
    let layout = Layout.create () in
    let Setup { proto = (module P); inst; _ }, pids = build protocol layout ~k ~s ~procs in
    let work = Layout.alloc layout ~name:"work" 0 in
    let body (ops : Store.ops) =
      for _ = 1 to cycles do
        if markers then Sim.Observe.op_begin "get";
        let lease = P.get_name inst ops in
        Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
        ignore (ops.read work);
        Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
        if markers then Sim.Observe.op_begin "release";
        P.release_name inst ops lease
      done
    in
    let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
    {
      layout;
      procs = Array.map (fun pid -> (pid, body)) pids;
      monitor = Sim.Checks.combine (Sim.Checks.uniqueness_monitor u :: extra);
    }
  in
  let builder () = mk_builder () in
  (* Exploration counters plus a profile of one schedule — the
     violating one when found, else the serialized first-enabled run —
     replayed under the Observe monitor. *)
  let write_metrics file ~schedule ~(rep : Sim.Model_check.report option) =
    let registry = Obs.Registry.create () in
    let sh = Obs.Registry.shard registry in
    (match rep with
    | Some { outcome = r; stats = st } ->
        Obs.Registry.count sh "modelcheck.paths" r.paths;
        Obs.Registry.count sh "modelcheck.states" st.states;
        Obs.Registry.count sh "modelcheck.cache_hits" st.cache_hits;
        Obs.Registry.count sh "modelcheck.pruned.sleep" st.pruned_by_sleep;
        Obs.Registry.count sh "modelcheck.pruned.cache" st.pruned_by_cache;
        Obs.Registry.count sh "modelcheck.truncated_paths" st.truncated_paths;
        Obs.Registry.count sh "modelcheck.violations"
          (match r.violation with Some _ -> 1 | None -> 0);
        Obs.Gauge.observe (Obs.Registry.gauge sh "modelcheck.max_depth") st.max_depth
    | None -> ());
    let obs = Sim.Observe.create sh in
    (match
       Sim.Model_check.replay
         (mk_builder ~markers:true ~extra:[ Sim.Observe.monitor obs ])
         schedule
     with
    | Ok () | Error _ -> ());
    Sim.Observe.finalize obs;
    write_file file (Obs.Export.to_json (Obs.Registry.snapshot registry));
    Fmt.pr "wrote metrics snapshot to %s@." file
  in
  if shortest then begin
    match Sim.Model_check.shortest_violation ~max_paths_per_depth:max_paths builder with
    | None ->
        Fmt.pr "no violation within the depth/path budget@.";
        Option.iter (fun f -> write_metrics f ~schedule:[] ~rep:None) metrics;
        0
    | Some v ->
        Fmt.pr "MINIMAL VIOLATION (%d steps): %s@.schedule: %a@." (List.length v.schedule)
          v.message
          Fmt.(list ~sep:semi int)
          v.schedule;
        Option.iter (fun f -> write_metrics f ~schedule:v.schedule ~rep:None) metrics;
        1
  end
  else begin
    let options =
      { Sim.Model_check.por; cache_bound; max_steps = 50_000; max_paths }
    in
    let rep = Sim.Model_check.check ~options builder in
    let r = rep.outcome in
    Fmt.pr "explored %d interleavings (%s)@." r.paths
      (if r.complete then "complete" else "bounded");
    if stats then begin
      let st = rep.stats in
      Fmt.pr "states %d, cache hits %d, pruned: %d by sleep sets, %d by cache@."
        st.states st.cache_hits st.pruned_by_sleep st.pruned_by_cache;
      Fmt.pr "max depth %d, truncated paths %d, %.2fs (%.0f paths/s)@." st.max_depth
        st.truncated_paths st.elapsed_s
        (if st.elapsed_s > 0. then float_of_int r.paths /. st.elapsed_s else 0.)
    end;
    if json then
      print_endline
        (Sim.Model_check.report_json
           ~label:(Printf.sprintf "%s_k%d_p%d_c%d" protocol k procs cycles)
           rep);
    let schedule = match r.violation with Some v -> v.schedule | None -> [] in
    Option.iter (fun f -> write_metrics f ~schedule ~rep:(Some rep)) metrics;
    match r.violation with
    | None ->
        Fmt.pr "no uniqueness violation found@.";
        0
    | Some v ->
        Fmt.pr "VIOLATION: %s@.schedule: %a@." v.message Fmt.(list ~sep:semi int) v.schedule;
        1
  end

(* ----- params ----- *)

let params k s =
  let (p : Params.filter_params) = Params.choose ~k ~s in
  Fmt.pr "single FILTER instance: d=%d z=%d -> D=%d names@." p.d p.z (Params.name_space ~k p);
  let layout = Layout.create () in
  let pl = Pipeline.create layout ~k ~s ~participants:[||] in
  Fmt.pr "Theorem 11 pipeline (%d registers):@.%a" (Layout.size layout) Pipeline.pp_stages pl;
  Fmt.pr "final name space: %d = k(k+1)/2? %b@." (Pipeline.name_space pl)
    (Pipeline.name_space pl = k * (k + 1) / 2);
  let plan = Params.plan ~k ~s in
  Fmt.pr "@.predicted worst-case GetName (Params.plan):@.";
  List.iter
    (fun (st : Params.stage_plan) ->
      Fmt.pr "  %-6s <= %6d accesses, <= %8d registers@." st.stage st.worst_get st.registers)
    plan;
  Fmt.pr "  total  <= %6d accesses@." (Params.plan_worst_get plan);
  0

(* ----- experiment ----- *)

let experiment ids metrics =
  let ids = if ids = [] then List.map (fun (id, _, _) -> id) Experiments.all else ids in
  let registry = Option.map (fun _ -> Obs.Registry.create ()) metrics in
  Experiments.set_metrics registry;
  let failures = ref 0 in
  List.iter
    (fun id ->
      match Experiments.find id with
      | None ->
          Fmt.epr "unknown experiment %S; known:@." id;
          List.iter (fun (i, t, _) -> Fmt.epr "  %-4s %s@." i t) Experiments.all;
          incr failures
      | Some run ->
          let r = run () in
          Fmt.pr "%a" Experiments.pp_report r;
          if not r.ok then incr failures)
    ids;
  Experiments.set_metrics None;
  (match (metrics, registry) with
  | Some file, Some r ->
      write_file file (Obs.Export.to_json (Obs.Registry.snapshot r));
      Fmt.pr "wrote metrics snapshot to %s@." file
  | _ -> ());
  if !failures > 0 then 1 else 0

(* ----- domains ----- *)

let domains protocol k s cycles =
  let layout = Layout.create () in
  let Setup { proto = (module P); inst; label }, pids =
    build protocol layout ~k ~s ~procs:k
  in
  Fmt.pr "running %s across %d OS domains, %d cycles each...@." label k cycles;
  let r =
    Runtime.Domain_runner.run (module P) inst ~layout ~pids ~cycles
      ~name_space:(P.name_space inst)
  in
  Fmt.pr "cycles done    : %a@." Fmt.(array ~sep:comma int) r.cycles_done;
  Fmt.pr "violations     : %d@." r.violations;
  (match r.first_violation with
  | Some m -> Fmt.pr "first violation: %s@." m
  | None -> ());
  Fmt.pr "max concurrent : %d@." r.max_concurrent;
  let contended = List.filter (fun (_, m) -> m > 1) r.max_concurrent_by_name in
  if contended <> [] then
    Fmt.pr "double-held    : %a@."
      Fmt.(list ~sep:comma (pair ~sep:(any "x") int int))
      (List.map (fun (n, m) -> (n, m)) contended);
  if r.violations = 0 then 0 else 1

(* ----- observe ----- *)

(* One fully instrumented run — simulator by default, real domains with
   --domains N — exported through the chosen lib/obs format.  The
   snapshot is additionally checked against the paper's worst-case
   GetName bound; stdout carries only the exported document (human
   notes go to stderr). *)
let observe protocol k s procs cycles seed ndomains format metrics_file mutant =
  (* --mutant swaps in the cost mutant (MA padded past its bound) while
     keeping the MA bound check — the test for the failure path *)
  let bound_protocol = if mutant then "ma" else protocol in
  let protocol = if mutant then "costly" else protocol in
  let registry = Obs.Registry.create () in
  let layout = Layout.create () in
  let run_ok, label =
    if ndomains > 0 then begin
      let Setup { proto = (module P); inst; label }, pids =
        build protocol layout ~k ~s ~procs:ndomains
      in
      let r =
        Runtime.Domain_runner.run ~registry (module P) inst ~layout ~pids ~cycles
          ~name_space:(P.name_space inst)
      in
      (match r.first_violation with
      | Some m -> Fmt.epr "violation: %s@." m
      | None -> ());
      (r.violations = 0, Printf.sprintf "%s across %d OS domains" label ndomains)
    end
    else begin
      let procs = if procs <= 0 then k else procs in
      let Setup { proto = (module P); inst; label }, pids =
        build protocol layout ~k ~s ~procs
      in
      let work = Layout.alloc layout ~name:"work" 0 in
      let shard =
        Obs.Registry.shard ~span_capacity:(max 4096 (2 * cycles * procs)) registry
      in
      let obs = Sim.Observe.create shard in
      let body (ops : Store.ops) =
        for _ = 1 to cycles do
          Sim.Observe.op_begin "get";
          let lease = P.get_name inst ops in
          Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
          ignore (ops.read work);
          Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
          Sim.Observe.op_begin "release";
          P.release_name inst ops lease
        done
      in
      let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
      let t =
        Sim.Sched.create
          ~monitor:
            (Sim.Checks.combine
               [ Sim.Checks.uniqueness_monitor u; Sim.Observe.monitor obs ])
          layout
          (Array.map (fun pid -> (pid, body)) pids)
      in
      let outcome =
        Sim.Sched.run ~max_steps:50_000_000 t (Sim.Sched.random (Sim.Rng.make seed))
      in
      Sim.Observe.finalize obs;
      (not outcome.truncated, Printf.sprintf "%s on the simulator" label)
    end
  in
  let snap = Obs.Registry.snapshot registry in
  let bound_ok =
    match bound_for bound_protocol ~k ~s with
    | None -> true
    | Some (thm, bound) -> (
        match List.assoc_opt "op.get.accesses" snap.histograms with
        | None -> true
        | Some (h : Obs.Histogram.snap) ->
            let ok = h.p100 <= bound in
            Fmt.epr "%s bound: worst observed GetName %d accesses <= %d predicted: %s@."
              thm h.p100 bound
              (if ok then "OK" else "VIOLATED");
            ok)
  in
  Fmt.epr "%s: %d shard(s), %d span(s)@." label snap.shards (List.length snap.spans);
  let doc =
    match format with
    | "json" -> Obs.Export.to_json snap
    | "prometheus" -> Obs.Export.to_prometheus snap
    | _ -> Obs.Export.to_text snap
  in
  print_string doc;
  if String.length doc = 0 || doc.[String.length doc - 1] <> '\n' then print_newline ();
  (match metrics_file with
  | Some f -> write_file f (Obs.Export.to_json snap)
  | None -> ());
  if run_ok && bound_ok then 0 else 1

(* ----- observe diff ----- *)

(* Compare the last two entries of the bench trend log: the obs
   overhead ratio may not grow, and server throughput may not drop,
   beyond --tolerance percent.  Fewer than two entries is a clean
   exit — the first run of a fresh history cannot regress. *)
let observe_diff history tolerance =
  match open_in history with
  | exception Sys_error _ ->
      Fmt.pr "no %s; nothing to diff@." history;
      0
  | ic ->
      let lines = ref [] in
      (try
         while true do
           let l = String.trim (input_line ic) in
           if l <> "" then lines := l :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      (match !lines with
      | last :: prev :: _ ->
          let check label ~worse_if_over key =
            match (Stats.Bench.float_key prev key, Stats.Bench.float_key last key) with
            | Some p, Some l ->
                let slack = tolerance /. 100. in
                let ok =
                  if worse_if_over then l <= p *. (1. +. slack)
                  else l >= p *. (1. -. slack)
                in
                Fmt.pr "%-20s %12.3f -> %12.3f (tolerance %g%%) %s@." label p l
                  tolerance
                  (if ok then "OK" else "REGRESSED");
                ok
            | _ ->
                Fmt.pr "%-20s absent from one entry; skipped@." label;
                true
          in
          let obs_ok =
            check "obs overhead" ~worse_if_over:true "overhead"
          in
          let server_ok =
            check "server acquires/sec" ~worse_if_over:false "acquires_per_sec"
          in
          (* shootout keys: the cross-backend worst access count may
             not grow, the warm-serving rate may not collapse *)
          let backends_ok =
            check "shootout worst accesses" ~worse_if_over:true
              "worst_get_accesses"
            && check "shootout warm-hit rate" ~worse_if_over:false
                 "best_warm_hit_rate"
          in
          (* chaos key: matrix-minimum availability under the fault
             campaign may not collapse (absent from pre-chaos entries) *)
          let chaos_ok =
            check "chaos availability" ~worse_if_over:false
              "chaos_availability"
          in
          (* journey key: the extreme tail may not stretch (absent from
             pre-journey entries — skipped cleanly) *)
          let tail_ok =
            check "tail p999 ns" ~worse_if_over:true "tail_p999_ns"
          in
          (match
             (Stats.Bench.string_key prev "top_blame_stage",
              Stats.Bench.string_key last "top_blame_stage")
           with
          | Some p, Some l when p <> l ->
              Fmt.pr "%-20s %12s -> %12s (informational)@." "top blame stage" p l
          | Some _, Some _ -> ()
          | _ -> Fmt.pr "%-20s absent from one entry; skipped@." "top blame stage");
          if obs_ok && server_ok && backends_ok && chaos_ok && tail_ok then 0
          else 1
      | _ ->
          Fmt.pr "fewer than 2 entries in %s; nothing to diff@." history;
          0)

(* ----- observe tail ----- *)

(* Run the name server under churn with journey recorders wired and
   print the slowest requests as per-stage waterfalls — "why was the
   tail slow" as a first-class command.  Exits 1 when the recorder
   cannot explain an extreme tail (the same guard [server --journeys]
   enforces), 2 on a bad --plan. *)
let observe_tail shards k s clients requests theta seed plan top json out =
  match
    match plan with
    | None -> Ok []
    | Some p -> Result.map Churn.of_plan (Sim.Faults.of_string p)
  with
  | Error e ->
      Fmt.epr "bad --plan: %s@." e;
      2
  | Ok faults ->
      let config =
        Server.default_config ~shards ~k_per_shard:k ~warm_capacity:2 ~batch:8
          ~clients ~source_space:s ()
      in
      let bound =
        match bound_for "split" ~k ~s with Some (_, b) -> b | None -> 0
      in
      let jarr =
        Array.init clients (fun _ -> Obs.Journey.create ~seed ~bound ())
      in
      let report =
        Churn.run ~journeys:jarr ~faults ~config
          ~spec:(fun client ->
            Workload.server_churn ~theta ~rate:0. ~think:0 ~s ~requests ~seed
              ~client ())
          ()
      in
      let j =
        match report.Churn.journeys with Some j -> j | None -> assert false
      in
      let s = Obs.Journey.snapshot j in
      let unexplained = Obs.Journey.unexplained_tail j in
      let views = Obs.Journey.top ~n:top j in
      let p999 = Obs.Histogram.percentile (Obs.Journey.hist j) 0.999 in
      (match out with
      | Some f -> write_file f (Obs.Journey.to_string j)
      | None -> ());
      if json then begin
        let view_json (v : Obs.Journey.view) =
          let dwells =
            Array.to_list v.Obs.Journey.dwells
            |> List.mapi (fun i ns ->
                   if ns > 0 then
                     Some
                       (Printf.sprintf "%S:%d"
                          (Obs.Journey.stage_name Obs.Journey.stages.(i))
                          ns)
                   else None)
            |> List.filter_map Fun.id
          in
          Printf.sprintf
            {|{"id":%d,"total_ns":%d,"retries":%d,"accesses":%d,"warm":%b,"over_bound":%b,"dwells_ns":{%s}}|}
            v.Obs.Journey.id v.Obs.Journey.total_ns v.Obs.Journey.retries
            v.Obs.Journey.accesses v.Obs.Journey.warm v.Obs.Journey.over_bound
            (String.concat "," dwells)
        in
        let blame =
          String.concat ","
            (Array.to_list
               (Array.mapi
                  (fun i ns ->
                    Printf.sprintf "%S:%d"
                      (Obs.Journey.stage_name Obs.Journey.stages.(i))
                      ns)
                  s.Obs.Journey.blame))
        in
        Fmt.pr
          {|{"schema":"renaming.journeys/v1","completed":%d,"flagged":%d,"access_bound":%d,"top_blame_stage":%S,"tail_p999_ns":%d,"unexplained":%b,"blame_ns":{%s},"top":[%s]}@.|}
          s.Obs.Journey.completed s.Obs.Journey.flagged bound
          (match Obs.Journey.top_blame_stage s with
          | Some (st, _) -> Obs.Journey.stage_name st
          | None -> "none")
          p999
          (unexplained <> None)
          blame
          (String.concat "," (List.map view_json views))
      end
      else begin
        Fmt.pr "journeys       : %d completed, %d over the %d-access bound@."
          s.Obs.Journey.completed s.Obs.Journey.flagged bound;
        (match Obs.Journey.top_blame_stage s with
        | Some (st, ns) ->
            Fmt.pr "top blame      : %s (%d ns all-time)@."
              (Obs.Journey.stage_name st) ns
        | None -> ());
        Fmt.pr "tail p999 ns   : %d@." p999;
        List.iter (fun v -> Fmt.pr "%a" Obs.Journey.pp_waterfall v) views;
        match unexplained with
        | Some (p100, p99) ->
            Fmt.pr "UNEXPLAINED TAIL: p100=%d ns > 100 x p99=%d ns with no \
                    journey exemplar@."
              p100 p99
        | None -> Fmt.pr "tail verdict   : OK (every extreme tail has a journey)@."
      end;
      if unexplained <> None then 1 else 0

(* ----- faults ----- *)

(* Campaign mode (default): run the fixed seed matrix against every
   target (or --target NAME), assert discrimination — mutants die,
   correct protocols survive.  Reproduction mode (--plan PLAN): one
   deterministic run of the plan under --seed, optionally --shrink to a
   minimal replaying schedule.  With --json the human table moves to
   stderr and stdout carries only the JSON report. *)
let faults target_name plan_str seed matrix shrink json =
  let out = if json then Fmt.epr else Fmt.pr in
  let list_targets ppf () =
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:comma string)
      (List.map (fun (t : Campaign.target) -> t.name) (Campaign.targets ()))
  in
  let shrunk tg (f : Campaign.finding) =
    match Campaign.shrink tg f with
    | Some v ->
        out "shrunk to %d choices: %s@.schedule: %a@." (List.length v.schedule)
          v.message
          Fmt.(list ~sep:semi int)
          v.schedule
    | None -> out "shrink: not a replayable monitor violation (timeout finding)@."
  in
  match plan_str with
  | Some plan_s -> (
      (* reproduction mode *)
      match Option.map Campaign.find target_name with
      | None | Some None ->
          Fmt.epr "--plan needs --target NAME; targets: %a@." list_targets ();
          2
      | Some (Some tg) -> (
          match Sim.Faults.of_string plan_s with
          | Error e ->
              Fmt.epr "bad --plan: %s@." e;
              2
          | Ok plan -> (
              match Campaign.run_once tg plan ~sched_seed:seed with
              | None ->
                  out "clean: %s survived plan %S under schedule seed %d@." tg.name
                    (Sim.Faults.to_string plan) seed;
                  0
              | Some (message, schedule) ->
                  out "VIOLATION: %s@." message;
                  out "target  : %s@.plan    : %s@.seed    : %d@.schedule: %a@."
                    tg.name
                    (Sim.Faults.to_string plan)
                    seed
                    Fmt.(list ~sep:semi int)
                    schedule;
                  let f : Campaign.finding =
                    { seed; sched_seed = seed; plan; message; schedule }
                  in
                  if shrink then shrunk tg f;
                  1)))
  | None -> (
      (* campaign mode *)
      let seeds = List.filteri (fun i _ -> i < matrix) Campaign.default_seeds in
      let targets =
        match target_name with
        | None -> Ok (Campaign.targets ())
        | Some n -> (
            match Campaign.find n with
            | Some t -> Ok [ t ]
            | None -> Error n)
      in
      match targets with
      | Error n ->
          Fmt.epr "unknown target %S; targets: %a@." n list_targets ();
          2
      | Ok targets ->
          let outcomes = List.map (Campaign.run_target ~seeds) targets in
          List.iter (fun o -> out "%a@." Campaign.pp_outcome o) outcomes;
          if shrink then
            List.iter2
              (fun tg (o : Campaign.outcome) ->
                match o.finding with
                | Some f when not o.correct ->
                    out "--- %s ---@." o.target;
                    shrunk tg f
                | _ -> ())
              targets outcomes;
          if json then print_endline (Campaign.report_json ~seeds outcomes);
          let ok = Campaign.ok outcomes in
          out "campaign: %s (%d targets, matrix of %d seeds)@."
            (if ok then "OK — mutants die, correct protocols survive" else "FAILED")
            (List.length outcomes) (List.length seeds);
          if ok then 0 else 1)

(* ----- recover ----- *)

(* The crash-recovery layer end to end.  Single-run mode wraps one
   protocol in lib/recovery and runs it on the simulator — optionally
   under a generated crash plan (processes dying while holding a name)
   — with a dedicated reclaimer process scanning for expired leases.
   --campaign instead runs the paired bare-vs-recovered crash matrix
   from lib/campaign.  With --json the human report moves to stderr
   and stdout carries only the "renaming.recovery/v1" document; the
   document is deterministic (no timestamps), so identical invocations
   produce byte-identical output. *)

let recovery_stats_json (st : Recovery.stats) =
  Printf.sprintf
    {|{"acquired":%d,"released":%d,"shed":%d,"retries":%d,"conflicts":%d,"expired":%d,"reclaimed":%d,"stale_releases":%d,"scans":%d,"reclaim_latencies":[%s]}|}
    st.acquired st.released st.shed st.retries st.conflicts st.expired st.reclaimed
    st.stale_releases st.scans
    (String.concat "," (List.map string_of_int st.reclaim_latencies))

let recover protocol k s procs cycles lease_ttl seed crash campaign matrix json metrics =
  let out = if json then Fmt.epr else Fmt.pr in
  if campaign then begin
    let seeds = List.filteri (fun i _ -> i < matrix) Campaign.default_seeds in
    let outcomes = Campaign.run_all_crash ~seeds () in
    List.iter (fun o -> out "%a@." Campaign.pp_crash_outcome o) outcomes;
    let ok = Campaign.crash_ok outcomes in
    out "crash campaign: %s (%d targets, matrix of %d seeds)@."
      (if ok then "OK — bare protocols leak, recovered ones reclaim" else "FAILED")
      (List.length outcomes) (List.length seeds);
    if json then
      print_endline
        (Printf.sprintf {|{"schema":"renaming.recovery/v1","mode":"campaign","report":%s}|}
           (Campaign.crash_report_json ~seeds outcomes));
    if ok then 0 else 1
  end
  else begin
    let layout = Layout.create () in
    let Setup { proto = (module P); inst; label }, pids = build protocol layout ~k ~s ~procs in
    let rc =
      Recovery.create
        (module P)
        inst ~layout ~pids
        (Recovery.default_config ~lease_ttl ~seed ~capacity:(Array.length pids) ())
    in
    let work = Layout.alloc layout ~name:"work" 0 in
    let spec = Workload.churn ~cycles () in
    let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
    let plan =
      if crash then
        Sim.Faults.gen_crash
          (Sim.Rng.make (seed lxor 0x0F_AC_ED))
          ~nprocs:(Array.length pids)
          ~max_cycle:(max 1 (min 3 cycles))
          ()
      else []
    in
    let stop = ref (fun () -> false) in
    (* never a legal source name, and the reclaimer never acquires *)
    let reclaimer_pid = 1 + Array.fold_left max 0 pids in
    let reclaimer (ops : Store.ops) =
      (* hard budget so a reclamation bug surfaces as a leak in the
         verdict rather than a hang *)
      let budget = ref 100_000 in
      while (not (!stop ()) || Recovery.outstanding rc > 0) && !budget > 0 do
        decr budget;
        (* one shared access per iteration so the loop always yields *)
        ignore (ops.read work);
        ignore
          (Recovery.scan rc ops ~on_reclaim:(fun ~pid:_ ~name ~latency:_ ->
               Sim.Sched.emit (Sim.Event.Note ("reclaimed", name)))
            : int)
      done
    in
    let ctrl = Sim.Faults.controller plan in
    let monitor =
      Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; Sim.Faults.monitor ctrl ]
    in
    let t =
      Sim.Sched.create ~monitor layout
        (Array.append
           (Array.map (fun pid -> (pid, Workload.resilient_body rc ~work spec)) pids)
           [| (reclaimer_pid, reclaimer) |])
    in
    stop :=
      (fun () ->
        let frozen = Sim.Faults.parked ctrl in
        let n = Array.length pids in
        let rec all i =
          i >= n || ((Sim.Sched.finished t i || List.mem i frozen) && all (i + 1))
        in
        all 0);
    let failure =
      match
        Sim.Faults.run ~max_steps:1_000_000 ctrl t (Sim.Sched.random (Sim.Rng.make seed))
      with
      | (o : Sim.Sched.outcome) ->
          if o.truncated then Some "run did not settle within 1000000 steps" else None
      | exception Sim.Model_check.Violation m -> Some m
    in
    Sim.Sched.abort t;
    let st = Recovery.stats rc in
    let leaked = Sim.Checks.held_now u in
    let crashed = List.length (Sim.Faults.crashed ctrl) in
    let ok = failure = None && leaked = [] && st.reclaimed >= crashed in
    out "protocol       : %s + recovery@." label;
    out "processes      : %d (pids %a) + reclaimer (pid %d)@." (Array.length pids)
      Fmt.(array ~sep:comma int)
      pids reclaimer_pid;
    out "lease ttl      : %d scan(s), capacity %d@." lease_ttl (Array.length pids);
    out "crash plan     : %s@." (if plan = [] then "none" else Sim.Faults.to_string plan);
    out "crashes fired  : %d@." crashed;
    out "leases         : %d acquired, %d released, %d shed@." st.acquired st.released
      st.shed;
    out "reclaimed      : %d (of %d expired), %d stale release(s) fenced@." st.reclaimed
      st.expired st.stale_releases;
    (match leaked with
    | [] -> out "leaked         : none@."
    | l ->
        out "leaked         : %a@."
          Fmt.(list ~sep:comma (pair ~sep:(any " held by p") int int))
          l);
    (match failure with Some m -> out "FAILURE        : %s@." m | None -> ());
    out "verdict        : %s@." (if ok then "OK" else "FAILED");
    if json then
      print_endline
        (Printf.sprintf
           {|{"schema":"renaming.recovery/v1","mode":"run","protocol":%S,"k":%d,"s":%d,"procs":%d,"cycles":%d,"lease_ttl":%d,"seed":%d,"plan":%S,"crashed":%d,"leaked":[%s],"failure":%s,"ok":%b,"stats":%s}|}
           protocol k s (Array.length pids) cycles lease_ttl seed
           (Sim.Faults.to_string plan)
           crashed
           (String.concat ","
              (List.map (fun (n, p) -> Printf.sprintf "[%d,%d]" n p) leaked))
           (match failure with None -> "null" | Some m -> Printf.sprintf "%S" m)
           ok (recovery_stats_json st));
    (match metrics with
    | Some file ->
        let registry = Obs.Registry.create () in
        Recovery.publish rc (Obs.Registry.shard registry);
        write_file file (Obs.Export.to_json (Obs.Registry.snapshot registry));
        out "metrics        : wrote %s@." file
    | None -> ());
    if ok then 0 else 1
  end

(* ----- trace ----- *)

let trace protocol k s procs cycles seed tail =
  let layout = Layout.create () in
  let Setup { proto = (module P); inst; label }, pids = build protocol layout ~k ~s ~procs in
  let work = Layout.alloc layout ~name:"work" 0 in
  let body (ops : Store.ops) =
    for _ = 1 to cycles do
      let lease = P.get_name inst ops in
      Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
      ignore (ops.read work);
      Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
      P.release_name inst ops lease
    done
  in
  let tr = Sim.Trace.create ~capacity:tail () in
  let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
  let t =
    Sim.Sched.create
      ~monitor:(Sim.Checks.combine [ Sim.Trace.monitor tr; Sim.Checks.uniqueness_monitor u ])
      layout
      (Array.map (fun pid -> (pid, body)) pids)
  in
  let outcome = Sim.Sched.run ~max_steps:1_000_000 t (Sim.Sched.random (Sim.Rng.make seed)) in
  Fmt.pr "%s, %d processes, seed %d: %d accesses total%s@.@." label procs seed outcome.total
    (if Sim.Trace.dropped tr > 0 then
       Printf.sprintf " (showing the last %d)" (Sim.Trace.length tr)
     else "");
  Fmt.pr "%a" Sim.Trace.pp tr;
  Fmt.pr "@.%s@." (Sim.Trace.timeline tr);
  0

(* ----- trace record/analyze/export/provenance ----- *)

(* Run a workload with the structural flight recorder installed;
   returns the ring and a human label.  Three run modes mirror the
   rest of the CLI: the deterministic simulator (default), real OS
   domains (--domains N), and the crash-recovery wrapper under a
   generated crash plan (--recover, simulator). *)
let record_ring protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode =
  let layout = Layout.create () in
  if ndomains > 0 then begin
    let Setup { proto = (module P); inst; label }, pids =
      build protocol layout ~k ~s ~procs:ndomains
    in
    let ring = Obs.Flight.create () in
    let r =
      Runtime.Domain_runner.run ~flight:ring (module P) inst ~layout ~pids ~cycles
        ~name_space:(P.name_space inst)
    in
    if r.violations > 0 then
      Fmt.epr "warning: %d uniqueness violation(s) while recording@." r.violations;
    (ring, Printf.sprintf "%s across %d OS domains" label ndomains)
  end
  else if recover_mode then begin
    let Setup { proto = (module P); inst; label }, pids =
      build protocol layout ~k ~s ~procs
    in
    let rc =
      Recovery.create
        (module P)
        inst ~layout ~pids
        (Recovery.default_config ~lease_ttl:4 ~seed ~capacity:(Array.length pids) ())
    in
    let work = Layout.alloc layout ~name:"work" 0 in
    let spec = Workload.churn ~cycles () in
    let fr = Sim.Flight_rec.create () in
    let plan =
      Sim.Faults.gen_crash
        (Sim.Rng.make (seed lxor 0x0F_AC_ED))
        ~nprocs:(Array.length pids)
        ~max_cycle:(max 1 (min 3 cycles))
        ()
    in
    let stop = ref (fun () -> false) in
    let reclaimer_pid = 1 + Array.fold_left max 0 pids in
    let reclaimer (ops : Store.ops) =
      let budget = ref 100_000 in
      while (not (!stop ()) || Recovery.outstanding rc > 0) && !budget > 0 do
        decr budget;
        ignore (ops.read work);
        ignore
          (Recovery.scan rc ops ~on_reclaim:(fun ~pid:_ ~name ~latency:_ ->
               Sim.Sched.emit (Sim.Event.Note ("reclaimed", name)))
            : int)
      done
    in
    let ctrl = Sim.Faults.controller plan in
    let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
    let monitor =
      Sim.Flight_rec.monitor
        ~chain:
          (Sim.Checks.combine [ Sim.Checks.uniqueness_monitor u; Sim.Faults.monitor ctrl ])
        fr
    in
    let body ops = Workload.resilient_body rc ~work spec (Sim.Flight_rec.wrap fr ops) in
    let t =
      Sim.Sched.create ~monitor layout
        (Array.append
           (Array.map (fun pid -> (pid, body)) pids)
           [| (reclaimer_pid, reclaimer) |])
    in
    stop :=
      (fun () ->
        let frozen = Sim.Faults.parked ctrl in
        let n = Array.length pids in
        let rec all i =
          i >= n || ((Sim.Sched.finished t i || List.mem i frozen) && all (i + 1))
        in
        all 0);
    (match Sim.Faults.run ~max_steps:1_000_000 ctrl t (Sim.Sched.random (Sim.Rng.make seed)) with
    | (_ : Sim.Sched.outcome) -> ()
    | exception Sim.Model_check.Violation m -> Fmt.epr "violation: %s@." m);
    Sim.Sched.abort t;
    (Sim.Flight_rec.ring fr, Printf.sprintf "%s + recovery on the simulator" label)
  end
  else begin
    let Setup { proto = (module P); inst; label }, pids =
      build protocol layout ~k ~s ~procs
    in
    let work = Layout.alloc layout ~name:"work" 0 in
    let fr = Sim.Flight_rec.create () in
    let body (ops : Store.ops) =
      let ops = Sim.Flight_rec.wrap fr ops in
      for _ = 1 to cycles do
        let lease = P.get_name inst ops in
        Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
        ignore (ops.read work);
        Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
        P.release_name inst ops lease
      done
    in
    let u = Sim.Checks.uniqueness ~name_space:(P.name_space inst) () in
    let monitor = Sim.Flight_rec.monitor ~chain:(Sim.Checks.uniqueness_monitor u) fr in
    let t = Sim.Sched.create ~monitor layout (Array.map (fun pid -> (pid, body)) pids) in
    let outcome =
      Sim.Sched.run ~max_steps:50_000_000 t (Sim.Sched.random (Sim.Rng.make seed))
    in
    if outcome.truncated then Fmt.epr "warning: run truncated at the step budget@.";
    (Sim.Flight_rec.ring fr, Printf.sprintf "%s on the simulator" label)
  end

(* --file FILE re-analyzes a saved renaming.flight/v1 document instead
   of recording a fresh run. *)
let load_ring file protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode =
  match file with
  | Some path ->
      let ic = open_in_bin path in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Obs.Flight.of_string doc with
      | Ok ring -> (ring, path)
      | Error e ->
          Fmt.epr "error: %s: %s@." path e;
          exit 2)
  | None -> record_ring protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode

let trace_record protocol k s procs cycles seed ndomains recover_mode out =
  let ring, label =
    record_ring protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode
  in
  let doc = Obs.Flight.to_string ring in
  (match out with
  | Some path ->
      write_file path doc;
      Fmt.epr "recorded %d event(s) (%d dropped) from %s -> %s@." (Obs.Flight.length ring)
        (Obs.Flight.dropped ring) label path
  | None -> print_string doc);
  0

let trace_analyze protocol k s procs cycles seed ndomains recover_mode file bound =
  let ring, label =
    load_ring file protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode
  in
  let report = Obs.Analyze.analyze (Obs.Flight.items ring) in
  (* The Lemma 9 bound d(k-1) on simultaneously-blocked trees applies
     to paper-constraint FILTER instances; compute it only when we know
     the parameters (an inline FILTER run), or take it from --bound. *)
  let blocked_bound =
    match bound with
    | Some b -> Some b
    | None ->
        if file = None && ndomains = 0 && String.equal protocol "filter" then
          let (p : Params.filter_params) = Params.choose ~k ~s in
          Some (p.d * (k - 1))
        else None
  in
  Fmt.pr "source         : %s@." label;
  Fmt.pr "events         : %d recorded, %d dropped@." (Obs.Flight.length ring)
    (Obs.Flight.dropped ring);
  Fmt.pr "acquisitions   : %d (max simultaneously-blocked trees %d%s)@."
    (List.length report.acquisitions)
    report.max_blocked_trees
    (match blocked_bound with
    | Some b -> Printf.sprintf ", bound %d" b
    | None -> "");
  Fmt.pr "@.%s@." (Obs.Analyze.heatmap report);
  match Obs.Analyze.check ?blocked_bound report with
  | [] ->
      Fmt.pr "occupancy      : OK (all structural bounds hold over the recorded run)@.";
      0
  | violations ->
      List.iter (fun v -> Fmt.pr "VIOLATION      : %s@." v) violations;
      1

let trace_export protocol k s procs cycles seed ndomains recover_mode file
    journeys_file out =
  let ring, _ =
    load_ring file protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode
  in
  match
    match journeys_file with
    | None -> Ok []
    | Some path -> (
        let ic = open_in_bin path in
        let doc = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Obs.Journey.of_string doc with
        | Ok j -> Ok (Obs.Journey.top ~n:32 j)
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
  with
  | Error e ->
      Fmt.epr "bad --journeys document: %s@." e;
      2
  | Ok journeys ->
      let doc = Obs.Perfetto.to_chrome_json ~journeys (Obs.Flight.items ring) in
      (match out with
      | Some path ->
          write_file path doc;
          Fmt.epr
            "wrote %d event(s)%s as Chrome trace JSON -> %s (open in \
             ui.perfetto.dev)@."
            (Obs.Flight.length ring)
            (match journeys with
            | [] -> ""
            | js -> Printf.sprintf " + %d journey flow(s)" (List.length js))
            path
      | None -> print_endline doc);
      0

let trace_provenance protocol k s procs cycles seed ndomains recover_mode file pid_filter
    name_filter =
  let ring, label =
    load_ring file protocol ~k ~s ~procs ~cycles ~seed ~ndomains ~recover_mode
  in
  let report = Obs.Analyze.analyze (Obs.Flight.items ring) in
  let keep (a : Obs.Analyze.acquisition) =
    (match pid_filter with Some p -> a.pid = p | None -> true)
    && match name_filter with Some n -> a.name = n | None -> true
  in
  let acqs = List.filter keep report.acquisitions in
  Fmt.pr "%s: %d acquisition(s)%s@." label (List.length acqs)
    (if List.length acqs <> List.length report.acquisitions then
       Printf.sprintf " (of %d)" (List.length report.acquisitions)
     else "");
  List.iter
    (fun (a : Obs.Analyze.acquisition) ->
      Fmt.pr "@.p%d acquired name %d  [clock %d..%s]@." a.pid a.name a.start_clock
        (if a.end_clock = max_int then "end" else string_of_int a.end_clock);
      (match a.path with
      | [] -> ()
      | path ->
          Fmt.pr "  path    : %s@."
            (String.concat " -> "
               (List.map
                  (fun (loc, d) -> Printf.sprintf "%s(%+d)" (Obs.Loc.to_string loc) d)
                  path)));
      (match a.won_tree with
      | Some m -> Fmt.pr "  won tree: %d@." m
      | None -> ());
      (match a.blocked_trees with
      | [] -> ()
      | ts ->
          Fmt.pr "  blocked : %d tree(s) (%s)@." (List.length ts)
            (String.concat "," (List.map string_of_int ts)));
      List.iter
        (fun (loc, pids) ->
          if pids <> [] then
            Fmt.pr "  overlap : %s with %s@." (Obs.Loc.to_string loc)
              (String.concat "," (List.map (fun p -> Printf.sprintf "p%d" p) pids)))
        a.interference)
    acqs;
  if acqs = [] && (pid_filter <> None || name_filter <> None) then 1 else 0

(* ----- cmdliner wiring ----- *)

let protocol_arg =
  (* one entry per registered backend (lib/core/backends.ml), so a
     backend added to the registry is selectable here the same day *)
  let doc =
    Printf.sprintf "Protocol: %s."
      (String.concat ", " (Renaming.Backends.names ()))
  in
  Arg.(value
       & opt (enum (List.map (fun n -> (n, n)) (Renaming.Backends.names ()))) "pipeline"
       & info [ "p"; "protocol" ] ~docv:"PROTOCOL" ~doc)

let k_arg default =
  Arg.(value & opt int default & info [ "k" ] ~docv:"K" ~doc:"Max concurrent processes.")

let s_arg default =
  Arg.(value & opt int default & info [ "s" ] ~docv:"S" ~doc:"Source name-space size.")

let cycles_arg default =
  Arg.(value & opt int default
       & info [ "c"; "cycles" ] ~docv:"N" ~doc:"Acquire/release cycles per process.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the run's metrics snapshot (lib/obs JSON) to $(docv).")

let simulate_cmd =
  let procs = Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N"
                   ~doc:"Concurrent processes (default $(b,k)).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule seed.") in
  let crash = Arg.(value & flag & info [ "crash" ]
                   ~doc:"Freeze all processes but the first mid-run (wait-freedom demo).") in
  let run protocol k s procs cycles seed crash metrics =
    simulate protocol k s (if procs <= 0 then k else procs) cycles seed crash metrics
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run acquire/release cycles under a seeded random schedule")
    Term.(const run $ protocol_arg $ k_arg 4 $ s_arg 1024 $ procs $ cycles_arg 5 $ seed
          $ crash $ metrics_arg)

let modelcheck_cmd =
  let max_paths = Arg.(value & opt int 200_000
                       & info [ "max-paths" ] ~docv:"N" ~doc:"Interleaving budget.") in
  let procs = Arg.(value & opt int 2 & info [ "procs" ] ~docv:"N" ~doc:"Processes.") in
  let shortest = Arg.(value & flag & info [ "shortest" ]
                      ~doc:"Iterative deepening: report a minimal-length counterexample \
                            (plain search, no reductions).") in
  let por = Arg.(value & vflag true
                 [ (true, info [ "por" ] ~doc:"Sleep-set partial-order reduction (default).");
                   (false, info [ "no-por" ] ~doc:"Disable partial-order reduction.") ]) in
  let cache_bound = Arg.(value & opt int 1_000_000
                         & info [ "cache-bound" ] ~docv:"N"
                           ~doc:"Max states remembered by the state cache; 0 disables \
                                 caching.") in
  let stats = Arg.(value & flag & info [ "stats" ]
                   ~doc:"Print exploration statistics (states, pruning, paths/sec).") in
  let json = Arg.(value & flag & info [ "json" ]
                  ~doc:"Also print a machine-readable JSON report line.") in
  Cmd.v
    (Cmd.info "modelcheck" ~doc:"Explore interleavings exhaustively (bounded)")
    Term.(const modelcheck $ protocol_arg $ k_arg 2 $ s_arg 4 $ procs $ cycles_arg 1
          $ max_paths $ shortest $ por $ cache_bound $ stats $ json $ metrics_arg)

let params_cmd =
  Cmd.v
    (Cmd.info "params" ~doc:"Show FILTER parameters and the Theorem 11 pipeline for (k, S)")
    Term.(const params $ k_arg 6 $ s_arg 1_000_000)

let experiment_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID"
                 ~doc:"Experiment ids (e1..e10); all when omitted.") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run the paper-reproduction experiments")
    Term.(const experiment $ ids $ metrics_arg)

let trace_cmd =
  let procs = Arg.(value & opt int 2 & info [ "procs" ] ~docv:"N" ~doc:"Processes.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule seed.") in
  let tail = Arg.(value & opt int 120 & info [ "tail" ] ~docv:"N"
                  ~doc:"Show only the last $(docv) trace items.") in
  let dump_term =
    Term.(const trace $ protocol_arg $ k_arg 2 $ s_arg 16 $ procs $ cycles_arg 1 $ seed
          $ tail)
  in
  (* Shared arguments of the flight-recorder subcommands. *)
  let fprocs = Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N"
                    ~doc:"Concurrent processes (default $(b,k)).") in
  let ndomains = Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
                      ~doc:"Record across $(docv) real OS domains instead of the \
                            simulator (per-domain clocks; no cross-pid ordering).") in
  let recover_flag = Arg.(value & flag & info [ "recover" ]
                          ~doc:"Record a crash-recovery run: a generated crash plan \
                                plus a reclaimer (simulator only).") in
  let file_arg = Arg.(value & opt (some string) None
                      & info [ "file" ] ~docv:"FILE"
                        ~doc:"Analyze a saved renaming.flight/v1 document instead of \
                              recording a fresh run.") in
  let out_arg = Arg.(value & opt (some string) None
                     & info [ "o"; "out" ] ~docv:"FILE"
                       ~doc:"Write to $(docv) instead of stdout.") in
  let with_run f =
    Term.(f $ protocol_arg $ k_arg 4 $ s_arg 81 $ fprocs $ cycles_arg 3 $ seed $ ndomains
          $ recover_flag)
  in
  let record_cmd =
    let run protocol k s procs cycles seed ndomains recover out =
      trace_record protocol k s (if procs <= 0 then k else procs) cycles seed ndomains
        recover out
    in
    Cmd.v
      (Cmd.info "record"
         ~doc:"Run with the flight recorder on and save the renaming.flight/v1 ring")
      Term.(with_run (const run) $ out_arg)
  in
  let analyze_cmd =
    let bound = Arg.(value & opt (some int) None
                     & info [ "bound" ] ~docv:"B"
                       ~doc:"Check at most $(docv) simultaneously-blocked trees per \
                             acquisition (default: d(k-1) for inline FILTER runs).") in
    let run protocol k s procs cycles seed ndomains recover file bound =
      trace_analyze protocol k s (if procs <= 0 then k else procs) cycles seed ndomains
        recover file bound
    in
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Reconstruct per-splitter/per-tree occupancy from a flight ring; exits \
               nonzero if a structural bound is violated")
      Term.(with_run (const run) $ file_arg $ bound)
  in
  let export_cmd =
    let journeys_arg =
      Arg.(value & opt (some string) None
           & info [ "journeys" ] ~docv:"FILE"
             ~doc:"Also emit the sampled journeys of a saved \
                   renaming.journeys/v1 document (see $(b,observe tail -o)) \
                   as flow-linked waterfall tracks.")
    in
    let run protocol k s procs cycles seed ndomains recover file journeys out =
      trace_export protocol k s (if procs <= 0 then k else procs) cycles seed ndomains
        recover file journeys out
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:"Export a flight ring as Chrome trace-event JSON (open in ui.perfetto.dev)")
      Term.(with_run (const run) $ file_arg $ journeys_arg $ out_arg)
  in
  let provenance_cmd =
    let pid_f = Arg.(value & opt (some int) None
                     & info [ "pid" ] ~docv:"PID" ~doc:"Only acquisitions by $(docv).") in
    let name_f = Arg.(value & opt (some int) None
                      & info [ "name" ] ~docv:"NAME"
                        ~doc:"Only acquisitions of destination name $(docv).") in
    let run protocol k s procs cycles seed ndomains recover file pid name =
      trace_provenance protocol k s (if procs <= 0 then k else procs) cycles seed ndomains
        recover file pid name
    in
    Cmd.v
      (Cmd.info "provenance"
         ~doc:"Reconstruct how each granted name was acquired: splitter path, trees \
               blocked, processes overlapped")
      Term.(with_run (const run) $ file_arg $ pid_f $ name_f)
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Execution traces: the access-by-access dump (default), plus the \
             structural flight recorder (record/analyze/export/provenance)")
    ~default:dump_term
    [ record_cmd; analyze_cmd; export_cmd; provenance_cmd ]

let domains_cmd =
  Cmd.v
    (Cmd.info "domains" ~doc:"Run a protocol across real OS domains (Atomic store)")
    Term.(const domains $ protocol_arg $ k_arg 3 $ s_arg 1024 $ cycles_arg 200)

let observe_cmd =
  let procs = Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N"
                   ~doc:"Concurrent simulated processes (default $(b,k)).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule seed.") in
  let ndomains = Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
                      ~doc:"Run across $(docv) real OS domains instead of the simulator.") in
  let format =
    Arg.(value & vflag "text"
           [ ("json", info [ "json" ] ~doc:"Emit the snapshot as JSON.");
             ("prometheus", info [ "prometheus" ]
                ~doc:"Emit the snapshot in Prometheus text exposition format.") ])
  in
  let mutant = Arg.(value & flag & info [ "mutant" ]
                    ~doc:"Test-only: run the cost mutant (MA padded past its access \
                          bound) against the MA bound check — must exit nonzero.") in
  let diff_cmd =
    let history = Arg.(value & opt string "BENCH_history.jsonl"
                       & info [ "history" ] ~docv:"FILE"
                         ~doc:"Trend log appended by $(b,bench trend).") in
    let tolerance = Arg.(value & opt float 20. & info [ "tolerance" ] ~docv:"PCT"
                         ~doc:"Allowed regression between the last two entries, \
                               percent.") in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Compare the last two bench trend entries (obs overhead, server \
               throughput); exit 1 on regression beyond tolerance")
      Term.(const observe_diff $ history $ tolerance)
  in
  let tail_cmd =
    let shards = Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N"
                      ~doc:"Protocol instances in the pool.") in
    let clients = Arg.(value & opt int 3 & info [ "clients" ] ~docv:"N"
                       ~doc:"Client domains driving the server.") in
    let requests = Arg.(value & opt int 2_000 & info [ "requests" ] ~docv:"N"
                        ~doc:"Requests per client.") in
    let theta = Arg.(value & opt float 0.99 & info [ "theta" ] ~docv:"T"
                     ~doc:"Zipf skew of the source names.") in
    let plan = Arg.(value & opt (some string) None
                    & info [ "plan" ] ~docv:"PLAN"
                      ~doc:"Apply a client fault plan (e.g. $(b,park\\@p1:acc1)) \
                            and watch it show up in the blame profile.") in
    let top = Arg.(value & opt int 8 & info [ "top" ] ~docv:"N"
                   ~doc:"Slowest journeys to print.") in
    let json = Arg.(value & flag & info [ "json" ]
                    ~doc:"Print the renaming.journeys/v1 JSON document on \
                          stdout.") in
    let out = Arg.(value & opt (some string) None
                   & info [ "o"; "out" ] ~docv:"FILE"
                     ~doc:"Also save the portable renaming.journeys/v1 text \
                           document (feed to $(b,trace export --journeys)).") in
    Cmd.v
      (Cmd.info "tail"
         ~doc:"Run the name server under churn with journey tracing and print \
               the slowest requests as per-stage waterfalls; exit 1 on a tail \
               no journey explains")
      Term.(const observe_tail $ shards $ k_arg 4 $ s_arg 1024 $ clients
            $ requests $ theta $ seed $ plan $ top $ json $ out)
  in
  Cmd.group
    ~default:
      Term.(const observe $ protocol_arg $ k_arg 4 $ s_arg 1024 $ procs
            $ cycles_arg 5 $ seed $ ndomains $ format $ metrics_arg $ mutant)
    (Cmd.info "observe"
       ~doc:"Run fully instrumented and export the metrics snapshot \
             (text/JSON/Prometheus; default), or diff the bench trend log, or \
             trace the tail of a churn run (tail)")
    [ diff_cmd; tail_cmd ]

let faults_cmd =
  let target = Arg.(value & opt (some string) None
                    & info [ "target" ] ~docv:"NAME"
                      ~doc:"Restrict to one campaign target (protocol or mutant:*).") in
  let plan = Arg.(value & opt (some string) None
                  & info [ "plan" ] ~docv:"PLAN"
                    ~doc:"Reproduction mode: run this fault plan (e.g. \
                          $(b,park\\@p1:acc7,stall8\\@p0:acquire)) once under --seed \
                          against --target.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
                  ~doc:"Schedule seed for reproduction mode.") in
  let matrix = Arg.(value & opt int 32 & info [ "matrix" ] ~docv:"N"
                    ~doc:"Use the first $(docv) seeds of the fixed matrix.") in
  let shrink = Arg.(value & flag & info [ "shrink" ]
                    ~doc:"Delta-debug each finding to a minimal replaying schedule.") in
  let json = Arg.(value & flag & info [ "json" ]
                  ~doc:"Print the JSON campaign report on stdout (table goes to \
                        stderr).") in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run adversarial fault campaigns: mutants must die, correct protocols \
             must survive")
    Term.(const faults $ target $ plan $ seed $ matrix $ shrink $ json)

let recover_cmd =
  let procs = Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N"
                   ~doc:"Concurrent processes (default $(b,k)).") in
  let lease_ttl = Arg.(value & opt int 4 & info [ "lease-ttl" ] ~docv:"TTL"
                       ~doc:"Reclaimer scans without a heartbeat change before a lease \
                             expires.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
                  ~doc:"Schedule seed; also derives the $(b,--crash) plan and the \
                        backoff jitter.") in
  let crash = Arg.(value & flag & info [ "crash" ]
                   ~doc:"Inject a generated crash plan: some processes die while \
                         holding a name; their leases must be reclaimed.") in
  let campaign = Arg.(value & flag & info [ "campaign" ]
                      ~doc:"Run the paired bare-vs-recovered crash matrix instead of a \
                            single run: bare protocols must leak, recovered ones must \
                            reclaim.") in
  let matrix = Arg.(value & opt int 32 & info [ "matrix" ] ~docv:"N"
                    ~doc:"Campaign mode: use the first $(docv) seeds of the fixed \
                          matrix.") in
  let json = Arg.(value & flag & info [ "json" ]
                  ~doc:"Print the renaming.recovery/v1 JSON document on stdout (human \
                        report goes to stderr).") in
  let run protocol k s procs cycles lease_ttl seed crash campaign matrix json metrics =
    recover protocol k s (if procs <= 0 then k else procs) cycles lease_ttl seed crash
      campaign matrix json metrics
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Run a protocol under the crash-recovery wrapper: leases, heartbeats, \
             name reclamation")
    Term.(const run $ protocol_arg $ k_arg 3 $ s_arg 64 $ procs $ cycles_arg 3
          $ lease_ttl $ seed $ crash $ campaign $ matrix $ json $ metrics_arg)

(* ----- server ----- *)

(* Perfetto counter tracks from a run's telemetry windows: timestamps
   are µs from the first retained window; one track per canonical
   series (latency as its per-window p99), one per sampler gauge (as
   the window mean). *)
let telemetry_counters (tel : Churn.telemetry) =
  let open Obs.Timeseries in
  let all =
    ("latency", tel.Churn.latency) :: ("attempts", tel.Churn.attempts)
    :: ("grants", tel.Churn.grants) :: ("warm", tel.Churn.warm)
    :: ("sheds", tel.Churn.sheds) :: tel.Churn.samples
  in
  let t0 =
    List.fold_left
      (fun acc (_, s) -> match windows s with [] -> acc | w :: _ -> min acc w.start)
      max_int all
  in
  let us ns = (ns - t0) / 1000 in
  let count_track name s =
    (name ^ ".count", List.map (fun w -> (us w.start, float_of_int w.count)) (windows s))
  in
  let mean_track (name, s) =
    ( "sampler." ^ name,
      List.map
        (fun w ->
          ( us w.start,
            if w.count = 0 then 0. else float_of_int w.sum /. float_of_int w.count ))
        (windows s) )
  in
  ( "latency.p99_ns",
    List.map
      (fun w ->
        (us w.start, float_of_int (percentile tel.Churn.latency ~wid:w.wid 0.99)))
      (windows tel.Churn.latency) )
  :: count_track "attempts" tel.Churn.attempts
  :: count_track "grants" tel.Churn.grants
  :: count_track "warm" tel.Churn.warm
  :: count_track "sheds" tel.Churn.sheds
  :: List.map mean_track tel.Churn.samples

(* The name server under heavy churn: real domains, Zipf sources,
   open-loop arrivals.  Text report on stdout (or the
   renaming.server/v1 JSON document with --json); exits nonzero on a
   uniqueness violation, on a leak no crash fault explains, or on a
   sustained --slo burn. *)
let server_chaos matrix requests json =
  let seeds =
    List.filteri (fun i _ -> i < max 1 matrix) Campaign.default_seeds
  in
  let outcomes = Campaign.run_chaos ~seeds ?requests () in
  let ok = Campaign.chaos_ok outcomes in
  if json then Fmt.pr "%s@." (Campaign.chaos_report_json ~seeds outcomes)
  else begin
    List.iter
      (fun o ->
        if not o.Campaign.co_ok then Fmt.pr "%a@." Campaign.pp_chaos_outcome o)
      outcomes;
    List.iter
      (fun f ->
        let runs = List.filter (fun o -> o.Campaign.co_fault = f) outcomes in
        let sum g = List.fold_left (fun s o -> s + g o) 0 runs in
        Fmt.pr
          "%-16s %s  %d runs, min avail %.3f, %d reclaimed (max %d scans), %d \
           deaths, %d/%d quarantined/rebuilt, %d steals@."
          (Campaign.chaos_fault_name f)
          (if List.for_all (fun o -> o.Campaign.co_ok) runs then "ok    "
           else "FAILED")
          (List.length runs)
          (List.fold_left
             (fun m o -> Float.min m o.Campaign.co_availability)
             1.0 runs)
          (sum (fun o -> o.Campaign.co_reclaimed))
          (List.fold_left (fun m o -> max m o.Campaign.co_reclaim_scans) 0 runs)
          (sum (fun o -> o.Campaign.co_deaths))
          (sum (fun o -> o.Campaign.co_quarantines))
          (sum (fun o -> o.Campaign.co_rebuilds))
          (sum (fun o -> o.Campaign.co_seat_steals)))
      Campaign.chaos_faults;
    Fmt.pr "chaos verdict  : %s (%d cells, %d seeds)@."
      (if ok then "OK" else "FAILED")
      (List.length outcomes) (List.length seeds)
  end;
  if ok then 0 else 1

let server shards k s clients requests warm batch theta rate think seed plan policy
    chaos matrix json metrics_file slo trace_file tick journeys_on =
  let config =
    Server.default_config ~shards ~k_per_shard:k ~warm_capacity:warm ~batch ~clients
      ~source_space:s ()
  in
  match
    match policy with
    | None -> Ok None
    | Some spec -> Result.map Option.some (Server.Policy.of_string spec)
  with
  | Error e ->
      Fmt.epr "bad --policy: %s@." e;
      2
  | Ok policy when chaos ->
      ignore (policy : Server.Policy.t option);
      server_chaos matrix (if requests = 10_000 then None else Some requests) json
  | Ok policy -> (
  match
    match slo with
    | None -> Ok None
    | Some spec -> Result.map Option.some (Obs.Slo.of_string spec)
  with
  | Error e ->
      Fmt.epr "bad --slo: %s@." e;
      2
  | Ok slo_spec -> (
  match
    match plan with
    | None -> Ok []
    | Some p -> Result.map Churn.of_plan (Sim.Faults.of_string p)
  with
  | Error e ->
      Fmt.epr "bad --plan: %s@." e;
      2
  | Ok faults ->
      let registry = Obs.Registry.create () in
      let flight =
        Option.map (fun _ -> Obs.Flight.create ~capacity:65_536 ()) trace_file
      in
      (* The server pool's default backend is Split, so the per-shard
         paper bound on a cold acquire is Theorem 2's 7(k-1). *)
      let jbound =
        match bound_for "split" ~k ~s with Some (_, b) -> b | None -> 0
      in
      let jarr =
        if journeys_on then
          Some
            (Array.init clients (fun _ ->
                 Obs.Journey.create ~seed ~bound:jbound ()))
        else None
      in
      let report =
        Churn.run ~registry ?flight ?journeys:jarr ~faults ?policy
          ~sampler_interval_ns:tick ~config
          ~spec:(fun client ->
            Workload.server_churn ~theta ~rate ~think ~s ~requests ~seed ~client ())
          ()
      in
      let r = report.Churn.result in
      let crashed =
        List.exists (fun (_, f) -> match f with Churn.Crash _ -> true | _ -> false)
          faults
      in
      let tel = report.Churn.telemetry in
      let verdicts =
        Option.map
          (fun spec ->
            Obs.Slo.evaluate
              ~series:(Churn.telemetry_series tel)
              ~scalar:(function
                | "violations" -> Some r.violations
                | "leaked" -> Some r.leaked
                | "outstanding" -> Some report.Churn.outstanding
                | _ -> None)
              spec)
          slo_spec
      in
      let hist_json (h : Obs.Histogram.snap) =
        Printf.sprintf
          {|{"count":%d,"mean":%.1f,"min":%d,"p50":%d,"p95":%d,"p99":%d,"p100":%d}|}
          h.count h.mean h.min h.p50 h.p95 h.p99 h.p100
      in
      (* The regression guard: a p100 more than 100x the p99 with no
         retained journey reaching it is a tail the recorder failed to
         explain — that is an observability bug, and it fails the run. *)
      let unexplained =
        match report.Churn.journeys with
        | Some j -> Obs.Journey.unexplained_tail j
        | None -> None
      in
      let tail_json =
        match report.Churn.journeys with
        | None -> ""
        | Some j ->
            let s = Obs.Journey.snapshot j in
            let blame =
              String.concat ","
                (Array.to_list
                   (Array.mapi
                      (fun i ns ->
                        Printf.sprintf "%S:%d"
                          (Obs.Journey.stage_name Obs.Journey.stages.(i))
                          ns)
                      s.Obs.Journey.blame))
            in
            Printf.sprintf
              {|,"tail_blame":{"top_blame_stage":%S,"tail_p999_ns":%d,"completed":%d,"flagged":%d,"unexplained":%b,"blame_ns":{%s}}|}
              (match Obs.Journey.top_blame_stage s with
              | Some (st, _) -> Obs.Journey.stage_name st
              | None -> "none")
              (Obs.Histogram.percentile (Obs.Journey.hist j) 0.999)
              s.Obs.Journey.completed s.Obs.Journey.flagged
              (unexplained <> None) blame
      in
      if json then begin
        let slo_json =
          match verdicts with
          | None -> ""
          | Some vs ->
              let v_json (v : Obs.Slo.verdict) =
                Printf.sprintf
                  {|{"label":%S,"evaluated":%d,"burning":%d,"max_burn":%d,"worst":%g,"sustained":%b}|}
                  v.label v.evaluated v.burning v.max_burn v.worst v.sustained
              in
              Printf.sprintf {|,"slo":{"burning":%b,"verdicts":[%s]}|}
                (Obs.Slo.burning vs)
                (String.concat "," (List.map v_json vs))
        in
        let rs = report.Churn.resilience and oc = report.Churn.outcomes in
        let resilience_json =
          Printf.sprintf
            {|,"outcomes":{"issued":%d,"granted":%d,"retried":%d,"deadline":%d,"shed_policy":%d,"shed_early":%d},"resilience":{"scans":%d,"deaths":%d,"reclaimed":%d,"claims_swept":%d,"reclaim_max_scans":%d,"drain_heals":%d,"adopted_walks":%d,"seat_steals":%d,"quarantines":%d,"rebuilds":%d,"fenced":%d,"failovers":%d},"health":[%s],"settle_scans":%d|}
            oc.Churn.issued oc.Churn.granted oc.Churn.retried oc.Churn.deadline
            oc.Churn.shed_policy oc.Churn.shed_early rs.Server.scans
            rs.Server.deaths rs.Server.reclaimed rs.Server.claims_swept
            rs.Server.reclaim_max_scans rs.Server.drain_heals
            rs.Server.adopted_walks rs.Server.seat_steals rs.Server.quarantines
            rs.Server.rebuilds rs.Server.fenced rs.Server.failovers
            (String.concat ","
               (Array.to_list report.Churn.health
               |> List.map (fun h ->
                      Printf.sprintf "%S" (Server.Health.to_string h))))
            report.Churn.settle_scans
        in
        Fmt.pr
          {|{"schema":"renaming.server/v1","config":{"shards":%d,"k_per_shard":%d,"source_space":%d,"warm_capacity":%d,"batch":%d,"clients":%d},"requests_per_client":%d,"cycles":%d,"elapsed_s":%.6f,"acquires_per_sec":%.0f,"acquires":%d,"warm_hits":%d,"busy":%d,"shed":%d,"drains":%d,"drained_releases":%d,"latency_ns":%s,"latency_open_ns":%s,"latency_closed_ns":%s,"cold_accesses":%s,"warm_accesses":%s,"violations":%d,"leaked":%d,"outstanding":%d,"sampler_ticks":%d%s%s%s}@.|}
          shards k s warm batch clients requests report.Churn.cycles
          report.Churn.elapsed_s report.Churn.throughput report.Churn.acquires
          report.Churn.warm_hits report.Churn.busy report.Churn.shed
          report.Churn.drains report.Churn.drained_releases
          (hist_json report.Churn.latency)
          (hist_json report.Churn.latency)
          (hist_json report.Churn.latency_closed)
          (hist_json report.Churn.cold_accesses)
          (hist_json report.Churn.warm_accesses)
          r.violations r.leaked report.Churn.outstanding tel.Churn.sampler_ticks
          resilience_json slo_json tail_json
      end
      else begin
        Fmt.pr "name server: %d shard(s) x k=%d, %d clients, S=%d@." shards k clients
          s;
        Fmt.pr "cycles         : %d (%d requests/client)@." report.Churn.cycles
          requests;
        Fmt.pr "throughput     : %.0f acquires/sec (%.3f s)@." report.Churn.throughput
          report.Churn.elapsed_s;
        Fmt.pr "warm hits      : %d of %d acquires@." report.Churn.warm_hits
          report.Churn.acquires;
        Fmt.pr "busy / shed    : %d / %d@." report.Churn.busy report.Churn.shed;
        Fmt.pr "drains         : %d (%d batched releases)@." report.Churn.drains
          report.Churn.drained_releases;
        let l = report.Churn.latency in
        Fmt.pr "latency ns     : p50=%d p95=%d p99=%d p100=%d (open-loop)@." l.p50
          l.p95 l.p99 l.p100;
        let lc = report.Churn.latency_closed in
        Fmt.pr "               : p50=%d p95=%d p99=%d p100=%d (closed-loop)@." lc.p50
          lc.p95 lc.p99 lc.p100;
        let ca = report.Churn.cold_accesses and wa = report.Churn.warm_accesses in
        Fmt.pr "cold accesses  : mean=%.1f p99=%d (n=%d)@." ca.mean ca.p99 ca.count;
        Fmt.pr "warm accesses  : mean=%.1f p100=%d (n=%d)@." wa.mean wa.p100 wa.count;
        Fmt.pr "sampler        : %d tick(s), %d series@." tel.Churn.sampler_ticks
          (List.length tel.Churn.samples);
        let rs = report.Churn.resilience and oc = report.Churn.outcomes in
        Fmt.pr "outcomes       : %d issued, %d granted, %d retried, %d deadline, \
                %d/%d shed (policy/early)@."
          oc.Churn.issued oc.Churn.granted oc.Churn.retried oc.Churn.deadline
          oc.Churn.shed_policy oc.Churn.shed_early;
        Fmt.pr "resilience     : %d scans, %d deaths, %d reclaimed (max %d \
                scans), %d heals, %d steals@."
          rs.Server.scans rs.Server.deaths rs.Server.reclaimed
          rs.Server.reclaim_max_scans rs.Server.drain_heals rs.Server.seat_steals;
        Fmt.pr "health         : %s (%d quarantined, %d rebuilt, %d failovers, \
                %d fenced)@."
          (String.concat " "
             (Array.to_list report.Churn.health
             |> List.map Server.Health.to_string))
          rs.Server.quarantines rs.Server.rebuilds rs.Server.failovers
          rs.Server.fenced;
        Fmt.pr "violations     : %d@." r.violations;
        (match r.first_violation with
        | Some m -> Fmt.pr "first violation: %s@." m
        | None -> ());
        Fmt.pr "leaked         : %d%s@." r.leaked
          (if crashed && r.leaked > 0 then " (crash plan: expected)" else "");
        (match report.Churn.journeys with
        | None -> ()
        | Some j ->
            let s = Obs.Journey.snapshot j in
            (match Obs.Journey.top_blame_stage s with
            | Some (st, ns) ->
                Fmt.pr "tail blame     : %s (%d ns across %d journeys, %d over \
                        bound)@."
                  (Obs.Journey.stage_name st)
                  ns s.Obs.Journey.completed s.Obs.Journey.flagged
            | None -> ());
            Fmt.pr "tail p999 ns   : %d@."
              (Obs.Histogram.percentile (Obs.Journey.hist j) 0.999);
            List.iter
              (fun v -> Fmt.pr "%a" Obs.Journey.pp_waterfall v)
              (Obs.Journey.top ~n:3 j);
            match unexplained with
            | Some (p100, p99) ->
                Fmt.pr "UNEXPLAINED TAIL: p100=%d ns > 100 x p99=%d ns with no \
                        journey exemplar@."
                  p100 p99
            | None -> ());
        match verdicts with
        | None -> ()
        | Some vs ->
            List.iter (fun v -> Fmt.pr "slo            : %a@." Obs.Slo.pp_verdict v) vs;
            Fmt.pr "slo verdict    : %s@."
              (if Obs.Slo.burning vs then "BURNING (sustained)" else "OK")
      end;
      (match metrics_file with
      | Some f -> write_file f (Obs.Export.to_json (Obs.Registry.snapshot registry))
      | None -> ());
      (match (trace_file, flight) with
      | Some path, Some ring ->
          write_file path
            (Obs.Perfetto.to_chrome_json ~counters:(telemetry_counters tel)
               (Obs.Flight.items ring));
          Fmt.epr
            "wrote %d flight event(s) + %d counter track(s) -> %s (open in \
             ui.perfetto.dev)@."
            (Obs.Flight.length ring)
            (List.length (telemetry_counters tel))
            path
      | _ -> ());
      if r.violations > 0 then 1
      else if r.leaked > 0 && not crashed then 1
      else if unexplained <> None then 1
      else
        match verdicts with Some vs when Obs.Slo.burning vs -> 1 | _ -> 0))

let server_cmd =
  let shards = Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
                    ~doc:"Protocol instances in the pool.") in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~docv:"K"
               ~doc:"Concurrent holders admitted per shard.") in
  let s = Arg.(value & opt int 4096 & info [ "s" ] ~docv:"S"
               ~doc:"Source name space served.") in
  let clients = Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
                     ~doc:"Client domains driving the server.") in
  let requests = Arg.(value & opt int 10_000 & info [ "requests" ] ~docv:"N"
                      ~doc:"Acquire/release requests per client.") in
  let warm = Arg.(value & opt int 2 & info [ "warm" ] ~docv:"N"
                  ~doc:"Warm leases cached per client (0 disables).") in
  let batch = Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N"
                   ~doc:"Pending releases that trip a shard drain.") in
  let theta = Arg.(value & opt float 0.99 & info [ "theta" ] ~docv:"T"
                   ~doc:"Zipf skew of the source names (0 < $(docv) < 1).") in
  let rate = Arg.(value & opt float 0. & info [ "rate" ] ~docv:"R"
                  ~doc:"Open-loop arrival rate per client, requests/second \
                        (0 = closed-loop).") in
  let think = Arg.(value & opt int 0 & info [ "think" ] ~docv:"N"
                   ~doc:"Local spins while holding a granted name.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
                  ~doc:"Workload seed (sources, arrivals).") in
  let plan = Arg.(value & opt (some string) None
                  & info [ "plan" ] ~docv:"PLAN"
                    ~doc:"Apply a fault plan to the clients (e.g. \
                          $(b,crash\\@p1:acc40,park\\@p3:acc1)); triggers map to \
                          request indices.") in
  let policy = Arg.(value & opt (some string) None
                    & info [ "policy" ] ~docv:"SPEC"
                      ~doc:"Client resilience policy: seeded exponential backoff \
                            with jitter, bounded retries, and a deadline (e.g. \
                            $(b,retries=8,base=64,cap=4096,deadline_ms=5,seed=7)). \
                            Without it, refused requests are dropped.") in
  let chaos = Arg.(value & flag & info [ "chaos" ]
                   ~doc:"Run the seeded chaos campaign instead of a churn run: a \
                         matrix of whole-server fault plans (crash holding leases, \
                         crash mid-drain, crash on the reclaimer seat, parked \
                         drainer, hot-shard stall) asserting zero violations, \
                         bounded reclamation, and an availability floor. Exits \
                         nonzero if any cell fails.") in
  let matrix = Arg.(value & opt int 32 & info [ "matrix" ] ~docv:"N"
                    ~doc:"Seeds in the chaos matrix (with $(b,--chaos)); each seed \
                          runs every fault in the campaign.") in
  let json = Arg.(value & flag & info [ "json" ]
                  ~doc:"Print the renaming.server/v1 (or renaming.chaos/v1 with \
                        $(b,--chaos)) JSON report on stdout.") in
  let slo = Arg.(value & opt (some string) None
                 & info [ "slo" ] ~docv:"SPEC"
                   ~doc:"Evaluate the run against a service-level objective spec \
                         (e.g. $(b,p99_ns<=50000,shed_rate<=0.05,violations=0)) as \
                         burn rates over the telemetry windows; exit nonzero on a \
                         sustained burn.") in
  let trace = Arg.(value & opt (some string) None
                   & info [ "trace" ] ~docv:"FILE"
                     ~doc:"Record a flight ring and write it with the telemetry \
                           counter tracks as Chrome trace JSON (open in \
                           ui.perfetto.dev).") in
  let tick = Arg.(value & opt int 1_000_000 & info [ "tick" ] ~docv:"NS"
                  ~doc:"Sampler tick interval in nanoseconds (0 disables the \
                        sampler domain).") in
  let journeys = Arg.(value & flag & info [ "journeys" ]
                      ~doc:"Trace per-request journeys: tail-based reservoir of \
                            the slowest requests with per-stage blame. Prints \
                            the top waterfalls (JSON gains a $(b,tail_blame) \
                            section); exits 1 when an extreme tail has no \
                            captured journey to explain it.") in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Serve renaming as a service: sharded protocol pool, batched releases, \
             warm-name cache, driven by Zipf churn across OS domains")
    Term.(const server $ shards $ k $ s $ clients $ requests $ warm $ batch $ theta
          $ rate $ think $ seed $ plan $ policy $ chaos $ matrix $ json
          $ metrics_arg $ slo $ trace $ tick $ journeys)

let () =
  let info =
    Cmd.info "renaming-cli" ~version:"1.0.0"
      ~doc:"Fast long-lived renaming (Buhrman, Garay, Hoepman, Moir - PODC 1995)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ simulate_cmd; modelcheck_cmd; params_cmd; experiment_cmd; trace_cmd;
            domains_cmd; observe_cmd; faults_cmd; recover_cmd; server_cmd ]))
