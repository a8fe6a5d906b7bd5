open Shared_mem

type fault =
  | Park_holding
  | Stall_holding of { cycle : int; spins : int }
  | Slow of int
  | Crash_holding of { cycle : int }

type result = Agg.result = {
  cycles_done : int array;
  violations : int;
  max_concurrent : int;
  max_concurrent_by_name : (int * int) list;
  first_violation : string option;
  leaked : int;
  reclaimed : int;
}

(* Both entry points build their scoreboard here so the aggregation
   setup cannot drift between them (it used to be duplicated). *)
let agg ~entry ~name_space ~pids ~faults =
  Agg.create ~entry ~name_space ~workers:(Array.length pids)
    ~parked:(List.length (List.filter (fun (_, f) -> f = Park_holding) faults))

(* Per-domain Obs instrumentation: one [Store.tally] arena on [ops]
   (grouped access counts materialize at snapshot), one span per
   operation clocked by the worker's own access count, and the
   op.*.accesses histograms.  Metric handles are resolved once per op
   name, not per call — no string building on the cycle path. *)
let instrument ~registry ~pid raw =
  let shard = Option.map (fun r -> Obs.Registry.shard r) registry in
  let t = Store.tally () in
  let ops =
    match shard with
    | None -> raw
    | Some sh -> Store.observed_into t sh raw
  in
  let clock = ref 0 in
  let handles = ref [] in
  let record sh op annotations =
    let accesses = Store.tally_since t in
    Obs.Registry.record_span sh ~name:op ~pid ~start_step:!clock
      ~end_step:(!clock + accesses) ~accesses ~annotations;
    clock := !clock + accesses;
    let hist, count =
      match List.assoc_opt op !handles with
      | Some h -> h
      | None ->
          let h =
            ( Obs.Registry.histogram sh ("op." ^ op ^ ".accesses"),
              Obs.Registry.counter sh ("op." ^ op ^ ".count") )
          in
          handles := (op, h) :: !handles;
          h
    in
    Obs.Histogram.observe hist accesses;
    Obs.Counter.incr count
  in
  (shard, t, ops, record)

(* One worker's names.* metrics, each resolved on first use and then
   cached, the per-name gauges in an array indexed by name: the cycle
   path builds no strings and makes no table lookups, and a snapshot
   lists exactly the metrics the run touched. *)
type names = {
  sh : Obs.Registry.shard;
  held : Obs.Gauge.t Lazy.t;
  acquired : Obs.Counter.t Lazy.t;
  released : Obs.Counter.t Lazy.t;
  by_name : Obs.Gauge.t option array;  (* names.held.N *)
}

let names shard ~name_space =
  Option.map
    (fun sh ->
      {
        sh;
        held = lazy (Obs.Registry.gauge sh "names.held");
        acquired = lazy (Obs.Registry.counter sh "names.acquired");
        released = lazy (Obs.Registry.counter sh "names.released");
        by_name = Array.make name_space None;
      })
    shard

let name_gauge nm name =
  match nm.by_name.(name) with
  | Some g -> g
  | None ->
      let g = Obs.Registry.gauge nm.sh ("names.held." ^ string_of_int name) in
      nm.by_name.(name) <- Some g;
      g

let gauge_acquired names ~name ~held ~conc =
  match names with
  | Some nm ->
      let g = Lazy.force nm.held in
      Obs.Gauge.incr g;
      Obs.Gauge.observe g conc;
      if name >= 0 && name < Array.length nm.by_name then begin
        let gn = name_gauge nm name in
        Obs.Gauge.incr gn;
        Obs.Gauge.observe gn held
      end;
      Obs.Counter.incr (Lazy.force nm.acquired)
  | None -> ()

let gauge_released names ~name =
  match names with
  | Some nm ->
      Obs.Gauge.decr (Lazy.force nm.held);
      if name >= 0 && name < Array.length nm.by_name then
        Obs.Gauge.decr (name_gauge nm name);
      Obs.Counter.incr (Lazy.force nm.released)
  | None -> ()

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let run (type a) ?registry ?flight ?(faults = [])
    (module P : Renaming.Protocol.S with type t = a) (inst : a) ~layout ~pids ~cycles
    ~name_space =
  let store = Atomic_store.create layout in
  (* Per-worker rings, merged into [flight] in worker order after the
     join — each ring has a single writer, so recording is unsynchronized. *)
  let worker_rings =
    match flight with
    | None -> [||]
    | Some ring ->
        let per =
          max 1024 (Obs.Flight.capacity ring / max 1 (Array.length pids))
        in
        Array.map (fun _ -> Obs.Flight.create ~capacity:per ()) pids
  in
  (* parked workers hold their name until every non-parked worker has
     finished all its cycles — so parking cannot hang the run, and the
     others' completion IS the wait-freedom assertion *)
  let agg = agg ~entry:"Domain_runner.run" ~name_space ~pids ~faults in
  let worker i pid () =
    (* Each domain writes its own registry shard; shards merge on
       snapshot, after the join.  The worker's span clock is its own
       access count (real time is preemptive; global step order is not
       observable the way it is under the simulator). *)
    let raw = Atomic_store.ops store ~pid in
    let shard, t, ops, record = instrument ~registry ~pid raw in
    let names = names shard ~name_space in
    (* The flight clock is the domain's own total access count — the
       tally's never-reset running total (per-operation deltas use
       mark/since on the same arena, so one count feeds both); cross-
       domain ordering is not claimed — see the Flight doc. *)
    let ops, fring =
      if Array.length worker_rings = 0 then (ops, None)
      else begin
        let ring = worker_rings.(i) in
        (* without a registry the ops aren't tallied yet — the flight
           clock still needs the total, so count into the same arena *)
        let ops = if Option.is_none shard then Store.tallying t ops else ops in
        ( Store.probed
            (Obs.Flight.probe ring ~pid ~clock:(fun () -> Store.tally_total t))
            ops,
          Some ring )
      end
    in
    let fly ev =
      match fring with
      | None -> ()
      | Some ring -> Obs.Flight.record ring ~clock:(Store.tally_total t) ~pid ev
    in
    let acquire () =
      Store.tally_mark t;
      let lease = P.get_name inst ops in
      let n = P.name_of inst lease in
      fly (Obs.Flight.Acquired n);
      (match shard with Some sh -> record sh "get" [ ("name", n) ] | None -> ());
      let held, conc = Agg.acquired agg ~worker:i ~name:n in
      gauge_acquired names ~name:n ~held ~conc;
      (lease, n)
    in
    let release (lease, n) =
      Agg.released agg ~name:n;
      gauge_released names ~name:n;
      Store.tally_mark t;
      P.release_name inst ops lease;
      fly (Obs.Flight.Released n);
      match shard with Some sh -> record sh "release" [] | None -> ()
    in
    match List.assoc_opt i faults with
    | Some Park_holding ->
        let held = acquire () in
        while not (Agg.all_normal_done agg) do
          Domain.cpu_relax ()
        done;
        release held
    | Some (Crash_holding { cycle }) ->
        for _ = 1 to cycle do
          let held = acquire () in
          Domain.cpu_relax ();
          release held;
          Agg.cycle_done agg i
        done;
        (* die holding: the domain exits without releasing — the name
           and its register footprint leak unless a recovery layer
           reclaims them (see [run_recovered]) *)
        ignore (acquire ());
        Agg.worker_done agg
    | fault ->
        for cy = 0 to cycles - 1 do
          let held = acquire () in
          (match fault with
          | Some (Stall_holding { cycle; spins }) when cy = cycle -> spin spins
          | Some (Slow n) -> spin n
          | _ -> ());
          (* hold the name briefly so overlaps actually occur *)
          Domain.cpu_relax ();
          release held;
          (match fault with Some (Slow n) -> spin n | _ -> ());
          Agg.cycle_done agg i
        done;
        Agg.worker_done agg
  in
  let domains = Array.mapi (fun i pid -> Domain.spawn (worker i pid)) pids in
  Array.iter Domain.join domains;
  (match flight with
  | None -> ()
  | Some ring -> Array.iter (fun r -> Obs.Flight.merge ~into:ring r) worker_rings);
  Agg.result agg

let run_recovered ?registry ?(faults = []) rc ~layout ~pids ~cycles =
  let name_space = Recovery.name_space rc in
  let store = Atomic_store.create layout in
  let agg = agg ~entry:"Domain_runner.run_recovered" ~name_space ~pids ~faults in
  let worker i pid () =
    let raw = Atomic_store.ops store ~pid in
    let shard, t, ops, record = instrument ~registry ~pid raw in
    let names = names shard ~name_space in
    let acquire () =
      Store.tally_mark t;
      match Recovery.acquire rc ops with
      | Recovery.Shed ->
          (match shard with Some sh -> Obs.Registry.inc sh "names.shed" | None -> ());
          None
      | Recovery.Acquired lease ->
          let n = Recovery.name_of lease in
          (match shard with Some sh -> record sh "get" [ ("name", n) ] | None -> ());
          let held, conc = Agg.acquired agg ~worker:i ~name:n in
          gauge_acquired names ~name:n ~held ~conc;
          Some (lease, n)
    in
    let release (lease, n) =
      Agg.released agg ~name:n;
      gauge_released names ~name:n;
      Store.tally_mark t;
      ignore (Recovery.release rc ops lease : bool);
      match shard with Some sh -> record sh "release" [] | None -> ()
    in
    let full_cycle fault cy =
      match acquire () with
      | None -> () (* shed: skip the cycle, the admission bound held *)
      | Some ((lease, _) as held) ->
          (match fault with
          | Some (Stall_holding { cycle; spins }) when cy = cycle -> spin spins
          | Some (Slow n) -> spin n
          | _ -> ());
          Recovery.heartbeat rc ops lease;
          release held;
          (match fault with Some (Slow n) -> spin n | _ -> ());
          Agg.cycle_done agg i
    in
    match List.assoc_opt i faults with
    | Some Park_holding -> (
        match acquire () with
        | None -> () (* shed before parking: nothing held, just exit *)
        | Some ((lease, _) as held) ->
            while not (Agg.all_normal_done agg) do
              Recovery.heartbeat rc ops lease
            done;
            release held)
    | Some (Crash_holding { cycle }) ->
        for cy = 0 to cycle - 1 do
          full_cycle None cy
        done;
        ignore (acquire ());
        Agg.worker_done agg
    | fault ->
        for cy = 0 to cycles - 1 do
          full_cycle fault cy
        done;
        Agg.worker_done agg
  in
  let domains = Array.mapi (fun i pid -> Domain.spawn (worker i pid)) pids in
  Array.iter Domain.join domains;
  (* Quiescent reclamation: scanning only after the join means a slow
     live worker can never be falsely expired by real preemption — the
     only leases left now belong to crashed workers. *)
  let reclaimed = ref 0 in
  if Array.length pids > 0 then begin
    let drain_ops = Atomic_store.ops store ~pid:pids.(0) in
    let max_rounds = Recovery.lease_ttl rc + Array.length pids + 4 in
    let rounds = ref 0 in
    while Recovery.outstanding rc > 0 && !rounds < max_rounds do
      incr rounds;
      ignore
        (Recovery.scan rc drain_ops ~on_reclaim:(fun ~pid:_ ~name ~latency:_ ->
             incr reclaimed;
             Agg.released agg ~name)
          : int)
    done
  end;
  Agg.result ~reclaimed:!reclaimed agg
