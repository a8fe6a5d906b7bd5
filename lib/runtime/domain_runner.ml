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

(* Per-worker instrumentation.  One [Store.tally] arena on [ops]
   serves every count: the grouped store counters (materialized at
   snapshot) when a registry is wired, each operation's access count
   (mark/since) for the [Obs.Registry.op] recorders, and the flight
   clock (the never-reset running total).  The span clock is the
   worker's own access count: real time is preemptive, and global
   step order is not observable the way it is under the simulator;
   cross-domain ordering is not claimed — see the Flight doc. *)
type instr = {
  shard : Obs.Registry.shard option;
  tally : Store.tally;
  ops : Store.ops;
  fly : Obs.Flight.event -> unit;
  got : int -> unit;  (* record a get that returned this name *)
  released : unit -> unit;  (* record a release *)
}

let instrument ~registry ~ring ~pid raw =
  let tally = Store.tally () in
  let shard = Option.map Obs.Registry.shard registry in
  let ops = match shard with None -> raw | Some sh -> Store.observed_into tally sh raw in
  let ops, fly =
    match ring with
    | None -> (ops, ignore)
    | Some ring ->
        (* without a registry the ops aren't tallied yet — the flight
           clock still needs the total, so count into the same arena *)
        let ops = if Option.is_none shard then Store.tallying tally ops else ops in
        ( Store.probed
            (Obs.Flight.probe ring ~pid ~clock:(fun () -> Store.tally_total tally))
            ops,
          fun ev -> Obs.Flight.record ring ~clock:(Store.tally_total tally) ~pid ev )
  in
  let got, released =
    match shard with
    | None -> (ignore, ignore)
    | Some sh ->
        let get = lazy (Obs.Registry.op sh "get")
        and release = lazy (Obs.Registry.op sh "release") in
        let clock = ref 0 in
        let record op annotations =
          let accesses = Store.tally_since tally in
          Obs.Registry.record (Lazy.force op) ~pid ~start_step:!clock
            ~end_step:(!clock + accesses) ~accesses ~annotations;
          clock := !clock + accesses
        in
        ((fun n -> record get [ ("name", n) ]), fun () -> record release [])
  in
  { shard; tally; ops; fly; got; released }

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

(* The one worker loop: instrumentation, then the fault dispatch over
   an acquire/hold/release triple.  [get] runs the protocol's acquire
   and returns [None] when the entrant was shed (the cycle is
   skipped); [hold] runs once per held cycle, and over and over while
   parked.  Parked workers hold their name until every non-parked
   worker has finished all its cycles — so parking cannot hang the
   run, and the others' completion IS the wait-freedom assertion. *)
let worker agg ~registry ~ring ~name_space ~cycles ~fault ~get ~name ~hold ~put i raw =
  let pid = raw.Store.pid in
  let ins = instrument ~registry ~ring ~pid raw in
  let ops = ins.ops in
  let names = names ins.shard ~name_space in
  let acquire () =
    Store.tally_mark ins.tally;
    match get ops with
    | None ->
        (match ins.shard with Some sh -> Obs.Registry.inc sh "names.shed" | None -> ());
        None
    | Some lease as held ->
        let n = name lease in
        ins.fly (Obs.Flight.Acquired n);
        ins.got n;
        let held_n, conc = Agg.acquired agg ~worker:i ~name:n in
        gauge_acquired names ~name:n ~held:held_n ~conc;
        held
  in
  let release lease =
    let n = name lease in
    Agg.released agg ~name:n;
    gauge_released names ~name:n;
    Store.tally_mark ins.tally;
    put ops lease;
    ins.fly (Obs.Flight.Released n);
    ins.released ()
  in
  let full_cycle fault cy =
    match acquire () with
    | None -> ()
    | Some lease ->
        (match fault with
        | Some (Stall_holding { cycle; spins }) when cy = cycle -> spin spins
        | Some (Slow n) -> spin n
        | _ -> ());
        hold ops lease;
        release lease;
        (match fault with Some (Slow n) -> spin n | _ -> ());
        Agg.cycle_done agg i
  in
  match fault with
  | Some Park_holding -> (
      match acquire () with
      | None -> () (* shed before parking: nothing held, just exit *)
      | Some lease ->
          while not (Agg.all_normal_done agg) do
            hold ops lease
          done;
          release lease)
  | Some (Crash_holding { cycle }) ->
      for cy = 0 to cycle - 1 do
        full_cycle None cy
      done;
      (* die holding: the domain exits without releasing — the name
         and its register footprint leak unless a recovery layer
         reclaims them (see [run_recovered]) *)
      ignore (acquire ());
      Agg.worker_done agg
  | fault ->
      for cy = 0 to cycles - 1 do
        full_cycle fault cy
      done;
      Agg.worker_done agg

let spawn store ~pids worker =
  let domains =
    Array.mapi (fun i pid -> Domain.spawn (fun () -> worker i (Atomic_store.ops store ~pid))) pids
  in
  Array.iter Domain.join domains

let run (type a) ?registry ?flight ?(faults = [])
    (module P : Renaming.Protocol.S with type t = a) (inst : a) ~layout ~pids ~cycles
    ~name_space =
  let store = Atomic_store.create layout in
  (* Per-worker rings, merged into [flight] in worker order after the
     join — each ring has a single writer, so recording is unsynchronized. *)
  let rings =
    Option.map
      (fun ring ->
        let per = max 1024 (Obs.Flight.capacity ring / max 1 (Array.length pids)) in
        Array.map (fun _ -> Obs.Flight.create ~capacity:per ()) pids)
      flight
  in
  let agg = agg ~entry:"Domain_runner.run" ~name_space ~pids ~faults in
  spawn store ~pids (fun i ->
      worker agg ~registry
        ~ring:(Option.map (fun rs -> rs.(i)) rings)
        ~name_space ~cycles ~fault:(List.assoc_opt i faults)
        ~get:(fun ops -> Some (P.get_name inst ops))
        ~name:(P.name_of inst)
        (* hold the name briefly so overlaps actually occur *)
        ~hold:(fun _ _ -> Domain.cpu_relax ())
        ~put:(P.release_name inst) i);
  (match (flight, rings) with
  | Some ring, Some rs -> Array.iter (fun r -> Obs.Flight.merge ~into:ring r) rs
  | _ -> ());
  Agg.result agg

let run_recovered ?registry ?(faults = []) rc ~layout ~pids ~cycles =
  let name_space = Recovery.name_space rc in
  let store = Atomic_store.create layout in
  let agg = agg ~entry:"Domain_runner.run_recovered" ~name_space ~pids ~faults in
  spawn store ~pids (fun i ->
      worker agg ~registry ~ring:None ~name_space ~cycles ~fault:(List.assoc_opt i faults)
        ~get:(fun ops ->
          match Recovery.acquire rc ops with
          | Recovery.Shed -> None
          | Recovery.Acquired lease -> Some lease)
        ~name:Recovery.name_of ~hold:(Recovery.heartbeat rc)
        ~put:(fun ops lease -> ignore (Recovery.release rc ops lease : bool))
        i);
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
