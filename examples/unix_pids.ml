(* The Unix scenario from the paper's introduction: "processes have
   unique identifiers from a large range, but the number of processes
   that run concurrently is much smaller".

   Here 30 distinct "OS processes" with 22-bit pids come and go over
   time, multiplexed over k = 5 concurrent execution slots (the
   long-lived workload: at most k concurrent, unboundedly many over
   time).  Every client acquires a dense name from the pipeline; the
   per-operation cost is independent of the 4-million-entry pid space.

     dune exec examples/unix_pids.exe *)

open Shared_mem
module Pipeline = Renaming.Pipeline

let () =
  let k = 5 in
  let s = 1 lsl 22 in
  let slots = k in
  let pool_per_slot = 6 in
  (* 30 distinct sparse pids, partitioned among the slots so that no
     source name is ever active twice concurrently *)
  let rng = Sim.Rng.make 7 in
  let pool = Array.init (slots * pool_per_slot) (fun _ -> Sim.Rng.int rng s) in
  let pool = Array.to_list pool |> List.sort_uniq compare |> Array.of_list in
  let layout = Layout.create () in
  let protocol = Pipeline.create layout ~k ~s ~participants:pool in
  let work = Layout.alloc layout ~name:"work" 0 in
  Fmt.pr "pid space: %d entries; active slots: %d; client pids over time: %d@." s slots
    (Array.length pool);
  Fmt.pr "pipeline:@.%a@." Pipeline.pp_stages protocol;

  let per_slot = Array.length pool / slots in
  let slot_pids i = Array.sub pool (i * per_slot) per_slot in
  let costs = ref [] in
  let slot_body i (ops : Store.ops) =
    let pids = slot_pids i in
    let c = Store.tally () in
    for cycle = 0 to (3 * per_slot) - 1 do
      let ops = Store.tallying c { ops with pid = pids.(cycle mod per_slot) } in
      Store.tally_mark c;
      let lease = Pipeline.get_name protocol ops in
      Sim.Sched.emit (Sim.Event.Acquired (Pipeline.name_of protocol lease));
      ignore (ops.read work);
      Sim.Sched.emit (Sim.Event.Released (Pipeline.name_of protocol lease));
      Pipeline.release_name protocol ops lease;
      costs := Store.tally_since c :: !costs
    done
  in
  let u = Sim.Checks.uniqueness ~name_space:(Pipeline.name_space protocol) () in
  let t =
    Sim.Sched.create
      ~monitor:(Sim.Checks.uniqueness_monitor u)
      layout
      (Array.init slots (fun i -> ((slot_pids i).(0), slot_body i)))
  in
  let outcome = Sim.Sched.run ~max_steps:20_000_000 t (Sim.Sched.random (Sim.Rng.make 99)) in
  assert (Array.for_all Fun.id outcome.completed);
  let summary = Stats.summarize_ints !costs in
  Fmt.pr "sessions served: %d (30 identities rotating through %d slots)@." summary.n slots;
  Fmt.pr "dense names used: %d of %d; never more than %d held at once@."
    (Sim.Checks.names_used u)
    (Pipeline.name_space protocol)
    (Sim.Checks.max_concurrent u);
  Fmt.pr "full session cost (GetName + release): mean %.1f, p95 %.0f, max %.0f accesses@."
    summary.mean summary.p95 summary.max;
  Fmt.pr "note: a single scan of the raw pid space would cost %d accesses.@." s
