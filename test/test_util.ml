(* Shared helpers for the test suites. *)

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Occupancy monitoring now lives in Sim.Checks (shared with the
   experiment harness); thin aliases keep the test call sites short. *)
let occupancy = Sim.Checks.occupancy
let occupancy_max = Sim.Checks.occupancy_set_max
let occupancy_monitor = Sim.Checks.occupancy_monitor

(* A process body doing [cycles] enter/release cycles on a splitter,
   with the occupancy instrumentation above.  The working section reads
   [work] once so that "Inside" spans at least one scheduling point
   (events attach to the preceding shared access; with no access
   between "in" and "out" no other process could ever observe the
   process inside its output set and the test would be vacuous). *)
let splitter_cycles splitter ~work cycles (ops : Shared_mem.Store.ops) =
  for _ = 1 to cycles do
    Sim.Sched.emit (Sim.Event.Note ("begin", 0));
    let tok = Renaming.Splitter.enter splitter ops in
    let d = Renaming.Splitter.direction tok in
    Sim.Sched.emit (Sim.Event.Note ("in", d));
    let (_ : int) = ops.read work in
    Sim.Sched.emit (Sim.Event.Note ("out", d));
    Renaming.Splitter.release splitter ops tok;
    Sim.Sched.emit (Sim.Event.Note ("end", 0))
  done

let check_no_violation name (result : Sim.Model_check.result) =
  match result.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: %s (schedule [%s])" name v.message
        (String.concat ";" (List.map string_of_int v.schedule))

let seeds n = List.init n (fun i -> 0x5EED + (i * 7919))

(* ----- renaming-protocol harness ----- *)

(* A process body doing [cycles] acquire/release cycles on a renaming
   protocol, emitting the events the uniqueness monitor expects.  The
   single [work] read keeps the name held across at least one
   scheduling point.  [Released] is emitted *before* release_name:
   per the paper, "Inside" ends when the Release operation starts. *)
let protocol_cycles (type a l)
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work
    ~cycles (ops : Shared_mem.Store.ops) =
  for _ = 1 to cycles do
    let lease = P.get_name inst ops in
    Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
    P.release_name inst ops lease
  done

(* Like [protocol_cycles] but records the shared-access cost of every
   GetName and ReleaseName execution into [get_costs]/[rel_costs]. *)
let protocol_cycles_counted (type a l)
    (module P : Renaming.Protocol.S with type t = a and type lease = l) (inst : a) ~work
    ~cycles ~get_costs ~rel_costs (ops : Shared_mem.Store.ops) =
  let c = Shared_mem.Store.tally () in
  let counted = Shared_mem.Store.tallying c ops in
  for _ = 1 to cycles do
    Shared_mem.Store.tally_mark c;
    let lease = P.get_name inst counted in
    get_costs := Shared_mem.Store.tally_since c :: !get_costs;
    Sim.Sched.emit (Sim.Event.Acquired (P.name_of inst lease));
    ignore (ops.read work);
    Sim.Sched.emit (Sim.Event.Released (P.name_of inst lease));
    Shared_mem.Store.tally_mark c;
    P.release_name inst counted lease;
    rel_costs := Shared_mem.Store.tally_since c :: !rel_costs
  done

(* Run [procs] under a seeded random schedule with the uniqueness
   monitor; returns the outcome and the monitor for inspection.
   Raises (via the monitor) on any uniqueness violation. *)
let run_random ?max_steps ~seed ~name_space layout procs =
  let u = Sim.Checks.uniqueness ~name_space () in
  let t = Sim.Sched.create ~monitor:(Sim.Checks.uniqueness_monitor u) layout procs in
  let outcome = Sim.Sched.run ?max_steps t (Sim.Sched.random (Sim.Rng.make seed)) in
  (outcome, u)

let all_completed (o : Sim.Sched.outcome) = Array.for_all Fun.id o.completed
