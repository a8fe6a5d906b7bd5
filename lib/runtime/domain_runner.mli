(** Running a renaming protocol across real OS domains.

    Spawns one domain per source name, each performing acquire/release
    cycles against an {!Atomic_store}, with an on-line uniqueness
    monitor: a per-name atomic holder counter that must never exceed 1
    (incremented after [get_name], decremented before [release_name]).

    When a registry is supplied, every worker writes its own
    {!Obs.Registry.shard} — per-register-group access counters
    ({!Shared_mem.Store.observed_into}), [op.get.accesses] /
    [op.release.accesses] histograms and one span per operation
    (clocked by the worker's own access count) through
    {!Obs.Registry.op}, and [names.held] gauges whose
    high-water marks are fed from the {e global} holder counters, so
    the merged snapshot after the join carries the same schema a
    simulator run produces through [Sim.Observe].

    Useful bounds: run at most [Domain.recommended_domain_count]
    workers for true parallelism; more still works (domains are
    preemptively scheduled) and the protocols are wait-free, so
    stragglers cannot deadlock the run. *)

(** Real-stall fault injection, the multicore face of {!Sim.Faults}:
    simulated plans freeze a fiber; here a faulty worker burns real
    time on its core (or parks outright) while holding a name, and the
    run asserts the non-faulty workers still finish every cycle — the
    paper's wait-freedom claim under genuine preemption, not just
    simulated adversarial schedules. *)
type fault =
  | Park_holding
      (** Acquire once, then hold the name — spinning, never releasing —
          until every non-parked worker has finished all its cycles;
          release and exit then (so the run always terminates).  The
          worker's [cycles_done] stays at [0]: it never completes a
          full acquire/release cycle until the others are done. *)
  | Stall_holding of { cycle : int; spins : int }
      (** On 0-based cycle [cycle], spin [spins] times ([Domain.cpu_relax])
          while holding the name before releasing it. *)
  | Slow of int
      (** Spin this many times after every acquire and every release —
          a slow-lane worker. *)
  | Crash_holding of { cycle : int }
      (** Complete [cycle] full acquire/release cycles, acquire once
          more, then exit the domain {e without releasing} — process
          death while holding a name.  Under {!run} the name and its
          register footprint leak (see [result.leaked]); under
          {!run_recovered} the post-join drain reclaims them. *)

type result = Agg.result = {
  cycles_done : int array;  (** Per worker; equals [cycles] on success. *)
  violations : int;
      (** Times a name was observed held by two workers at once, or a
          name fell outside [\[0, name_space)]. *)
  max_concurrent : int;  (** High-water mark of names held at once. *)
  max_concurrent_by_name : (int * int) list;
      (** [(name, high-water mark of simultaneous holders)] for every
          name ever held, ascending by name; any mark above [1] is a
          uniqueness violation. *)
  first_violation : string option;
      (** Human-readable detail of the first violation observed — which
          name was double-held (or out of range) — [None] on a clean
          run. *)
  leaked : int;
      (** Names still held when the run ended (after reclamation, for
          {!run_recovered}) — names crashed workers took to the grave.
          [0] on a fully clean run. *)
  reclaimed : int;
      (** Leases reclaimed by the post-join drain; always [0] for
          {!run} (no recovery layer). *)
}

val run :
  ?registry:Obs.Registry.t ->
  ?flight:Obs.Flight.t ->
  ?faults:(int * fault) list ->
  (module Renaming.Protocol.S with type t = 'a) ->
  'a ->
  layout:Shared_mem.Layout.t ->
  pids:int array ->
  cycles:int ->
  name_space:int ->
  result
(** [run (module P) inst ~layout ~pids ~cycles ~name_space] spawns
    [Array.length pids] domains.  The instance must have been created
    from [layout] with every pid a legal source name.  [registry], if
    given, gains one shard per worker; snapshot it after [run]
    returns.  [flight], if given, receives the structural flight
    records: each worker writes an unsynchronized private ring
    (capacity [flight]'s capacity divided by the worker count, at
    least 1024), clocked by that worker's own access count, and the
    rings are concatenated into [flight] in worker order after the
    join — so ordering between records of {e different} pids is not
    meaningful, unlike simulator rings.  [faults] maps worker
    {e indices} (positions in [pids], not pids) to faults; at least
    one worker should stay fault-free or [Park_holding] workers would
    wait forever on an empty set.
    @raise Invalid_argument if [pids] is non-empty and {e every} worker
    is [Park_holding] — each would wait on the others forever. *)

val run_recovered :
  ?registry:Obs.Registry.t ->
  ?faults:(int * fault) list ->
  Recovery.t ->
  layout:Shared_mem.Layout.t ->
  pids:int array ->
  cycles:int ->
  result
(** Like {!run} but through a crash-recovery wrapper (created over the
    same [layout], {e before} this call instantiates the store from
    it): acquires go through {!Recovery.acquire} — a shed entrant
    skips the cycle, so [cycles_done] may fall short of [cycles] when
    capacity is tight — each hold performs a {!Recovery.heartbeat},
    and releases are epoch-fenced.  Reclamation is {b quiescent}: no
    scans run while workers do (a preempted live worker can therefore
    never be falsely expired); after the join, scan rounds drain every
    lease crashed workers left behind ([result.reclaimed]), so
    [Crash_holding] leaks end at [0] ([result.leaked]) instead of
    poisoning the name space.
    @raise Invalid_argument as {!run}. *)

(** {1 Per-worker instrumentation}

    What every worker of {!run} and {!run_recovered} wraps its store
    in — exposed so the obs bench prices exactly this path. *)

type instr = {
  shard : Obs.Registry.shard option;  (** A fresh shard of the registry. *)
  tally : Shared_mem.Store.tally;
      (** The worker's one access ledger: mark it before each
          operation. *)
  ops : Shared_mem.Store.ops;  (** The instrumented store. *)
  fly : Obs.Flight.event -> unit;  (** Record into the flight ring. *)
  got : int -> unit;
      (** Record a get that returned this name: one span and one
          [op.get.*] observation of the accesses since the mark. *)
  released : unit -> unit;  (** The same for a release. *)
}

val instrument :
  registry:Obs.Registry.t option ->
  ring:Obs.Flight.t option ->
  pid:int ->
  Shared_mem.Store.ops ->
  instr
(** Without a registry [got]/[released] do nothing; without a ring
    [fly] does nothing. *)
