(** Renaming as a service: a sharded, batched, {e self-healing} name
    server.

    The paper's {e long-lived} property — names can be acquired and
    released forever, at a cost independent of the unbounded source
    space — is exactly what makes a name {e server} viable.  This
    module turns the protocol objects into one:

    {ul
    {- {b Sharding.}  A pool of {!Renaming.Protocol.S} instances (one
       per shard, each over its own layout and atomic store, labelled
       [~stage:shard] for the flight recorder), with source names
       routed by a seed-fixed hash.  Per-shard concurrency is capped
       at the shard protocol's [k], so every instance runs inside its
       correctness precondition; the global destination space is the
       concatenation of the shard spaces.}
    {- {b A preallocated lock-free request slab.}  Every held name is
       carried by one slot of a fixed slab ([shards × k] slots —
       the tight bound, since admission caps holders).  Shard [sh]
       owns slots [\[sh·k, (sh+1)·k)], claimed from its own tag-CAS
       Treiber freelist (admission guarantees an admitted request a
       slot there) and threaded through the shard's pending-release
       list by index; a request allocates no slab state, and tokens
       handed to clients are slot indices.  Shard heads and
       counters, heartbeats and per-slot fences and fields each sit
       on their own cache line.}
    {- {b Batched release draining.}  {!release} does not run the
       protocol's [release_name]: the lease parks in the client's warm
       cache or on the shard's pending list, and whichever client
       trips the [batch] threshold (or needs admission capacity, or
       calls {!drain_all}) drains the whole list at once — releases
       are executed off the acquire path, in batches.}
    {- {b A per-client warm-name cache.}  A released name stays {e
       held} from the protocol's point of view, cached client-side; a
       re-acquire of the same source name by the same client is
       granted from the cache with {b zero} protocol (store) accesses.
       This is legal {e precisely because renaming is long-lived}: the
       server never returned the name, it merely held it longer — §2's
       uniqueness condition cannot be violated by re-granting a name
       to the process that already holds it, and the claim table keeps
       every other client out ({!outcome.Busy}) until the lease is
       actually drained.}
    {- {b Resilience.}  Every lease retirement — batched drain or
       crash reclaim — must win a CAS on the slot's {e retirement
       fence}, so it happens exactly once no matter how drains,
       reclaims and fenced clients interleave.  Liveness rides on
       {!tend}: clients heartbeat, and one of them cooperatively holds
       the {e reclaimer seat} — scanning for dead clients (reclaiming
       their leases through the protocol's [reset_footprint], adopting
       drain walks they died inside, sweeping their claims), healing
       wedged drains, and driving per-shard {!Health}: a shard that
       leaks leases or wedges its drain is {e quarantined}, its
       acquires spill to a sibling (salted-rehash failover — the claim
       table keeps uniqueness, not the route), and it is re-admitted
       once rebuilt in place.  A client declared dead by mistake is
       {e fenced} by its epoch: it re-syncs and carries on, its stale
       tokens dying silently rather than double-retiring.}}

    Uniqueness is monitored on-line through a {!Runtime.Agg}
    scoreboard exactly as {!Runtime.Domain_runner} does, and when a
    registry / flight ring is supplied every client writes its own
    shard, so the whole [lib/obs] stack (occupancy, provenance,
    Perfetto export) applies to server runs unchanged. *)

module Health = Health
module Policy = Policy

type resilience = {
  scan_interval_ns : int;
      (** Wall-clock spacing between reclaimer scans ([0] = every
          eligible {!tend}). *)
  lease_ttl : int;
      (** Scans without a heartbeat before a client is declared dead
          (also the orphaned-pending retirement threshold). *)
  seat_ttl : int;
      (** Silent scan intervals before the reclaimer seat is stolen. *)
  tend_every : int;  (** {!tend} calls between seat/epoch checks. *)
  degrade_sheds : int;  (** {!Health.thresholds.degrade_sheds}. *)
  quarantine_leaks : int;  (** {!Health.thresholds.quarantine_leaks}. *)
  drain_stale : int;  (** {!Health.thresholds.drain_stale}. *)
}

val default_resilience : resilience
(** [scan_interval_ns = 1ms], [lease_ttl = 8], [seat_ttl = 4],
    [tend_every = 32], and {!Health.default_thresholds}. *)

type config = {
  shards : int;  (** Protocol instances in the pool. *)
  k_per_shard : int;  (** Concurrent holders admitted per shard. *)
  source_space : int;  (** Size [S] of the source name space. *)
  warm_capacity : int;  (** Warm leases cached per client ([0] disables). *)
  batch : int;  (** Pending releases that trip a shard drain. *)
  clients : int;  (** Registered client handles (one per domain). *)
  resilience : resilience;
}

val default_config :
  ?shards:int ->
  ?k_per_shard:int ->
  ?warm_capacity:int ->
  ?batch:int ->
  ?resilience:resilience ->
  clients:int ->
  source_space:int ->
  unit ->
  config
(** Defaults: 4 shards of [k = 4], warm capacity 2, batch 8,
    {!default_resilience}. *)

type t
type client

type outcome =
  | Granted of { name : int; token : int; warm : bool; accesses : int }
      (** [name] is global (shard base + local name); pass [token]
          back to {!release}.  [warm] grants cost [accesses = 0];
          cold grants report the protocol's shared-access count. *)
  | Busy
      (** The source name is claimed by another client (held, warm, or
          pending drain) — the renaming precondition that distinct
          concurrent participants carry distinct source names, served
          as first-come-first-served admission. *)
  | Shed
      (** The shard is at its [k] capacity even after draining — the
          server refuses rather than break the protocol's bound. *)

val create :
  ?registry:Obs.Registry.t ->
  ?flight:Obs.Flight.t ->
  ?journeys:Obs.Journey.t array ->
  ?backend:(Shared_mem.Layout.t -> stage:int -> k:int -> Renaming.Protocol.Any.t) ->
  ?parked:int ->
  config ->
  t
(** Build the shard pool (default backend: {!Renaming.Split} per
    shard).  Client handles, registry shards and flight rings are all
    created here, before any domain runs.  With a [registry], each
    snapshot assigns the [server.*] counters and the warm access
    histogram from the clients' own counters ({!client_stats}); the
    request path itself does no registry work beyond one histogram
    observation per cold grant.  [parked] (default [0]) is
    the number of clients that will park holding a name — forwarded
    to the {!Runtime.Agg} scoreboard.  [journeys] wires one
    per-request journey recorder per client (same index as client
    ids): the server stamps stage dwells — claim CAS, admission
    flushes, drains, the protocol acquire with its access count,
    release/pending fencing, reclaimer work — into whichever journey
    the owning domain has in flight, and attributes out-of-journey
    work as window interference.
    @raise Invalid_argument on a non-positive dimension, a bad
    resilience knob, a [journeys] array not sized [clients], or when
    the slab would exceed the token encoding (≈2M slots). *)

val client : t -> int -> client
(** The preallocated handle of client [id ∈ \[0, clients)].  A handle
    is single-owner: exactly one domain may use it. *)

val acquire : t -> client -> src:int -> outcome
(** Serve one acquire request for source name [src].  When the
    routed shard is quarantined the request fails over to a live
    sibling (counted in {!resilience_stats.failovers}).
    @raise Invalid_argument when [src] is outside [\[0, source_space)]. *)

val release : t -> client -> token:int -> unit
(** Give a granted name back: into the warm cache (evicting the
    oldest warm lease onto the shard's pending list when full), or
    straight onto the pending list when caching is off.  Drains the
    shard when the batch threshold trips.  A client that was declared
    dead and fenced does {e not} raise here, whether or not it has
    resynced since: its token was retired on its behalf (or is now),
    and the release is counted in [fenced] and otherwise absorbed.  A
    retired slot already re-granted to another client is left alone.
    @raise Invalid_argument if [token] was never granted to this
    client or has already been released. *)

val flush : t -> client -> unit
(** Push every warm lease this client caches onto its shard's pending
    list and drain those shards — call in a client's epilogue so no
    release can be lost at the join.  Only the owning client may
    flush its cache (it is domain-local state). *)

val drain_all : t -> client -> unit
(** Drain every shard's pending list, [client] doing the work — call
    after the join to retire batched releases other clients left
    behind.  Cannot flush other clients' warm caches (see {!flush});
    anything still warm after a crash stays held until {!scan}
    reclaims it, and shows up in {!outstanding} meanwhile — exactly a
    leak. *)

val outstanding : t -> int
(** Names currently held, warm, or pending drain, across all shards. *)

(** {1 Liveness: heartbeats, the reclaimer seat, health}

    Crash tolerance is cooperative: no external reclaimer process
    exists.  Clients call {!tend} once per request (or at any
    convenient cadence); it bumps the caller's heartbeat and, every
    [tend_every] calls, checks the {e reclaimer seat} — claiming it if
    vacant, scanning if held and due, stealing it if the holder's scan
    heartbeat has been silent for [seat_ttl] intervals.  The seat's
    epoch fences deposed holders; the per-slot fences make even an
    in-flight deposed retirement exactly-once. *)

val tend : t -> client -> unit
(** Heartbeat + seat duty.  Cheap when off-duty: one atomic increment
    per call, seat logic only every [tend_every] calls and at most
    once per [scan_interval_ns]. *)

val scan : t -> client -> unit
(** Seize the seat unconditionally and run one scan now — for tests
    and run epilogues (e.g. settling leaked leases after a join);
    production clients should let {!tend} pace scans instead. *)

val seize_seat : t -> client -> int
(** Take the reclaimer seat (epoch-fenced CAS; returns the new seat
    word).  Exposed so a fault plan can start a run with a chosen
    victim on duty. *)

val health : t -> int -> Health.state
(** The router-visible health of a shard.
    @raise Invalid_argument on a bad shard index. *)

val set_chaos : client -> (string -> unit) option -> unit
(** Install a fault-injection hook on a client handle; it fires at
    every drain-walk slot boundary (tag ["drain"]) {e before} the
    slot's retirement fence is attempted, so a hook that raises or
    parks models a crash that can orphan a pending chain but never
    half-retires a slot.  Owning domain only. *)

type resilience_stats = {
  scans : int;  (** Reclaimer scans executed (all seat holders). *)
  deaths : int;  (** Clients declared dead. *)
  reclaimed : int;  (** Leases reclaimed from dead clients. *)
  claims_swept : int;  (** Orphaned source claims cleared. *)
  reclaim_max_scans : int;
      (** Worst staleness (in scans) at which a lease was reclaimed —
          the chaos campaign's time-to-reclaim bound. *)
  drain_heals : int;  (** Wedged-drain + orphaned-pending retirements. *)
  adopted_walks : int;  (** Dead walkers' drain cursors adopted. *)
  seat_steals : int;
  quarantines : int;  (** Shard transitions into quarantine. *)
  rebuilds : int;  (** Quarantined shards re-admitted. *)
  fenced : int;  (** Client operations absorbed by an epoch fence. *)
  failovers : int;  (** Acquires spilled off a quarantined shard. *)
}

val resilience_stats : t -> resilience_stats
(** Snapshot of the liveness counters.  Atomics plus per-client
    single-writer fields — read after the join for exact values,
    any time for telemetry-grade ones. *)

val name_space : t -> int
val shards : t -> int

val shard_of : t -> src:int -> int
(** The shard serving [src] — a pure function of [(src, shards)], so
    routing is stable across calls, clients and server instances of
    the same geometry.  Failover may serve [src] elsewhere while that
    shard is quarantined. *)

val shard_route : shards:int -> src:int -> int
(** {!shard_of} without a server: the same pure routing function, for
    harnesses that need a shard's source set before construction. *)

val scoreboard : t -> Runtime.Agg.t
(** The live uniqueness/concurrency scoreboard (violations, holder
    high-water marks, per-client cycle counts).  Freeze it with
    {!Runtime.Agg.result} after the run. *)

val merge_flight : t -> unit
(** Concatenate per-client flight rings into the ring passed at
    {!create} (client order) — call after the join, like
    {!Runtime.Domain_runner}'s merge. *)

(** {1 Per-client counters} — single-writer; read them after the join
    (a registry snapshot reads them live, telemetry-grade). *)

type client_stats = {
  acquires : int;  (** Granted, warm and cold together. *)
  warm_hits : int;
  busy : int;
  shed : int;
  drains : int;  (** Times this client drained a shard. *)
  drained_releases : int;  (** Protocol releases it executed doing so. *)
  fenced : int;  (** Operations absorbed by this client's epoch fence. *)
  failovers : int;  (** Acquires it spilled off quarantined shards. *)
}

val client_stats : client -> client_stats
val client_id : client -> int

val client_obs : client -> Obs.Registry.shard option
(** The client's registry shard (when a registry was supplied) — the
    load harness adds its latency series to the same shard. *)

(** {1 Telemetry probes} — read-only snapshots for a sampler.

    Every probe below only {e reads}: admission/pending atomics via
    [Atomic.get], warm-cache residency via plain reads of the clients'
    own fields (possibly stale — telemetry-grade by design).  Nothing
    is written, so attaching a {!Obs.Sampler} adds {b zero} shared
    accesses to any request path; the warm-grant path keeps its
    verified 0 {e protocol} accesses (its one slab-local fence CAS is
    outside the tallied store). *)

type shard_probe = {
  admitted : int;  (** Admission occupancy: held + warm + pending ≤ k. *)
  pending : int;  (** Pending-release list depth. *)
  warm : int;  (** Warm leases parked on this shard across clients. *)
}

val probe_shard : t -> int -> shard_probe
(** @raise Invalid_argument on a bad shard index. *)

val probe_free : t -> int
(** Free slab slots (capacity minus every shard's admitted count). *)

val probe_claims : t -> int
(** Source names currently claimed — an [O(source_space)] scan; fine
    at sampler tick rates, not for request paths. *)

val sampler_sources : t -> Obs.Sampler.source list
(** The canonical gauge set for {!Obs.Sampler.create}: per shard
    [shardN.admitted] / [shardN.pending] / [shardN.warm] /
    [shardN.health], plus [slab.free], [claims.held], [seat.scans]
    and [reclaimed]. *)
