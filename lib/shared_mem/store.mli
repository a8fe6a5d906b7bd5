(** Process-side access to shared registers.

    An {!ops} record is the capability a single process uses to touch
    shared memory.  Protocol code is written purely against [ops], so
    the same code runs under the deterministic simulator, a plain
    sequential array (for single-threaded tests), or an [Atomic.t]
    array across OS domains (see the [runtime] library).

    The [pid] field is the process's {e source name} — the identity in
    [{0, …, S-1}] that the renaming protocols reduce. *)

type ops = {
  pid : int;  (** Source name of the executing process. *)
  read : Cell.t -> int;  (** Atomic read of a register. *)
  write : Cell.t -> int -> unit;  (** Atomic write of a register. *)
  rmw : Cell.t -> (int -> int) -> int;
      (** [rmw c f] atomically replaces the contents [v] of [c] by
          [f v] and returns [v].  This is a {e stronger} primitive than
          the paper's read/write registers (consensus number > 1); the
          core protocols never use it — it exists for the Test&Set
          baseline ({!Renaming.Tas_baseline}) that the paper contrasts
          against, and costs one shared access. *)
  probe : Obs.Probe.t;
      (** Structural-event hook: protocol code reports its traced
          steps (splitter enter/exit, mutex enter/check/release) here.
          Defaults to {!Obs.Probe.null} in every backend; install a
          recording probe with {!probed}.  Emitting costs no shared
          access. *)
}

(** {1 Sequential store}

    Backing for single-threaded tests: a plain array.  All processes
    share the same array; no interleaving happens (calls run to
    completion), so it exercises protocol logic, not concurrency. *)

type seq

val seq_create : Layout.t -> seq
(** Instantiate register storage from a layout's initial values. *)

val seq_ops : seq -> pid:int -> ops
(** Capability for process [pid] over the sequential store. *)

val seq_get : seq -> Cell.t -> int
(** Direct inspection of a register (test helper, not a protocol step). *)

val seq_set : seq -> Cell.t -> int -> unit
(** Direct mutation of a register (test helper, not a protocol step). *)

val group : Cell.t -> string
(** The register-group key used by {!observed_into}: the cell's name
    up to the first ['[']. *)

val probed : Obs.Probe.t -> ops -> ops
(** [probed p ops] is [ops] with [p] installed as the structural
    probe.  The probe closure should capture the process identity it
    attributes events to at wrap time — [{ ops with pid }] re-labelling
    (pipeline chaining, crash recovery) carries the probe along
    unchanged, so attribution stays with the original process. *)

(** {1 The access ledger}

    A {!tally} is one process's flat, preallocated access ledger and
    the one access counter on the [ops] seam (the paper's complexity
    measure; the simulator's [Sim.Observe] counts from the scheduler's
    access stream instead): per-register-kind counts indexed by dense
    {!Cell.id} plus a running total, all plain int-array stores on the
    hot path.  One arena serves per-group registry metrics ({e
    deferred}: deltas are pushed only when a snapshot runs),
    per-operation access counts ([tally_mark]/[tally_since]) and the
    flight recorder's logical clock ([tally_total]).  Every access —
    read, write or [rmw] — counts one.  Single-writer, like every
    registry shard. *)

type tally

val tally : unit -> tally

val observed_into : tally -> Obs.Registry.shard -> ops -> ops
(** [observed_into t shard ops] forwards to [ops], recording each
    access in [t].  Group counters ([store.reads.<group>], …, plus the
    ungrouped totals [store.reads] / [store.writes] / [store.rmws]; a
    register's {e group} is its {!Cell.name} up to the first ['[']) are
    materialized into [shard] as deltas when {!Obs.Registry.snapshot}
    runs, or on {!tally_flush}.  Several [ops] may share one tally
    (e.g. one per server shard store) but a tally binds to a single
    registry shard: a second [observed_into] with a different shard
    raises [Invalid_argument]. *)

val tallying : tally -> ops -> ops
(** Total-only variant for runs without a registry: bumps the running
    total (so [tally_total]/[tally_since] work) but skips per-register
    bookkeeping. *)

val tally_total : tally -> int
(** Every access since creation — never reset; the flight recorder's
    logical clock. *)

val tally_mark : tally -> unit
(** Mark the current total; {!tally_since} reports accesses since. *)

val tally_since : tally -> int

val tally_flush : tally -> unit
(** Push unpushed deltas into the bound registry shard now (no-op for
    an unbound tally).  Registered automatically via
    {!Obs.Registry.on_snapshot}, so explicit calls are rarely
    needed. *)

(** {2 Pre-tally names}

    Aliases kept for one caller, the [perfbench/] harness, which runs
    unchanged against every commit it compares; new code uses the
    tally names above. *)

type counter = tally

val counter : unit -> counter
(** = {!tally}. *)

val counting : counter -> ops -> ops
(** = {!tallying}. *)

val reset : counter -> unit
(** = {!tally_mark}. *)

val accesses : counter -> int
(** = {!tally_since}. *)
