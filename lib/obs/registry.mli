(** The metrics registry: named counters, gauges, histograms and span
    rings, sharded by writer.

    A {!shard} is the write capability of one process or OS domain.
    Writes are plain mutable stores on data only the owning writer
    touches — no locks, no atomics on the hot path; the registry mutex
    guards only shard {e creation} and {e snapshotting}.  A snapshot
    merges every shard into one name-keyed view (counters add, gauge
    currents add / high-water marks max, histograms merge
    element-wise, span rings concatenate), so simulator runs (one
    shard), [Domain_runner] runs (one shard per domain, merged after
    join) and model-check counterexample replays all report through the
    same schema.

    Metric names are dot-separated paths ([store.reads.SLOT],
    [op.get.accesses], [names.held.3]); exporters map them to the
    target format's conventions. *)

type t
type shard

val create : ?span_capacity:int -> unit -> t
(** [span_capacity] (default [4096]) bounds each shard's span ring. *)

val shard : ?span_capacity:int -> t -> shard
(** Register a new shard; call once per writer, {e before} its hot
    loop (takes the registry mutex).  [span_capacity] overrides the
    registry default for this shard. *)

val shard_id : shard -> int
(** Creation order, from [0]. *)

val on_snapshot : shard -> (unit -> unit) -> unit
(** [on_snapshot s f] registers [f] to run at the start of every
    {!snapshot}, before shards merge — the hook for deferred
    publishers (e.g. [Store] access tallies) that batch hot-path
    counts in private storage and only materialize registry metrics
    when someone looks.  Register at wiring time, like {!shard}
    itself: the list is plain mutable state owned by the shard's
    writer. *)

(** {1 Writing} — find-or-create by name, then update. *)

val counter : shard -> string -> Counter.t
val gauge : shard -> string -> Gauge.t
val histogram : shard -> string -> Histogram.t

val inc : shard -> string -> unit
val count : shard -> string -> int -> unit
val observe : shard -> string -> int -> unit
(** Histogram shorthand. *)

val span : shard -> Span.t -> unit

(** {1 Operation records}

    One handle per (shard, operation): the single writer of a
    per-operation span and of the [op.<op>.accesses] histogram and
    [op.<op>.count] counter, for the simulator ([Sim.Observe]), the
    domain runner and the obs bench alike. *)

type op

val op : shard -> string -> op
(** [op sh name] resolves, once, the shard's span ring and the
    [op.<name>.accesses] / [op.<name>.count] metrics (creating them). *)

val record :
  op ->
  pid:int ->
  start_step:int ->
  end_step:int ->
  accesses:int ->
  annotations:(string * int) list ->
  unit
(** One finished operation: a span in the ring ({!Span.record}), one
    [accesses] observation and one count.  Allocates nothing —
    [annotations] is stored as given. *)

val shard_spans : shard -> Span.t list
(** This shard's recorded spans, oldest first — the harness reads its
    own operation costs back through this. *)

val shard_spans_dropped : shard -> int

(** {1 Snapshot} *)

type snapshot = {
  shards : int;
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * Gauge.snap) list;
  histograms : (string * Histogram.snap) list;
  spans : Span.t list;  (** Shard creation order, oldest first within a shard. *)
  spans_dropped : int;
}

val snapshot : t -> snapshot
(** Merge all shards.  Safe at any time, but values are only guaranteed
    complete once every writer has finished (e.g. after
    [Domain.join]). *)
