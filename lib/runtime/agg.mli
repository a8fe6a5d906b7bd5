(** Shared result-aggregation state for multi-domain runs.

    One value of {!t} is the cross-domain scoreboard of a run: the
    per-name holder counters behind the on-line uniqueness monitor,
    the concurrency high-water marks, per-worker cycle counts and the
    first-violation record.  Both {!Domain_runner.run} and
    {!Domain_runner.run_recovered} build their result from the same
    constructor — the two entry points can no longer drift — and the
    name server ([lib/server]) scores its clients through it too.

    The hot arrays (per-name holders and maxima, per-worker cycle
    counters) are {!Pad} arrays: each counter is a line-sized block, so
    contended updates to different names do not false-share cache
    lines.  The global [concurrent] counter is truly shared and stays a
    plain atomic.

    All updates are safe from any domain. *)

type t

type result = {
  cycles_done : int array;  (** Per worker; equals the cycle budget on success. *)
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
      (** Names still held when the run ended — what crashed workers
          took to the grave.  [0] on a fully clean run. *)
  reclaimed : int;
      (** Leases reclaimed by a post-join drain; [0] when the run has
          no recovery layer. *)
}

val create : entry:string -> name_space:int -> workers:int -> parked:int -> t
(** [create ~entry ~name_space ~workers ~parked] — fresh scoreboard
    for [workers] workers of which [parked] will park holding a name.
    [entry] names the caller in diagnostics.
    @raise Invalid_argument if [workers > 0] and every worker is
    parked — each would wait on the others forever. *)

val note_violation : t -> string -> unit
(** Count a violation, recording the message if it is the first. *)

val acquired : t -> worker:int -> name:int -> int * int
(** Score one acquisition by worker index [worker]: bump the holder
    count and per-name maximum of [name] (flagging double-holds and
    out-of-range names as violations) and the concurrency high-water
    mark.  Returns [(held, concurrent)] — the number of simultaneous
    holders of [name] (0 when out of range) and of names overall,
    both including this one — for gauge feeding. *)

val released : t -> name:int -> unit
(** Score the matching release: drop the holder and concurrency
    counts.  Call {e before} the protocol-level release, mirroring
    {!acquired} being called after the grant. *)

val cycle_done : t -> int -> unit
(** One full acquire/release cycle completed by this worker index. *)

val worker_done : t -> unit
(** A non-parked worker finished all its cycles. *)

val all_normal_done : t -> bool
(** Every non-parked worker has called {!worker_done} — the condition
    parked holders spin on before releasing. *)

val cycles_of : t -> int -> int
(** Cycles completed by one worker index so far. *)

val result : ?reclaimed:int -> t -> result
(** Freeze the scoreboard (call after the join).  [leaked] is the sum
    of holder counts still standing; [reclaimed] defaults to [0]. *)
