(** Monotonic counters.

    A counter is written by exactly one process/domain (its shard's
    owner) and merged into aggregates on snapshot; single-writer
    discipline is what makes the plain mutable field safe without
    atomics — immediate ints cannot tear in OCaml. *)

type t

val create : unit -> t
val incr : t -> unit
val add : t -> int -> unit

val set : t -> int -> unit
(** Assign the count — for publishers that mirror a count kept
    elsewhere, so re-publishing the same value is idempotent. *)

val get : t -> int
val reset : t -> unit

val merge : into:t -> t -> unit
(** [merge ~into src] adds [src]'s count into [into]; [src] is left
    untouched. *)
