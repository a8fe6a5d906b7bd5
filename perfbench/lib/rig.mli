(** The benchmark's workloads, their checks and their metrics.

    A run alternates rounds of a closed loop on two client domains; see
    the directory's README for what each workload exercises and which
    layer each metric belongs to. *)

type workload = Server_cold | Server_warm | Protocol_direct

val workloads : (string * workload) list
(** Command-line names. *)

val get_bound : int
(** Theorem 2's access bound for one SPLIT get at [k = 4]: 7(k−1). *)

type grant_check = Grant_ok | Over_bound | Warm_accessed

val check_grant : warm:bool -> accesses:int -> grant_check
(** A cold grant may make at most {!get_bound} shared accesses, a warm
    one none. *)

type backend = Shared_mem.Layout.t -> stage:int -> k:int -> Renaming.Protocol.Any.t

type metric = { name : string; value : float; unit : string; samples : int option }

type report = {
  correct : bool;
  hung : bool;  (** A round overran its deadline; its clients may still run. *)
  attempted : int;
  failed : int;
  problems : string list;  (** Why the run is not correct. *)
  stamp : string;  (** Workload, seed, run size, machine and runtime. *)
  metrics : metric list;
}

val end_to_end : (string * string) list
(** Names and units printed without tracing, in order. *)

val per_layer : (string * string) list
(** Names and units printed by a traced run, in order. *)

val run :
  ?backend:(traced:bool -> backend) ->
  ?check:int * int ->
  ?rounds:int ->
  ?grace_s:float ->
  workload ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  report
(** One run of [seconds], cut into [rounds] (default four per second).
    [backend] (default SPLIT, wrapped in spans when traced) builds the
    protocol under test; [check] (default [(3, 1)]) is the model
    check's processes and cycles; a round is hung [grace_s] (default
    10) after its time. *)

val print : report -> unit
(** The stamp, one line per metric with its sample count, and the
    result JSON as the last line. *)
