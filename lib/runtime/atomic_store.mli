(** Shared-register storage for real parallelism.

    One {!Pad.make} cell per register, so each register sits on its
    own cache line: 9 words instead of a plain [Atomic.t]'s 2, and
    processes working on different splitter registers do not
    false-share.  OCaml atomics are sequentially consistent, which is
    strictly stronger than the atomic single-register reads/writes the
    paper assumes, so every protocol correct in the paper's model is
    correct here.  The same protocol code that runs under the simulator
    runs across OS domains through the {!ops} capability. *)

type t

val create : Shared_mem.Layout.t -> t
(** Storage initialised from the layout.  Call after all allocation is
    done and before spawning domains. *)

val ops : t -> pid:int -> Shared_mem.Store.ops
(** Capability for one worker; safe to use from any domain. *)

val get : t -> Shared_mem.Cell.t -> int
(** Direct read (monitoring; itself atomic). *)
