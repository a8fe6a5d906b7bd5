(* The installed bechamel monotonic clock (CLOCK_MONOTONIC, ns).  The
   call inlines to an unboxed external, so reading it allocates
   nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
