let dense_limit = 1 lsl 16

type t = {
  dense : int array;
  mutable over : int array;
  mutable n_over : int;
  mutable n : int;
  mutable sum : int;
}

let create () =
  { dense = Array.make dense_limit 0; over = [||]; n_over = 0; n = 0; sum = 0 }

let push_over t v =
  if t.n_over = Array.length t.over then begin
    let a = Array.make (max 64 (2 * t.n_over)) 0 in
    Array.blit t.over 0 a 0 t.n_over;
    t.over <- a
  end;
  t.over.(t.n_over) <- v;
  t.n_over <- t.n_over + 1

let add t v =
  let v = if v < 0 then 0 else v in
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < dense_limit then Array.unsafe_set t.dense v (Array.unsafe_get t.dense v + 1)
  else push_over t v

let clear t =
  Array.fill t.dense 0 dense_limit 0;
  t.n_over <- 0;
  t.n <- 0;
  t.sum <- 0

let merge ~into t =
  for v = 0 to dense_limit - 1 do
    into.dense.(v) <- into.dense.(v) + t.dense.(v)
  done;
  for i = 0 to t.n_over - 1 do
    push_over into t.over.(i)
  done;
  into.n <- into.n + t.n;
  into.sum <- into.sum + t.sum

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

(* The value of 1-based rank [r] in sorted order. *)
let at_rank t r =
  let v = ref 0 and seen = ref t.dense.(0) in
  while !seen < r && !v < dense_limit - 1 do
    incr v;
    seen := !seen + t.dense.(!v)
  done;
  if !seen >= r then !v
  else begin
    let o = Array.sub t.over 0 t.n_over in
    Array.sort compare o;
    o.(r - !seen - 1)
  end

let rank t q =
  let r = int_of_float (Float.ceil (q *. float_of_int t.n)) in
  max 1 (min t.n r)

let percentile t q = if t.n = 0 then 0 else at_rank t (rank t q)

let ladder = [ 0.5; 0.9; 0.99; 0.999; 0.9999; 0.99999; 0.999999 ]

let tail t =
  List.fold_left
    (fun best q ->
      let beyond = t.n - rank t q in
      if t.n > 0 && beyond >= 10 then Some (q, percentile t q, beyond) else best)
    None ladder
