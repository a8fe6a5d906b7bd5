(* 8 sub-buckets per octave: indices 0..15 are exact (value = index),
   index 16 + (o-4)*8 + s holds [2^o + s*2^(o-3), 2^o + (s+1)*2^(o-3)),
   for octaves o = 4..61 (covering all of max_int). *)

let octaves = 62
let nbuckets = 16 + ((octaves - 4) * 8)

type snap = {
  count : int;
  sum : int;
  mean : float;
  min : int;
  p50 : int;
  p95 : int;
  p99 : int;
  p100 : int;
  buckets : (int * int) list;
}

type t = {
  buckets : int array;
  (* exemplar links: per bucket, the id of one journey (or other
     correlation key) that landed there; 0 = none.  [max_ex] tracks an
     exemplar for the exact maximum so p100 is always explainable. *)
  exemplars : int array;
  mutable max_ex : int;
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  {
    buckets = Array.make nbuckets 0;
    exemplars = Array.make nbuckets 0;
    max_ex = 0;
    count = 0;
    sum = 0;
    vmin = max_int;
    vmax = 0;
  }

let floor_log2 v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let index v =
  if v <= 0 then 0
  else if v < 16 then v
  else
    let o = floor_log2 v in
    let s = (v - (1 lsl o)) lsr (o - 3) in
    16 + ((o - 4) * 8) + s

let upper_edge i =
  if i < 16 then i
  else
    let b = i - 16 in
    let o = 4 + (b / 8) in
    let s = b mod 8 in
    (1 lsl o) + ((s + 1) lsl (o - 3)) - 1

let observe t v =
  let v = max 0 v in
  t.buckets.(index v) <- t.buckets.(index v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let observe_ex t v ~ex =
  let v = max 0 v in
  let i = index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  if ex > 0 then begin
    t.exemplars.(i) <- ex;
    (* after the update vmax >= v, so equality means v is the (tied)
       maximum: its exemplar explains p100 *)
    if v >= t.vmax then t.max_ex <- ex
  end

let exemplar t v =
  let ex = t.exemplars.(index (max 0 v)) in
  if ex = 0 then None else Some ex

let max_exemplar t = if t.max_ex = 0 then None else Some t.max_ex

let count t = t.count

let percentile t q =
  (* The population is derived from the bucket masses, not [t.count]:
     a mid-run snapshot of a live shard (or a merge of one) can read
     [count] ahead of the bucket array — plain mutable fields carry no
     cross-domain ordering — and a rank computed from the larger count
     would fall off the end of the scan and silently report [vmax] for
     every quantile.  Bucket mass is consistent with the scan itself:
     whatever prefix of observations the snapshot caught, the result
     is an honest quantile of that prefix, and at quiescence (after a
     join) mass equals [count] exactly. *)
  let total = Array.fold_left ( + ) 0 t.buckets in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.of_int total *. q +. 0.5)) in
    let rank = min rank total in
    let cum = ref 0 and result = ref t.vmax in
    (try
       for i = 0 to nbuckets - 1 do
         cum := !cum + t.buckets.(i);
         if !cum >= rank then begin
           result := min (upper_edge i) t.vmax;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let nonzero_buckets t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (upper_edge i, t.buckets.(i)) :: !acc
  done;
  !acc

let snap t : snap =
  {
    buckets = nonzero_buckets t;
    count = t.count;
    sum = t.sum;
    mean = (if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count);
    min = (if t.count = 0 then 0 else t.vmin);
    p50 = percentile t 0.5;
    p95 = percentile t 0.95;
    p99 = percentile t 0.99;
    p100 = t.vmax;
  }

let reset t =
  Array.fill t.buckets 0 nbuckets 0;
  Array.fill t.exemplars 0 nbuckets 0;
  t.max_ex <- 0;
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0

let fill t v ~count =
  let i = index v in
  for j = 0 to nbuckets - 1 do
    if j <> i && t.buckets.(j) <> 0 then t.buckets.(j) <- 0;
    if t.exemplars.(j) <> 0 then t.exemplars.(j) <- 0
  done;
  t.buckets.(i) <- count;
  t.max_ex <- 0;
  t.count <- count;
  t.sum <- max 0 v * count;
  t.vmin <- (if count > 0 then max 0 v else max_int);
  t.vmax <- (if count > 0 then max 0 v else 0)

let merge ~into src =
  for i = 0 to nbuckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i);
    (* max keeps exemplar resolution symmetric: merging a into b and b
       into a retain the same link per bucket *)
    if src.exemplars.(i) > into.exemplars.(i) then
      into.exemplars.(i) <- src.exemplars.(i)
  done;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then begin
    into.vmax <- src.vmax;
    if src.max_ex <> 0 then into.max_ex <- src.max_ex
  end
  else if src.vmax = into.vmax && src.max_ex > into.max_ex then
    into.max_ex <- src.max_ex
