let acquire_cold = 0
let acquire_warm = 1
let acquire_refused = 2
let release = 3
let tend = 4
let proto_get = 5
let proto_release = 6
let proto_reset = 7
let kinds = 8

type t = {
  kind : int array;
  start : int array;
  stop : int array;
  parent : int array;
  accesses : int array;
  cover : int array;
  mutable n : int;
  mutable cur : int;
  self : Samples.t array;
  count : int array;
  dur_sum : int array;
  acc_sum : int array;
  acc_max : int array;
  pair : int array;  (* (kinds + 1) × kinds: child time by parent kind *)
  mutable nest_errors : int;
}

let create ?(capacity = 65536) () =
  let a () = Array.make capacity 0 in
  let per_kind () = Array.make kinds 0 in
  {
    kind = a ();
    start = a ();
    stop = a ();
    parent = a ();
    accesses = a ();
    cover = a ();
    n = 0;
    cur = -1;
    self = Array.init (if capacity = 0 then 0 else kinds) (fun _ -> Samples.create ());
    count = per_kind ();
    dur_sum = per_kind ();
    acc_sum = per_kind ();
    acc_max = per_kind ();
    pair = Array.make ((kinds + 1) * kinds) 0;
    nest_errors = 0;
  }

let disabled = create ~capacity:0 ()
let key = Domain.DLS.new_key (fun () -> disabled)
let install t = Domain.DLS.set key t
let current () = Domain.DLS.get key

let open_ t kind =
  if t == disabled then -1
  else begin
    let i = t.n in
    if i = Array.length t.kind then failwith "Spans.open_: arena full";
    t.kind.(i) <- kind;
    t.parent.(i) <- t.cur;
    t.accesses.(i) <- 0;
    t.start.(i) <- Clock.now_ns ();
    t.cur <- i;
    t.n <- i + 1;
    i
  end

let close ?(accesses = 0) t i =
  if i >= 0 then begin
    if i <> t.cur then t.nest_errors <- t.nest_errors + 1;
    t.stop.(i) <- Clock.now_ns ();
    t.accesses.(i) <- accesses;
    t.cur <- t.parent.(i)
  end

let set_kind t i kind = if i >= 0 then t.kind.(i) <- kind
let needs_fold t = t.n > 3 * Array.length t.kind / 4

let fold t =
  if t.cur <> -1 then invalid_arg "Spans.fold: a span is still open";
  Array.fill t.cover 0 t.n 0;
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) and p = t.parent.(i) in
    let row = if p < 0 then kinds else t.kind.(p) in
    t.pair.((row * kinds) + t.kind.(i)) <- t.pair.((row * kinds) + t.kind.(i)) + d;
    if p >= 0 then t.cover.(p) <- t.cover.(p) + d
  done;
  for i = 0 to t.n - 1 do
    let k = t.kind.(i) and d = t.stop.(i) - t.start.(i) in
    Samples.add t.self.(k) (d - t.cover.(i));
    t.count.(k) <- t.count.(k) + 1;
    t.dur_sum.(k) <- t.dur_sum.(k) + d;
    t.acc_sum.(k) <- t.acc_sum.(k) + t.accesses.(i);
    if t.accesses.(i) > t.acc_max.(k) then t.acc_max.(k) <- t.accesses.(i)
  done;
  t.n <- 0

let self t k = t.self.(k)
let count t k = t.count.(k)
let duration_sum t k = t.dur_sum.(k)
let accesses_sum t k = t.acc_sum.(k)
let accesses_max t k = t.acc_max.(k)
let child_sum t ~parent ~child = t.pair.((parent * kinds) + child)
let nest_errors t = t.nest_errors

let merge ~into t =
  Array.iteri (fun k s -> Samples.merge ~into:into.self.(k) s) t.self;
  let add a b = Array.iteri (fun i v -> a.(i) <- a.(i) + v) b in
  add into.count t.count;
  add into.dur_sum t.dur_sum;
  add into.acc_sum t.acc_sum;
  add into.pair t.pair;
  Array.iteri (fun i v -> if v > into.acc_max.(i) then into.acc_max.(i) <- v) t.acc_max;
  into.nest_errors <- into.nest_errors + t.nest_errors
