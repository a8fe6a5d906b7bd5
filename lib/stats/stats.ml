type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  stddev : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile";
  let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) rank))

let summarize values =
  match values with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let a = Array.of_list values in
      (* [Float.compare], not polymorphic [compare]: the latter orders
         nan through its boxed representation and is needlessly slow on
         floats. *)
      Array.sort Float.compare a;
      let n = Array.length a in
      let fn = float_of_int n in
      let sum = Array.fold_left ( +. ) 0.0 a in
      let mean = sum /. fn in
      let var = Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 a /. fn in
      {
        n;
        mean;
        min = a.(0);
        max = a.(n - 1);
        p50 = percentile a 0.5;
        p95 = percentile a 0.95;
        stddev = sqrt var;
      }

let summarize_ints values = summarize (List.map float_of_int values)

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least 2 points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fn in
  (slope, intercept)

let growth_exponent points =
  let logs =
    List.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then invalid_arg "Stats.growth_exponent: non-positive point";
        (log x, log y))
      points
  in
  fst (linear_fit logs)

type table = { headers : string list; mutable rows : string list list (* reversed *) }

let table headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Stats.add_row: column count mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat " | " (List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row)
  in
  let rule = String.concat "-+-" (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line t.headers :: rule :: List.map line rows)

let print t = print_endline (render t)

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv t =
  let line row = String.concat "," (List.map csv_field row) in
  String.concat "\n" (List.map line (t.headers :: List.rev t.rows))

module Bench = Bench
