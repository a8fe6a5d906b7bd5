(* One benchmark run:
     main.exe --workload W --seed N --seconds S --trace 0|1
   prints a stamp, one line per metric with its sample count, and as
   the last line one JSON object {correct, attempted, failed, metrics}.
   Exits 1 when the run failed a check or hung, 2 on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload ("
    ^ String.concat "|" (List.map fst Perfbench.Rig.workloads)
    ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") Perfbench.Rig.workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" and seed = int "seed" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let report = Perfbench.Rig.run workload ~seed ~seconds:(float_of_int seconds) ~trace in
  Perfbench.Rig.print report;
  (* a hung round leaves its client domains running: leave without
     waiting for them *)
  if report.hung then Unix._exit 1;
  if not report.correct then exit 1
