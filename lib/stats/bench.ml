let find_root exe =
  let rec up dir =
    let parent = Filename.dirname dir in
    if parent = dir then None
    else if Filename.basename dir = "_build" then Some parent
    else up parent
  in
  if Filename.is_relative exe then None else up (Filename.dirname exe)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* The quotes around [key] are part of the match, so "overhead" never
   matches inside "journey_overhead". *)
let find_key s key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length s and m = String.length pat in
  let rec skip_blanks j = if j < n && s.[j] = ' ' then skip_blanks (j + 1) else j in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (skip_blanks (i + m))
    else find (i + 1)
  in
  find 0

let float_key s key =
  Option.bind (find_key s key) (fun start ->
      let rec stop j =
        if j < String.length s
           && match s.[j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        then stop (j + 1)
        else j
      in
      float_of_string_opt (String.sub s start (stop start - start)))

let string_key s key =
  Option.bind (find_key s key) (fun start ->
      if start < String.length s && s.[start] = '"' then
        Option.map
          (fun close -> String.sub s (start + 1) (close - start - 1))
          (String.index_from_opt s (start + 1) '"')
      else None)

type direction = At_most | At_least

let baseline_path ~dir ~id = Filename.concat dir (id ^ "_baseline.json")

let gate ?cap ~rebaseline ~dir ~id ~key direction ~factor measured =
  let path = baseline_path ~dir ~id in
  if not (Float.is_finite measured) then begin
    Printf.printf "gate          : FAILED (measured %s = %g is not finite)\n" key measured;
    false
  end
  else if rebaseline then begin
    write_file path (Printf.sprintf "{\"id\":\"%s_baseline\",\"%s\":%.6g}\n" id key measured);
    Printf.printf "recorded new baseline %s = %.6g in %s\n" key measured path;
    true
  end
  else
    let fail why =
      Printf.printf "baseline      : FAILED (%s; rerun with --rebaseline to record one)\n" why;
      false
    in
    match Option.map (fun s -> float_key s key) (read_file path) with
    | None -> fail ("cannot read " ^ path)
    | Some (Some base) when Float.is_finite base ->
        let scaled = factor *. base in
        let limit, op, ok =
          match direction with
          | At_most ->
              let l = Option.fold ~none:scaled ~some:(Float.min scaled) cap in
              (l, "<=", measured <= l)
          | At_least ->
              let l = Option.fold ~none:scaled ~some:(Float.max scaled) cap in
              (l, ">=", measured >= l)
        in
        Printf.printf "baseline      : %s %.6g vs baseline %.6g (gate: %s %.6g) -> %s\n" key
          measured base op limit
          (if ok then "OK" else "REGRESSED");
        ok
    | Some _ -> fail (Printf.sprintf "no finite %S in %s" key path)
