type record = {
  tool : string;
  suite : string;
  ts : int;
  commit : string;
  cells : int;
  passed : int;
  wall_s : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  extra : (string * Json.t) list;
}

let pass_rate r =
  if r.cells <= 0 then 1.0 else float_of_int r.passed /. float_of_int r.cells

let commit_id () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when s <> "" -> s
  | _ -> (
    match Sys.getenv_opt "DISESIM_COMMIT" with
    | Some s when s <> "" -> s
    | _ -> "local")

let fixed_members =
  [
    "record"; "tool"; "suite"; "ts"; "commit"; "cells"; "passed";
    "pass_rate"; "wall_s"; "p50_ns"; "p95_ns"; "p99_ns";
  ]

let to_json r =
  Json.Obj
    ([
       ("record", Json.String "trajectory");
       ("tool", Json.String r.tool);
       ("suite", Json.String r.suite);
       ("ts", Json.Int r.ts);
       ("commit", Json.String r.commit);
       ("cells", Json.Int r.cells);
       ("passed", Json.Int r.passed);
       ("pass_rate", Json.Float (pass_rate r));
       ("wall_s", Json.Float r.wall_s);
       ("p50_ns", Json.Int r.p50_ns);
       ("p95_ns", Json.Int r.p95_ns);
       ("p99_ns", Json.Int r.p99_ns);
     ]
    @ List.filter (fun (k, _) -> not (List.mem k fixed_members)) r.extra)

let of_json doc =
  let str k = match Json.member k doc with Some (Json.String s) -> Some s | _ -> None in
  let int k = match Json.member k doc with Some (Json.Int i) -> Some i | _ -> None in
  let num k =
    match Json.member k doc with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match
    (str "record", str "tool", str "suite", int "ts", str "commit",
     int "cells", int "passed", num "wall_s")
  with
  | ( Some "trajectory", Some tool, Some suite, Some ts, Some commit,
      Some cells, Some passed, Some wall_s ) ->
    let q k = Option.value ~default:0 (int k) in
    let extra =
      match doc with
      | Json.Obj kvs ->
        List.filter (fun (k, _) -> not (List.mem k fixed_members)) kvs
      | _ -> []
    in
    Some
      {
        tool; suite; ts; commit; cells; passed; wall_s;
        p50_ns = q "p50_ns"; p95_ns = q "p95_ns"; p99_ns = q "p99_ns";
        extra;
      }
  | _ -> None

let md_header =
  "# Results tracking\n\n\
   Machine-appended trajectory of the continuous conformance/perf \
   monitor\n\
   (`disesim conformance --track`).\n\
   One row per run; the JSONL twin (RESULTS_TRACKING.jsonl, schema \
   doc/schema/trajectory.schema.json)\n\
   carries the full records. See doc/observability.md.\n\n\
   | date (utc) | commit | tool | suite | cells | passed | rate | \
   wall (s) | p50 (ns) | p95 (ns) | p99 (ns) |\n\
   |---|---|---|---|---|---|---|---|---|---|---|\n"

(* ts -> "YYYY-MM-DD HH:MM" without Unix.gmtime: civil-from-days on
   the epoch day count (valid for any post-1970 timestamp). *)
let date_of_ts ts =
  let secs = ts mod 86400 in
  let z = (ts / 86400) + 719468 in
  let era = z / 146097 in
  let doe = z mod 146097 in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (* civil-from-days uses a March-based year starting at 0000-03-01 *)
  Printf.sprintf "%04d-%02d-%02d %02d:%02d" y m d (secs / 3600)
    (secs mod 3600 / 60)

let short_commit c = if String.length c > 9 then String.sub c 0 9 else c

let md_row r =
  Printf.sprintf "| %s | %s | %s | %s | %d | %d | %.3f | %.3f | %d | %d | %d |\n"
    (date_of_ts r.ts) (short_commit r.commit) r.tool r.suite r.cells r.passed
    (pass_rate r) r.wall_s r.p50_ns r.p95_ns r.p99_ns

let append_string path ~header s =
  let fresh = not (Sys.file_exists path) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if fresh then output_string oc header;
      output_string oc s)

let append ?md ~jsonl r =
  append_string jsonl ~header:"" (Json.to_string (to_json r) ^ "\n");
  match md with
  | None -> ()
  | Some path -> append_string path ~header:md_header (md_row r)

let last ~jsonl ~tool ~suite =
  if not (Sys.file_exists jsonl) then None
  else begin
    let ic = open_in_bin jsonl in
    let best = ref None in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            match Json.parse line with
            | exception Json.Parse_error _ -> ()
            | doc -> (
              match of_json doc with
              | Some r when r.tool = tool && r.suite = suite -> best := Some r
              | _ -> ())
          done
        with End_of_file -> ());
    !best
  end

let check_regression ?(threshold = 1.2) ~prev r =
  if pass_rate r < pass_rate prev then
    Error
      (Printf.sprintf
         "pass rate regressed: %.3f -> %.3f (previous record at commit %s)"
         (pass_rate prev) (pass_rate r) (short_commit prev.commit))
  else if prev.wall_s > 0. && r.wall_s > threshold *. prev.wall_s then
    Error
      (Printf.sprintf
         "wall-clock regressed by %.0f%%: %.3fs -> %.3fs exceeds the %.0f%% \
          budget (previous record at commit %s)"
         ((r.wall_s /. prev.wall_s -. 1.) *. 100.)
         prev.wall_s r.wall_s
         ((threshold -. 1.) *. 100.)
         (short_commit prev.commit))
  else Ok ()
