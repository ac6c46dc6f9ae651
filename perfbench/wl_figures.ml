(* The [figures] workload: the quick figure suite, all 13 panels
   ([Figures.all @ Ablate.all] on [Figures.quick_opts]), in-process, with
   no result cache and the request memos cleared before each pass, at a
   fixed number of worker domains.

   It is the product the repository exists for, and it is bound by
   compression (fig7-ratio and the two dictionary ablations), so an acf
   change shows here while a timing-model change shows diluted. The
   seed permutes the benchmark list the panels are given; figure values
   do not depend on that order, so one reference digest covers every
   seed. *)

module F = Dise_harness.Figures
module R = Dise_service.Request
module W = Dise_workload
module Json = Dise_telemetry.Json
module Stats = Dise_uarch.Stats

let panels = F.all @ Dise_harness.Ablate.all
(* One worker domain: with two, the domains' shared GC pauses make a
   cell's time depend on what the other domain allocates. *)
let jobs () = 1
let setups = 15
let hit_probes = 1000

let digest (figs : F.figure list) =
  Util.digest_lines
    (List.sort compare
       (List.concat_map
          (fun (f : F.figure) ->
            List.concat_map
              (fun (s : F.series) ->
                List.map (fun (b, v) -> Printf.sprintf "%s|%s|%s|%.17g" f.F.id s.F.label b v) s.F.values)
              f.F.series
            @ List.map
                (fun (label, b, st) -> Printf.sprintf "%s|%s|%s|%s" f.F.id label b (Cells.stats_string st))
                f.F.stacks)
          figs))

type pass = {
  wall_s : float;  (** at nominal host speed ({!Calib}) *)
  raw_wall_s : float;  (** the whole pass, calibration excluded *)
  figs : F.figure list;
  panel_s : (string * float) list;  (** raw host seconds per panel, calibration excluded *)
  cells : float list;  (** per-cell seconds at nominal speed *)
  busy_s : float;
  pool_s : float;  (** jobs x figure pool wall, summed *)
}

type panel = {
  id : string;
  fig : F.figure;
  raw_s : float;  (** host seconds, calibration excluded *)
  cal_s : float;  (** the same at nominal speed *)
  cell_s : float list;  (** each cell at nominal speed *)
  busy_s : float;  (** raw cell seconds, summed *)
  pool_s : float;  (** jobs x the figure's pool wall *)
}

(* Each cell is one calibrated segment. The harness calls [progress] on
   the worker just before a cell runs, so with one worker a host-speed
   sample taken there falls between two cells; it is timed inside the
   cell's manifest [wall_s] and taken out again. Work in a panel outside
   its cells takes the panel's own factor. *)
let pass ~benches =
  let t0 = Util.now () and calib0 = Calib.spent () in
  R.clear_memory ();
  let buf = Buffer.create 65536 in
  let samples = ref [] in
  let progress _ =
    let c0 = Calib.spent () in
    let speed = Calib.sample () in
    samples := (speed, Calib.spent () -. c0) :: !samples
  in
  let opts =
    { F.quick_opts with
      F.jobs = jobs (); benchmarks = benches; manifest = Some (Dise_telemetry.Manifest.to_buffer buf); progress }
  in
  let run_panel (id, f) =
    samples := [];
    Buffer.clear buf;
    let fig, d, k = Calib.segment (fun () -> Span.run ~tag:id "panel" (fun () -> f opts)) in
    let records = List.map Json.parse (String.split_on_char '\n' (String.trim (Buffer.contents buf))) in
    let field key j = match Json.member key j with Some (Json.Float v) -> v | Some (Json.Int v) -> float_of_int v | _ -> 0.0 in
    let kind k j = Json.member "kind" j = Some (Json.String k) in
    let cells = List.filter (kind "cell") records and samples = List.rev !samples in
    if List.length cells <> List.length samples then failwith ("figures: a cell of " ^ id ^ " ran unsampled");
    let speeds = List.map fst samples in
    let net = List.map2 (fun j (_, q) -> field "wall_s" j -. q) cells samples in
    let cell_s =
      List.map2 (fun t (s0, s1) -> t *. ((s0 +. s1) /. 2.0)) net (List.combine speeds (List.tl speeds @ [ !Calib.last ]))
    in
    let sampled = Util.sum (List.map snd samples) in
    let raw_s = d -. sampled in
    {
      id;
      fig;
      raw_s;
      cal_s = Util.sum cell_s +. ((raw_s -. Util.sum net) *. k);
      cell_s;
      busy_s = Util.sum net;
      pool_s = Util.sum (List.map (fun j -> field "jobs" j *. (field "wall_s" j -. sampled)) (List.filter (kind "figure") records));
    }
  in
  let ps = List.map run_panel panels in
  let sum f = Util.sum (List.map f ps) in
  {
    wall_s = sum (fun p -> p.cal_s);
    raw_wall_s = Util.now () -. t0 -. (Calib.spent () -. calib0);
    figs = List.map (fun p -> p.fig) ps;
    panel_s = List.map (fun p -> (p.id, p.raw_s)) ps;
    cells = List.concat_map (fun p -> p.cell_s) ps;
    busy_s = sum (fun p -> p.busy_s);
    pool_s = sum (fun p -> p.pool_s);
  }

(* The suite's own baseline requests: after a pass they sit in the
   in-memory memo, so [run_ext] answers them without simulating. *)
let baseline_requests benches =
  List.map (fun b -> R.v ~dyn_target:F.quick_opts.F.dyn_target b) benches

let run ~seed ~seconds ~traced ~reference =
  let rng = Random.State.make [| seed |] in
  let benches = Util.shuffle rng F.quick_opts.F.benchmarks in
  let dyn_target = F.quick_opts.F.dyn_target in
  let setup () =
    W.Suite.clear_cache ();
    R.clear_memory ();
    List.iter
      (fun b -> ignore (Span.run ~tag:b "Suite.get" (fun () -> Cells.entry (R.v ~dyn_target b))))
      benches
  in
  (* Each set-up and the memo-hit probes start from a compacted heap, so
     they do not pay for major-GC work that earlier phases left. *)
  let setup_times = List.init setups (fun _ -> Gc.compact (); snd (Calib.timed setup)) in
  let t0 = Util.now () in
  (* A traced run makes an untraced pass and then a traced one. *)
  let rec loop acc i =
    let is_traced = traced && i = 1 in
    if is_traced then Span.enable ();
    let p = pass ~benches in
    Span.enabled := false;
    let acc = (is_traced, p) :: acc in
    if i + 1 >= (if traced then 2 else 1) && Util.now () -. t0 >= seconds then List.rev acc
    else loop acc (i + 1)
  in
  let passes = loop [] 0 in
  let all = List.map snd passes in
  Gc.compact ();
  let batches =
    List.map
      (fun r ->
        ignore (Grid.run_cell r);
        Grid.repeat hit_probes r)
      (baseline_requests benches)
  in
  let hits = List.concat_map fst batches in
  let digests = List.sort_uniq compare (List.map (fun p -> digest p.figs) all) in
  let cells = List.concat_map (fun p -> p.cells) all in
  let retired p =
    Util.sum_int
      (List.concat_map (fun (f : F.figure) -> List.map (fun (_, _, s) -> s.Stats.retired) f.F.stacks) p.figs)
  in
  let wall = Util.median (List.map (fun p -> p.wall_s) all) in
  let rate f = Util.median (List.map (fun p -> f p /. p.wall_s) all) in
  if traced then begin
    let untraced, traced_pass =
      match passes with (false, u) :: (true, t) :: _ -> (u, t) | _ -> assert false
    in
    Ledger.set "trace.overhead_ratio" (traced_pass.wall_s /. untraced.wall_s);
    Ledger.set "trace.panel_coverage" (Util.sum (List.map snd traced_pass.panel_s) /. traced_pass.raw_wall_s);
    List.iter (fun (id, d) -> Ledger.set ("harness.panel_s." ^ id) d) traced_pass.panel_s;
    Ledger.set "harness.pool_utilization" (traced_pass.busy_s /. traced_pass.pool_s);
    (* The layer split of the suite's timing cells: the simulate grid at
       the suite's length, set up and laddered like a simulate round. *)
    Span.enable ();
    let grid = List.concat_map (fun b -> List.map (fun k -> Cells.request ~dyn_target k b) Cells.kinds) benches in
    W.Suite.clear_cache ();
    R.clear_memory ();
    Grid.prepare ~record:true grid;
    let cold = List.map (fun r -> Grid.run_cell r) grid in
    Ledger.set "ladder.ok" (if List.for_all Grid.ladder cold then 1.0 else 0.0);
    (match cold with
    | { Grid.req; result = Ok s; _ } :: _ -> Ledger.codec_probes_of_cell req s
    | _ -> ())
  end;
  let hit_ok = List.for_all (fun (o : Grid.outcome) -> o.Grid.hit && Result.is_ok o.Grid.result) hits in
  {
    Report.attempted = List.length cells + List.length hits;
    failed = List.length (List.filter (fun (o : Grid.outcome) -> Result.is_error o.Grid.result) hits);
    checks =
      [
        ("figure digest matches reference", digests = [ reference ]);
        ("repeated baselines hit the memo", hit_ok);
      ]
      @ (if traced then [ ("ladder rung 3 reproduces run_ext", Ledger.get "ladder.ok" = 1.0) ] else []);
    e2e =
      [
        ("setup_s", Util.median setup_times);
        ("wall_s", wall);
        ("sim_minsn_per_s", rate (fun p -> float_of_int (retired p) /. 1e6));
        ("jobs_per_s", rate (fun p -> float_of_int (List.length p.cells)));
      ]
      @ Report.latencies ~all:cells ~hits:(List.concat_map snd batches) ~misses:cells
      @ [ ("peak_rss_mb", Report.self_rss ()) ];
    samples = [ ("passes", List.length all); ("cells", List.length cells); ("hit_calls", List.length hits) ];
    notes =
      [
        ("jobs", Json.Int (jobs ()));
        ("benchmarks", Json.List (List.map (fun b -> Json.String b) benches));
        ("digest", Json.String (List.hd digests));
        ("raw_wall_s", Json.List (List.map (fun p -> Json.Float p.raw_wall_s) all));
      ];
  }
