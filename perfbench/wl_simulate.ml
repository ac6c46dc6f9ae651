(* The [simulate] workload: a fixed grid of [Request.run_ext] cells
   over the quick benchmarks at a long dynamic length.

   Each round sets up from scratch (workload generation and
   compression, timed as set-up), then runs every cell once, cold, in a
   seeded order, then re-requests each baseline [hits_per_baseline]
   times: those are in-memory memo hits, the path figure cells take when
   they normalize against a shared baseline. Compression never runs in
   the measured phase, so an acf change should not move this workload;
   the timing model dominates a cell's host time. *)

module R = Dise_service.Request
module W = Dise_workload
module Stats = Dise_uarch.Stats

let benches = Dise_harness.Figures.quick_opts.Dise_harness.Figures.benchmarks

(* The seed picks one of [dyn_variants] dynamic lengths, each its own
   generated program with a checked-in reference digest. *)
let dyn_variants = 8
let dyn_target seed = 500_000 + (1_000 * (seed mod dyn_variants))
let hits_per_baseline = 500

let grid dyn_target =
  List.concat_map (fun b -> List.map (fun k -> Cells.request ~dyn_target k b) Cells.kinds) benches

let digest (outcomes : Grid.outcome list) =
  Util.digest_lines
    (List.sort compare
       (List.map
          (fun (o : Grid.outcome) ->
            R.canonical o.Grid.req ^ " "
            ^ match o.Grid.result with Ok s -> Cells.stats_string s | Error e -> "error " ^ e)
          outcomes))

type round = {
  setup_s : float;
  wall_s : float;  (** the cold cells, at nominal host speed *)
  cold : Grid.outcome list;
  hits : Grid.outcome list;
  hit_s : float list;  (** mean call time of each batch of baseline repeats *)
}

let round ?(record = false) ~rng dyn =
  let cells = grid dyn in
  Gc.compact ();
  let (), setup_s =
    Calib.timed (fun () ->
        W.Suite.clear_cache ();
        R.clear_memory ();
        Grid.prepare ~record cells)
  in
  let cold = List.map Grid.run_cell (Util.shuffle rng cells) in
  let wall_s = Util.sum (List.map (fun (o : Grid.outcome) -> o.Grid.dur) cold) in
  let baselines = List.filter (fun (r : R.t) -> r.R.acf = R.Baseline) cells in
  let batches = List.map (fun r -> Grid.repeat hits_per_baseline r) baselines in
  { setup_s; wall_s; cold; hits = List.concat_map fst batches; hit_s = List.concat_map snd batches }

(* [reference] is the expected grid digest for this seed's length. *)
let run ~seed ~seconds ~traced ~reference =
  let rng = Random.State.make [| seed |] in
  let dyn = dyn_target seed in
  let t0 = Util.now () in
  (* A traced run alternates untraced and traced rounds, at least two
     of each, so the tracing overhead is a ratio of rounds run in the
     same process. *)
  let rec loop acc i =
    let is_traced = traced && i mod 2 = 1 in
    if is_traced then Span.enable ();
    let r = round ~record:(is_traced && i = 1) ~rng dyn in
    if is_traced then Span.enabled := false;
    let acc = (is_traced, r) :: acc in
    let min_rounds = if traced then 4 else 1 in
    if i + 1 >= min_rounds && Util.now () -. t0 >= seconds then List.rev acc
    else loop acc (i + 1)
  in
  let rounds = loop [] 0 in
  let all = List.map snd rounds in
  let cold = List.concat_map (fun r -> r.cold) all in
  let hits = List.concat_map (fun r -> r.hits) all in
  let ops = cold @ hits in
  let failed = List.length (List.filter (fun (o : Grid.outcome) -> Result.is_error o.Grid.result) ops) in
  let digests = List.sort_uniq compare (List.map (fun r -> digest r.cold) all) in
  let retired =
    Util.sum_int
      (List.map (fun (o : Grid.outcome) -> match o.Grid.result with Ok s -> s.Stats.retired | Error _ -> 0) cold)
  in
  let cold_s = Util.sum (List.map (fun r -> r.wall_s) all) in
  (* Each cell's median over the rounds: the grid's slowest cell sets the
     p99, and one noisy round of it should not. *)
  let cell_medians =
    List.map
      (fun r ->
        Util.median
          (List.filter_map (fun (o : Grid.outcome) -> if o.Grid.req = r then Some o.Grid.dur else None) cold))
      (grid dyn)
  in
  if traced then begin
    let med sel = Util.median (List.map (fun (_, r) -> r.wall_s) (List.filter sel rounds)) in
    Ledger.set "trace.overhead_ratio" (med fst /. med (fun x -> not (fst x)));
    (* Ladder the last traced round's cold cells. *)
    let _, last = List.find (fun (t, _) -> t) (List.rev rounds) in
    Span.enable ();
    let ok = List.for_all Grid.ladder last.cold in
    Ledger.set "ladder.ok" (if ok then 1.0 else 0.0);
    (match last.cold with
    | { Grid.req; result = Ok s; _ } :: _ -> Ledger.codec_probes_of_cell req s
    | _ -> ());
    Ledger.addi "service.cache_hits" (List.length last.hits);
    Ledger.addi "service.cache_misses" (List.length last.cold)
  end;
  {
    Report.attempted = List.length ops;
    failed;
    checks =
      [
        ("grid digest repeats across rounds", List.length digests = 1);
        ("grid digest matches reference", digests = [ reference ]);
        ("cold cells simulate", List.for_all (fun (o : Grid.outcome) -> not o.Grid.hit) cold);
        ("repeated baselines hit the memo", List.for_all (fun (o : Grid.outcome) -> o.Grid.hit) hits);
      ]
      @ (if traced then [ ("ladder rung 3 reproduces run_ext", Ledger.get "ladder.ok" = 1.0) ] else []);
    e2e =
      [
        ("setup_s", Util.median (List.map (fun r -> r.setup_s) all));
        ("wall_s", Util.median (List.map (fun r -> r.wall_s) all));
        ("sim_minsn_per_s", float_of_int retired /. cold_s /. 1e6);
        ("jobs_per_s", float_of_int (List.length cold) /. cold_s);
      ]
      @ Report.latencies ~all:cell_medians ~hits:(List.concat_map (fun r -> r.hit_s) all) ~misses:cell_medians
      @ [ ("peak_rss_mb", Report.self_rss ()) ];
    samples = [ ("rounds", List.length all); ("cold_cells", List.length cold); ("hit_calls", List.length hits) ];
    notes =
      [ ("dyn_target", Dise_telemetry.Json.Int dyn);
        ("round_wall_s", Dise_telemetry.Json.List (List.map (fun r -> Dise_telemetry.Json.Float r.wall_s) all));
        ( "round_raw_wall_s",
          Dise_telemetry.Json.List
            (List.map
               (fun r -> Dise_telemetry.Json.Float (Util.sum (List.map (fun (o : Grid.outcome) -> o.Grid.raw) r.cold)))
               all) ); ("digest", Dise_telemetry.Json.String (List.hd digests)) ];
  }
