module Config = Dise_uarch.Config
module Controller = Dise_core.Controller
module Stats = Dise_uarch.Stats
module Suite = Dise_workload.Suite
module Profile = Dise_workload.Profile
module Compress = Dise_acf.Compress
module Mfi = Dise_acf.Mfi
module Manifest = Dise_telemetry.Manifest
module Json = Dise_telemetry.Json
module Rewrite = Dise_acf.Rewrite
module Request = Dise_service.Request
module Pool = Dise_service.Pool

type series = {
  label : string;
  values : (string * float) list;
}

type figure = {
  id : string;
  title : string;
  ylabel : string;
  series : series list;
  stacks : (string * string * Stats.t) list;
}

type opts = {
  dyn_target : int;
  benchmarks : string list;
  progress : string -> unit;
  jobs : int;
  manifest : Manifest.t option;
}

let default_opts =
  { dyn_target = 300_000; benchmarks = Profile.names; progress = ignore;
    jobs = 1; manifest = None }

let quick_opts =
  {
    dyn_target = 120_000;
    benchmarks = [ "bzip2"; "gzip"; "mcf"; "parser" ];
    progress = ignore;
    jobs = 1;
    manifest = None;
  }

let entries opts =
  List.map
    (fun name ->
      match Profile.find name with
      | Some p -> Suite.get ~dyn_target:opts.dyn_target p
      | None -> invalid_arg ("unknown benchmark " ^ name))
    opts.benchmarks

(* One cell's run: a machine (default: the paper's), a controller
   ([None]: DISE is free), an ACF and its observers at
   [opts.dyn_target], named as a Request and run on the entry the cell
   already holds, so a cache miss does not regenerate the workload. *)
let run ?(machine = Config.default) ?controller ?observe opts acf (e : Suite.entry) =
  Request.run ~entry:e
    (Request.v ~dyn_target:opts.dyn_target ~machine ?controller ~acf ?observe
       e.Suite.profile.Profile.name)

(* A timing cell's value and statistics: [acf]'s run relative to the
   ACF-free run on [norm] (default: the paper's machine). *)
let rel ?machine ?controller ?observe ?(norm = Config.default) opts acf e =
  let st = run ?machine ?controller ?observe opts acf e in
  let baseline = run ~machine:norm opts Request.Baseline e in
  (Request.relative st ~baseline, st)

let dise3 = Request.Mfi_dise Mfi.Dise3
let rewrite = Request.Mfi_rewrite Rewrite.Segment_matching

let decompress ?(mfi = `None) ?(rewritten = false) scheme =
  Request.Decompress { scheme; mfi; rewritten }

(* A deferred series: one closure per (series × benchmark) cell. Cells
   are independent — each builds its own machine/engine/controller —
   so a figure can evaluate them on the worker pool. Each cell yields
   its figure value plus, for timing cells, the full statistics of the
   measured run (used for CPI-stack report columns). *)
type dseries = {
  d_label : string;
  d_cells : (string * (unit -> float * Stats.t option)) list;
}

let series opts label f =
  {
    d_label = label;
    d_cells =
      List.map
        (fun (e : Suite.entry) ->
          (e.Suite.profile.Profile.name, fun () -> (f e, None)))
        (entries opts);
  }

let series_stats opts label f =
  {
    d_label = label;
    d_cells =
      List.map
        (fun (e : Suite.entry) ->
          ( e.Suite.profile.Profile.name,
            fun () ->
              let v, st = f e in
              (v, Some st) ))
        (entries opts);
  }

(* Progress callbacks may fire from worker domains; serialize them so
   concurrent reporting does not interleave mid-line. *)
let progress_mutex = Mutex.create ()

let report_progress opts label bench =
  if opts.progress != ignore then begin
    Mutex.lock progress_mutex;
    (try opts.progress (Printf.sprintf "%s / %s" label bench)
     with e ->
       Mutex.unlock progress_mutex;
       raise e);
    Mutex.unlock progress_mutex
  end

(* Flatten the deferred series of one figure into a task array, run it
   on the pool, and reassemble values in submission order — the figure
   is bit-identical whatever [opts.jobs] is. The tasks run
   benchmark-major (every series of one benchmark, then the next
   benchmark): a panel sweeps timing-only parameters, so a benchmark's
   cells share a few streams, and running them together lets
   {!Request}'s tapes, which hold at least four streams, replay them.
   With a manifest attached, a pool probe records one JSONL line per
   cell (wall-clock and the worker domain that ran it). *)
let figure opts ~id ~title ~ylabel dss =
  let cells =
    List.concat_map
      (fun d ->
        List.mapi (fun j (bench, th) -> (j, (d.d_label, bench, th))) d.d_cells)
      dss
  in
  let cell_arr = Array.of_list (List.map snd cells) in
  (* [order.(k)] is the cell the [k]-th task runs: a stable sort of the
     series-major cells by their benchmark's position. *)
  let order =
    List.mapi (fun i (j, _) -> (j, i)) cells
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd |> Array.of_list
  in
  (* Per-cell disk-cache (hits, misses) and tape deltas. The Request
     counters are domain-local and the pool probe runs on the same
     worker that ran the task, after it — so snapshotting around the
     task and reading the delta from the probe is race-free. *)
  let cache_deltas = Array.make (Array.length cell_arr) (0, 0) in
  let tape_deltas = Array.make (Array.length cell_arr) (0, 0, 0) in
  let tasks =
    Array.map
      (fun i () ->
        let label, bench, th = cell_arr.(i) in
        report_progress opts label bench;
        match opts.manifest with
        | None -> th ()
        | Some _ ->
          let h0, m0 = Request.cache_counters () in
          let r0, p0, a0 = Request.tape_counters () in
          let r = th () in
          let h1, m1 = Request.cache_counters () in
          let r1, p1, a1 = Request.tape_counters () in
          cache_deltas.(i) <- (h1 - h0, m1 - m0);
          tape_deltas.(i) <- (r1 - r0, p1 - p0, a1 - a0);
          r)
      order
  in
  let tape_fields (records, replays, abandoned) =
    [
      ("tape_records", Json.Int records);
      ("tape_replays", Json.Int replays);
      ("tape_abandoned", Json.Int abandoned);
    ]
  in
  let busy = ref 0. in
  let busy_mutex = Mutex.create () in
  let t0 =
    match opts.manifest with None -> 0. | Some _ -> Unix.gettimeofday ()
  in
  let probe =
    match opts.manifest with
    | None -> None
    | Some m ->
      Some
        (fun k ~domain seconds ->
          Mutex.lock busy_mutex;
          busy := !busy +. seconds;
          Mutex.unlock busy_mutex;
          let i = order.(k) in
          let label, bench, _ = cell_arr.(i) in
          let hits, misses = cache_deltas.(i) in
          Manifest.emit m
            ([
               ("kind", Json.String "cell");
               ("figure", Json.String id);
               ("series", Json.String label);
               ("bench", Json.String bench);
               ("index", Json.Int i);
               ("domain", Json.Int domain);
               ("wall_s", Json.Float seconds);
               ("cache_hits", Json.Int hits);
               ("cache_misses", Json.Int misses);
             ]
            @ tape_fields tape_deltas.(i)))
  in
  let ran = Pool.run ~jobs:opts.jobs ?probe tasks in
  let values = Array.make (Array.length cell_arr) (0., None) in
  Array.iteri (fun k v -> values.(order.(k)) <- v) ran;
  (match opts.manifest with
  | None -> ()
  | Some m ->
    let wall = Unix.gettimeofday () -. t0 in
    let jobs = max 1 opts.jobs in
    let hits = Array.fold_left (fun a (h, _) -> a + h) 0 cache_deltas in
    let misses = Array.fold_left (fun a (_, m) -> a + m) 0 cache_deltas in
    let tapes =
      Array.fold_left
        (fun (r, p, a) (r', p', a') -> (r + r', p + p', a + a'))
        (0, 0, 0) tape_deltas
    in
    Manifest.emit m
      ([
         ("kind", Json.String "figure");
         ("figure", Json.String id);
         ("cells", Json.Int (Array.length cell_arr));
         ("jobs", Json.Int jobs);
         ("cache_hits", Json.Int hits);
         ("cache_misses", Json.Int misses);
       ]
      @ tape_fields tapes
      @ [
          ("wall_s", Json.Float wall);
          ("busy_s", Json.Float !busy);
          ( "utilization",
            Json.Float
              (if wall > 0. then !busy /. (float_of_int jobs *. wall) else 1.)
          );
        ]));
  let i = ref 0 in
  let take () =
    let v = values.(!i) in
    incr i;
    v
  in
  let series =
    List.map
      (fun d ->
        { label = d.d_label;
          values =
            List.map (fun (bench, _) -> (bench, fst (take ()))) d.d_cells })
      dss
  in
  let stacks =
    List.concat
      (List.mapi
         (fun i (label, bench, _) ->
           match snd values.(i) with
           | Some st -> [ (label, bench, st) ]
           | None -> [])
         (Array.to_list cell_arr))
  in
  { id; title; ylabel; series; stacks }

(* --- Figure 6: memory fault isolation -------------------------------- *)

let fig6_top opts =
  let decode d = Config.with_dise_decode d Config.default in
  figure opts ~id:"fig6-top"
    ~title:"Figure 6 (top): memory fault isolation, 4-wide, 32KB I$"
    ~ylabel:"execution time relative to no-MFI"
    [
      series_stats opts "rewrite" (rel opts rewrite);
      series_stats opts "DISE4" (rel opts (Request.Mfi_dise Mfi.Dise4));
      series_stats opts "#stall"
        (rel ~machine:(decode Config.Stall_per_expansion) opts dise3);
      series_stats opts "+pipe"
        (rel ~machine:(decode Config.Extra_stage) opts dise3);
      series_stats opts "DISE3" (rel opts dise3);
    ]

let cache_points = [ (Some 8, "8K"); (Some 32, "32K"); (Some 128, "128K"); (None, "inf") ]

let fig6_cache opts =
  let mk (size, tag) =
    let machine = Config.with_icache_kb size Config.default in
    [
      series_stats opts (Printf.sprintf "DISE3@%s" tag)
        (rel ~machine ~norm:machine opts dise3);
      series_stats opts (Printf.sprintf "rewrite@%s" tag)
        (rel ~machine ~norm:machine opts rewrite);
    ]
  in
  figure opts ~id:"fig6-cache"
    ~title:"Figure 6 (middle): MFI vs I-cache size, 4-wide"
    ~ylabel:"execution time relative to no-MFI at same I$"
    (List.concat_map mk cache_points)

let fig6_width opts =
  let mk w =
    let machine = Config.with_width w Config.default in
    [
      series_stats opts (Printf.sprintf "DISE3@%dw" w)
        (rel ~machine ~norm:machine opts dise3);
      series_stats opts (Printf.sprintf "rewrite@%dw" w)
        (rel ~machine ~norm:machine opts rewrite);
    ]
  in
  figure opts ~id:"fig6-width"
    ~title:"Figure 6 (bottom): MFI vs processor width, 32KB I$"
    ~ylabel:"execution time relative to no-MFI at same width"
    (List.concat_map mk [ 2; 4; 8 ])

(* --- Figure 7: dynamic code decompression ----------------------------- *)

let fig7_ratio opts =
  (* Size panels only need the compress_summary projection, which is
     disk-cacheable — a warm rerun of this figure never runs the
     compressor. The ratio helpers reproduce Compress.compression_ratio
     and Compress.total_ratio exactly. *)
  let mk scheme =
    [
      series opts (scheme.Compress.name ^ " text")
        (fun e ->
          Request.summary_compression_ratio (Request.compress_summary ~scheme e));
      series opts (scheme.Compress.name ^ " +dict")
        (fun e -> Request.summary_total_ratio (Request.compress_summary ~scheme e));
    ]
  in
  figure opts ~id:"fig7-ratio"
    ~title:"Figure 7 (top): static compression by scheme"
    ~ylabel:"size relative to uncompressed text"
    (List.concat_map mk Compress.fig7_schemes)

let fig7_perf opts =
  (* All values normalized to the uncompressed run on the default 32KB
     machine. Perfect RT (free DISE). *)
  let mk (size, tag) =
    let machine = Config.with_icache_kb size Config.default in
    [
      series_stats opts (Printf.sprintf "uncomp@%s" tag)
        (rel ~machine opts Request.Baseline);
      series_stats opts (Printf.sprintf "DISE@%s" tag)
        (rel ~machine opts (decompress Compress.full_dise));
    ]
  in
  figure opts ~id:"fig7-perf"
    ~title:"Figure 7 (middle): decompression performance vs I$ size"
    ~ylabel:"execution time relative to uncompressed, 32KB I$"
    (List.concat_map mk cache_points)

let rt_configs =
  [
    (512, 1, "512-DM");
    (512, 2, "512-2way");
    (2048, 1, "2K-DM");
    (2048, 2, "2K-2way");
  ]

let fig7_rt opts =
  let mk (entries_, assoc, tag) =
    let controller =
      { Controller.default_config with rt_entries = entries_; rt_assoc = assoc }
    in
    series_stats opts (Printf.sprintf "RT %s" tag)
      (rel ~controller opts (decompress Compress.full_dise))
  in
  figure opts ~id:"fig7-rt"
    ~title:"Figure 7 (bottom): decompression vs RT configuration, 32KB I$"
    ~ylabel:"execution time relative to uncompressed, 32KB I$"
    (List.map mk rt_configs
     @ [
         series_stats opts "RT perfect"
           (rel opts (decompress Compress.full_dise));
       ])

(* --- Figure 8: composing decompression and fault isolation ------------ *)

let fig8_combo opts =
  let mk (size, tag) =
    let machine = Config.with_icache_kb size Config.default in
    [
      series_stats opts (Printf.sprintf "rw+dedic@%s" tag)
        (rel ~machine opts (decompress ~rewritten:true Compress.dedicated));
      series_stats opts (Printf.sprintf "rw+DISE@%s" tag)
        (rel ~machine opts (decompress ~rewritten:true Compress.full_dise));
      series_stats opts (Printf.sprintf "DISE+DISE@%s" tag)
        (rel ~machine opts (decompress ~mfi:`Composed Compress.full_dise));
    ]
  in
  figure opts ~id:"fig8-combo"
    ~title:"Figure 8 (top): composed MFI+decompression vs I$ size"
    ~ylabel:"execution time relative to unmodified, 32KB I$"
    (List.concat_map mk cache_points)

let fig8_rt opts =
  let mk ~latency (entries_, assoc, tag) =
    let controller =
      {
        Controller.default_config with
        rt_entries = entries_;
        rt_assoc = assoc;
        composing = latency > Controller.default_config.Controller.miss_penalty;
        compose_penalty = latency;
      }
    in
    series_stats opts (Printf.sprintf "%s miss=%d" tag latency)
      (rel ~controller opts (decompress ~mfi:`Composed Compress.full_dise))
  in
  figure opts ~id:"fig8-rt"
    ~title:
      "Figure 8 (bottom): composition vs RT configuration and miss latency"
    ~ylabel:"execution time relative to unmodified, 32KB I$"
    (List.map (mk ~latency:30) rt_configs
     @ List.map (mk ~latency:150) rt_configs)

(* --- synthesized vs hand-built dictionaries ----------------------------- *)

(* One profile-guided search per benchmark (deterministic: fixed seed,
   fixed budget), against the greedy compressor's hand-built dictionary
   under the same modeled controller. The per-benchmark cell is the
   unit of pool parallelism, so each search scores serially within its
   cell (no nested pools). *)
let synth_dict opts =
  let module Sy = Dise_synthesize in
  let cells =
    Array.of_list
      (List.map
         (fun (e : Suite.entry) ->
           fun () ->
            let bench = e.Suite.profile.Profile.name in
            opts.progress (Printf.sprintf "synth-dict %s: searching" bench);
            let cfg =
              Sy.Search.v ~dyn_target:opts.dyn_target ~budget:96 ~jobs:1 bench
            in
            let r = Sy.Search.run cfg in
            let greedy =
              Request.compress_summary ~scheme:Compress.full_dise e
            in
            let greedy_rel =
              let st =
                run ~controller:Controller.default_config opts
                  (decompress Compress.full_dise) e
              in
              float_of_int st.Stats.cycles
              /. float_of_int r.Sy.Search.baseline_cycles
            in
            (bench, r, greedy, greedy_rel))
         (entries opts))
  in
  let results = Array.to_list (Pool.run ~jobs:opts.jobs cells) in
  let row label f =
    { label; values = List.map (fun cell -> (let b, _, _, _ = cell in b), f cell) results }
  in
  {
    id = "synth-dict";
    title =
      "Synthesized vs hand-built dictionaries (full DISE scheme, default \
       PT/RT)";
    ylabel = "size ratio vs original / time ratio vs baseline";
    series =
      [
        row "hand-built total ratio" (fun (_, _, g, _) ->
            Request.summary_total_ratio g);
        row "synthesized total ratio" (fun (_, r, _, _) ->
            r.Sy.Search.outcome.Sy.Score.ratio);
        row "hand-built rel. time" (fun (_, _, _, gr) -> gr);
        row "synthesized rel. time" (fun (_, r, _, _) ->
            r.Sy.Search.outcome.Sy.Score.rel);
        (* The acceptance quotient: fraction of the hand-built
           dictionary's savings the search recovered. *)
        row "savings quotient (synth/hand)" (fun (_, r, g, _) ->
            let hand = 1.0 -. Request.summary_total_ratio g in
            if hand <= 0.0 then 1.0
            else (1.0 -. r.Sy.Search.outcome.Sy.Score.ratio) /. hand);
      ];
    stacks = [];
  }

let all =
  [
    ("fig6-top", fig6_top);
    ("fig6-cache", fig6_cache);
    ("fig6-width", fig6_width);
    ("fig7-ratio", fig7_ratio);
    ("fig7-perf", fig7_perf);
    ("fig7-rt", fig7_rt);
    ("fig8-combo", fig8_combo);
    ("fig8-rt", fig8_rt);
  ]

(* Opt-in panels: a synthesis search per cell is far costlier than any
   paper panel, so these resolve by id (disesim figures synth-dict)
   but are excluded from the default "run everything" sweep. *)
let extras = [ ("synth-dict", synth_dict) ]

let by_id id =
  match List.assoc_opt id all with
  | Some f -> Some f
  | None -> List.assoc_opt id extras
