(* Benchmark harness.

   Regenerates every evaluation panel of the paper (Figures 6, 7, 8)
   over the synthetic SPEC2000-named suite, printing one table per
   panel.

   Usage:
     dune exec bench/main.exe                 # everything, full suite
     dune exec bench/main.exe -- --quick      # 4 benchmarks, shorter runs
     dune exec bench/main.exe -- fig6-top fig7-ratio
     dune exec bench/main.exe -- --jobs 4     # 4 worker domains per panel
     dune exec bench/main.exe -- --json out.json  # machine-readable results
     dune exec bench/main.exe -- --manifest run.jsonl  # per-cell telemetry
     dune exec bench/main.exe -- --trajectory RESULTS_TRACKING.jsonl
                                              # append a per-commit record
     dune exec bench/main.exe -- --cpi-stack  # CPI-stack table per panel
     dune exec bench/main.exe -- --cache DIR  # on-disk result cache
     dune exec bench/main.exe -- --no-cache   # disable the result cache
     dune exec bench/main.exe -- --no-jit     # interpret every fetch
     dune exec bench/main.exe -- --jit-threshold K  # compile after K (def 8) *)

module H = Dise_harness
module T = Dise_telemetry

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--dyn N] [--jobs N] [--json FILE] \
     [--manifest FILE] [--trajectory FILE] [--cpi-stack] [--cache DIR] \
     [--no-cache] [--no-jit] [--jit-threshold K] [panel-id ...]";
  exit 2

let parse_args () =
  let quick = ref false in
  let dyn = ref 300_000 in
  let jobs = ref (H.Pool.default_jobs ()) in
  let json = ref None in
  let manifest = ref None in
  let trajectory = ref None in
  let cpi = ref false in
  let cache = ref None in
  let no_cache = ref false in
  let no_jit = ref false in
  let jit_threshold = ref Dise_machine.Machine.default_jit_threshold in
  let panels = ref [] in
  let int_arg name n =
    match int_of_string_opt n with
    | Some v -> v
    | None ->
      Format.eprintf "%s expects an integer, got %S@." name n;
      usage ()
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--cpi-stack" :: rest ->
      cpi := true;
      go rest
    | "--dyn" :: n :: rest ->
      dyn := int_arg "--dyn" n;
      go rest
    | "--jobs" :: n :: rest ->
      jobs := int_arg "--jobs" n;
      go rest
    | "--json" :: file :: rest ->
      json := Some file;
      go rest
    | "--manifest" :: file :: rest ->
      manifest := Some file;
      go rest
    | "--trajectory" :: file :: rest ->
      trajectory := Some file;
      go rest
    | "--cache" :: dir :: rest ->
      cache := Some dir;
      go rest
    | "--no-cache" :: rest ->
      no_cache := true;
      go rest
    | "--no-jit" :: rest ->
      no_jit := true;
      go rest
    | "--jit-threshold" :: n :: rest ->
      jit_threshold := max 1 (int_arg "--jit-threshold" n);
      go rest
    | ("--dyn" | "--jobs" | "--json" | "--manifest" | "--trajectory"
      | "--cache" | "--jit-threshold") :: [] ->
      usage ()
    | id :: rest ->
      panels := id :: !panels;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  ( !quick, !dyn, !jobs, !json, (!manifest, !trajectory), !cpi,
    (!cache, !no_cache), (!no_jit, !jit_threshold), List.rev !panels )

(* --- JSON output (BENCH_*.json trajectory format) ---------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_results ~quick ~dyn ~jobs ~total results =
  let b = Buffer.create 4096 in
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"suite\": %s,\n" (str (if quick then "quick" else "full")));
  Buffer.add_string b
    (Printf.sprintf "  \"dyn_target\": %d,\n" (if quick then 120_000 else dyn));
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string b (Printf.sprintf "  \"total_elapsed_s\": %.3f,\n" total);
  Buffer.add_string b "  \"panels\": [\n";
  List.iteri
    (fun i (id, elapsed, (fig : H.Figures.figure)) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Printf.sprintf "    { \"id\": %s,\n" (str id));
      Buffer.add_string b
        (Printf.sprintf "      \"elapsed_s\": %.3f,\n" elapsed);
      Buffer.add_string b
        (Printf.sprintf "      \"title\": %s,\n" (str fig.H.Figures.title));
      Buffer.add_string b "      \"series\": [\n";
      List.iteri
        (fun j (s : H.Figures.series) ->
          if j > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b
            (Printf.sprintf "        { \"label\": %s, \"values\": {"
               (str s.H.Figures.label));
          List.iteri
            (fun k (bench, v) ->
              if k > 0 then Buffer.add_string b ", ";
              Buffer.add_string b
                (Printf.sprintf "%s: %.17g" (str bench) v))
            s.H.Figures.values;
          Buffer.add_string b "} }")
        fig.H.Figures.series;
      Buffer.add_string b "\n      ] }")
    results;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let run_panels ~quick ~dyn ~jobs ~manifest ~cpi ids =
  let opts =
    if quick then { H.Figures.quick_opts with H.Figures.jobs; manifest }
    else
      { H.Figures.default_opts with H.Figures.dyn_target = dyn; jobs;
        manifest }
  in
  let lookup id =
    match H.Figures.by_id id with
    | Some f -> (id, f)
    | None -> (
      match H.Ablate.by_id id with
      | Some f -> (id, f)
      | None ->
        Format.eprintf "unknown panel %s@." id;
        exit 2)
  in
  let panels =
    match ids with
    | [] -> H.Figures.all @ H.Ablate.all
    | ids -> List.map lookup ids
  in
  List.map
    (fun (id, f) ->
      let t0 = Unix.gettimeofday () in
      Format.eprintf "running %s...@." id;
      let fig = f opts in
      let elapsed = Unix.gettimeofday () -. t0 in
      Format.printf "@.%a" (H.Report.render ~cpi_stacks:cpi) fig;
      Format.printf "(elapsed %.1fs)@." elapsed;
      (id, elapsed, fig))
    panels

let () =
  let quick, dyn, jobs, json, (manifest_path, trajectory_path), cpi,
      (cache, no_cache), (no_jit, jit_threshold), panels =
    parse_args ()
  in
  Dise_service.Request.set_default_jit ~enabled:(not no_jit)
    ~threshold:jit_threshold;
  (* Same default as disesim: $DISESIM_CACHE or .disesim-cache, on
     unless --no-cache. *)
  (if not no_cache then
     let dir =
       match cache, Sys.getenv_opt "DISESIM_CACHE" with
       | Some d, _ -> d
       | None, Some d when d <> "" -> d
       | None, _ -> ".disesim-cache"
     in
     Dise_service.Request.set_disk_cache (Some (Dise_service.Cache.create ~dir)));
  Format.printf
    "DISE evaluation harness (%s suite, %d dynamic instructions, %d jobs)@."
    (if quick then "quick" else "full")
    (if quick then 120_000 else dyn)
    jobs;
  let manifest_chan = Option.map open_out manifest_path in
  let manifest = Option.map T.Manifest.to_channel manifest_chan in
  (match manifest with
  | Some m ->
    T.Manifest.emit m
      [
        ("kind", T.Json.String "meta");
        ("suite", T.Json.String (if quick then "quick" else "full"));
        ("dyn_target", T.Json.Int (if quick then 120_000 else dyn));
        ("jobs", T.Json.Int jobs);
        ( "host_cores", T.Json.Int (Domain.recommended_domain_count ()) );
      ]
  | None -> ());
  let t0 = Unix.gettimeofday () in
  let results = run_panels ~quick ~dyn ~jobs ~manifest ~cpi panels in
  let total = Unix.gettimeofday () -. t0 in
  (match manifest, manifest_chan with
  | Some m, Some c ->
    T.Manifest.emit m
      [
        ("kind", T.Json.String "summary");
        ("panels", T.Json.Int (List.length results));
        ("total_wall_s", T.Json.Float total);
      ];
    T.Manifest.close m;
    close_out c;
    Format.eprintf "wrote %s@." (Option.get manifest_path)
  | _ -> ());
  (match json with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (json_of_results ~quick ~dyn ~jobs ~total results);
    close_out oc;
    Format.eprintf "wrote %s@." file);
  (* One per-commit record in the same trajectory format the
     conformance monitor appends, so bench wall-clock and per-panel
     latency quantiles sit in the same RESULTS_TRACKING.jsonl stream
     (doc/schema/trajectory.schema.json). *)
  (match trajectory_path with
  | None -> ()
  | Some file ->
    let h = T.Metrics.Histogram.make "bench_panel_ns" in
    let since = T.Metrics.Histogram.snapshot h in
    List.iter
      (fun (_, elapsed, _) -> T.Metrics.Histogram.observe_s h elapsed)
      results;
    let d = T.Metrics.Histogram.delta ~since (T.Metrics.Histogram.snapshot h) in
    let record =
      {
        T.Trajectory.tool = "bench";
        suite = (if quick then "quick" else "full");
        ts = int_of_float (Unix.time ());
        commit = T.Trajectory.commit_id ();
        cells = List.length results;
        passed = List.length results;
        wall_s = total;
        p50_ns = T.Metrics.Histogram.quantile d 0.50;
        p95_ns = T.Metrics.Histogram.quantile d 0.95;
        p99_ns = T.Metrics.Histogram.quantile d 0.99;
        extra =
          [
            ("dyn_target", T.Json.Int (if quick then 120_000 else dyn));
            ("jobs", T.Json.Int jobs);
          ];
      }
    in
    T.Trajectory.append ~jsonl:file record;
    Format.eprintf "appended trajectory record to %s@." file);
  Format.printf "@.done.@."
