(* disesim: command-line driver for the DISE reproduction.

   Subcommands:
     list                     available benchmarks, schemes, figure panels
     run                      simulate one workload/ACF/machine configuration
     compress                 compress one workload under one scheme
     synthesize               profile-guided dictionary search
     figures                  regenerate evaluation panels and ablations
     serve                    batch JSONL simulation service (stdin or socket)
     fuzz                     differential fuzzing + fault injection
     conformance              architectural vectors on all three backends
     cache                    inspect or clear the on-disk result cache
     exec                     assemble and run a user program (+productions)
     safety                   inspect a production-set file
     disasm                   dump a generated workload
     validate                 check a JSON file against a JSON-Schema file

   Exit codes follow Dise_isa.Diag: 2 malformed input, 3 simulation
   failure, 4 result-cache I/O failure, 5 deadline exceeded, 6
   overloaded / resource busy, 7 internal fault. *)

open Cmdliner
module Machine = Dise_machine.Machine
module Config = Dise_uarch.Config
module Stats = Dise_uarch.Stats
module Controller = Dise_core.Controller
module Diag = Dise_isa.Diag
module W = Dise_workload
module A = Dise_acf
module S = Dise_service
module H = Dise_harness
module T = Dise_telemetry
module Fz = Dise_fuzz
module Sy = Dise_synthesize

let die d =
  Format.eprintf "disesim: %a@." Diag.pp d;
  exit (Diag.exit_code d)

(* Classify stray exceptions from the simulation stack onto the
   shared exit-code policy. *)
let guarded f =
  try f () with
  | S.Cache.Diag_error d -> die d
  | Dise_isa.Encode.Error msg -> die (Diag.Parse { source = "encode"; line = 0; msg })
  | Machine.Runtime_error msg | Failure msg -> die (Diag.Runtime msg)
  | Dise_core.Engine.Expansion_error msg -> die (Diag.Expansion msg)
  | Invalid_argument msg -> die (Diag.Invalid msg)

let entry_of name dyn =
  match W.Profile.find name with
  | Some p -> W.Suite.get ~dyn_target:dyn p
  | None ->
    Format.eprintf "unknown benchmark %s (try: disesim list)@." name;
    exit 2

(* --- result cache wiring ------------------------------------------------ *)

let default_cache_dir () =
  match Sys.getenv_opt "DISESIM_CACHE" with
  | Some d when d <> "" -> d
  | _ -> ".disesim-cache"

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Result-cache directory (default: \\$DISESIM_CACHE or \
               .disesim-cache). Simulation results are content-addressed \
               by request, so warm reruns skip simulation entirely.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Disable the on-disk result cache for this invocation.")

let setup_cache dir no_cache =
  if no_cache then S.Request.set_disk_cache None
  else
    let dir = match dir with Some d -> d | None -> default_cache_dir () in
    match S.Cache.create ~dir with
    | c -> S.Request.set_disk_cache (Some c)
    | exception S.Cache.Diag_error d -> die d

(* --- superblock-JIT knobs (see doc/jit.md) ----------------------------- *)

let no_jit_arg =
  Arg.(value & flag & info [ "no-jit" ]
         ~doc:"Disable the functional machine's trace/superblock JIT.                Purely a performance knob: statistics and figure CSVs are                identical either way (the differential fuzzer proves it),                but JIT-on and JIT-off runs cache under distinct keys.")

let jit_threshold_arg =
  Arg.(value & opt int Machine.default_jit_threshold
       & info [ "jit-threshold" ] ~docv:"K"
           ~doc:"Compile a trace after its PC has been dispatched $(docv)                  times (default 8). Lower compiles sooner; 1 compiles on                  first sight.")

let setup_jit no_jit threshold =
  if threshold < 1 then begin
    Format.eprintf "--jit-threshold must be >= 1@.";
    exit 2
  end;
  S.Request.set_default_jit ~enabled:(not no_jit) ~threshold

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Outputs are opened before any simulation, so a path that cannot be
   written fails fast with exit 2, naming it, instead of after the
   run. *)
let open_output path =
  try open_out path
  with Sys_error msg -> die (Diag.Invalid ("cannot write " ^ msg))

let output_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) when Sys.is_directory dir ->
    ()
  | exception Unix.Unix_error (e, _, _) ->
    die
      (Diag.Invalid
         (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e)))

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let doc = "List benchmarks, compression schemes, and figure panels." in
  let run () =
    Format.printf "benchmarks:@.";
    List.iter
      (fun p -> Format.printf "  %a@." W.Profile.pp p)
      W.Profile.spec2000;
    Format.printf "@.compression schemes:@.";
    List.iter
      (fun s -> Format.printf "  %s@." s.A.Compress.name)
      A.Compress.fig7_schemes;
    Format.printf "@.figure panels:@.";
    List.iter (fun (id, _) -> Format.printf "  %s@." id) H.Figures.all;
    Format.printf "@.ablations:@.";
    List.iter (fun (id, _) -> Format.printf "  %s@." id) H.Ablate.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- shared options ---------------------------------------------------- *)

let bench_arg =
  Arg.(value & opt string "gzip" & info [ "b"; "bench" ] ~docv:"NAME"
         ~doc:"Workload profile name.")

let dyn_arg =
  let check dyn =
    match S.Request.check_dyn_target dyn with
    | Ok () -> dyn
    | Error msg -> die (Diag.Invalid ("--dyn: " ^ msg))
  in
  Term.(
    const check
    $ Arg.(value & opt int 300_000 & info [ "dyn" ] ~docv:"N"
             ~doc:"Approximate dynamic instructions per run."))

let icache_arg =
  Arg.(value & opt (some int) (Some 32) & info [ "icache" ] ~docv:"KB"
         ~doc:"I-cache size in KB; 0 means perfect.")

let width_arg =
  Arg.(value & opt int 4 & info [ "width" ] ~docv:"N" ~doc:"Machine width.")

let rt_arg =
  Arg.(value & opt (some int) None & info [ "rt" ] ~docv:"ENTRIES"
         ~doc:"Model a finite RT with this many entries (default: perfect).")

let rt_assoc_arg =
  Arg.(value & opt int 2 & info [ "rt-assoc" ] ~docv:"N"
         ~doc:"RT associativity.")

let machine_of icache width =
  let cfg =
    Config.default
    |> Config.with_width width
    |> Config.with_icache_kb (match icache with Some 0 -> None | x -> x)
  in
  (match cfg.Config.icache with
  | Some { Config.size_bytes; assoc; line_bytes } -> (
    match Dise_uarch.Cache.check_geometry ~size_bytes ~assoc ~line_bytes with
    | Ok () -> ()
    | Error msg ->
      die
        (Diag.Invalid
           (Printf.sprintf "--icache %d: %s" (size_bytes / 1024) msg)))
  | None -> ());
  cfg

(* --- run --------------------------------------------------------------- *)

let acf_arg =
  let decompress mfi =
    S.Request.Decompress
      { scheme = A.Compress.full_dise; mfi; rewritten = false }
  in
  let acfs =
    [ ("none", S.Request.Baseline);
      ("mfi-dise3", S.Request.Mfi_dise A.Mfi.Dise3);
      ("mfi-dise4", S.Request.Mfi_dise A.Mfi.Dise4);
      ("mfi-rewrite", S.Request.Mfi_rewrite A.Rewrite.Segment_matching);
      ("decompress", decompress `None); ("composed", decompress `Composed) ]
  in
  Arg.(value
       & opt (enum (List.map (fun (n, a) -> (n, (n, a))) acfs))
           ("none", S.Request.Baseline)
       & info [ "acf" ] ~docv:"ACF"
           ~doc:"Customization function: $(docv) is one of none, mfi-dise3, \
                 mfi-dise4, mfi-rewrite, decompress, composed.")

let stats_json_arg =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
         ~doc:"Write run statistics (counters, CPI stack, per-production \
               profile) as JSON to $(docv); see doc/schema/stats.schema.json.")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event pipeline timeline to $(docv). Load \
               it in Perfetto or chrome://tracing; the microsecond fields \
               hold simulated cycles.")

let cpi_stack_arg =
  Arg.(value & flag & info [ "cpi-stack" ]
         ~doc:"Print the CPI-stack cycle attribution and the per-production \
               expansion profile after the run.")

let run_cmd =
  let doc = "Simulate one workload under one ACF and machine configuration." in
  let run bench dyn icache width (acf_name, acf) rt rt_assoc stats_json
      trace_path cpi cache_dir no_cache no_jit jit_threshold =
    Result.iter_error
      (fun msg -> die (Diag.Invalid ("--width: " ^ msg)))
      (Config.check_width width);
    Option.iter
      (fun entries ->
        match
          Dise_core.Rt.check_geometry ~entries ~assoc:rt_assoc
            ~entries_per_block:
              Controller.default_config.Controller.rt_entries_per_block
        with
        | Ok () -> ()
        | Error msg ->
          die
            (Diag.Invalid
               (Printf.sprintf "--rt %d --rt-assoc %d: %s" entries rt_assoc
                  msg)))
      rt;
    let machine = machine_of icache width in
    setup_cache cache_dir no_cache;
    setup_jit no_jit jit_threshold;
    let entry = entry_of bench dyn in
    let trace_chan = Option.map open_output trace_path in
    let stats_chan = Option.map open_output stats_json in
    let controller =
      Option.map
        (fun entries ->
          { Controller.default_config with
            rt_entries = entries;
            rt_assoc;
            composing =
              (match acf with
              | S.Request.Decompress { mfi = `Composed; _ } -> true
              | _ -> false) })
        rt
    in
    let req =
      S.Request.v ~dyn_target:dyn ~machine
        ?controller ~acf bench
    in
    let trace = Option.map (fun c -> T.Trace.to_channel c) trace_chan in
    let profile =
      if stats_json <> None || cpi then Some (T.Profile.create ()) else None
    in
    let stats = guarded (fun () -> S.Request.run ~entry ?trace ?profile req) in
    (match trace_chan with
    | Some c ->
      close_out c;
      let tr = Option.get trace in
      if T.Trace.truncated tr then
        Format.printf "(trace written to %s; %d events, %d dropped at the cap)@."
          (Option.get trace_path) (T.Trace.emitted tr) (T.Trace.dropped tr)
      else Format.printf "(trace written to %s)@." (Option.get trace_path)
    | None -> ());
    Format.printf "machine: %a@." Config.pp req.S.Request.machine;
    Format.printf "%a@." Stats.pp stats;
    let base =
      guarded (fun () ->
          S.Request.run ~entry { req with S.Request.acf = S.Request.Baseline })
    in
    if acf <> S.Request.Baseline then
      Format.printf "relative to ACF-free: %.3f@."
        (S.Request.relative stats ~baseline:base);
    if cpi then begin
      Format.printf "@.%a@." T.Cpi_stack.pp stats.Stats.cpi;
      match profile with
      | Some p when T.Profile.total_expansions p > 0 ->
        Format.printf "@.%a@." T.Profile.pp p
      | _ -> ()
    end;
    match stats_chan with
    | None -> ()
    | Some oc ->
      let doc =
        T.Json.Obj
          [
            ("benchmark", T.Json.String bench);
            ("acf", T.Json.String acf_name);
            ("dyn_target", T.Json.Int dyn);
            ( "machine",
              T.Json.Obj
                [
                  ("width", T.Json.Int width);
                  ( "icache_kb",
                    match icache with
                    | Some 0 | None -> T.Json.Null
                    | Some kb -> T.Json.Int kb );
                ] );
            ("stats", Stats.to_json stats);
            ( "profile",
              match profile with
              | Some p -> T.Profile.to_json p
              | None -> T.Json.Null );
            ( "trace",
              match trace with
              | Some tr ->
                T.Json.Obj
                  [
                    ("emitted", T.Json.Int (T.Trace.emitted tr));
                    ("dropped", T.Json.Int (T.Trace.dropped tr));
                    ("truncated", T.Json.Bool (T.Trace.truncated tr));
                  ]
              | None -> T.Json.Null );
          ]
      in
      output_string oc (T.Json.to_string ~indent:true doc);
      close_out oc;
      Format.printf "(stats written to %s)@." (Option.get stats_json)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bench_arg $ dyn_arg $ icache_arg $ width_arg $ acf_arg
          $ rt_arg $ rt_assoc_arg $ stats_json_arg $ trace_out_arg
          $ cpi_stack_arg $ cache_dir_arg $ no_cache_arg $ no_jit_arg
          $ jit_threshold_arg)

(* --- compress ---------------------------------------------------------- *)

let scheme_arg =
  let conv_name s =
    match
      List.find_opt (fun c -> c.A.Compress.name = s) A.Compress.fig7_schemes
    with
    | Some c -> Ok c
    | None -> Error (`Msg ("unknown scheme " ^ s))
  in
  let printer ppf s = Format.pp_print_string ppf s.A.Compress.name in
  Arg.(value & opt (conv (conv_name, printer)) A.Compress.full_dise
       & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Compression scheme name.")

let compress_cmd =
  let doc = "Compress one workload and report sizes." in
  let show_arg =
    Arg.(value & opt int 0 & info [ "show-dictionary" ] ~docv:"N"
           ~doc:"Print the $(docv) most-used dictionary entries.")
  in
  let run bench dyn scheme show stats_json cache_dir no_cache =
    setup_cache cache_dir no_cache;
    let entry = entry_of bench dyn in
    let stats_chan = Option.map open_output stats_json in
    (* A sizes-only invocation goes through the disk-cacheable summary
       (warm reruns skip the compressor); dumping dictionary entries
       needs the full in-memory result. *)
    let s, full =
      guarded (fun () ->
          if show > 0 then
            let r = S.Request.compress_result ~scheme entry in
            ( {
                S.Request.orig_text_bytes = r.A.Compress.orig_text_bytes;
                text_bytes = r.A.Compress.text_bytes;
                dict_bytes = r.A.Compress.dict_bytes;
                dict_entries = List.length r.A.Compress.entries;
                codewords = r.A.Compress.codewords;
              },
              Some r )
          else (S.Request.compress_summary ~scheme entry, None))
    in
    (match stats_chan with
    | None -> ()
    | Some oc ->
      let doc =
        T.Json.Obj
          [
            ("benchmark", T.Json.String bench);
            ("scheme", T.Json.String scheme.A.Compress.name);
            ("orig_text_bytes", T.Json.Int s.S.Request.orig_text_bytes);
            ("text_bytes", T.Json.Int s.S.Request.text_bytes);
            ("dict_bytes", T.Json.Int s.S.Request.dict_bytes);
            ("dict_entries", T.Json.Int s.S.Request.dict_entries);
            ("codewords", T.Json.Int s.S.Request.codewords);
            ( "text_ratio",
              T.Json.Float (S.Request.summary_compression_ratio s) );
            ("total_ratio", T.Json.Float (S.Request.summary_total_ratio s));
          ]
      in
      output_string oc (T.Json.to_string ~indent:true doc);
      close_out oc;
      Format.printf "(stats written to %s)@." (Option.get stats_json));
    Format.printf "scheme %s on %s:@." scheme.A.Compress.name bench;
    Format.printf "  original text:   %7d bytes@." s.S.Request.orig_text_bytes;
    Format.printf "  compressed text: %7d bytes (%.1f%%)@."
      s.S.Request.text_bytes
      (100. *. S.Request.summary_compression_ratio s);
    Format.printf "  dictionary:      %7d bytes (%d entries)@."
      s.S.Request.dict_bytes s.S.Request.dict_entries;
    Format.printf "  total:           %.1f%% of original@."
      (100. *. S.Request.summary_total_ratio s);
    Format.printf "  codewords planted: %d@." s.S.Request.codewords;
    match full with
    | Some r when show > 0 ->
      let by_use =
        List.sort
          (fun a b -> compare b.A.Compress.uses a.A.Compress.uses)
          r.A.Compress.entries
      in
      List.iteri
        (fun i e ->
          if i < show then begin
            Format.printf "@.  tag %d: %d codewords, %d params@."
              e.A.Compress.tag e.A.Compress.uses e.A.Compress.param_fields;
            Array.iter
              (fun ri ->
                Format.printf "    %a@." Dise_core.Replacement.pp_rinsn ri)
              e.A.Compress.spec
          end)
        by_use
    | _ -> ()
  in
  Cmd.v (Cmd.info "compress" ~doc)
    Term.(const run $ bench_arg $ dyn_arg $ scheme_arg $ show_arg
          $ stats_json_arg $ cache_dir_arg $ no_cache_arg)

(* --- synthesize: profile-guided dictionary search ----------------------- *)

let synthesize_cmd =
  let doc =
    "Synthesize a decompression dictionary from a workload's dynamic \
     profile: collect the baseline fetch histogram, mine the recurring \
     compressible windows, and hill-climb over candidate dictionaries, \
     scoring each on the timing model through the result cache on the \
     domain pool. Capacity is a hard constraint: candidates that \
     overflow the controller's PT or RT are rejected unsimulated. The \
     search is deterministic for a given $(b,--seed), and the result \
     cache is its only persistent memo: a rerun over the same \
     $(b,--cache) answers every candidate's timing run from it. See \
     doc/synthesize.md."
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Deterministic search seed (default 1): same seed, same \
                 dictionary, byte for byte.")
  in
  let budget_arg =
    Arg.(value & opt int 192 & info [ "budget" ] ~docv:"N"
           ~doc:"Maximum candidate evaluations (default 192).")
  in
  let jobs_arg =
    Arg.(value & opt int (S.Pool.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for scoring (default: available \
                   cores).")
  in
  let out_arg =
    Arg.(value & opt string "synth-out" & info [ "out" ] ~docv:"DIR"
           ~doc:"Output directory (default synth-out); the search writes \
                 dictionary.json there.")
  in
  let run bench dyn scheme seed budget jobs out cache_dir no_cache no_jit
      jit_threshold =
    setup_cache cache_dir no_cache;
    setup_jit no_jit jit_threshold;
    output_dir out;
    let cfg =
      Sy.Search.v ~dyn_target:dyn ~scheme ~rng_seed:seed ~budget ~jobs
        ~progress:(fun m -> Format.eprintf "disesim synthesize: %s@." m)
        bench
    in
    let r = guarded (fun () -> Sy.Search.run cfg) in
    let dict_path = Filename.concat out "dictionary.json" in
    Sy.Search.write_dictionary ~path:dict_path cfg r;
    Format.printf "synthesized %d-entry dictionary (%d seeds) for %s (%s):@."
      (List.length r.Sy.Search.compress.A.Compress.entries)
      (List.length r.Sy.Search.seeds) bench scheme.A.Compress.name;
    Format.printf "  total ratio:   %.3f (text %.3f)@."
      r.Sy.Search.outcome.Sy.Score.ratio
      (A.Compress.compression_ratio r.Sy.Search.compress);
    Format.printf "  relative time: %.3f@." r.Sy.Search.outcome.Sy.Score.rel;
    Format.printf "  fitness:       %.4f after %d evaluations (%d candidate \
                   groups)@."
      r.Sy.Search.outcome.Sy.Score.fitness r.Sy.Search.evaluations
      r.Sy.Search.candidates;
    Format.printf "  simulated:     %d candidate timing runs (cache hits and \
                   unfit candidates excluded)@."
      r.Sy.Search.simulated;
    Format.printf "  footprint:     %d PT patterns, %d RT entries (fits: %b)@."
      r.Sy.Search.footprint.Dise_core.Prodset.pt_patterns
      r.Sy.Search.footprint.Dise_core.Prodset.rt_entries
      r.Sy.Search.outcome.Sy.Score.fits;
    Format.printf "(dictionary written to %s)@." dict_path
  in
  Cmd.v (Cmd.info "synthesize" ~doc)
    Term.(const run $ bench_arg $ dyn_arg $ scheme_arg $ seed_arg $ budget_arg
          $ jobs_arg $ out_arg $ cache_dir_arg $ no_cache_arg
          $ no_jit_arg $ jit_threshold_arg)

(* --- figures ------------------------------------------------------------ *)

let figures_cmd =
  let doc = "Regenerate evaluation figure panels." in
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PANEL"
           ~doc:"Panel ids (default: all).")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Four benchmarks at reduced dynamic length.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR"
           ~doc:"Also write one CSV per panel into $(docv) (created if \
                 missing).")
  in
  let jobs_arg =
    Arg.(value & opt int (S.Pool.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains per panel (default: available cores). \
                   Results are identical for every $(docv); 1 is serial.")
  in
  let manifest_arg =
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Append one JSONL record per evaluated cell (series, \
                 benchmark, worker domain, wall-clock) plus per-panel \
                 pool-utilization summaries to $(docv).")
  in
  let run ids quick dyn csv jobs manifest_path cpi cache_dir no_cache no_jit
      jit_threshold =
    setup_cache cache_dir no_cache;
    setup_jit no_jit jit_threshold;
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
    Option.iter output_dir csv;
    let manifest_chan = Option.map open_output manifest_path in
    let manifest = Option.map T.Manifest.to_channel manifest_chan in
    let opts =
      if quick then H.Figures.quick_opts
      else { H.Figures.default_opts with H.Figures.dyn_target = dyn }
    in
    let opts =
      { opts with
        H.Figures.jobs;
        progress = (fun msg -> Format.eprintf "  [%s]@." msg);
        manifest }
    in
    (match manifest with
    | Some m ->
      T.Manifest.emit m
        [
          ("kind", T.Json.String "meta");
          ("dyn_target", T.Json.Int opts.H.Figures.dyn_target);
          ("jobs", T.Json.Int jobs);
          ( "benchmarks",
            T.Json.List
              (List.map (fun b -> T.Json.String b) opts.H.Figures.benchmarks)
          );
          ( "panels",
            T.Json.List (List.map (fun (id, _) -> T.Json.String id) panels) );
        ]
    | None -> ());
    List.iter
      (fun (id, f) ->
        let fig = guarded (fun () -> f opts) in
        Format.printf "@.%a@." (H.Report.render ~cpi_stacks:cpi) fig;
        match csv with
        | Some dir ->
          let path = Filename.concat dir (id ^ ".csv") in
          write_file path (H.Report.to_csv fig);
          Format.printf "(csv written to %s)@." path;
          if fig.H.Figures.stacks <> [] then begin
            let cpi_path = Filename.concat dir (id ^ "-cpi.csv") in
            write_file cpi_path (H.Report.cpi_to_csv fig);
            Format.printf "(cpi csv written to %s)@." cpi_path
          end
        | None -> ())
      panels;
    match manifest, manifest_chan with
    | Some m, Some c ->
      T.Manifest.close m;
      close_out c;
      Format.printf "(manifest written to %s)@." (Option.get manifest_path)
    | _ -> ()
  in
  Cmd.v (Cmd.info "figures" ~doc)
    Term.(const run $ ids_arg $ quick_arg $ dyn_arg $ csv_arg $ jobs_arg
          $ manifest_arg $ cpi_stack_arg $ cache_dir_arg $ no_cache_arg
          $ no_jit_arg $ jit_threshold_arg)

(* --- serve: batch JSONL simulation service ------------------------------ *)

let serve_cmd =
  let doc =
    "Serve simulation requests in batch: JSONL requests in, JSONL \
     responses out (in input order). Reads stdin by default, or accepts \
     connections on a Unix-domain socket; either way an async front end \
     routes the jobs to worker processes (--workers). See \
     doc/service.md and doc/serve-tier.md for the request and response \
     schemas and the wire envelope."
  in
  let config_arg =
    Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE"
           ~doc:"Load the serve configuration from a JSON file \
                 (doc/schema/serve_config.schema.json). Explicit flags \
                 override members of the file; unknown members are \
                 rejected.")
  in
  let workers_arg =
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
           ~doc:"Shard the serve tier across $(docv) worker processes, \
                 routing each job by its content-addressed result key \
                 (consistent hashing), and multiplex clients on an async \
                 front end. A crashed worker is respawned on its shard and \
                 handed its in-flight jobs again. Default: 1.")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ]
           ~docv:"N" ~doc:"Worker domains per process (default: available \
                           cores).")
  in
  let queue_arg =
    Arg.(value & opt (some int) None & info [ "queue" ] ~docv:"N"
           ~doc:"Max lines of one connection (stdin, or one socket \
                 client) in flight at once; further lines are admitted in \
                 input order as responses free slots (default: 4*jobs).")
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix-domain socket at $(docv) instead of \
                 serving stdin; connections are served concurrently, each \
                 as its own JSONL stream with in-order responses. If a live \
                 server already answers on $(docv), refuse to start (exit \
                 6); a stale socket left by a crash is reclaimed.")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-job wall-clock budget. An overrunning job is answered \
                 with an in-order error of kind 'timeout' (exit-code class \
                 5); its batch-mates are unaffected. Default: unbounded.")
  in
  let shed_arg =
    Arg.(value & opt (some int) None & info [ "shed-above" ] ~docv:"WORK"
           ~doc:"Admission high-water mark on the work in flight, in \
                 dynamic-instruction (dyn_target) units: a job that would \
                 push it past $(docv) is answered with kind 'overloaded' \
                 instead of queueing. A job arriving while nothing is in \
                 flight is always admitted. Default: never shed.")
  in
  let tenant_quota_arg =
    Arg.(value & opt (some int) None & info [ "tenant-quota" ] ~docv:"N"
           ~doc:"Max in-flight jobs per tenant (the request envelope's \
                 'tenant' member; requests without one share the anonymous \
                 tenant). Excess jobs are answered with kind 'overloaded' \
                 in input order. Default: no quota.")
  in
  let serve_manifest_arg =
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write one JSONL 'serve_summary' telemetry record for \
                 the run (served/error/timeout/shed/isolated counts, merged \
                 counters and metrics, per-worker breakdown) to $(docv).")
  in
  let chaos_schedule_arg =
    Arg.(value & opt (some string) None & info [ "chaos-schedule" ]
           ~docv:"FILE"
           ~doc:"Replay a deterministic chaos schedule against the tier: \
                 a JSON file of seeded fault events fired as the \
                 admitted-request count passes each event's 'after' \
                 (doc/schema/chaos_schedule.schema.json). Worker actions \
                 (kill/stall/torn/drop_ping) hit a shard; job actions \
                 (raise/sleep) hit the request whose admission fires \
                 them. The same file replays identically on every run. \
                 See doc/resilience.md.")
  in
  let run config workers jobs queue socket deadline_ms shed_above
      tenant_quota manifest_path chaos_schedule cache_dir no_cache no_jit
      jit_threshold =
    (* The default applies to every request that leaves the jit member
       out; requests spelling it out still win. *)
    setup_jit no_jit jit_threshold;
    (* Precedence, lowest to highest: defaults, --config file, flags. *)
    let base =
      match config with
      | None -> S.Serve_config.default ()
      | Some file -> (
        match S.Serve_config.of_file file with
        | Ok c -> c
        | Error d -> die d)
    in
    let cfg =
      S.Serve_config.override base ?workers ?jobs ?queue ?deadline_ms
        ?shed_above ?tenant_quota ?manifest:manifest_path ()
    in
    let manifest_chan = Option.map open_out cfg.S.Serve_config.manifest in
    let manifest_t = Option.map T.Manifest.to_channel manifest_chan in
    let close_manifest () =
      match (manifest_t, manifest_chan) with
      | Some m, Some c ->
        T.Manifest.close m;
        close_out c
      | _ -> ()
    in
    let stop = S.Server.Stop.create () in
    (* Graceful drain: finish the in-flight work, flush its responses,
       stop reading. *)
    let on_signal _ = S.Server.Stop.signal stop in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    (* The coordinator never simulates, so the cache and the JIT are
       configured inside each worker process from the spawn spec. *)
    let cache_dir =
      if no_cache then None
      else Some (match cache_dir with Some d -> d | None -> default_cache_dir ())
    in
    let jit = (not no_jit, jit_threshold) in
    let chaos =
      match chaos_schedule with
      | None -> None
      | Some file -> (
        match S.Chaos.of_file file with
        | Error d -> die d
        | Ok sched -> Some (S.Chaos.fire sched))
    in
    let front_end =
      match socket with
      | None -> S.Coordinator.Stdio { input = Unix.stdin; output = Unix.stdout }
      | Some path ->
        Format.eprintf "disesim serve: listening on %s (%d worker%s)@." path
          cfg.S.Serve_config.workers
          (if cfg.S.Serve_config.workers = 1 then "" else "s");
        S.Coordinator.Socket path
    in
    Fun.protect ~finally:close_manifest (fun () ->
        match
          S.Coordinator.run ~stop ?manifest:manifest_t ?chaos ?cache_dir ~jit
            cfg front_end
        with
        | s -> Format.eprintf "disesim serve: %a@." S.Server.pp_summary s
        | exception S.Cache.Diag_error d -> die d)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ config_arg $ workers_arg $ jobs_arg $ queue_arg
          $ socket_arg $ deadline_arg $ shed_arg $ tenant_quota_arg
          $ serve_manifest_arg $ chaos_schedule_arg $ cache_dir_arg
          $ no_cache_arg $ no_jit_arg $ jit_threshold_arg)

(* --- cache: inspect / clear the result cache ---------------------------- *)

let cache_cmd =
  let open_cache dir =
    let dir = match dir with Some d -> d | None -> default_cache_dir () in
    match S.Cache.create ~dir with
    | c -> c
    | exception S.Cache.Diag_error d -> die d
  in
  let clear_cmd =
    let doc = "Delete every cached result (keeps the directory)." in
    let run dir =
      let c = open_cache dir in
      match S.Cache.clear c with
      | n -> Format.printf "removed %d entries from %s@." n (S.Cache.dir c)
      | exception S.Cache.Diag_error d -> die d
    in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ cache_dir_arg)
  in
  let info_cmd =
    let doc = "Show the cache location, entry count, and version salt." in
    let run dir =
      let c = open_cache dir in
      Format.printf "dir:     %s@." (S.Cache.dir c);
      Format.printf "entries: %d@." (S.Cache.entries c);
      Format.printf "salt:    %s@." S.Cache.salt
    in
    Cmd.v (Cmd.info "info" ~doc) Term.(const run $ cache_dir_arg)
  in
  let doc = "Inspect or clear the on-disk result cache." in
  Cmd.group (Cmd.info "cache" ~doc) [ clear_cmd; info_cmd ]

(* --- exec: assemble and run user programs -------------------------------- *)

let exec_cmd =
  let doc =
    "Assemble a program, optionally activate a production-set file, and \
     run it (functionally, with a timing summary)."
  in
  let asm_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.S"
           ~doc:"Assembly source (see lib/isa/asm.mli for the syntax).")
  in
  let prods_arg =
    Arg.(value & opt (some file) None & info [ "p"; "productions" ]
           ~docv:"FILE.DISE"
           ~doc:"Production-set source (the DSL of lib/core/lang.mli). \
                 Labels resolve against the program's symbols.")
  in
  let dr_arg =
    Arg.(value & opt_all (pair ~sep:'=' int int) []
         & info [ "dr" ] ~docv:"N=V"
             ~doc:"Initialize dedicated register \\$drN to V (repeatable).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print every executed instruction.")
  in
  let run asm_path prods_path drs trace =
    List.iter
      (fun (n, _) ->
        if n < 0 || n >= Dise_isa.Reg.num_dedicated then
          die
            (Diag.Invalid
               (Printf.sprintf "--dr %d: dedicated registers are 0..%d" n
                  (Dise_isa.Reg.num_dedicated - 1))))
      drs;
    let img, set =
      match
        Dise_core.Lang.load ~program:(asm_path, read_file asm_path)
          ~productions:(Option.map (fun p -> (p, read_file p)) prods_path)
      with
      | Ok loaded -> loaded
      | Error d -> die d
    in
    let expander =
      Option.map
        (fun set ->
          List.iter
            (fun f ->
              Format.eprintf "%s: %a@." (Option.get prods_path)
                Dise_core.Safety.pp_finding f)
            (Dise_core.Safety.check set);
          Dise_core.Engine.expander (Dise_core.Engine.create ~image:img set))
        set
    in
    let m = Machine.create ?expander img in
    List.iter (fun (n, v) -> Machine.set_dise_reg m n v) drs;
    let pipeline = Dise_uarch.Pipeline.create Config.default in
    (try
       ignore
         (Machine.run_raw ~max_steps:50_000_000 m (fun r ->
              Dise_uarch.Pipeline.consume_raw pipeline r;
              if trace then
                Format.printf "%08x%s %s@." r.Machine.Raw.pc
                  (if r.Machine.Raw.rsid < 0 then "   "
                   else Printf.sprintf ":%-2d" r.Machine.Raw.offset)
                  (Dise_isa.Insn.to_string (Machine.Raw.insn r))))
     with
     | Machine.Runtime_error msg -> die (Diag.Runtime msg)
     | Dise_core.Engine.Expansion_error msg -> die (Diag.Expansion msg));
    let stats = Dise_uarch.Pipeline.finish pipeline in
    Format.printf "exit code: %d@." (Machine.exit_code m);
    Format.printf "%a@." Stats.pp stats
  in
  Cmd.v (Cmd.info "exec" ~doc)
    Term.(const run $ asm_arg $ prods_arg $ dr_arg $ trace_arg)

(* --- safety: inspect a production-set file -------------------------------- *)

let safety_cmd =
  let doc =
    "Run the kernel's inspection (static safety analysis) on a \
     production-set file."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.DISE")
  in
  let reserved_arg =
    Arg.(value & opt_all int [ 2; 3 ] & info [ "reserved" ] ~docv:"N"
           ~doc:"Dedicated registers the kernel reserves (repeatable; \
                 default \\$dr2 and \\$dr3).")
  in
  let run path reserved =
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Dise_core.Lang.parse_result ~source:path src with
    | Ok set -> (
      (* Bind any symbolic targets to a placeholder: inspection is
         structural, not about concrete addresses. *)
      let set = Dise_core.Prodset.resolve_labels (fun _ -> Some 0) set in
      match Dise_core.Safety.check ~reserved_dedicated:reserved set with
      | [] ->
        Format.printf "%s: approved (%d productions, %d sequences)@." path
          (Dise_core.Prodset.num_productions set)
          (Dise_core.Prodset.num_sequences set)
      | findings ->
        List.iter
          (fun f -> Format.printf "%a@." Dise_core.Safety.pp_finding f)
          findings;
        if Dise_core.Safety.errors findings <> [] then exit 1)
    | Error d -> die d
  in
  Cmd.v (Cmd.info "safety" ~doc) Term.(const run $ file_arg $ reserved_arg)

(* --- validate: JSON-Schema checking of telemetry output ------------------- *)

let validate_cmd =
  let doc =
    "Validate a JSON file against a JSON-Schema file (the subset of \
     keywords used by doc/schema/, see lib/telemetry/json_schema.mli). \
     Exits 1 on parse or validation failure."
  in
  let schema_arg =
    Arg.(required & opt (some file) None & info [ "schema" ] ~docv:"SCHEMA"
           ~doc:"JSON-Schema file.")
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"JSON document to check.")
  in
  let parse_or_die what path =
    match T.Json.parse (read_file path) with
    | doc -> doc
    | exception T.Json.Parse_error msg ->
      Format.eprintf "%s %s: %s@." what path msg;
      exit 1
  in
  let run schema_path path =
    let schema = parse_or_die "schema" schema_path in
    let doc = parse_or_die "document" path in
    match T.Json_schema.validate ~schema doc with
    | [] -> Format.printf "%s: conforms to %s@." path schema_path
    | errors ->
      List.iter
        (fun e -> Format.eprintf "%s: %a@." path T.Json_schema.pp_error e)
        errors;
      exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ schema_arg $ file_arg)

(* --- disasm -------------------------------------------------------------- *)

let disasm_cmd =
  let doc = "Disassemble a generated workload (first N instructions)." in
  let count_arg =
    Arg.(value & opt int 60 & info [ "n" ] ~docv:"N" ~doc:"Instructions.")
  in
  let run bench dyn n =
    let entry = entry_of bench dyn in
    let img = entry.W.Suite.image in
    Dise_isa.Disasm.pp_range Format.std_formatter img ~lo:0
      ~hi:(min n (Dise_isa.Program.Image.length img));
    Format.printf "... (%d instructions total)@."
      (Dise_isa.Program.Image.length img)
  in
  Cmd.v (Cmd.info "disasm" ~doc)
    Term.(const run $ bench_arg $ dyn_arg $ count_arg)

(* --- fuzz: differential fuzzing ------------------------------------------ *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing. Random programs and production sets are \
     executed in lockstep by four sides: the naive reference expander, \
     the memoizing engine, the engine under the superblock JIT and the \
     reference interpreter; the full pipeline's stats invariants are \
     checked too. Any divergence in architectural state, kept-stream \
     events, or stats invariants is shrunk to a minimal case and \
     written as a replayable artifact. See doc/fuzzing.md."
  in
  let iterations_arg =
    Arg.(value & opt int 500 & info [ "iterations" ] ~docv:"N"
           ~doc:"Random cases to run (default 500).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Deterministic case-stream seed (default 1).")
  in
  let out_arg =
    Arg.(value & opt string "fuzz-out" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for the repro artifact of a found failure \
                 (default fuzz-out).")
  in
  let self_test_arg =
    Arg.(value & flag & info [ "self-test" ]
           ~doc:"Inject a known-bad engine mutation and assert the fuzzer \
                 detects it within $(b,50) iterations; exits non-zero if \
                 the mutation escapes.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH"
           ~doc:"Re-execute a repro artifact (directory or case.json) and \
                 report whether the recorded verdict reproduces.")
  in
  let log msg = Format.eprintf "disesim fuzz: %s@." msg in
  let module F = Dise_fuzz in
  let run iterations seed out self_test replay =
    guarded @@ fun () ->
    match replay with
    | Some path -> (
      match F.Driver.replay ~log path with
      | Error d -> die d
      | Ok true -> Format.printf "replay: verdict reproduced@."
      | Ok false ->
        Format.printf "replay: verdict did NOT reproduce@.";
        exit 1)
    | None ->
      if self_test then begin
        match F.Driver.self_test ~out ~log ~seed () with
        | Ok f ->
          Format.printf
            "self-test: mutation detected at iteration %d ([%s] %s)@."
            f.F.Driver.iteration f.F.Driver.failure.F.Oracle.check
            f.F.Driver.failure.F.Oracle.detail
        | Error msg ->
          Format.eprintf "%s@." msg;
          exit 1
      end
      else begin
        match F.Driver.fuzz ~out ~log ~iterations ~seed () with
        | F.Driver.Clean { iterations } ->
          Format.printf "fuzz: %d iterations, no divergence@." iterations
        | F.Driver.Found f ->
          Format.printf "fuzz: FAILURE at iteration %d: [%s] %s@."
            f.F.Driver.iteration f.F.Driver.failure.F.Oracle.check
            f.F.Driver.failure.F.Oracle.detail;
          (match f.F.Driver.artifact with
          | Some dir -> Format.printf "fuzz: repro artifact in %s@." dir
          | None -> ());
          exit 1
      end
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ iterations_arg $ seed_arg $ out_arg $ self_test_arg
          $ replay_arg)

(* --- conformance: the versioned architectural suite ---------------------- *)

let conformance_cmd =
  let doc =
    "Run the checked-in architectural conformance vectors (test/arch/) on \
     all three expander backends (naive reference, memoizing engine, \
     superblock JIT) and write a per-cell CSV report. \
     Exits 1 on any signature mismatch. A correctness gate only: \
     performance is measured by perfbench/. See doc/observability.md."
  in
  let dir_arg =
    Arg.(value & opt dir Fz.Conformance.default_dir
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Suite directory holding manifest.json and the vector \
                   sources (default test/arch).")
  in
  let out_arg =
    Arg.(value & opt string "_conformance" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for report.csv (default _conformance).")
  in
  let update_arg =
    Arg.(value & flag & info [ "update" ]
           ~doc:"Recompute every vector's signature from a fresh naive \
                 reference run and rewrite manifest.json (the authoring \
                 path for new vectors), instead of checking.")
  in
  let run suite_dir out update =
    let vectors =
      match Fz.Conformance.load_suite ~dir:suite_dir with
      | Ok vs -> vs
      | Error d -> die d
    in
    if update then begin
      match Fz.Conformance.update_signatures ~dir:suite_dir vectors with
      | Error d -> die d
      | Ok vs ->
        Fz.Conformance.save_manifest ~dir:suite_dir vs;
        List.iter
          (fun v ->
            Format.printf "%-16s %s@." v.Fz.Conformance.name
              v.Fz.Conformance.signature)
          vs;
        Format.printf "conformance: recorded %d signatures in %s@."
          (List.length vs)
          (Filename.concat suite_dir "manifest.json")
    end
    else begin
      output_dir out;
      let report = Fz.Conformance.run_suite ~dir:suite_dir vectors in
      write_file (Filename.concat out "report.csv")
        (Fz.Conformance.csv_of_report report);
      let total = List.length report.Fz.Conformance.cells in
      List.iter
        (fun c ->
          if not c.Fz.Conformance.pass then
            Format.eprintf "conformance: FAIL %s/%s: %s@."
              c.Fz.Conformance.vector c.Fz.Conformance.backend
              (match c.Fz.Conformance.error with
              | Some e -> e
              | None ->
                Printf.sprintf "signature %s, expected %s"
                  c.Fz.Conformance.signature c.Fz.Conformance.expected))
        report.Fz.Conformance.cells;
      Format.printf
        "conformance: %d/%d cells passed (%d vectors x %d backends); report \
         in %s@."
        report.Fz.Conformance.passed total report.Fz.Conformance.vectors
        (List.length Fz.Conformance.backends)
        out;
      if report.Fz.Conformance.passed <> total then exit 1
    end
  in
  Cmd.v (Cmd.info "conformance" ~doc)
    Term.(const run $ dir_arg $ out_arg $ update_arg)

let () =
  (* Re-exec dispatch hook: a no-op unless the worker environment
     variable is set. Serve-tier workers (Dise_service.Coordinator)
     take over the process here, before any CLI parsing. *)
  S.Coordinator.worker_child_main ();
  let doc = "DISE: programmable macro engine reproduction (ISCA 2003)" in
  let info = Cmd.info "disesim" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; compress_cmd; synthesize_cmd; figures_cmd;
            serve_cmd; fuzz_cmd;
            cache_cmd; exec_cmd; safety_cmd; disasm_cmd; validate_cmd;
            conformance_cmd ]))
