(* The repository benchmark's measuring program; run.py builds it and
   is the documented entry point.

     perfbench.exe --workload figures|simulate|serve --seed N --seconds S
                   --trace 0|1 --disesim PATH --reference FILE [--commit ID]
     perfbench.exe --write-reference FILE

   Prints one run-record line (commit, nproc, OCaml version, build
   profile, seed, output checks, sample counts) and then, last, the
   result line: {"correct", "attempted", "failed", "metrics"}. An
   untraced run reports the end-to-end metrics; a traced run (--trace 1)
   reports the per-layer ledger and writes its spans to
   .perfbench/trace-<workload>-<seed>.json. *)

module Json = Dise_telemetry.Json

(* Every per-layer metric, in BENCHMARK.json order; run.py checks the
   two lists agree. *)
let layer_metrics =
  [ "workload.gen_s"; "workload.programs"; "workload.static_insns";
    "acf.compress_s"; "acf.compress_calls"; "acf.compress_kinsn_per_s"; "acf.rewrite_s"; "acf.prodset_s";
    "core.engine_create_s"; "core.expand_s"; "core.expansions"; "core.expand_memo_hit_ratio";
    "core.pt_misses"; "core.rt_misses";
    "machine.exec_s"; "machine.ns_per_insn"; "machine.insns"; "machine.jit_compiles";
    "machine.jit_hits_per_compile";
    "uarch.pipeline_s"; "uarch.ns_per_insn"; "uarch.retired"; "uarch.cycles"; "uarch.icache_misses";
    "uarch.dcache_misses"; "uarch.mispredicts";
    "service.request_overhead_s"; "service.queue_wait_p50_ms"; "service.execute_p50_ms";
    "service.tier_request_p50_ms"; "service.request_run_p50_ms"; "service.front_end_p50_ms";
    "service.cache_hits"; "service.cache_misses"; "service.cache_hit_ratio"; "service.hedges";
    "service.restarts"; "service.torn_frames"; "service.heartbeat_misses";
    "service.request_decode_ns"; "service.cache_key_ns";
    "telemetry.json_parse_ns"; "telemetry.json_print_ns" ]
  @ List.map (fun (id, _) -> "harness.panel_s." ^ id) Wl_figures.panels
  @ [ "harness.pool_utilization"; "trace.overhead_ratio"; "trace.ladder_coverage"; "trace.panel_coverage" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let read_reference file =
  match Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | j -> j
  | exception (Sys_error _ | Json.Parse_error _) -> die "cannot read reference %s" file

let str = function Some (Json.String s) -> s | _ -> ""

(* Digests of the outputs the checks compare against: the figure suite
   and one simulate grid per dynamic length a seed can pick. *)
let write_reference file =
  let fig = Wl_figures.run ~seed:0 ~seconds:0.0 ~traced:false ~reference:"" in
  let sims =
    List.init Wl_simulate.dyn_variants (fun seed ->
        let r = Wl_simulate.run ~seed ~seconds:0.0 ~traced:false ~reference:"" in
        (string_of_int (Wl_simulate.dyn_target seed), Json.String (str (List.assoc_opt "digest" r.Report.notes))))
  in
  let doc =
    Json.Obj
      [ ("figures", Json.String (str (List.assoc_opt "digest" fig.Report.notes))); ("simulate", Json.Obj sims) ]
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string ~indent:true doc ^ "\n"))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let disesim = ref "" and reference = ref "" and commit = ref "unknown" and write = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME figures, simulate or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run with spans");
      ("--disesim", Arg.Set_string disesim, "PATH release disesim executable (serve)");
      ("--reference", Arg.Set_string reference, "FILE reference digests");
      ("--commit", Arg.Set_string commit, "ID commit being measured");
      ("--write-reference", Arg.Set_string write, "FILE regenerate the reference digests");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 ...";
  if Build_profile.profile <> "release" then
    die "built in the %s profile; measure only a release build (dune build --profile release)"
      Build_profile.profile;
  if !write <> "" then (write_reference !write; exit 0);
  let traced = !trace = 1 in
  let ref_doc () = read_reference !reference in
  let seconds = !seconds and seed = !seed in
  let report =
    match !workload with
    | "figures" -> Wl_figures.run ~seed ~seconds ~traced ~reference:(str (Json.member "figures" (ref_doc ())))
    | "simulate" ->
      let key = string_of_int (Wl_simulate.dyn_target seed) in
      let reference = str (Option.bind (Json.member "simulate" (ref_doc ())) (Json.member key)) in
      Wl_simulate.run ~seed ~seconds ~traced ~reference
    | "serve" ->
      if !disesim = "" then die "serve needs --disesim";
      Wl_serve.run ~disesim:!disesim ~seed ~seconds ~traced
    | w -> die "unknown workload %S" w
  in
  Ledger.derive ();
  let metrics =
    if traced then List.map (fun k -> (k, Ledger.get k)) layer_metrics else report.Report.e2e
  in
  if traced then begin
    Util.mkdir_p ".perfbench";
    Span.write_chrome (Printf.sprintf ".perfbench/trace-%s-%d.json" !workload seed)
  end;
  let correct = List.for_all snd report.Report.checks in
  let record =
    Json.Obj
      ([
         ("record", Json.String "perfbench_run");
         ("workload", Json.String !workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Float seconds);
         ("trace", Json.Int !trace);
         ("commit", Json.String !commit);
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("profile", Json.String Build_profile.profile);
         ("error_rate", Json.Float (float_of_int report.Report.failed /. float_of_int (max 1 report.Report.attempted)));
         ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) report.Report.checks));
         ("samples", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) report.Report.samples));
         ("calibration", Calib.summary ());
       ]
      @ report.Report.notes
      @
      if traced then
        [
          ( "self_times",
            Json.Obj
              (List.map
                 (fun (name, (n, total, self)) ->
                   (name, Json.Obj [ ("count", Json.Int n); ("total_s", Json.Float total); ("self_s", Json.Float self) ]))
                 (Span.self_times ())) );
        ]
      else [])
  in
  print_endline (Json.to_string record);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int report.Report.attempted);
            ("failed", Json.Int report.Report.failed);
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
          ]))
