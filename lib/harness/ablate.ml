module Config = Dise_uarch.Config
module Controller = Dise_core.Controller
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats
module Machine = Dise_machine.Machine
module Engine = Dise_core.Engine
module Prodset = Dise_core.Prodset
module Suite = Dise_workload.Suite
module Profile = Dise_workload.Profile
module Codegen = Dise_workload.Codegen
module A = Dise_acf
module Compress = Dise_acf.Compress
module Request = Dise_service.Request
module F = Figures

(* Every ablation cell is an independent closure, so the panels share
   {!Figures.series}/{!Figures.figure} and evaluate on the same worker
   pool as the paper's own figures. Most cells run one {!Request.t}
   ([run] below). [ablate-decode] and [ablate-ctx]'s switching series
   cannot: the tracing and profiling ACFs and context switches are not
   request fields, so [run_acf] and [run_with_switches] build engines,
   machines and pipelines directly. Their 44 quick cells bypass the
   result cache and the stream tapes, and a warm [figures] rerun
   simulates them again. *)
let series = F.series

(* The cell's request at the panel's workload length, run on the entry
   the cell already holds. *)
let run ?controller ?acf opts (e : Suite.entry) =
  Request.run ~entry:e
    (Request.v ~dyn_target:opts.F.dyn_target ?controller ?acf
       e.Suite.profile.Profile.name)

(* --- dictionary parameterization budget -------------------------------- *)

let params opts =
  let scheme_for k =
    { Compress.plus_8byte_de with
      Compress.name = Printf.sprintf "p%d" k;
      max_params = k;
      compress_branches = (k >= 2);
    }
  in
  let mk k =
    let scheme = scheme_for k in
    series opts
      (Printf.sprintf "%d param%s" k (if k = 1 then "" else "s"))
      (fun e ->
        (* Through the disk-cacheable summary: the ablation schemes
           are custom, but the canonical form spells schemes out in
           full, so they cache like the named ones. *)
        Request.summary_total_ratio (Request.compress_summary ~scheme e))
  in
  F.figure opts ~id:"ablate-params"
    ~title:"Ablation: codeword parameter fields (8-byte dictionary entries)"
    ~ylabel:"text+dictionary relative to uncompressed"
    (List.map mk [ 0; 1; 2; 3 ])

(* --- dictionary entry length cap ---------------------------------------- *)

let max_len opts =
  let mk len =
    let scheme =
      { Compress.full_dise with
        Compress.name = Printf.sprintf "len%d" len;
        max_len = len;
      }
    in
    series opts
      (Printf.sprintf "maxlen %d" len)
      (fun e ->
        Request.summary_total_ratio (Request.compress_summary ~scheme e))
  in
  F.figure opts ~id:"ablate-maxlen"
    ~title:"Ablation: dictionary entry length cap (full DISE scheme)"
    ~ylabel:"text+dictionary relative to uncompressed"
    (List.map mk [ 2; 4; 8; 16 ])

(* --- decode option vs expansion frequency -------------------------------- *)

let decode opts =
  let acfs =
    [
      ("trace", fun img ->
        ignore img;
        A.Tracing.productions ());
      ("mfi", fun img -> A.Mfi.productions_for img);
      ("mfi+prof", fun img ->
        Prodset.union (A.Mfi.productions_for img) (A.Profiling.productions ()));
    ]
  in
  let decodes =
    [ ("free", Config.Free); ("stall", Config.Stall_per_expansion);
      ("+pipe", Config.Extra_stage) ]
  in
  let run_acf (e : Suite.entry) build_set dise_decode =
    let set = build_set e.Suite.image in
    let engine = Engine.create ~image:e.Suite.image set in
    let m = Machine.create ~expander:(Engine.expander engine) e.Suite.image in
    A.Mfi.install m ~data_seg:Codegen.data_segment_id
      ~code_seg:Codegen.code_segment_id;
    A.Tracing.install m ~buffer:0x06000000;
    A.Profiling.install m ~buffer:0x06800000;
    Pipeline.run (Config.with_dise_decode dise_decode Config.default) m
  in
  let mk (acf_name, build_set) (dec_name, dec) =
    series opts
      (Printf.sprintf "%s/%s" acf_name dec_name)
      (fun e ->
        let base = run opts e in
        let stats = run_acf e build_set dec in
        float_of_int stats.Stats.cycles /. float_of_int base.Stats.cycles)
  in
  F.figure opts ~id:"ablate-decode"
    ~title:"Ablation: decode option vs expansion frequency"
    ~ylabel:"execution time relative to no-ACF (free decode)"
    (List.concat_map (fun acf -> List.map (mk acf) decodes) acfs)

(* --- RT block coalescing -------------------------------------------------- *)

let rt_block opts =
  let mk epb =
    let controller =
      { Controller.default_config with
        rt_entries = 512;
        rt_assoc = 2;
        rt_entries_per_block = epb;
      }
    in
    series opts
      (Printf.sprintf "512ent/%d-blk" epb)
      (fun e ->
        let base = run opts e in
        let acf =
          Request.Decompress
            { scheme = Compress.full_dise; mfi = `None; rewritten = false }
        in
        Request.relative (run ~controller ~acf opts e) ~baseline:base)
  in
  F.figure opts ~id:"ablate-rt-block"
    ~title:"Ablation: RT block coalescing, 512-entry 2-way RT"
    ~ylabel:"decompression time relative to uncompressed"
    (List.map mk [ 1; 2; 4 ])

(* --- context-switch frequency ---------------------------------------------- *)

let context_switch opts =
  let run_with_switches (e : Suite.entry) interval =
    let result = Request.compress_result ~scheme:Compress.full_dise e in
    let prodset = result.Compress.prodset in
    let engine = Engine.create ~image:result.Compress.image prodset in
    let m =
      Machine.create ~expander:(Engine.expander engine) result.Compress.image
    in
    let controller = Controller.create Controller.default_config prodset in
    let pipeline = Pipeline.create ~controller Config.default in
    let count = ref 0 in
    ignore
      (Machine.run_raw ~max_steps:50_000_000 m (fun r ->
           Pipeline.consume_raw pipeline r;
           incr count;
           if !count mod interval = 0 then Controller.context_switch controller));
    Pipeline.finish pipeline
  in
  let relative e stats =
    let base = run opts e in
    float_of_int stats.Stats.cycles /. float_of_int base.Stats.cycles
  in
  (* Without switches the cell is a plain request (fig7-rt's 2K 2-way
     cell), so it is cached and replayed like any other. *)
  let decompress =
    Request.Decompress
      { scheme = Compress.full_dise; mfi = `None; rewritten = false }
  in
  let mk label interval =
    series opts label (fun e -> relative e (run_with_switches e interval))
  in
  F.figure opts ~id:"ablate-ctx"
    ~title:"Ablation: context-switch frequency (decompression, 2K RT)"
    ~ylabel:"execution time relative to uncompressed"
    [
      series opts "no switches" (fun e ->
          relative e
            (run ~controller:Controller.default_config ~acf:decompress opts e));
      mk "every 50K" 50_000;
      mk "every 10K" 10_000;
    ]

let all =
  [
    ("ablate-params", params);
    ("ablate-maxlen", max_len);
    ("ablate-decode", decode);
    ("ablate-rt-block", rt_block);
    ("ablate-ctx", context_switch);
  ]

let by_id id = List.assoc_opt id all
