module Config = Dise_uarch.Config
module Controller = Dise_core.Controller
module Compress = Dise_acf.Compress
module Request = Dise_service.Request
module F = Figures

let series = F.series

(* A timing series through the paper panels' builder, without the
   statistics: ablation values feed no CPI stack. *)
let timing ?machine ?controller ?observe opts label acf =
  F.timing ?machine ?controller ?observe ~stack:false opts label acf

let decompress =
  Request.Decompress { scheme = Compress.full_dise; mfi = `None; rewritten = false }

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
  let mfi = Request.Mfi_dise Dise_acf.Mfi.Dise3 in
  let acfs =
    [
      ("trace", Request.Baseline, [ Request.Trace ]);
      ("mfi", mfi, []);
      ("mfi+prof", mfi, [ Request.Profile ]);
    ]
  in
  let decodes =
    [ ("free", Config.Free); ("stall", Config.Stall_per_expansion);
      ("+pipe", Config.Extra_stage) ]
  in
  let mk (acf_name, acf, observe) (dec_name, dec) =
    let machine = Config.with_dise_decode dec Config.default in
    timing opts ~machine ~observe (Printf.sprintf "%s/%s" acf_name dec_name) acf
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
    timing opts ~controller (Printf.sprintf "512ent/%d-blk" epb) decompress
  in
  F.figure opts ~id:"ablate-rt-block"
    ~title:"Ablation: RT block coalescing, 512-entry 2-way RT"
    ~ylabel:"decompression time relative to uncompressed"
    (List.map mk [ 1; 2; 4 ])

(* --- context-switch frequency ---------------------------------------------- *)

(* The interval is timing-only, so every series replays one stream:
   fig7-rt's 2K 2-way decompression. *)
let context_switch opts =
  let mk label every =
    let controller = { Controller.default_config with context_switch_every = every } in
    timing opts ~controller label decompress
  in
  F.figure opts ~id:"ablate-ctx"
    ~title:"Ablation: context-switch frequency (decompression, 2K RT)"
    ~ylabel:"execution time relative to uncompressed"
    [ mk "no switches" 0; mk "every 50K" 50_000; mk "every 10K" 10_000 ]

let all =
  [
    ("ablate-params", params);
    ("ablate-maxlen", max_len);
    ("ablate-decode", decode);
    ("ablate-rt-block", rt_block);
    ("ablate-ctx", context_switch);
  ]

let by_id id = List.assoc_opt id all
