(* Tests for profile-guided production synthesis: the seeded
   compression API, PT/RT capacity accounting, the fetch-histogram
   mining path, the Synth request variant (round-trip + distinct cache
   keys), end-to-end search determinism, and resuming a search over
   the result cache. *)

module Compress = Dise_acf.Compress
module Prodset = Dise_core.Prodset
module Controller = Dise_core.Controller
module Request = Dise_service.Request
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json
module TProfile = Dise_telemetry.Profile
module W = Dise_workload
module Sy = Dise_synthesize

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tiny_entry = lazy (W.Suite.get ~dyn_target:4_000 W.Profile.tiny)

let tiny_corpus =
  lazy
    (let e = Lazy.force tiny_entry in
     Compress.corpus ~scheme:Compress.full_dise e.W.Suite.gen.W.Codegen.program)

(* --- seeded compression ------------------------------------------------ *)

let test_windows_cover_corpus () =
  let ws = Compress.windows (Lazy.force tiny_corpus) in
  check bool_ "has candidate windows" true (ws <> []);
  List.iter
    (fun (w : Compress.window) ->
      check bool_ "count matches sites" true
        (w.Compress.w_count = List.length w.Compress.w_sites);
      let b, s, _ = List.hd w.Compress.w_sites in
      check int_ "seed names the first site" w.Compress.w_seed.Compress.s_blk b;
      check int_ "seed start" w.Compress.w_seed.Compress.s_start s)
    ws

let test_seeded_matches_shape () =
  let c = Lazy.force tiny_corpus in
  let ws = Compress.windows c in
  let seed = (List.hd ws).Compress.w_seed in
  let r = Compress.compress_seeded c ~seeds:[ seed ] in
  check int_ "one dictionary entry" 1 (List.length r.Compress.entries);
  check bool_ "text shrank or held" true
    (r.Compress.text_bytes <= r.Compress.orig_text_bytes);
  check bool_ "codewords planted" true (r.Compress.codewords > 0)

let test_seeded_deterministic () =
  let c = Lazy.force tiny_corpus in
  let seeds =
    List.filteri (fun i _ -> i < 4) (Compress.windows c)
    |> List.map (fun w -> w.Compress.w_seed)
  in
  let a = Compress.compress_seeded c ~seeds in
  let b = Compress.compress_seeded c ~seeds in
  check int_ "text bytes" a.Compress.text_bytes b.Compress.text_bytes;
  check int_ "dict bytes" a.Compress.dict_bytes b.Compress.dict_bytes;
  check int_ "codewords" a.Compress.codewords b.Compress.codewords

let test_stale_seeds_skipped () =
  let c = Lazy.force tiny_corpus in
  let bogus =
    [
      { Compress.s_blk = 100_000; s_start = 0; s_len = 2 };
      { Compress.s_blk = 0; s_start = 500; s_len = 2 };
      { Compress.s_blk = 0; s_start = 0; s_len = 0 };
    ]
  in
  let r = Compress.compress_seeded c ~seeds:bogus in
  check int_ "no entries from bogus seeds" 0 (List.length r.Compress.entries);
  check int_ "text untouched" r.Compress.orig_text_bytes r.Compress.text_bytes

(* A seeded result must stay runnable: simulate it and compare
   app-level behaviour against the baseline instruction count. *)
let test_seeded_runnable () =
  let e = Lazy.force tiny_entry in
  let c = Lazy.force tiny_corpus in
  let seeds = [ (List.hd (Compress.windows c)).Compress.w_seed ] in
  let req =
    Request.v ~dyn_target:4_000 ~controller:Controller.default_config
      ~acf:(Request.Synth { scheme = Compress.full_dise; seeds })
      "tiny"
  in
  match Request.run_ext ~entry:e req with
  | Error d -> Alcotest.failf "synth run failed: %s" (Dise_isa.Diag.to_string d)
  | Ok (stats, _) ->
    let base =
      match Request.run_ext ~entry:e (Request.v ~dyn_target:4_000 "tiny") with
      | Ok (st, _) -> st
      | Error d -> Alcotest.failf "baseline: %s" (Dise_isa.Diag.to_string d)
    in
    (* Decompression preserves the application instruction stream
       (architectural equivalence is asserted inside the run); the
       fetch counter may differ by one at the final halt window. *)
    check bool_ "app instrs preserved" true
      (abs (base.Stats.app_instrs - stats.Stats.app_instrs) <= 1)

(* --- capacity accounting ----------------------------------------------- *)

let test_footprint_and_fits () =
  let c = Lazy.force tiny_corpus in
  let seeds =
    List.filteri (fun i _ -> i < 3) (Compress.windows c)
    |> List.map (fun w -> w.Compress.w_seed)
  in
  let r = Compress.compress_seeded c ~seeds in
  let set = r.Compress.prodset in
  let f = Prodset.footprint set in
  check int_ "one PT pattern per production" (Prodset.num_productions set)
    f.Prodset.pt_patterns;
  let total_rinsns =
    List.fold_left
      (fun acc (_, seq) -> acc + Array.length seq)
      0 (Prodset.sequences set)
  in
  check int_ "epb=1: one block per rinsn" total_rinsns f.Prodset.rt_blocks;
  check bool_ "fits the default geometry" true
    (Prodset.fits
       ~pt_entries:Controller.default_config.Controller.pt_entries
       ~rt_entries:Controller.default_config.Controller.rt_entries set);
  check bool_ "cannot fit a 1-entry RT" false
    (Prodset.fits ~pt_entries:32 ~rt_entries:1 set);
  (* Coalescing: blocks shrink, entries are blocks * epb. *)
  let f4 = Prodset.footprint ~entries_per_block:4 set in
  check bool_ "coalescing reduces blocks" true
    (f4.Prodset.rt_blocks <= f.Prodset.rt_blocks);
  check int_ "entries = blocks * epb" (f4.Prodset.rt_blocks * 4)
    f4.Prodset.rt_entries

(* --- fetch histogram + miner ------------------------------------------- *)

let test_miner_heat () =
  let e = Lazy.force tiny_entry in
  let prof = TProfile.create () in
  ignore (Request.run ~entry:e ~profile:prof (Request.v ~dyn_target:4_000 "tiny"));
  check bool_ "profile saw fetches" true (TProfile.total_fetches prof > 0);
  let c = Lazy.force tiny_corpus in
  let cands =
    Sy.Miner.mine ~scheme:Compress.full_dise ~corpus:c ~image:e.W.Suite.image
      ~profile:prof
  in
  check bool_ "mined candidates" true (Array.length cands > 0);
  Array.iter
    (fun (cand : Sy.Miner.candidate) ->
      check bool_ "positive static gain" true (cand.Sy.Miner.static_gain > 0))
    cands;
  let sorted = ref true in
  Array.iteri
    (fun i c ->
      if i > 0 && c.Sy.Miner.weight > cands.(i - 1).Sy.Miner.weight then
        sorted := false)
    cands;
  check bool_ "sorted by descending weight" true !sorted

(* --- Synth request variant --------------------------------------------- *)

let test_synth_json_roundtrip () =
  let seeds =
    [
      { Compress.s_blk = 3; s_start = 1; s_len = 4 };
      { Compress.s_blk = 0; s_start = 0; s_len = 2 };
    ]
  in
  let req =
    Request.v ~dyn_target:9_000
      ~acf:(Request.Synth { scheme = Compress.full_dise; seeds })
      "gzip"
  in
  (match Request.of_json (Request.to_json req) with
  | Ok req' ->
    check bool_ "round-trips" true (Request.canonical req = Request.canonical req')
  | Error d -> Alcotest.failf "decode failed: %s" (Dise_isa.Diag.to_string d));
  (* Distinct seed lists, distinct keys; and synth never collides with
     the greedy decompress request. *)
  let req2 =
    Request.v ~dyn_target:9_000
      ~acf:
        (Request.Synth { scheme = Compress.full_dise; seeds = List.tl seeds })
      "gzip"
  in
  let greedy =
    Request.v ~dyn_target:9_000
      ~acf:
        (Request.Decompress
           { scheme = Compress.full_dise; mfi = `None; rewritten = false })
      "gzip"
  in
  check bool_ "seed list is part of the key" false
    (Request.key req = Request.key req2);
  check bool_ "distinct from decompress" false
    (Request.key req = Request.key greedy)

let test_synth_json_malformed () =
  let bad =
    Json.Obj
      [
        ("bench", Json.String "gzip");
        ( "acf",
          Json.Obj
            [
              ("kind", Json.String "synth");
              ("scheme", Json.String "DISE");
              ("seeds", Json.List [ Json.List [ Json.Int 1; Json.Int 2 ] ]);
            ] );
      ]
  in
  match Request.of_json bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "2-int seed should be rejected"

(* --- end-to-end search ------------------------------------------------- *)

let search_cfg () =
  Sy.Search.v ~dyn_target:4_000 ~rng_seed:7 ~budget:12 ~jobs:1 "tiny"

let test_search_deterministic () =
  let doc cfg = Json.to_string (Sy.Search.dictionary_json cfg (Sy.Search.run cfg)) in
  let a = doc (search_cfg ()) in
  let b = doc (search_cfg ()) in
  check bool_ "identical dictionaries" true (a = b);
  let j = Json.parse a in
  (match Json.member "fits" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "result must fit the PT/RT");
  match Json.member "footprint" j with
  | Some f -> (
    match (Json.member "pt_patterns" f, Json.member "rt_entries" f) with
    | Some (Json.Int pt), Some (Json.Int rt) ->
      check bool_ "within PT" true
        (pt <= Controller.default_config.Controller.pt_entries);
      check bool_ "within RT" true
        (rt <= Controller.default_config.Controller.rt_entries)
    | _ -> Alcotest.fail "footprint members missing")
  | None -> Alcotest.fail "footprint missing"

(* The result cache is the search's only persistent memo: a rerun
   over the same cache replays the proposal stream, and every timing
   run it reaches is a hit. *)
let test_search_resumes_via_cache () =
  Test_service.with_temp_dir (fun dir ->
      Test_service.with_disk_cache dir (fun () ->
          let r1 = Sy.Search.run (search_cfg ()) in
          Request.clear_memory ();
          let r2 = Sy.Search.run (search_cfg ()) in
          check bool_ "first run simulates" true (r1.Sy.Search.simulated > 0);
          check int_ "rerun simulates nothing" 0 r2.Sy.Search.simulated;
          check bool_ "same dictionary either way" true
            (Sy.Score.seeds_key r1.Sy.Search.seeds
            = Sy.Score.seeds_key r2.Sy.Search.seeds);
          check int_ "same evaluation count" r1.Sy.Search.evaluations
            r2.Sy.Search.evaluations))

let suite =
  [
    Alcotest.test_case "windows cover corpus" `Quick test_windows_cover_corpus;
    Alcotest.test_case "seeded compress shape" `Quick test_seeded_matches_shape;
    Alcotest.test_case "seeded deterministic" `Quick test_seeded_deterministic;
    Alcotest.test_case "stale seeds skipped" `Quick test_stale_seeds_skipped;
    Alcotest.test_case "seeded result runnable" `Quick test_seeded_runnable;
    Alcotest.test_case "footprint and fits" `Quick test_footprint_and_fits;
    Alcotest.test_case "miner heat" `Quick test_miner_heat;
    Alcotest.test_case "synth json round-trip" `Quick test_synth_json_roundtrip;
    Alcotest.test_case "synth json malformed" `Quick test_synth_json_malformed;
    Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "search resumes via result cache" `Quick
      test_search_resumes_via_cache;
  ]
