(* Tests for the service layer: serializable requests, the
   content-addressed disk cache (corruption, invalidation and a
   multi-domain hammer included), the single run path, and the JSONL
   batch server (malformed, cut-off and interrupted streams
   included). *)

module W = Dise_workload
module A = Dise_acf
module Config = Dise_uarch.Config
module Controller = Dise_core.Controller
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag
module Cache = Dise_service.Cache
module Request = Dise_service.Request
module Server = Dise_service.Server
module Figures = Dise_harness.Figures
module Report = Dise_harness.Report

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- temp-dir scaffolding ----------------------------------------------- *)

let tmp_counter = ref 0

let with_temp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-service-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* The disk cache is process-global state; leave it clean for the
   other suites whatever happens. *)
let with_disk_cache dir f =
  Request.clear_memory ();
  Request.set_disk_cache (Some (Cache.create ~dir));
  Fun.protect
    ~finally:(fun () ->
      Request.set_disk_cache None;
      Request.clear_memory ())
    f

let tiny_request = Request.v ~dyn_target:25_000 "tiny"

(* --- request <-> JSON round-trip ---------------------------------------- *)

let gen_request =
  let open QCheck.Gen in
  let bench = oneofl [ "tiny"; "gzip"; "mcf" ] in
  let machine =
    oneofl
      [
        Config.default;
        Config.with_width 2 Config.default;
        Config.with_icache_kb None Config.default;
        Config.with_icache_kb (Some 8) Config.default;
        Config.with_dise_decode Config.Stall_per_expansion Config.default;
        Config.with_dise_decode Config.Extra_stage Config.default;
      ]
  in
  let controller =
    oneof
      [
        return None;
        map
          (fun (e, (assoc, every)) ->
            Some
              { Controller.default_config with
                Controller.rt_entries = e;
                rt_assoc = assoc;
                composing = assoc = 1;
                context_switch_every = every })
          (pair (oneofl [ 512; 2048 ])
             (pair (oneofl [ 1; 2 ]) (oneofl [ 0; 1; 50_000 ])));
      ]
  in
  let seed =
    map
      (fun (b, (st, l)) -> { A.Compress.s_blk = b; s_start = st; s_len = l })
      (pair (int_bound 200) (pair (int_bound 50) (int_range 2 8)))
  in
  (* An ACF with the observers it may carry, in canonical order. *)
  let acf =
    oneof
      [
        map
          (fun os -> (Request.Baseline, os))
          (oneofl
             [ []; [ Request.Trace ]; [ Request.Profile ];
               [ Request.Trace; Request.Profile ] ]);
        map
          (fun (v, os) -> (Request.Mfi_dise v, os))
          (pair (oneofl [ A.Mfi.Dise3; A.Mfi.Dise4 ])
             (oneofl [ []; [ Request.Profile ] ]));
        map
          (fun v -> (Request.Mfi_rewrite v, []))
          (oneofl [ A.Rewrite.Segment_matching; A.Rewrite.Sandboxing ]);
        map
          (fun (scheme, (mfi, rewritten)) ->
            (Request.Decompress { scheme; mfi; rewritten }, []))
          (pair
             (oneofl A.Compress.fig7_schemes)
             (pair (oneofl [ `None; `Composed ]) bool));
        map
          (fun (scheme, seeds) -> (Request.Synth { scheme; seeds }, []))
          (pair (oneofl A.Compress.fig7_schemes) (list_size (int_bound 3) seed));
      ]
  in
  map
    (fun (bench, (dyn_target, (machine, (controller, ((acf, observe), (jit, threshold)))))) ->
      { Request.bench; dyn_target; machine; controller; acf; observe; jit;
        jit_threshold = threshold })
    (pair bench
       (pair (int_range 1_000 500_000)
          (pair machine
             (pair controller (pair acf (pair bool (int_range 1 32)))))))

let arbitrary_request =
  QCheck.make ~print:(fun r -> Request.canonical r) gen_request

let prop_roundtrip =
  QCheck.Test.make ~name:"request JSON round-trip is the identity" ~count:300
    arbitrary_request (fun r ->
      match Request.of_json (Request.to_json r) with
      | Ok r' -> r' = r
      | Error d -> QCheck.Test.fail_reportf "decode failed: %s" (Diag.to_string d))

let prop_roundtrip_via_text =
  QCheck.Test.make ~name:"request survives print + reparse" ~count:300
    arbitrary_request (fun r ->
      match Request.of_json (Json.parse (Request.canonical r)) with
      | Ok r' -> Request.canonical r' = Request.canonical r && r' = r
      | Error d -> QCheck.Test.fail_reportf "decode failed: %s" (Diag.to_string d))

let test_of_json_rejects () =
  let bad s =
    match Request.of_json (Json.parse s) with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error d -> Diag.category d
  in
  check string_ "unknown bench is parse-class" "parse"
    (bad {|{"bench":"nope","dyn_target":1000}|});
  check string_ "missing dyn_target" "parse" (bad {|{"bench":"tiny"}|});
  check string_ "bad acf kind" "parse"
    (bad {|{"bench":"tiny","dyn_target":1000,"acf":{"kind":"wat"}}|});
  (* Observers join only the ACFs a production set can share with
     them: tracing and MFI both match stores. *)
  let observed acf observe =
    Request.to_json (Request.v ~dyn_target:1_000 ~acf ~observe "tiny")
  in
  List.iter
    (fun (label, acf, observe, names) ->
      match Request.of_json (observed acf observe) with
      | Error (Diag.Parse { msg; _ }) ->
        List.iter
          (fun n ->
            check bool_ (Printf.sprintf "%s: %S names %s" label msg n) true
              (contains msg n))
          ("request.observe" :: names)
      | Error d -> Alcotest.failf "%s: not a parse error: %s" label (Diag.to_string d)
      | Ok _ -> Alcotest.failf "%s: accepted" label)
    [
      ( "trace over MFI", Request.Mfi_dise A.Mfi.Dise3, [ Request.Trace ],
        [ "trace"; "mfi_dise" ] );
      ( "profile over decompression",
        Request.Decompress
          { scheme = A.Compress.full_dise; mfi = `None; rewritten = false },
        [ Request.Profile ], [ "decompress" ] );
      ( "trace over synthesis",
        Request.Synth { scheme = A.Compress.full_dise; seeds = [] },
        [ Request.Trace ], [ "synth" ] );
      ( "profile over rewriting",
        Request.Mfi_rewrite A.Rewrite.Segment_matching,
        [ Request.Profile ], [ "mfi_rewrite" ] );
    ];
  check string_ "unknown observer" "parse"
    (bad {|{"bench":"tiny","dyn_target":1000,"observe":["watch"]}|});
  (* Unknown members (e.g. the serve protocol's "id") are ignored. *)
  match Request.of_json (Json.parse {|{"bench":"tiny","dyn_target":1000,"id":7}|}) with
  | Ok r -> check string_ "bench decoded" "tiny" r.Request.bench
  | Error d -> Alcotest.failf "rejected id-carrying request: %s" (Diag.to_string d)

(* Integers outside their documented ranges used to decode and then
   run: a negative max_params answered ok with a wrong result (and
   cached it), a zero codeword size ran to the step limit, a zero
   width divided by zero. Each must be a parse error naming the field,
   before anything runs. *)
let test_out_of_range_rejected () =
  let rec set path v j =
    match (path, j) with
    | [], _ -> v
    | k :: rest, Json.Obj kvs ->
      Json.Obj
        (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) kvs)
    | _ -> Alcotest.failf "no member %s" (String.concat "." path)
  in
  let valid =
    Request.to_json
      (Request.v ~dyn_target:5_000
         ~controller:{ Controller.default_config with context_switch_every = 1_000 }
         ~acf:
           (Request.Decompress
              { scheme = A.Compress.full_dise; mfi = `None; rewritten = false })
         "tiny")
  in
  (match Request.of_json valid with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "valid probe base rejected: %s" (Diag.to_string d));
  List.iter
    (fun (edits, field) ->
      let j = List.fold_left (fun j (path, v) -> set path v j) valid edits in
      match Request.of_json j with
      | Error (Diag.Parse { msg; _ }) ->
        check bool_ (Printf.sprintf "%S names %s" msg field) true
          (contains msg field)
      | Error d ->
        Alcotest.failf "%s: not a parse error: %s" field (Diag.to_string d)
      | Ok _ -> Alcotest.failf "%s: out-of-range value accepted" field)
    [
      ([ ([ "acf"; "scheme"; "max_params" ], Json.Int (-1)) ],
       "scheme.max_params");
      ([ ([ "acf"; "scheme"; "codeword_bytes" ], Json.Int 0) ],
       "scheme.codeword_bytes");
      ([ ([ "acf"; "scheme"; "max_params" ], Json.Int 9) ], "scheme.max_params");
      ( [
          ([ "machine"; "width" ], Json.Int 0);
          ([ "machine"; "rob_size" ], Json.Int (-5));
        ],
        "machine.width" );
      ([ ([ "controller"; "pt_entries" ], Json.Int 0) ], "controller.pt_entries");
      ([ ([ "controller"; "rt_entries" ], Json.Int 3) ], "controller.rt_entries");
      ([ ([ "controller"; "rt_assoc" ], Json.Int 0) ], "controller.rt_entries");
      ( [ ([ "controller"; "rt_entries_per_block" ], Json.Int (-1)) ],
        "controller.rt_entries" );
      ( [ ([ "machine"; "icache"; "size_bytes" ], Json.Int 100) ],
        "machine.icache" );
      ([ ([ "machine"; "dcache"; "assoc" ], Json.Int 0) ], "machine.dcache");
      ([ ([ "machine"; "l2"; "line_bytes" ], Json.Int 48) ], "machine.l2");
      ([ ([ "dyn_target" ], Json.Int 0) ], "request.dyn_target");
      ( [ ([ "controller"; "context_switch_every" ], Json.Int (-1)) ],
        "controller.context_switch_every" );
      (* Upper bounds: each array the timing model allocates from a
         request stays within 2^20 words. *)
      ([ ([ "machine"; "width" ], Json.Int (1 lsl 30)) ], "machine.width");
      ([ ([ "machine"; "rob_size" ], Json.Int (1 lsl 30)) ], "machine.rob_size");
      ( [ ([ "machine"; "icache"; "size_bytes" ], Json.Int (1 lsl 40)) ],
        "machine.icache" );
      ( [ ([ "controller"; "rt_entries" ], Json.Int (1 lsl 30)) ],
        "controller.rt_entries" );
      (* assoc * entries_per_block wraps to 0 in 63 bits. *)
      ( [
          ([ "controller"; "rt_assoc" ], Json.Int (1 lsl 61));
          ([ "controller"; "rt_entries_per_block" ], Json.Int 4);
        ],
        "controller.rt_entries" );
    ];
  (* A perfect RT has no geometry to check: any entry counts decode. *)
  let perfect =
    List.fold_left
      (fun j (path, v) -> set path v j)
      valid
      [
        ([ "controller"; "rt_perfect" ], Json.Bool true);
        ([ "controller"; "rt_entries" ], Json.Int 3);
        ([ "controller"; "rt_assoc" ], Json.Int 0);
      ]
  in
  match Request.of_json perfect with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "perfect RT rejected: %s" (Diag.to_string d)

(* --- cache-key stability -------------------------------------------------- *)

(* Golden: pins the canonical encoding AND the salted hash. If this
   test breaks, the on-disk format changed — bump Cache.version and
   re-pin. *)
let test_key_golden () =
  let r = Request.v ~dyn_target:20_000 "tiny" in
  check string_ "cache key is stable" "e911a59c4145b05613ec1a29fe491860"
    (Request.key r);
  (* A member left out at its default must stay out of the canonical
     text, or every controller-bearing key moves. *)
  let decompress controller =
    Request.v ~dyn_target:20_000 ~controller
      ~acf:
        (Request.Decompress
           { scheme = A.Compress.full_dise; mfi = `None; rewritten = false })
      "tiny"
  in
  check string_ "decompress key under the default controller is stable"
    "395e990d8a15d602b9db60355730d145"
    (Request.key (decompress Controller.default_config));
  let switching =
    decompress { Controller.default_config with context_switch_every = 10_000 }
  in
  check bool_ "a switch interval moves the key" true
    (Request.key switching <> Request.key (decompress Controller.default_config));
  let decoded_key text =
    match Request.of_json (Json.parse text) with
    | Ok r -> Request.key r
    | Error d -> Alcotest.failf "%s: %s" text (Diag.to_string d)
  in
  let with_interval member =
    match Request.to_json (decompress Controller.default_config) with
    | Json.Obj kvs ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) ->
                match (k, v) with
                | "controller", Json.Obj c -> (k, Json.Obj (c @ member))
                | _ -> (k, v))
              kvs))
    | _ -> assert false
  in
  check string_ "an absent interval and an interval of 0 share a key"
    (decoded_key (with_interval []))
    (decoded_key (with_interval [ ("context_switch_every", Json.Int 0) ]));
  let observed observe = Request.v ~dyn_target:20_000 ~observe "tiny" in
  check string_ "observers in either order share a key"
    (Request.key (observed [ Request.Trace; Request.Profile ]))
    (Request.key (observed [ Request.Profile; Request.Trace ]));
  check string_ "so do their decodings"
    (decoded_key {|{"bench":"tiny","dyn_target":20000,"observe":["trace","profile"]}|})
    (decoded_key {|{"bench":"tiny","dyn_target":20000,"observe":["profile","trace"]}|});
  check bool_ "an observer moves the key" true
    (Request.key (observed [ Request.Trace ]) <> Request.key r);
  check bool_ "canonical starts with bench member" true
    (String.length (Request.canonical r) > 16
    && String.sub (Request.canonical r) 0 16 = {|{"bench":"tiny",|});
  check string_ "salt embeds version" ("dise-result-cache-v" ^ Cache.version)
    Cache.salt

(* --- disk cache behaviour ------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_find_corrupt () =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir in
      let k = Cache.key "probe" in
      check bool_ "miss before store" true (Cache.find c ~key:k = None);
      Cache.store c ~key:k ~request:(Json.String "probe")
        ~payload:(Json.Int 42);
      check bool_ "hit after store" true
        (Cache.find c ~key:k = Some (Json.Int 42));
      check int_ "one entry" 1 (Cache.entries c);
      (* Truncated JSON: detected, deleted, reported as a miss. *)
      write_file (Cache.path c ~key:k) "{\"salt\": \"dise";
      check bool_ "corrupt entry is a miss" true (Cache.find c ~key:k = None);
      check bool_ "corrupt entry was deleted" false
        (Sys.file_exists (Cache.path c ~key:k));
      (* Wrong salt (stale version): same treatment. *)
      Cache.store c ~key:k ~request:Json.Null ~payload:(Json.Int 1);
      write_file (Cache.path c ~key:k)
        {|{"salt":"dise-result-cache-v0","key":"x","payload":1}|};
      check bool_ "stale-salt entry is a miss" true (Cache.find c ~key:k = None);
      check int_ "clear reports removals" 0 (Cache.clear c))

(* Every corruption an entry can suffer is retired by the next find,
   and recovery is idempotent: the entry never reads back wrong, a
   second find misses, and a store+find round trip works again. *)
let probe_request = Json.Obj [ ("probe", Json.Bool true) ]
let probe_payload = Json.Obj [ ("v", Json.Int 42) ]

let test_cache_corrupt_recovery () =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir in
      let k = Cache.key "fuzz-probe" in
      Cache.store c ~key:k ~request:probe_request ~payload:probe_payload;
      check bool_ "fresh entry reads back" true
        (Cache.find c ~key:k = Some probe_payload);
      let valid = Serve_harness.read_file (Cache.path c ~key:k) in
      List.iter
        (fun (name, bytes) ->
          write_file (Cache.path c ~key:k) bytes;
          let found = Cache.find c ~key:k in
          check bool_ (name ^ ": no wrong payload") true
            (found = None || found = Some probe_payload || name = "first-byte-flip");
          check bool_ (name ^ ": entry retired") true (Cache.find c ~key:k = None);
          Cache.store c ~key:k ~request:probe_request ~payload:probe_payload;
          check bool_ (name ^ ": stores again") true
            (Cache.find c ~key:k = Some probe_payload))
        [
          ("truncated", String.sub valid 0 (String.length valid / 2));
          ("empty", "");
          ("garbage", "{\"salt\": not json at all");
          ("first-byte-flip", "X" ^ String.sub valid 1 (String.length valid - 1));
          ( "stale-salt",
            {|{"salt":"bogus","key":"k","request":{},"payload":{}}|} ^ "\n" );
        ])

let test_cache_invalidate_idempotent () =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir in
      let k = Cache.key "fuzz-invalidate" in
      Cache.store c ~key:k ~request:probe_request ~payload:probe_payload;
      Cache.invalidate c ~key:k;
      (* twice: the second is a no-op *)
      Cache.invalidate c ~key:k;
      check bool_ "entry gone" true (Cache.find c ~key:k = None);
      Cache.store c ~key:k ~request:probe_request ~payload:probe_payload;
      check bool_ "stores again after invalidate" true
        (Cache.find c ~key:k = Some probe_payload))

(* Four domains hammer one key with find/store/invalidate while
   garbage is planted underneath them: no call raises, and every find
   returns a miss or the valid payload. *)
let test_cache_hammer () =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir in
      let k = Cache.key "fuzz-hammer" in
      Cache.store c ~key:k ~request:probe_request ~payload:probe_payload;
      let worker d =
        Domain.spawn (fun () ->
            let rng = W.Rng.create (11 + (d * 1_000_003)) in
            let bad = ref None in
            for i = 1 to 250 do
              match
                match W.Rng.int rng 4 with
                | 0 -> Cache.store c ~key:k ~request:probe_request ~payload:probe_payload
                | 1 -> write_file (Cache.path c ~key:k) "{garbage"
                | 2 -> Cache.invalidate c ~key:k
                | _ -> (
                  match Cache.find c ~key:k with
                  | Some p when p <> probe_payload -> failwith "wrong payload observed"
                  | _ -> ())
              with
              | () -> ()
              | exception ex ->
                if !bad = None then
                  bad :=
                    Some
                      (Printf.sprintf "domain %d iteration %d: %s" d i
                         (Printexc.to_string ex))
            done;
            !bad)
      in
      check (Alcotest.list string_) "no domain failed" []
        (List.filter_map Domain.join (List.init 4 worker));
      Cache.store c ~key:k ~request:probe_request ~payload:probe_payload;
      check bool_ "cache usable after the hammer" true
        (Cache.find c ~key:k = Some probe_payload))

let test_run_recovers_from_corruption () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let r = tiny_request in
          let stats1, hit1 = Result.get_ok (Request.run_ext r) in
          check bool_ "cold run simulates" false hit1;
          Request.clear_memory ();
          let stats2, hit2 = Result.get_ok (Request.run_ext r) in
          check bool_ "warm run served from disk" true hit2;
          check bool_ "disk stats identical" true
            (Stats.to_json stats1 = Stats.to_json stats2);
          (* Corrupt the entry behind the cache's back: the next run
             must detect it, recompute, and heal the entry. *)
          let c = Option.get (Request.disk_cache ()) in
          write_file (Cache.path c ~key:(Request.key r)) "garbage not json";
          Request.clear_memory ();
          let stats3, hit3 = Result.get_ok (Request.run_ext r) in
          check bool_ "corrupt entry forces recompute" false hit3;
          check bool_ "recomputed stats identical" true
            (Stats.to_json stats1 = Stats.to_json stats3);
          Request.clear_memory ();
          let _, hit4 = Result.get_ok (Request.run_ext r) in
          check bool_ "entry healed" true hit4))

let test_counters_and_clear () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let h0, m0 = Request.cache_counters () in
          ignore (Request.run tiny_request);
          let h1, m1 = Request.cache_counters () in
          check int_ "cold run is one miss" 1 (m1 - m0);
          check int_ "cold run no hit" 0 (h1 - h0);
          Request.clear_memory ();
          ignore (Request.run tiny_request);
          let h2, m2 = Request.cache_counters () in
          check int_ "warm run is one hit" 1 (h2 - h1);
          check int_ "warm run no miss" 0 (m2 - m1);
          let c = Option.get (Request.disk_cache ()) in
          check bool_ "entries persisted" true (Cache.entries c > 0);
          Request.clear_memory ();
          ignore (Request.clear_disk ());
          check int_ "clear_cache wipes disk" 0 (Cache.entries c)))

(* A cache that cannot store is dropped around, never raised: the job
   answers with the stats it computed, and the drop is counted. *)
let test_sick_cache_store_dropped () =
  let r = Request.v ~dyn_target:25_301 "tiny" in
  Request.clear_memory ();
  let cacheless, _ = Result.get_ok (Request.run_ext r) in
  let drops () =
    Dise_telemetry.Metrics.Counter.get
      (Option.get (Dise_telemetry.Metrics.find_counter "store_drops"))
  in
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let c = Option.get (Request.disk_cache ()) in
          (* a regular file where the key's fan-out directory belongs *)
          write_file (Filename.dirname (Cache.path c ~key:(Request.key r))) "x";
          let d0 = drops () in
          (match Request.run_ext r with
          | Ok (stats, hit) ->
            check bool_ "fresh run" false hit;
            check bool_ "stats equal a cache-less run" true
              (Stats.to_json stats = Stats.to_json cacheless)
          | Error d -> Alcotest.fail ("sick cache failed the job: " ^ Diag.to_string d));
          check int_ "one store dropped" 1 (drops () - d0);
          Request.clear_memory ();
          match Request.run_ext r with
          | Ok (_, hit) -> check bool_ "nothing was cached" false hit
          | Error d -> Alcotest.fail ("second run failed: " ^ Diag.to_string d)))

let test_sink_bypasses_cache () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let profile = Dise_telemetry.Profile.create () in
          ignore (Request.run ~profile tiny_request);
          let c = Option.get (Request.disk_cache ()) in
          check int_ "sink run left the disk cache untouched" 0
            (Cache.entries c);
          let h, m = Request.cache_counters () in
          ignore (h, m);
          let _, hit = Result.get_ok (Request.run_ext tiny_request) in
          check bool_ "sink run did not populate the memo either" false hit))

(* --- cold vs. warm figure: byte-identical CSV ---------------------------- *)

let figure_opts =
  { Figures.default_opts with
    Figures.dyn_target = 25_000;
    benchmarks = [ "tiny" ] }

let test_cold_warm_csv_identical () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let _, m0 = Request.cache_counters () in
          let cold = Figures.fig6_top figure_opts in
          let csv_cold = Report.to_csv cold in
          let _, m1 = Request.cache_counters () in
          check bool_ "cold run missed" true (m1 - m0 > 0);
          Request.clear_memory ();
          let h1, _ = Request.cache_counters () in
          let warm = Figures.fig6_top figure_opts in
          let csv_warm = Report.to_csv warm in
          let h2, m2 = Request.cache_counters () in
          check bool_ "warm run hit" true (h2 - h1 > 0);
          check int_ "warm run never simulated" 0 (m2 - m1);
          check string_ "cold and warm CSV byte-identical" csv_cold csv_warm))

let test_cold_warm_ratio_panel () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let cold = Report.to_csv (Figures.fig7_ratio figure_opts) in
          Request.clear_memory ();
          let _, m1 = Request.cache_counters () in
          let warm = Report.to_csv (Figures.fig7_ratio figure_opts) in
          let _, m2 = Request.cache_counters () in
          check int_ "warm ratio panel never ran the compressor" 0 (m2 - m1);
          check string_ "ratio CSV byte-identical" cold warm))

(* --- the batch server ----------------------------------------------------- *)

(* queue = 1 admits one line at a time, so the duplicate request
   deterministically finds the first one's result (with a wider
   window the two could race for the memo claim and either could be
   the one that simulates). *)
let serve ?cache_dir lines =
  Serve_harness.serve ?cache_dir
    ~cfg:Dise_service.Serve_config.(override (default ()) ~jobs:2 ~queue:1 ())
    lines

let member name j = Option.get (Json.member name j)

let test_serve_stream () =
  with_temp_dir (fun cache_dir ->
      let req = {|{"id":1,"bench":"tiny","dyn_target":25000}|} in
      let dup = {|{"id":2,"bench":"tiny","dyn_target":25000}|} in
      let bad_bench = {|{"id":3,"bench":"nope","dyn_target":25000}|} in
      let bad_json = "{this is not json" in
      let summary, rs =
        serve ~cache_dir [ req; ""; dup; bad_bench; bad_json ]
      in
      check int_ "four responses (blank line skipped)" 4
        (List.length rs);
      check int_ "summary served" 4 summary.Server.served;
      check int_ "summary errors" 2 summary.Server.errors;
      check bool_ "summary hits" true (summary.Server.cache_hits >= 1);
      (match rs with
      | [ r1; r2; r3; r4 ] ->
        check bool_ "ids echoed in input order" true
          (member "id" r1 = Json.Int 1 && member "id" r2 = Json.Int 2);
        check bool_ "first ok" true (member "ok" r1 = Json.Bool true);
        (* The duplicate must be served without re-simulating
           (memo or disk — either counts). *)
        check bool_ "duplicate is a cache hit" true
          (member "cache_hit" r2 = Json.Bool true);
        check bool_ "stats attached" true
          (Json.member "cycles" (member "stats" r1) <> None);
        check bool_ "same key for same request" true
          (member "key" r1 = member "key" r2);
        check bool_ "unknown bench is a parse error" true
          (member "ok" r3 = Json.Bool false
          && Json.member "kind" (member "error" r3)
             = Some (Json.String "parse"));
        check bool_ "malformed line is a parse error" true
          (member "ok" r4 = Json.Bool false
          && Json.member "kind" (member "error" r4)
             = Some (Json.String "parse"))
      | _ -> Alcotest.fail "wrong response count");
      (* Responses must validate against the published schema. *)
      let schema =
        Json.parse
          (let ic = open_in "../doc/schema/serve_response.schema.json" in
           Fun.protect ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic)))
      in
      List.iter
        (fun r ->
          match Dise_telemetry.Json_schema.validate ~schema r with
          | [] -> ()
          | errs ->
            Alcotest.failf "response fails schema: %a"
              (Format.pp_print_list Dise_telemetry.Json_schema.pp_error)
              errs)
        rs)

(* --- the serve front end under bad input ---------------------------------- *)

let probe_job id = Printf.sprintf {|{"id":%d,"bench":"tiny","dyn_target":2000}|} id

(* A malformed line costs exactly its own slot, and the job after it
   is still served in order (the stream does not desync). *)
let test_serve_malformed_line () =
  let _, rs = Serve_harness.serve [ probe_job 1; "{this is not json"; probe_job 3 ] in
  check (Alcotest.list string_) "outcomes" [ "1 ok"; "null parse"; "3 ok" ]
    (Serve_harness.outcomes rs)

(* A final line without its newline is still a line: complete JSON is
   a normal job, a cut-off job still gets its (parse error) answer. *)
let serve_unterminated last =
  let _, lines = Serve_harness.serve_raw (probe_job 1 ^ "\n" ^ last) in
  Serve_harness.outcomes (List.map Json.parse lines)

let test_serve_partial_final_line () =
  check (Alcotest.list string_) "complete final line served" [ "1 ok"; "2 ok" ]
    (serve_unterminated (probe_job 2))

let test_serve_truncated_final_line () =
  check (Alcotest.list string_) "cut-off final line answered"
    [ "1 ok"; "null parse" ]
    (serve_unterminated {|{"id":2,"bench":"ti|})

(* A real SIGINT mid-stream, through the same handler wiring [disesim
   serve] installs: the tier finishes its admitted work, writes only
   whole response lines, in order, and returns. The signal may land
   after the last chunk on a fast machine, so served <= jobs is the
   strongest count claim available. *)
let test_serve_sigint_drain () =
  let jobs = 40 in
  let input =
    String.concat ""
      (List.init jobs (fun i ->
           Printf.sprintf {|{"id":%d,"bench":"tiny","dyn_target":%d}|} (i + 1)
             (30_000 + i)
           ^ "\n"))
  in
  let stop = Server.Stop.create () in
  let prev =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Server.Stop.signal stop))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint prev)
    (fun () ->
      let pid = Unix.getpid () in
      let killer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.02;
            Unix.kill pid Sys.sigint)
      in
      let summary, lines =
        Serve_harness.serve_raw ~stop
          ~cfg:Dise_service.Serve_config.(override (default ()) ~jobs:2 ~queue:4 ())
          input
      in
      Domain.join killer;
      check int_ "one whole line per response served" summary.Server.served
        (List.length lines);
      check bool_ "no more responses than jobs" true (summary.Server.served <= jobs);
      List.iteri
        (fun i line ->
          let r = Json.parse line in
          check bool_
            (Printf.sprintf "response %d in order and answered" (i + 1))
            true
            (Json.member "id" r = Some (Json.Int (i + 1))
            && Json.member "ok" r <> None))
        lines)

(* Production-set swap between serve batches: with queue = 1 every
   request is its own batch, and the stream alternates production
   sets (MFI dise3 / baseline / dise4 / dise3 again). Each request
   builds its engine afresh, so compiled superblocks must never leak
   across the swaps: a JIT-enabled serve must produce exactly the
   simulated statistics of a --no-jit serve, response for response.
   (The cache keys differ by design — the jit knob is part of the
   request key — so the comparison is over the stats objects with the
   jit telemetry counters masked.) *)
let test_serve_prodset_swap_chunks () =
  let stream jit =
    let j = Printf.sprintf {|"jit":{"enabled":%b,"threshold":1}|} jit in
    [
      Printf.sprintf
        {|{"id":1,"bench":"tiny","dyn_target":20000,"acf":{"kind":"mfi_dise","variant":"dise3"},%s}|}
        j;
      Printf.sprintf {|{"id":2,"bench":"tiny","dyn_target":20000,%s}|} j;
      Printf.sprintf
        {|{"id":3,"bench":"tiny","dyn_target":20000,"acf":{"kind":"mfi_dise","variant":"dise4"},%s}|}
        j;
      Printf.sprintf
        {|{"id":4,"bench":"tiny","dyn_target":20000,"acf":{"kind":"mfi_dise","variant":"dise3"},%s}|}
        j;
    ]
  in
  let masked_stats rs =
    List.map
      (fun r ->
        check bool_ "response ok" true (member "ok" r = Json.Bool true);
        match member "stats" r with
        | Json.Obj ms ->
          Json.Obj
            (List.filter
               (fun (k, _) ->
                 k <> "jit_compiles" && k <> "jit_hits"
                 && k <> "jit_invalidations")
               ms)
        | other -> other)
      rs
  in
  let _, with_jit = serve (stream true) in
  let _, without = serve (stream false) in
  check int_ "four jit responses" 4 (List.length with_jit);
  check int_ "four interpreter responses" 4 (List.length without);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "chunk %d: jit and no-jit stats differ" (i + 1))
    (List.combine (masked_stats with_jit) (masked_stats without))

(* The jit knob is part of the memo key: results cached from a JIT
   run and an interpreter run must never collide. *)
let test_jit_knob_distinct_keys () =
  let base = Request.v ~dyn_target:20_000 "tiny" in
  let on = Request.v ~dyn_target:20_000 ~jit:true ~jit_threshold:8 "tiny" in
  let off = Request.v ~dyn_target:20_000 ~jit:false "tiny" in
  let tuned = Request.v ~dyn_target:20_000 ~jit:true ~jit_threshold:2 "tiny" in
  check bool_ "jit on and off keys differ" true
    (Request.key on <> Request.key off);
  check bool_ "threshold is part of the key" true
    (Request.key on <> Request.key tuned);
  check string_ "default spells out the process default"
    (Request.key base) (Request.key on)

(* --- per-cell statistics golden ------------------------------------------- *)

(* A few small cells through [Request.run_ext] with the JIT set
   explicitly, each cell's full [Stats.to_json] — cycles, the CPI
   stack, cache misses, expansions, PT/RT misses and the three JIT
   counters — pinned line for line against golden/stats.jsonl; a
   mismatch writes stats.actual ([Golden_file.check]). *)
let stats_cells =
  let cell label ?controller acf bench =
    ( label,
      Request.v ~dyn_target:30_000 ?controller ~acf ~jit:true ~jit_threshold:2
        bench )
  in
  let dec mfi =
    Request.Decompress { scheme = A.Compress.full_dise; mfi; rewritten = false }
  in
  let controller = Controller.default_config in
  [
    cell "baseline" Request.Baseline "gzip";
    cell "mfi-dise3" (Request.Mfi_dise A.Mfi.Dise3) "gzip";
    cell "decompress-full_dise" ~controller (dec `None) "tiny";
    cell "composed-full_dise" ~controller (dec `Composed) "tiny";
  ]

let test_stats_golden () =
  List.map
    (fun (label, r) ->
      match Request.run_ext r with
      | Ok (stats, _) ->
        Json.to_string
          (Json.Obj [ ("cell", Json.String label); ("stats", Stats.to_json stats) ])
      | Error d -> Alcotest.failf "cell %s failed: %s" label (Diag.to_string d))
    stats_cells
  |> Golden_file.check ~golden:"golden/stats.jsonl" ~actual:"stats.actual"
       ~what:"per-cell stats"

let t = QCheck_alcotest.to_alcotest

(* Two lengths of one benchmark share a static size (only [main]'s
   outer-loop count differs), so the in-memory compression and rewrite
   memos must key on [dyn_target]: each run made after the other
   length's, in one process, must equal the same request run from
   cleared memos. *)
let test_memo_keys_dyn_target () =
  let entry dyn = W.Suite.get ~dyn_target:dyn W.Profile.tiny in
  let size dyn =
    Dise_isa.Program.size (entry dyn).W.Suite.gen.W.Codegen.program
  in
  check int_ "the two lengths share a static size" (size 20_000) (size 40_000);
  let requests =
    List.concat_map
      (fun dyn_target ->
        [
          Request.v ~dyn_target
            ~acf:
              (Request.Decompress
                 { scheme = A.Compress.full_dise; mfi = `None; rewritten = false })
            "tiny";
          Request.v ~dyn_target
            ~acf:(Request.Mfi_rewrite A.Rewrite.Segment_matching)
            "tiny";
        ])
      [ 20_000; 40_000 ]
  in
  let summary (s : Stats.t) = (s.Stats.cycles, s.Stats.retired) in
  Request.clear_memory ();
  let shared = List.map (fun r -> summary (Request.run r)) requests in
  let fresh =
    List.map
      (fun r ->
        Request.clear_memory ();
        summary (Request.run r))
      requests
  in
  Request.clear_memory ();
  List.iter2
    (fun (r, (c1, r1)) (c2, r2) ->
      let what = Request.canonical r in
      check int_ ("cycles of " ^ what) c2 c1;
      check int_ ("retired of " ^ what) r2 r1)
    (List.combine requests shared)
    fresh

(* A supplied entry stands in for the workload the request names: a
   different one is invalid input naming both, with or without sinks,
   before anything runs. *)
let test_entry_must_match () =
  let entry = W.Suite.get ~dyn_target:20_000 W.Profile.tiny in
  let mismatch req names =
    (match Request.run_ext ~entry req with
    | Error (Diag.Invalid msg) ->
      List.iter
        (fun n ->
          check bool_ (Printf.sprintf "%S names %s" msg n) true (contains msg n))
        names
    | _ -> Alcotest.failf "run_ext accepted %s" (Request.canonical req));
    List.iter
      (fun profile ->
        match Request.run ~entry ?profile req with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "run accepted %s" (Request.canonical req))
      [ None; Some (Dise_telemetry.Profile.create ()) ]
  in
  mismatch (Request.v ~dyn_target:21_000 "tiny") [ "20000"; "21000" ];
  mismatch (Request.v ~dyn_target:20_000 "gzip") [ "tiny"; "gzip" ];
  check bool_ "the matching entry runs" true
    (Result.is_ok (Request.run_ext ~entry (Request.v ~dyn_target:20_000 "tiny")))

(* --- stream tapes ------------------------------------------------------- *)

let stats_string s = Json.to_string (Stats.to_json s)

(* A run with a sink bypasses every cache and the tapes: the live
   reference for a request's statistics. *)
let live_stats r = Request.run ~profile:(Dise_telemetry.Profile.create ()) r

(* [f]'s (live runs, recordings, replays, abandoned recordings). *)
let tape_delta f =
  let c0 = Request.tape_counters () in
  let v = f () in
  let c1 = Request.tape_counters () in
  ( v,
    ( c1.Request.live - c0.Request.live,
      c1.records - c0.records,
      c1.replays - c0.replays,
      c1.abandoned - c0.abandoned ) )

let ok_stats r =
  match Request.run_ext r with
  | Ok (s, _) -> s
  | Error d -> Alcotest.failf "%s: %s" (Request.canonical r) (Diag.to_string d)

let tape_machines =
  [
    Config.default;
    Config.with_width 2 Config.default;
    Config.with_icache_kb (Some 8) Config.default;
    Config.with_icache_kb None Config.default;
    Config.with_dise_decode Config.Stall_per_expansion Config.default;
    Config.with_dise_decode Config.Extra_stage Config.default;
  ]

let tape_controllers =
  [
    None;
    Some Controller.default_config;
    Some { Controller.default_config with Controller.rt_entries = 512; rt_assoc = 1 };
    Some
      { Controller.default_config with
        Controller.rt_entries = 512;
        composing = true;
        pt_entries = 4 };
    Some { Controller.default_config with Controller.context_switch_every = 3_000 };
  ]

(* Every request ACF kind: baseline, both DISE MFI variants, the
   rewrite, plain, composed and rewritten-dedicated decompression, a
   two-seed synthesized dictionary, and a baseline both observers
   watch. *)
let tape_kinds bench dyn_target =
  let dec ?(mfi = `None) ?(rewritten = false) scheme =
    Request.Decompress { scheme; mfi; rewritten }
  in
  let seeds =
    let e = W.Suite.get ~dyn_target (Option.get (W.Profile.find bench)) in
    let c =
      A.Compress.corpus ~scheme:A.Compress.full_dise
        e.W.Suite.gen.W.Codegen.program
    in
    List.map (fun w -> w.A.Compress.w_seed)
      (List.filteri (fun i _ -> i < 2) (A.Compress.windows c))
  in
  List.map
    (fun (label, acf) -> (label, acf, []))
    [
      ("baseline", Request.Baseline);
      ("mfi dise3", Request.Mfi_dise A.Mfi.Dise3);
      ("mfi dise4", Request.Mfi_dise A.Mfi.Dise4);
      ("rewrite", Request.Mfi_rewrite A.Rewrite.Segment_matching);
      ("decompress", dec A.Compress.full_dise);
      ("composed", dec ~mfi:`Composed A.Compress.full_dise);
      ("rewritten dedicated", dec ~rewritten:true A.Compress.dedicated);
      ("synth", Request.Synth { scheme = A.Compress.full_dise; seeds });
    ]
  @ [ ("observed baseline", Request.Baseline, [ Request.Trace; Request.Profile ]) ]

(* Replay is invisible: three distinct machine x controller
   configurations of one stream run in a row through [run_ext] — a
   live run, a recording, a replay — and each result equals the same
   request run live. *)
let prop_replay_invisible =
  let gen =
    let open QCheck.Gen in
    let configs =
      List.concat_map
        (fun m -> List.map (fun c -> (m, c)) tape_controllers)
        tape_machines
    in
    triple (oneofl [ "tiny"; "mcf" ]) (int_range 8_000 16_000)
      (map (List.filteri (fun i _ -> i < 3)) (shuffle_l configs))
  in
  let print (bench, dyn, cfgs) =
    Printf.sprintf "%s@%d: %s" bench dyn
      (String.concat " | "
         (List.map
            (fun (m, c) ->
              Json.to_string (Config.to_json m)
              ^ match c with None -> " free" | Some _ -> " ctl")
            cfgs))
  in
  QCheck.Test.make ~name:"tape replay is invisible" ~count:4
    (QCheck.make ~print gen) (fun (bench, dyn_target, cfgs) ->
      List.for_all
        (fun (label, acf, observe) ->
          Request.clear_memory ();
          let (), (_, records, replays, _) =
            tape_delta (fun () ->
                List.iteri
                  (fun i (machine, controller) ->
                    let r =
                      { (Request.v ~dyn_target ~acf ~observe bench) with
                        Request.machine;
                        controller }
                    in
                    let got = stats_string (ok_stats r) in
                    if got <> stats_string (live_stats r) then
                      QCheck.Test.fail_reportf "%s, run %d: %s differs from live"
                        label (i + 1) got)
                  cfgs)
          in
          if records <> 1 || replays <> 1 then
            QCheck.Test.fail_reportf "%s: %d records, %d replays (want 1, 1)"
              label records replays;
          true)
        (tape_kinds bench dyn_target))

(* Ablate's engine and pipeline drivers before its cells became
   requests, kept as the reference for the requests that replaced
   them: observer productions on a JIT-free engine with every buffer
   installed, and decompression whose controller is switched after
   every [interval] consumed instructions. *)
let ref_run_acf (e : W.Suite.entry) build_set dise_decode =
  let image = e.W.Suite.image in
  let engine = Dise_core.Engine.create ~image (build_set image) in
  let m =
    Dise_machine.Machine.create ~expander:(Dise_core.Engine.expander engine) image
  in
  A.Mfi.install m ~data_seg:W.Codegen.data_segment_id ~code_seg:W.Codegen.code_segment_id;
  A.Tracing.install m ~buffer:0x06000000;
  A.Profiling.install m ~buffer:0x06800000;
  Dise_uarch.Pipeline.run (Config.with_dise_decode dise_decode Config.default) m

let ref_run_with_switches (e : W.Suite.entry) interval =
  let result = Request.compress_result ~scheme:A.Compress.full_dise e in
  let prodset = result.A.Compress.prodset in
  let engine = Dise_core.Engine.create ~image:result.A.Compress.image prodset in
  let m =
    Dise_machine.Machine.create ~expander:(Dise_core.Engine.expander engine)
      result.A.Compress.image
  in
  let controller = Controller.create Controller.default_config prodset in
  let pipeline = Dise_uarch.Pipeline.create ~controller Config.default in
  let count = ref 0 in
  ignore
    (Dise_machine.Machine.run_raw ~max_steps:50_000_000 m (fun r ->
         Dise_uarch.Pipeline.consume_raw pipeline r;
         incr count;
         if !count mod interval = 0 then Controller.context_switch controller));
  Dise_uarch.Pipeline.finish pipeline

let sans_jit (s : Stats.t) =
  stats_string { s with Stats.jit_compiles = 0; jit_hits = 0; jit_invalidations = 0 }

(* Each group of requests shares one stream, so it runs live, records,
   then replays; every run must equal its reference. *)
let test_reference_drivers () =
  let dyn_target = 20_000 in
  let e = W.Suite.get ~dyn_target W.Profile.tiny in
  let check_runs label runs =
    Request.clear_memory ();
    let (), (_, records, replays, _) =
      tape_delta (fun () ->
          List.iteri
            (fun i (r, reference) ->
              check string_
                (Printf.sprintf "%s, run %d" label (i + 1))
                (sans_jit reference) (sans_jit (ok_stats r)))
            runs)
    in
    check bool_ (label ^ ": a live run, a recording, then replays") true
      (records = 1 && replays = List.length runs - 2)
  in
  List.iter
    (fun (label, acf, observe, build_set) ->
      check_runs label
        (List.map
           (fun d ->
             ( { (Request.v ~dyn_target ~acf ~observe "tiny") with
                 Request.machine = Config.with_dise_decode d Config.default },
               ref_run_acf e build_set d ))
           [ Config.Free; Config.Stall_per_expansion; Config.Extra_stage ]))
    [
      ("trace", Request.Baseline, [ Request.Trace ], fun _ -> A.Tracing.productions ());
      ( "mfi+prof", Request.Mfi_dise A.Mfi.Dise3, [ Request.Profile ],
        fun img ->
          Dise_core.Prodset.union (A.Mfi.productions_for img)
            (A.Profiling.productions ()) );
    ];
  let switching every =
    Request.v ~dyn_target
      ~controller:{ Controller.default_config with context_switch_every = every }
      ~acf:
        (Request.Decompress
           { scheme = A.Compress.full_dise; mfi = `None; rewritten = false })
      "tiny"
  in
  let no_switch = sans_jit (live_stats (switching 0)) in
  List.iter
    (fun every ->
      check bool_ (Printf.sprintf "switching every %d moves the stats" every) true
        (sans_jit (ref_run_with_switches e every) <> no_switch))
    [ 1_000; 3_000 ];
  (* Four intervals, not two repeated: a repeated request is a memo hit
     and would reach no tape. *)
  check_runs "switches"
    (List.map
       (fun every -> (switching every, ref_run_with_switches e every))
       [ 1_000; 3_000; 2_000; 5_000 ]);
  Request.clear_memory ()

let mfi_request ?(machine = Config.default) dyn_target =
  { (Request.v ~dyn_target ~acf:(Request.Mfi_dise A.Mfi.Dise3) "tiny") with
    Request.machine }

(* Timing-only variants of one stream: a repeated request is a memo hit
   and reaches no tape, so each step of a stream's tape life is
   requested on another machine. *)
let width2 = Config.with_width 2 Config.default
let icache8 = Config.with_icache_kb (Some 8) Config.default
let width8 = Config.with_width 8 Config.default

let test_tapes_cleared () =
  Request.clear_memory ();
  let r = mfi_request 14_001 in
  let _, once = tape_delta (fun () -> ok_stats r) in
  check bool_ "a stream requested once runs live and records nothing" true
    (once = (1, 0, 0, 0));
  check int_ "no tape held" 0 (Request.tapes_held ());
  let _, twice = tape_delta (fun () -> ok_stats (mfi_request ~machine:width2 14_001)) in
  check bool_ "its second request records" true (twice = (0, 1, 0, 0));
  let _, thrice = tape_delta (fun () -> ok_stats (mfi_request ~machine:icache8 14_001)) in
  check bool_ "the third replays" true (thrice = (0, 0, 1, 0));
  Request.clear_memory ();
  check int_ "clear_memory drops the tapes" 0 (Request.tapes_held ());
  let _, after = tape_delta (fun () -> ok_stats r) in
  check bool_ "and the seen set: the next request runs live" true
    (after = (1, 0, 0, 0));
  Request.clear_memory ()

let evicted_unreplayed () =
  Dise_telemetry.Metrics.Counter.get
    (Option.get (Dise_telemetry.Metrics.find_counter "tape_evicted_unreplayed"))

(* Request [dyn]'s stream on two machines, so it runs live and then
   records, and check the table's bound: more than four tapes only
   within the instruction budget. *)
let record_stream dyn =
  let _, d =
    tape_delta (fun () ->
        ignore (ok_stats (mfi_request dyn));
        ignore (ok_stats (mfi_request ~machine:width2 dyn)))
  in
  check bool_ (Printf.sprintf "%d runs live, then records" dyn) true (d = (1, 1, 0, 0));
  let n = Request.tapes_held () and f = Request.tapes_footprint () in
  check bool_
    (Printf.sprintf "after %d: %d tapes, %d instructions held" dyn n f)
    true
    (n <= 4 || f <= Dise_machine.Tape.max_length)

(* A third machine of [dyn]'s stream replays its tape. *)
let replays dyn =
  let _, d = tape_delta (fun () -> ok_stats (mfi_request ~machine:icache8 dyn)) in
  check bool_ (Printf.sprintf "%d replays" dyn) true (d = (0, 0, 1, 0))

(* tiny's MFI stream at 250K is 448K instructions: five of them pass
   the budget, so the table keeps four. Six at 10K and one at 250K fit
   it together, and all seven stay. *)
let test_tapes_bounded () =
  Request.clear_memory ();
  check bool_ "five long streams pass the budget" true
    (5 * (live_stats (mfi_request 250_001)).Stats.retired
    > Dise_machine.Tape.max_length);
  let evicted0 = evicted_unreplayed () in
  List.iter record_stream [ 250_001; 250_002; 250_003; 250_004; 250_005; 250_006 ];
  check int_ "four long tapes held" 4 (Request.tapes_held ());
  check int_ "the two oldest evicted before any replay" 2
    (evicted_unreplayed () - evicted0);
  let _, d = tape_delta (fun () -> ok_stats (mfi_request ~machine:width8 250_001)) in
  check bool_ "an evicted stream records again" true (d = (0, 1, 0, 0));
  replays 250_006;
  Request.clear_memory ();
  let short = [ 10_001; 10_002; 10_003; 10_004; 10_005; 10_006 ] in
  List.iter record_stream short;
  check int_ "six short tapes held" 6 (Request.tapes_held ());
  record_stream 250_001;
  check int_ "and a long one beside them" 7 (Request.tapes_held ());
  List.iter replays (250_001 :: short);
  Request.clear_memory ()

(* A recording that is abandoned (past the cap) must not cost the
   table a tape: nothing is evicted until a recording is stored. *)
let test_abandoned_evicts_nothing () =
  Request.clear_memory ();
  let held = [ 10_011; 10_012; 10_013; 10_014 ] in
  List.iter record_stream held;
  check int_ "four tapes held" 4 (Request.tapes_held ());
  ignore (ok_stats (mfi_request 1_200_000));
  let _, d = tape_delta (fun () -> ok_stats (mfi_request ~machine:width2 1_200_000)) in
  check bool_ "the recording is abandoned" true (d = (0, 0, 0, 1));
  check int_ "all four still held" 4 (Request.tapes_held ());
  List.iter replays held;
  Request.clear_memory ()

(* tiny at 1.2M dynamic instructions passes the tape's cap. *)
let test_tape_cap () =
  Request.clear_memory ();
  let r = mfi_request ~machine:width2 1_200_000 in
  let live = live_stats r in
  check bool_ "the stream passes the cap" true
    (live.Stats.retired > Dise_machine.Tape.max_length);
  ignore (ok_stats (mfi_request 1_200_000));
  let s, d = tape_delta (fun () -> ok_stats r) in
  check bool_ "the recording is abandoned" true (d = (0, 0, 0, 1));
  check string_ "and the run's stats do not change" (stats_string live) (stats_string s);
  check int_ "nothing stored" 0 (Request.tapes_held ());
  Request.clear_memory ()

(* --- the result memo and the plan ---------------------------------------- *)

(* A repeated request simulates once: for every ACF kind, and with
   observers, the second [run_ext] is a memo hit with the first one's
   statistics and no live run, recording or replay. *)
let test_repeat_simulates_once () =
  Request.clear_memory ();
  let kinds =
    tape_kinds "tiny" 9_000
    @ [ ("profiled mfi", Request.Mfi_dise A.Mfi.Dise3, [ Request.Profile ]) ]
  in
  List.iter
    (fun (label, acf, observe) ->
      let r = Request.v ~dyn_target:9_000 ~acf ~observe "tiny" in
      let first, hit1 = Result.get_ok (Request.run_ext r) in
      check bool_ (label ^ ": the first request simulates") false hit1;
      let (second, hit2), d = tape_delta (fun () -> Result.get_ok (Request.run_ext r)) in
      check bool_ (label ^ ": the second is a hit") true hit2;
      check string_ (label ^ ": with equal stats") (stats_string first)
        (stats_string second);
      check bool_ (label ^ ": and no simulation") true (d = (0, 0, 0, 0)))
    kinds;
  Request.clear_memory ()

(* In a plan, a stream requested twice records on its first request and
   replays on its second; one requested once runs live and records
   nothing. Outside the plan the second-request rule holds again. *)
let test_plan_records_reuse () =
  Request.clear_memory ();
  let twice = mfi_request 14_101 and again = mfi_request ~machine:width2 14_101 in
  let once = mfi_request 14_102 in
  Request.with_plan [ twice; once; again; twice ] (fun () ->
      let _, d = tape_delta (fun () -> ok_stats twice) in
      check bool_ "a reused stream records on its first request" true (d = (0, 1, 0, 0));
      let _, d = tape_delta (fun () -> ok_stats again) in
      check bool_ "and replays on its second" true (d = (0, 0, 1, 0));
      let _, d = tape_delta (fun () -> ok_stats once) in
      check bool_ "a stream requested once runs live" true (d = (1, 0, 0, 0)));
  check int_ "one tape held" 1 (Request.tapes_held ());
  let _, d = tape_delta (fun () -> ok_stats (mfi_request ~machine:width2 14_102)) in
  check bool_ "outside the plan, a second request records" true (d = (0, 1, 0, 0));
  Request.clear_memory ()

(* Storing a tape evicts first the tapes whose streams have no planned
   request left: the oldest tape, still planned, outlives three newer
   ones the plan is done with. Five of tiny's MFI streams at 250K pass
   the instruction budget, so the fifth store evicts one tape. *)
let test_plan_evicts_unplanned_first () =
  Request.clear_memory ();
  let streams = [ 250_011; 250_012; 250_013; 250_014; 250_015 ] in
  let kept = List.hd streams in
  let reqs =
    mfi_request ~machine:icache8 kept
    :: List.concat_map
         (fun dyn -> [ mfi_request dyn; mfi_request ~machine:width2 dyn ])
         streams
  in
  let evicted0 = evicted_unreplayed () in
  Request.with_plan reqs (fun () ->
      let _, d = tape_delta (fun () -> ok_stats (mfi_request kept)) in
      check bool_ "the oldest stream records" true (d = (0, 1, 0, 0));
      List.iter
        (fun dyn ->
          let _, d =
            tape_delta (fun () ->
                ignore (ok_stats (mfi_request dyn));
                ignore (ok_stats (mfi_request ~machine:width2 dyn)))
          in
          check bool_ (Printf.sprintf "%d records, then replays" dyn) true
            (d = (0, 1, 1, 0)))
        (List.tl streams);
      check int_ "four tapes held" 4 (Request.tapes_held ());
      check int_ "every evicted tape was replayed" 0 (evicted_unreplayed () - evicted0);
      let _, d = tape_delta (fun () -> ok_stats (mfi_request ~machine:width2 kept)) in
      check bool_ "the planned stream's tape outlived newer unplanned ones" true
        (d = (0, 0, 1, 0));
      let _, d = tape_delta (fun () -> ok_stats (mfi_request ~machine:icache8 kept)) in
      check bool_ "and replays again" true (d = (0, 0, 1, 0)));
  Request.clear_memory ()

(* A panel's plan changes how many streams record, never a value:
   fig6-cache on tiny renders the same CSV through its plan and through
   plan-free cells that run the same requests under the second-request
   rule. *)
let test_plan_csv_identical () =
  let opts = figure_opts in
  let planned_run f =
    Request.clear_memory ();
    let fig, d = tape_delta f in
    Request.clear_memory ();
    (Report.to_csv fig, d)
  in
  let planned, planned_tapes = planned_run (fun () -> Figures.fig6_cache opts) in
  let unplanned, unplanned_tapes =
    planned_run (fun () ->
        let rel machine acf (e : W.Suite.entry) =
          let run acf =
            Request.run ~entry:e
              (Request.v ~dyn_target:opts.Figures.dyn_target ~machine ~acf "tiny")
          in
          Request.relative (run acf) ~baseline:(run Request.Baseline)
        in
        Figures.figure opts ~id:"fig6-cache"
          ~title:"Figure 6 (middle): MFI vs I-cache size, 4-wide"
          ~ylabel:"execution time relative to no-MFI at same I$"
          (List.concat_map
             (fun (size, tag) ->
               let machine = Config.with_icache_kb size Config.default in
               [
                 Figures.series opts ("DISE3@" ^ tag)
                   (rel machine (Request.Mfi_dise A.Mfi.Dise3));
                 Figures.series opts ("rewrite@" ^ tag)
                   (rel machine (Request.Mfi_rewrite A.Rewrite.Segment_matching));
               ])
             [ (Some 8, "8K"); (Some 32, "32K"); (Some 128, "128K"); (None, "inf") ]))
  in
  check string_ "CSV with and without the plan" unplanned planned;
  (* Three streams (DISE3, rewrite, baseline) of four requests each. *)
  check bool_ "the plan records each stream on its first request" true
    (planned_tapes = (0, 3, 9, 0));
  check bool_ "without it, each stream runs live once" true
    (unplanned_tapes = (3, 3, 6, 0))

(* A workload that traps (exit code 5) fails every request and stores
   no tape, though its recording ran to the halt. *)
let test_trapped_no_tape () =
  Request.clear_memory ();
  let e = W.Suite.get ~dyn_target:10_000 W.Profile.tiny in
  let entry =
    { e with
      W.Suite.image =
        Dise_isa.Program.layout ~base:W.Codegen.code_base
          (Dise_isa.Asm.parse "main:\n lda r2, 5(r0)\n halt\n") }
  in
  let r machine = { (Request.v ~dyn_target:10_000 "tiny") with Request.machine } in
  let _, d =
    tape_delta (fun () ->
        List.iter
          (fun machine ->
            match Request.run_ext ~entry (r machine) with
            | Error (Diag.Runtime _) -> ()
            | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
            | Ok _ -> Alcotest.fail "a trapped workload answered ok")
          (List.filteri (fun i _ -> i < 3) tape_machines))
  in
  check bool_ "no tape recorded or replayed" true (d = (0, 0, 0, 0));
  check int_ "none held" 0 (Request.tapes_held ());
  Request.clear_memory ()

let test_replay_deadline () =
  Request.clear_memory ();
  let r machine = { (Request.v ~dyn_target:400_000 "tiny") with Request.machine } in
  ignore (ok_stats (r Config.default));
  ignore (ok_stats (r (Config.with_width 2 Config.default)));
  check int_ "the stream is on a tape" 1 (Request.tapes_held ());
  let result, d =
    tape_delta (fun () ->
        Request.run_ext
          ~deadline:(Unix.gettimeofday () +. 0.002)
          (r (Config.with_icache_kb (Some 8) Config.default)))
  in
  (match result with
  | Error (Diag.Timeout msg) ->
    check bool_ ("the replay timed out: " ^ msg) true (contains msg "exceeded")
  | Error d -> Alcotest.fail ("wrong diag: " ^ Diag.to_string d)
  | Ok _ -> Alcotest.fail "replay finished inside 2ms");
  check bool_ "no live run or recording instead" true (d = (0, 0, 0, 0));
  Request.clear_memory ()

let suite =
  [
    t prop_roundtrip;
    t prop_roundtrip_via_text;
    ("cache key golden", `Quick, test_key_golden);
    ("of_json rejections", `Quick, test_of_json_rejects);
    ("out-of-range request fields rejected", `Quick, test_out_of_range_rejected);
    ("cache store/find/corrupt", `Quick, test_store_find_corrupt);
    ("cache corrupt-entry recovery", `Quick, test_cache_corrupt_recovery);
    ("cache invalidate idempotent", `Quick, test_cache_invalidate_idempotent);
    ("cache multi-domain hammer", `Quick, test_cache_hammer);
    ("run recovers from corruption", `Quick, test_run_recovers_from_corruption);
    ("counters and clear_cache", `Quick, test_counters_and_clear);
    ("sick cache store is dropped", `Quick, test_sick_cache_store_dropped);
    ("sinks bypass caches", `Quick, test_sink_bypasses_cache);
    ("cold vs warm CSV identical", `Quick, test_cold_warm_csv_identical);
    ("cold vs warm ratio panel", `Quick, test_cold_warm_ratio_panel);
    ("serve JSONL stream", `Quick, test_serve_stream);
    ("serve malformed line", `Quick, test_serve_malformed_line);
    ("serve partial final line (valid)", `Quick, test_serve_partial_final_line);
    ("serve partial final line (truncated)", `Quick,
     test_serve_truncated_final_line);
    ("serve SIGINT drain", `Quick, test_serve_sigint_drain);
    ("serve prodset swap between chunks", `Quick,
     test_serve_prodset_swap_chunks);
    ("jit knob distinct cache keys", `Quick, test_jit_knob_distinct_keys);
    ("memos keyed on dyn_target", `Quick, test_memo_keys_dyn_target);
    ("run checks its entry", `Quick, test_entry_must_match);
    ("per-cell stats golden", `Quick, test_stats_golden);
    t prop_replay_invisible;
    ("ablation requests match the drivers they replaced", `Quick, test_reference_drivers);
    ("tapes: clear_memory and the seen set", `Quick, test_tapes_cleared);
    ("tapes: four held, or the instruction budget", `Quick, test_tapes_bounded);
    ("tapes: an abandoned recording evicts nothing", `Quick,
     test_abandoned_evicts_nothing);
    ("tapes: recording past the cap abandoned", `Quick, test_tape_cap);
    ("tapes: trapped workload stores none", `Quick, test_trapped_no_tape);
    ("tapes: deadline during a replay", `Quick, test_replay_deadline);
    ("a repeated request simulates once", `Quick, test_repeat_simulates_once);
    ("plan: a reused stream records, a single one runs live", `Quick,
     test_plan_records_reuse);
    ("plan: unplanned tapes evicted first", `Quick, test_plan_evicts_unplanned_first);
    ("plan: fig6-cache CSV with and without it", `Quick, test_plan_csv_identical);
  ]
