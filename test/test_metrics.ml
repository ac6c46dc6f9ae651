(* Metrics core, trajectory records, trace drop accounting, and the
   conformance suite — the observability layer's own tests. *)

module Metrics = Dise_telemetry.Metrics
module Json = Dise_telemetry.Json
module Json_schema = Dise_telemetry.Json_schema
module Manifest = Dise_telemetry.Manifest
module Trace = Dise_telemetry.Trace
module Trajectory = Dise_telemetry.Trajectory
module Conformance = Dise_fuzz.Conformance

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_schema name = Json.parse (read_file ("../doc/schema/" ^ name))

let assert_valid ~schema doc =
  match Json_schema.validate ~schema doc with
  | [] -> ()
  | errs ->
    Alcotest.failf "schema violation: %a"
      (Format.pp_print_list Json_schema.pp_error)
      errs

(* --- bucket layout ------------------------------------------------------- *)

let test_bucket_layout () =
  (* Every value lands in a bucket whose bounds contain it, and the
     bounds tile the line without gaps. *)
  List.iter
    (fun v ->
      let i = Metrics.Histogram.bucket_index v in
      let lo, hi = Metrics.Histogram.bucket_bounds i in
      if not (lo <= v && v < hi) then
        Alcotest.failf "value %d outside its bucket [%d, %d)" v lo hi)
    [ 0; 1; 7; 8; 9; 15; 16; 100; 1023; 1024; 999_983; max_int / 2 ];
  let rec tile i =
    if i < 479 then begin
      let _, hi = Metrics.Histogram.bucket_bounds i in
      let lo', _ = Metrics.Histogram.bucket_bounds (i + 1) in
      check int_ (Printf.sprintf "buckets %d/%d adjacent" i (i + 1)) hi lo';
      tile (i + 1)
    end
  in
  tile 0

(* --- quantile error bound (QCheck) --------------------------------------- *)

(* The estimator returns the inclusive upper bound of the bucket that
   holds the exact order statistic, so estimate and exact value share
   a bucket: the absolute error is below one bucket width, which the
   log-linear layout caps at a 12.5% relative error for values >= 8. *)
let quantile_prop samples =
  let h =
    Metrics.Histogram.make
      (Printf.sprintf "test_qprop_%d" (Hashtbl.hash samples))
  in
  let since = Metrics.Histogram.snapshot h in
  List.iter (Metrics.Histogram.observe h) samples;
  let s = Metrics.Histogram.delta ~since (Metrics.Histogram.snapshot h) in
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  List.for_all
    (fun q ->
      let rank =
        let r = int_of_float (ceil (q *. float_of_int n)) in
        max 1 (min n r)
      in
      let exact = sorted.(rank - 1) in
      let est = Metrics.Histogram.quantile s q in
      let bi = Metrics.Histogram.bucket_index exact in
      let lo, hi = Metrics.Histogram.bucket_bounds bi in
      Metrics.Histogram.bucket_index est = bi
      && est >= exact
      && est - exact < hi - lo
      && (exact < 8 || float_of_int (est - exact) <= 0.125 *. float_of_int exact))
    [ 0.50; 0.95; 0.99 ]

let quantile_qcheck =
  QCheck.Test.make ~name:"histogram quantiles within bucket resolution"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 400) (int_range 0 2_000_000))
    (fun samples -> samples = [] || quantile_prop samples)

(* --- exact-sum invariant ------------------------------------------------- *)

let invariant_qcheck =
  QCheck.Test.make ~name:"histogram exact-sum invariant" ~count:100
    QCheck.(list_of_size Gen.(0 -- 300) (int_range 0 10_000_000))
    (fun samples ->
      let h =
        Metrics.Histogram.make
          (Printf.sprintf "test_inv_%d" (Hashtbl.hash samples))
      in
      let since = Metrics.Histogram.snapshot h in
      List.iter (Metrics.Histogram.observe h) samples;
      let s = Metrics.Histogram.delta ~since (Metrics.Histogram.snapshot h) in
      Metrics.Histogram.invariant s = Ok ()
      && s.Metrics.Histogram.count = List.length samples
      && s.Metrics.Histogram.sum = List.fold_left ( + ) 0 samples)

(* --- registry ------------------------------------------------------------ *)

let test_registry () =
  let c1 = Metrics.Counter.make "test_reg_counter" in
  let c2 = Metrics.Counter.make "test_reg_counter" in
  Metrics.Counter.incr c1;
  check int_ "same name, same counter" 1 (Metrics.Counter.get c2);
  (match Metrics.Histogram.make "test_reg_counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  check bool_ "find_counter sees it" true
    (Metrics.find_counter "test_reg_counter" <> None);
  let snap = Metrics.snapshot () in
  check bool_ "registry snapshot carries it" true
    (List.mem_assoc "test_reg_counter" snap.Metrics.counters)

let test_disabled_gate () =
  let c = Metrics.Counter.make "test_gate_counter" in
  let h = Metrics.Histogram.make "test_gate_hist" in
  let v0 = Metrics.Counter.get c and n0 = Metrics.Histogram.count h in
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.Counter.incr c;
      Metrics.Histogram.observe h 42;
      check int_ "counter frozen when disabled" v0 (Metrics.Counter.get c);
      check int_ "histogram frozen when disabled" n0
        (Metrics.Histogram.count h));
  Metrics.Counter.incr c;
  check int_ "counter live again" (v0 + 1) (Metrics.Counter.get c)

let test_delta () =
  let h = Metrics.Histogram.make "test_delta_hist" in
  List.iter (Metrics.Histogram.observe h) [ 5; 100; 1000 ];
  let since = Metrics.Histogram.snapshot h in
  List.iter (Metrics.Histogram.observe h) [ 5; 7_000_000 ];
  let d = Metrics.Histogram.delta ~since (Metrics.Histogram.snapshot h) in
  check int_ "delta count" 2 d.Metrics.Histogram.count;
  check int_ "delta sum" (5 + 7_000_000) d.Metrics.Histogram.sum;
  check bool_ "delta invariant" true
    (Metrics.Histogram.invariant d = Ok ())

(* Pin the histogram edge cases around emptiness and [reset_all]: a
   quantile of nothing is 0 (not a trap), a post-reset snapshot is
   empty again, and a delta taken {e across} a reset yields a
   negative count with no buckets — well-defined garbage the
   [invariant] checker flags, rather than an exception. The serve
   tier's monitor takes deltas on a timer, so a concurrent reset must
   never crash it. *)
let test_histogram_empty_and_reset_edges () =
  let h = Metrics.Histogram.make "test_edge_hist" in
  let empty =
    Metrics.Histogram.delta
      ~since:(Metrics.Histogram.snapshot h)
      (Metrics.Histogram.snapshot h)
  in
  check int_ "empty count" 0 empty.Metrics.Histogram.count;
  List.iter
    (fun q ->
      check int_
        (Printf.sprintf "quantile %.2f of an empty histogram is 0" q)
        0
        (Metrics.Histogram.quantile empty q))
    [ 0.5; 0.9; 0.99; 1.0 ];
  check bool_ "empty snapshot satisfies the invariant" true
    (Metrics.Histogram.invariant empty = Ok ());
  (* observe, snapshot, reset: the pre-reset snapshot keeps its data,
     a fresh snapshot is empty, and quantiles on it are 0 again *)
  List.iter (Metrics.Histogram.observe h) [ 10; 200; 3000 ];
  let before = Metrics.Histogram.snapshot h in
  check int_ "pre-reset snapshot sees the observations" 3
    before.Metrics.Histogram.count;
  Metrics.reset_all ();
  let after = Metrics.Histogram.snapshot h in
  check int_ "reset empties the histogram" 0 after.Metrics.Histogram.count;
  check int_ "quantile right after reset is 0" 0
    (Metrics.Histogram.quantile after 0.99);
  check bool_ "immutable pre-reset snapshot survives the reset" true
    (before.Metrics.Histogram.count = 3);
  (* a delta spanning the reset must not trap: count goes negative,
     no bucket survives the subtraction, and the invariant reports
     the inconsistency instead of raising *)
  let across = Metrics.Histogram.delta ~since:before after in
  check int_ "delta across a reset has a negative count" (-3)
    across.Metrics.Histogram.count;
  check int_ "no buckets survive the subtraction" 0
    (Array.length across.Metrics.Histogram.buckets);
  check int_ "quantile of a negative-count delta is 0" 0
    (Metrics.Histogram.quantile across 0.5);
  (match Metrics.Histogram.invariant across with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cross-reset delta passed the invariant")

let test_metrics_schema () =
  let schema = load_schema "metrics.schema.json" in
  let h = Metrics.Histogram.make "test_schema_hist" in
  List.iter (Metrics.Histogram.observe h) [ 3; 17; 90_000 ];
  ignore (Metrics.Counter.make "test_schema_counter");
  assert_valid ~schema (Metrics.to_json (Metrics.snapshot ()))

(* --- serve_summary carries quantiles ------------------------------------- *)

let test_serve_summary_metrics () =
  let mbuf = Buffer.create 4096 in
  let manifest = Manifest.to_buffer mbuf in
  let _summary =
    Serve_harness.serve ~manifest
      ~cfg:(Dise_service.Serve_config.of_flags ~jobs:2 ~queue:2 ())
      [
        {|{"id":1,"bench":"tiny","dyn_target":20000}|};
        {|{"id":2,"bench":"tiny","dyn_target":21000}|};
      ]
  in
  let records =
    String.split_on_char '\n' (Buffer.contents mbuf)
    |> List.filter (fun l -> l <> "")
    |> List.map Json.parse
  in
  let summary =
    match
      List.find_opt
        (fun r -> Json.member "record" r = Some (Json.String "serve_summary"))
        records
    with
    | Some r -> r
    | None -> Alcotest.fail "no serve_summary record in manifest"
  in
  let metrics =
    match Json.member "metrics" summary with
    | Some m -> m
    | None -> Alcotest.fail "serve_summary lacks a metrics member"
  in
  assert_valid ~schema:(load_schema "metrics.schema.json") metrics;
  match Json.member "histograms" metrics with
  | Some (Json.Obj hs) -> (
    match List.assoc_opt "serve_request_ns" hs with
    | Some h ->
      let geti k =
        match Json.member k h with Some (Json.Int i) -> i | _ -> -1
      in
      (* Per-run delta merged from the worker: exactly this stream's
         two requests. *)
      check int_ "request histogram counts this session" 2 (geti "count");
      check bool_ "p50 <= p95 <= p99" true
        (geti "p50" <= geti "p95" && geti "p95" <= geti "p99");
      check bool_ "p50 positive" true (geti "p50" > 0)
    | None -> Alcotest.fail "metrics lack serve_request_ns histogram")
  | _ -> Alcotest.fail "metrics lack histograms"

(* --- trace drop accounting ------------------------------------------------ *)

let test_trace_dropped () =
  let buf = Buffer.create 1024 in
  let tr = Trace.to_buffer ~max_events:3 buf in
  for i = 1 to 10 do
    Trace.instant tr ~name:"e" ~cat:"t" ~ts:i ~tid:0 ~args:[]
  done;
  check int_ "emitted capped" 3 (Trace.emitted tr);
  check int_ "dropped exact" 7 (Trace.dropped tr);
  check bool_ "truncated" true (Trace.truncated tr);
  Trace.close tr;
  (* The file stays parseable and the marker carries the count. *)
  match Json.parse (Buffer.contents buf) with
  | Json.List events ->
    let marker =
      List.find_opt
        (fun e ->
          match Json.member "args" e with
          | Some args -> Json.member "dropped" args = Some (Json.Int 7)
          | None -> false)
        events
    in
    check bool_ "truncation marker records the drop count" true
      (marker <> None)
  | _ -> Alcotest.fail "trace is not a JSON array"

(* --- trajectory records --------------------------------------------------- *)

let sample_record ts wall =
  {
    Trajectory.tool = "conformance";
    suite = "quick";
    ts;
    commit = "deadbeef";
    cells = 32;
    passed = 32;
    wall_s = wall;
    p50_ns = 1000;
    p95_ns = 5000;
    p99_ns = 9000;
    extra = [ ("vectors", Json.Int 8) ];
  }

let test_trajectory () =
  let schema = load_schema "trajectory.schema.json" in
  let r = sample_record 1_700_000_000 1.5 in
  let doc = Trajectory.to_json r in
  assert_valid ~schema doc;
  (match Trajectory.of_json doc with
  | Some r' ->
    check string_ "tool roundtrips" r.Trajectory.tool r'.Trajectory.tool;
    check int_ "cells roundtrip" r.Trajectory.cells r'.Trajectory.cells;
    check bool_ "extra survives" true
      (List.assoc_opt "vectors" r'.Trajectory.extra = Some (Json.Int 8))
  | None -> Alcotest.fail "of_json rejected its own to_json");
  let jsonl =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-traj-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists jsonl then Sys.remove jsonl;
  Fun.protect
    ~finally:(fun () -> try Sys.remove jsonl with Sys_error _ -> ())
    (fun () ->
      Trajectory.append ~jsonl r;
      Trajectory.append ~jsonl (sample_record 1_700_000_100 2.0);
      match Trajectory.last ~jsonl ~tool:"conformance" ~suite:"quick" with
      | None -> Alcotest.fail "last found nothing"
      | Some prev ->
        check int_ "last record wins" 1_700_000_100 prev.Trajectory.ts;
        check bool_ "within budget passes" true
          (Trajectory.check_regression ~prev (sample_record 0 2.3) = Ok ());
        check bool_ ">20% wall regression fails" true
          (Trajectory.check_regression ~prev (sample_record 0 2.5) <> Ok ());
        let worse = { (sample_record 0 2.0) with Trajectory.passed = 31 } in
        check bool_ "pass-rate drop fails" true
          (Trajectory.check_regression ~prev worse <> Ok ()))

(* --- the conformance suite, in-process ------------------------------------ *)

let test_conformance_quick () =
  let vectors =
    match Conformance.load_suite ~dir:"arch" with
    | Ok vs -> vs
    | Error d -> Alcotest.failf "load_suite: %s" (Dise_isa.Diag.to_string d)
  in
  check bool_ "suite has vectors" true (List.length vectors >= 8);
  List.iter
    (fun v ->
      check bool_
        (Printf.sprintf "vector %s has a recorded signature"
           v.Conformance.name)
        true
        (v.Conformance.signature <> ""))
    vectors;
  let report = Conformance.run_suite ~dir:"arch" vectors in
  let total = List.length report.Conformance.cells in
  check int_ "4 backends per vector" (4 * List.length vectors) total;
  List.iter
    (fun c ->
      if not c.Conformance.pass then
        Alcotest.failf "cell %s/%s failed: signature %S, expected %S%s"
          c.Conformance.vector c.Conformance.backend c.Conformance.signature
          c.Conformance.expected
          (match c.Conformance.error with
          | Some e -> " (" ^ e ^ ")"
          | None -> ""))
    report.Conformance.cells;
  check int_ "all cells pass" total report.Conformance.passed;
  (* Rendering stays well-formed. *)
  let csv = Conformance.csv_of_report report in
  check bool_ "csv has header + rows" true
    (List.length (String.split_on_char '\n' csv) > total);
  let html = Conformance.html_of_report report in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check bool_ "html mentions every backend" true
    (List.for_all (contains html) Conformance.backends)

let suite =
  [
    Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
    QCheck_alcotest.to_alcotest quantile_qcheck;
    QCheck_alcotest.to_alcotest invariant_qcheck;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "disabled gate" `Quick test_disabled_gate;
    Alcotest.test_case "histogram delta" `Quick test_delta;
    Alcotest.test_case "empty/reset histogram edges" `Quick
      test_histogram_empty_and_reset_edges;
    Alcotest.test_case "metrics schema" `Quick test_metrics_schema;
    Alcotest.test_case "serve_summary metrics" `Quick
      test_serve_summary_metrics;
    Alcotest.test_case "trace dropped count" `Quick test_trace_dropped;
    Alcotest.test_case "trajectory records" `Quick test_trajectory;
    Alcotest.test_case "conformance quick suite" `Quick
      test_conformance_quick;
  ]
