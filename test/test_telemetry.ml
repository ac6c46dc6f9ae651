(* Tests for the telemetry layer: JSON round-trips, the schema
   validator, CPI-stack attribution invariants, per-production
   profiles, and the trace/manifest sinks. *)

open Dise_telemetry
module I = Dise_isa.Insn
module Program = Dise_isa.Program
module Machine = Dise_machine.Machine
module Config = Dise_uarch.Config
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats
module Controller = Dise_core.Controller
module W = Dise_workload
module A = Dise_acf
module H = Dise_harness
module Request = Dise_service.Request

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- Json --------------------------------------------------------------- *)

let test_json_parse () =
  check bool_ "null" true (Json.parse "null" = Json.Null);
  check bool_ "bools" true
    (Json.parse " true " = Json.Bool true && Json.parse "false" = Json.Bool false);
  check bool_ "int" true (Json.parse "-42" = Json.Int (-42));
  check bool_ "float" true (Json.parse "2.5" = Json.Float 2.5);
  check bool_ "exponent is float" true (Json.parse "1e3" = Json.Float 1000.);
  check bool_ "string escapes" true
    (Json.parse {|"a\"b\\c\ndA"|} = Json.String "a\"b\\c\ndA");
  check bool_ "array" true
    (Json.parse "[1, 2, 3]" = Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
  check bool_ "object" true
    (Json.parse {|{"a": 1, "b": [true]}|}
     = Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true ]) ]);
  check bool_ "nested" true
    (Json.member "b" (Json.parse {|{"a": 1, "b": {"c": null}}|})
     = Some (Json.Obj [ ("c", Json.Null) ]))

let expect_parse_error s =
  match Json.parse s with
  | exception Json.Parse_error _ -> ()
  | v ->
    Alcotest.failf "expected parse error for %S, got %s" s (Json.to_string v)

let test_json_parse_errors () =
  List.iter expect_parse_error
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "[1] x";
      "{\"a\" 1}"; "nan" ]

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "quote \" backslash \\ newline \n tab \t \x01");
        ("i", Json.Int (-12345));
        ("f", Json.Float 0.125);
        ("big", Json.Float 1.23456789e300);
        ("l", Json.List [ Json.Null; Json.Bool false; Json.Obj [] ]);
        ("o", Json.Obj [ ("nested", Json.List [ Json.Int 0 ]) ]);
      ]
  in
  check bool_ "compact round-trip" true (Json.parse (Json.to_string doc) = doc);
  check bool_ "indented round-trip" true
    (Json.parse (Json.to_string ~indent:true doc) = doc);
  (* Non-finite floats degrade to null rather than emitting invalid JSON. *)
  check bool_ "nan prints as null" true
    (Json.parse (Json.to_string (Json.Float nan)) = Json.Null)

(* --- Json_schema -------------------------------------------------------- *)

let schema =
  Json.parse
    {|{
      "type": "object",
      "required": ["cycles", "name"],
      "additionalProperties": false,
      "properties": {
        "cycles": { "type": "integer", "minimum": 0 },
        "name": { "type": "string" },
        "kind": { "enum": ["a", "b"] },
        "values": { "type": "array", "items": { "type": "number" } }
      }
    }|}

let errors doc = Json_schema.validate ~schema (Json.parse doc)

let test_schema_accepts () =
  check int_ "conforming doc" 0
    (List.length
       (errors {|{"cycles": 3, "name": "x", "kind": "a", "values": [1, 2.5]}|}));
  check int_ "optional fields absent" 0
    (List.length (errors {|{"cycles": 0, "name": ""}|}))

let test_schema_rejects () =
  let expect_bad doc =
    if errors doc = [] then Alcotest.failf "expected rejection of %s" doc
  in
  expect_bad {|{"name": "x"}|};                       (* missing required *)
  expect_bad {|{"cycles": "3", "name": "x"}|};        (* wrong type *)
  expect_bad {|{"cycles": -1, "name": "x"}|};         (* minimum *)
  expect_bad {|{"cycles": 1, "name": "x", "kind": "c"}|};   (* enum *)
  expect_bad {|{"cycles": 1, "name": "x", "zzz": 0}|};      (* extra key *)
  expect_bad {|{"cycles": 1, "name": "x", "values": ["s"]}|} (* item type *)

(* --- CPI-stack attribution ---------------------------------------------- *)

let image_of_insns prog =
  Program.layout
    ((Program.Label "main" :: List.map (fun i -> Program.Ins i) prog)
    @ [ Program.Ins I.Halt ])

(* The structural invariant: every cycle of every run lands in exactly
   one bucket. [Pipeline.finish] itself raises on violation; the
   explicit re-check keeps the property visible in the test output. *)
let prop_cpi_sums_to_cycles =
  QCheck.Test.make ~name:"CPI buckets sum to cycles (random ALU programs)"
    ~count:300 Gens.arbitrary_alu_program (fun prog ->
      let m = Machine.create (image_of_insns prog) in
      let stats = Pipeline.run Config.default m in
      stats.Stats.cycles > 0
      && Cpi_stack.total stats.Stats.cpi = stats.Stats.cycles)

let prop_cpi_sums_narrow_machine =
  QCheck.Test.make
    ~name:"CPI buckets sum to cycles (1-wide, tiny ROB)" ~count:150
    Gens.arbitrary_alu_program (fun prog ->
      let cfg = { (Config.with_width 1 Config.default) with Config.rob_size = 4 } in
      let m = Machine.create (image_of_insns prog) in
      let stats = Pipeline.run cfg m in
      Cpi_stack.total stats.Stats.cpi = stats.Stats.cycles)

let tiny_entry () = W.Suite.get ~dyn_target:25_000 W.Profile.tiny

(* One cell of the tiny workload, named as a request and run on the
   entry the test already holds. *)
let run ?machine ?controller ?trace ?profile acf e =
  Request.run ~entry:e ?trace ?profile
    (Request.v ~dyn_target:25_000 ?machine ?controller ~acf
       W.Profile.tiny.W.Profile.name)

let dise3 = Request.Mfi_dise A.Mfi.Dise3

(* Cells of the kind the quick suite runs: every driver must uphold the
   invariant, and the DISE-specific buckets must land where expected. *)
let test_cpi_cells () =
  let e = tiny_entry () in
  let total_ok name (stats : Stats.t) =
    check int_ (name ^ ": buckets sum to cycles") stats.Stats.cycles
      (Cpi_stack.total stats.Stats.cpi);
    stats
  in
  let base = total_ok "baseline" (run Request.Baseline e) in
  check bool_ "baseline spends cycles in base" true
    (base.Stats.cpi.Cpi_stack.base > 0);
  check int_ "baseline has no DISE decode cycles" 0
    base.Stats.cpi.Cpi_stack.dise_decode;
  ignore (total_ok "mfi_dise" (run dise3 e));
  ignore
    (total_ok "mfi_rewrite"
       (run (Request.Mfi_rewrite A.Rewrite.Segment_matching) e));
  let machine =
    Config.with_dise_decode Config.Stall_per_expansion Config.default
  in
  let stalled = total_ok "decode-stall" (run ~machine dise3 e) in
  check bool_ "decode stalls attributed" true
    (stalled.Stats.cpi.Cpi_stack.dise_decode > 0);
  check int_ "decode bucket equals one cycle per expansion"
    stalled.Stats.expansions stalled.Stats.cpi.Cpi_stack.dise_decode;
  let controller =
    { Controller.default_config with rt_entries = 4; rt_assoc = 1 }
  in
  let missy =
    total_ok "tiny-RT decompress"
      (run ~controller
         (Request.Decompress
            { scheme = A.Compress.full_dise; mfi = `None; rewritten = false })
         e)
  in
  check bool_ "PT/RT miss cycles attributed" true
    (missy.Stats.cpi.Cpi_stack.ptrt_miss > 0);
  check int_ "PT/RT bucket equals controller stalls"
    missy.Stats.dise_stall_cycles missy.Stats.cpi.Cpi_stack.ptrt_miss

(* --- per-production profiles -------------------------------------------- *)

let test_profile_matches_stats () =
  let e = tiny_entry () in
  let profile = Profile.create () in
  let stats =
    run ~controller:Controller.default_config ~profile dise3 e
  in
  let prods = Profile.productions profile in
  check bool_ "some production profiled" true (prods <> []);
  let sum f = List.fold_left (fun acc (_, en) -> acc + f en) 0 prods in
  check int_ "per-production expansions sum to Stats.expansions"
    stats.Stats.expansions
    (sum (fun en -> en.Profile.expansions));
  check int_ "total_expansions agrees" stats.Stats.expansions
    (Profile.total_expansions profile);
  (* Every replacement event (trigger slot included) is an injected
     instruction: stats counts the trigger slot as an app fetch. *)
  check int_ "per-production rep instrs sum"
    (stats.Stats.rep_instrs + stats.Stats.expansions)
    (sum (fun en -> en.Profile.rep_instrs));
  check int_ "RT outcomes sum to RT accesses" stats.Stats.rt_accesses
    (sum (fun en -> en.Profile.rt_hits + en.Profile.rt_misses));
  check int_ "RT misses agree" stats.Stats.rt_misses
    (sum (fun en -> en.Profile.rt_misses));
  check bool_ "hot PCs recorded" true (Profile.top_pcs ~n:5 profile <> []);
  check bool_ "descending order" true
    (let counts = List.map snd (Profile.top_pcs ~n:5 profile) in
     List.sort (fun a b -> compare b a) counts = counts);
  (* The JSON form must parse back. *)
  let doc = Json.parse (Json.to_string (Profile.to_json profile)) in
  check bool_ "profile json has productions" true
    (match Json.member "productions" doc with
    | Some (Json.List (_ :: _)) -> true
    | _ -> false)

(* --- trace sink ---------------------------------------------------------- *)

let test_trace_parses () =
  let e = tiny_entry () in
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer buf in
  let stats = run ~trace dise3 e in
  (* Pipeline.finish closed the sink. *)
  match Json.parse (Buffer.contents buf) with
  | Json.List events ->
    check bool_ "many events" true (List.length events > 1000);
    check bool_ "all events are objects with ph" true
      (List.for_all
         (fun ev ->
           match Json.member "ph" ev with
           | Some (Json.String ("X" | "i" | "M")) -> true
           | _ -> false)
         events);
    let spans =
      List.filter
        (fun ev -> Json.member "ph" ev = Some (Json.String "X"))
        events
    in
    check bool_ "one span per retired instruction" true
      (List.length spans = stats.Stats.retired);
    check bool_ "spans carry ts/dur" true
      (List.for_all
         (fun ev ->
           match Json.member "ts" ev, Json.member "dur" ev with
           | Some (Json.Int ts), Some (Json.Int dur) -> ts >= 0 && dur >= 1
           | _ -> false)
         spans)
  | _ -> Alcotest.fail "trace is not a JSON array"

let test_trace_truncation () =
  let e = tiny_entry () in
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer ~max_events:100 buf in
  ignore (run ~trace Request.Baseline e);
  check bool_ "cap hit" true (Trace.truncated trace);
  check int_ "emitted capped" 100 (Trace.emitted trace);
  match Json.parse (Buffer.contents buf) with
  | Json.List events ->
    check bool_ "truncation marker present" true
      (List.exists
         (fun ev ->
           match Json.member "name" ev with
           | Some (Json.String n) ->
             String.length n >= 15 && String.sub n 0 15 = "trace truncated"
             && Json.member "args" ev
                = Some
                    (Json.Obj [ ("dropped", Json.Int (Trace.dropped trace)) ])
           | _ -> false)
         events)
  | _ -> Alcotest.fail "truncated trace is not a JSON array"

(* --- manifest sink -------------------------------------------------------- *)

let test_manifest_jsonl () =
  let buf = Buffer.create 4096 in
  let manifest = Manifest.to_buffer buf in
  let opts =
    {
      H.Figures.dyn_target = 25_000;
      benchmarks = [ "bzip2"; "mcf" ];
      progress = ignore;
      jobs = 2;
      manifest = Some manifest;
    }
  in
  Request.clear_memory ();
  ignore (Request.clear_disk ());
  let fig = H.Figures.fig6_top opts in
  Manifest.close manifest;
  let cells = List.length fig.H.Figures.series * 2 in
  check int_ "one line per cell plus figure summary" (cells + 1)
    (Manifest.lines manifest);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check int_ "line count matches" (Manifest.lines manifest)
    (List.length lines);
  let parsed = List.map Json.parse lines in
  let kind doc = Json.member "kind" doc in
  check int_ "cell records" cells
    (List.length
       (List.filter (fun d -> kind d = Some (Json.String "cell")) parsed));
  let summaries =
    List.filter (fun d -> kind d = Some (Json.String "figure")) parsed
  in
  check int_ "one figure summary" 1 (List.length summaries);
  let s = List.hd summaries in
  check bool_ "summary counts cells" true
    (Json.member "cells" s = Some (Json.Int cells));
  check bool_ "utilization in (0, 1]" true
    (match Json.member "utilization" s with
    | Some (Json.Float u) -> u > 0. && u <= 1.000001
    | _ -> false)

(* --- Stats.to_json against the checked-in schema -------------------------- *)

let stats_schema_src = {|{
  "type": "object",
  "required": ["cycles", "retired", "ipc", "cpi_stack"],
  "properties": {
    "cycles": { "type": "integer", "minimum": 0 },
    "retired": { "type": "integer", "minimum": 0 },
    "ipc": { "type": "number", "minimum": 0 },
    "cpi_stack": {
      "type": "object",
      "additionalProperties": false,
      "required": ["base", "icache", "dcache", "branch", "rob",
                   "dise_decode", "ptrt_miss", "rep_redirect"],
      "properties": {
        "base": { "type": "integer", "minimum": 0 },
        "icache": { "type": "integer", "minimum": 0 },
        "dcache": { "type": "integer", "minimum": 0 },
        "branch": { "type": "integer", "minimum": 0 },
        "rob": { "type": "integer", "minimum": 0 },
        "dise_decode": { "type": "integer", "minimum": 0 },
        "ptrt_miss": { "type": "integer", "minimum": 0 },
        "rep_redirect": { "type": "integer", "minimum": 0 }
      }
    }
  }
}|}

let test_stats_json_schema () =
  let e = tiny_entry () in
  let stats = run Request.Baseline e in
  let doc = Json.parse (Json.to_string ~indent:true (Stats.to_json stats)) in
  let schema = Json.parse stats_schema_src in
  match Json_schema.validate ~schema doc with
  | [] -> ()
  | errs ->
    Alcotest.failf "stats json does not conform: %s"
      (String.concat "; "
         (List.map (Format.asprintf "%a" Json_schema.pp_error) errs))

let suite =
  [
    ("json: parse", `Quick, test_json_parse);
    ("json: parse errors", `Quick, test_json_parse_errors);
    ("json: round-trip", `Quick, test_json_roundtrip);
    ("schema: accepts", `Quick, test_schema_accepts);
    ("schema: rejects", `Quick, test_schema_rejects);
    ("cpi: cells uphold invariant", `Quick, test_cpi_cells);
    ("profile: matches stats", `Quick, test_profile_matches_stats);
    ("trace: valid chrome json", `Quick, test_trace_parses);
    ("trace: truncation visible", `Quick, test_trace_truncation);
    ("manifest: valid jsonl", `Quick, test_manifest_jsonl);
    ("stats json: schema-valid", `Quick, test_stats_json_schema);
    QCheck_alcotest.to_alcotest prop_cpi_sums_to_cycles;
    QCheck_alcotest.to_alcotest prop_cpi_sums_narrow_machine;
  ]
