(* The per-layer ledger of one traced run: named sums filled from the
   ladder, the spans and the serve tier's own summary. A layer the
   workload does not reach reads 0. *)

module Stats = Dise_uarch.Stats

let tbl : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let set k v = Hashtbl.replace tbl k v
let add k v = set k (get k +. v)
let addi k v = add k (float_of_int v)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One laddered cell. [run_ext_s] is the same cell's [Request.run_ext]
   time; what the ladder does not explain is request overhead. Both are
   at nominal host speed ({!Calib}). *)
let add_rungs ~run_ext_s (r : Cells.rungs) =
  let prep name = List.fold_left (fun acc (n, d) -> if n = name then acc +. d else acc) 0.0 r.Cells.prep in
  let covered = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 r.Cells.prep
                +. r.Cells.exec_s +. r.Cells.expand_s +. r.Cells.pipeline_s in
  add "acf.rewrite_s" (prep "Rewrite.rewrite");
  add "acf.prodset_s" (prep "Prodset.build");
  add "core.engine_create_s" (prep "Engine.create");
  add "machine.exec_s" r.Cells.exec_s;
  add "core.expand_s" r.Cells.expand_s;
  add "uarch.pipeline_s" r.Cells.pipeline_s;
  add "service.request_overhead_s" (run_ext_s -. covered);
  add "ladder.run_ext_s" run_ext_s;
  add "ladder.covered_s" covered;
  addi "machine.insns" r.Cells.insns;
  addi "machine.jit_compiles" r.Cells.jit_compiles;
  addi "ladder.jit_hits" r.Cells.jit_hits;
  addi "core.expansions" r.Cells.expansions;
  addi "ladder.distinct_triggers" r.Cells.distinct_triggers;
  let s = r.Cells.stats in
  addi "core.pt_misses" s.Stats.pt_misses;
  addi "core.rt_misses" s.Stats.rt_misses;
  addi "uarch.retired" s.Stats.retired;
  addi "uarch.cycles" s.Stats.cycles;
  addi "uarch.icache_misses" s.Stats.icache_misses;
  addi "uarch.dcache_misses" s.Stats.dcache_misses;
  addi "uarch.mispredicts" s.Stats.mispredicts

let derive () =
  set "machine.ns_per_insn" (1e9 *. ratio (get "machine.exec_s") (get "machine.insns"));
  set "uarch.ns_per_insn" (1e9 *. ratio (get "uarch.pipeline_s") (get "uarch.retired"));
  set "machine.jit_hits_per_compile" (ratio (get "ladder.jit_hits") (get "machine.jit_compiles"));
  if get "core.expansions" > 0.0 then
    set "core.expand_memo_hit_ratio"
      (1.0 -. ratio (get "ladder.distinct_triggers") (get "core.expansions"));
  set "trace.ladder_coverage" (ratio (get "ladder.covered_s") (get "ladder.run_ext_s"));
  set "service.cache_hit_ratio"
    (ratio (get "service.cache_hits") (get "service.cache_hits" +. get "service.cache_misses"));
  set "acf.compress_kinsn_per_s" (ratio (get "ladder.compressed_insns") (get "acf.compress_s") /. 1000.0)

(* Per-operation host time of [f], in ns: the median of [batches]
   batches of [n] calls, so a single slow batch does not set it. *)
let ns_per_op ?(batches = 7) ~n f =
  let batch () =
    let t0 = Util.now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Util.now () -. t0) /. float_of_int n *. 1e9
  in
  Util.median (List.init batches (fun _ -> batch ()))

(* The codec probes shared by every workload: decoding one of its
   request lines, deriving the cache key, and parsing / printing one of
   its responses. *)
let codec_probes ~request_line ~request ~response_line =
  let module R = Dise_service.Request in
  let module Json = Dise_telemetry.Json in
  set "service.request_decode_ns"
    (ns_per_op ~n:2000 (fun () -> R.of_json (Json.parse request_line)));
  set "service.cache_key_ns" (ns_per_op ~n:2000 (fun () -> R.key request));
  set "telemetry.json_parse_ns" (ns_per_op ~n:1000 (fun () -> Json.parse response_line));
  let doc = Json.parse response_line in
  set "telemetry.json_print_ns" (ns_per_op ~n:1000 (fun () -> Json.to_string doc))

(* The same probes over a cell the workload ran in-process: its request
   as a serve line and its statistics as a serve response. *)
let codec_probes_of_cell (req : Dise_service.Request.t) stats =
  let module R = Dise_service.Request in
  let module Json = Dise_telemetry.Json in
  let response =
    Json.Obj
      [
        ("v", Json.Int 1);
        ("id", Json.Int 1);
        ("ok", Json.Bool true);
        ("key", Json.String (R.key req));
        ("cache_hit", Json.Bool false);
        ("wall_s", Json.Float 0.012345);
        ("stats", Dise_uarch.Stats.to_json stats);
      ]
  in
  codec_probes ~request_line:(Cells.request_line ~id:1 req) ~request:req
    ~response_line:(Json.to_string response)
