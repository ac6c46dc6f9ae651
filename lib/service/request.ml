module Machine = Dise_machine.Machine
module Engine = Dise_core.Engine
module Prodset = Dise_core.Prodset
module Controller = Dise_core.Controller
module Config = Dise_uarch.Config
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats
module Suite = Dise_workload.Suite
module Profile = Dise_workload.Profile
module Codegen = Dise_workload.Codegen
module Mfi = Dise_acf.Mfi
module Rewrite = Dise_acf.Rewrite
module Compress = Dise_acf.Compress
module Json = Dise_telemetry.Json
module Metrics = Dise_telemetry.Metrics
module Diag = Dise_isa.Diag

(* Process-wide counters for the serve summary: cache stores given up
   on, and the JIT activity of every run (per-run values live in the
   stats themselves). *)
let store_drops = Metrics.Counter.make "store_drops"
let jit_compiles = Metrics.Counter.make "jit_compiles"
let jit_hits = Metrics.Counter.make "jit_hits"
let jit_invalidations = Metrics.Counter.make "jit_invalidations"

type mfi_compose = [ `None | `Composed ]

type acf =
  | Baseline
  | Mfi_dise of Mfi.variant
  | Mfi_rewrite of Rewrite.variant
  | Decompress of {
      scheme : Compress.scheme;
      mfi : mfi_compose;
      rewritten : bool;
    }
  | Synth of { scheme : Compress.scheme; seeds : Compress.seed list }

type t = {
  bench : string;
  dyn_target : int;
  machine : Config.t;
  controller : Controller.config option;
  acf : acf;
  jit : bool;
  jit_threshold : int;
}

(* Process-wide default for requests that do not spell out a [jit]
   member (and for [v] calls without the optional arguments): the CLI
   sets it from --no-jit/--jit-threshold, so `disesim serve --no-jit`
   turns the JIT off for every request that leaves the choice open
   while explicit requests still win. *)
let default_jit = ref (true, Machine.default_jit_threshold)
let set_default_jit ~enabled ~threshold = default_jit := (enabled, max 1 threshold)

let v ?dyn_target:(dyn_target = 300_000) ?(machine = Config.default) ?controller
    ?(acf = Baseline) ?jit ?jit_threshold bench =
  let d_enabled, d_threshold = !default_jit in
  let jit = Option.value jit ~default:d_enabled in
  let jit_threshold = Option.value jit_threshold ~default:d_threshold in
  { bench; dyn_target; machine; controller; acf; jit; jit_threshold }

(* --- canonical JSON encoding ------------------------------------------- *)

let mfi_variant_name = function Mfi.Dise3 -> "dise3" | Mfi.Dise4 -> "dise4"

let rw_variant_name = function
  | Rewrite.Segment_matching -> "segment_matching"
  | Rewrite.Sandboxing -> "sandboxing"

let compose_name = function `None -> "none" | `Composed -> "composed"

let scheme_to_json (s : Compress.scheme) =
  Json.Obj
    [
      ("name", Json.String s.Compress.name);
      ("codeword_bytes", Json.Int s.Compress.codeword_bytes);
      ("min_len", Json.Int s.Compress.min_len);
      ("max_len", Json.Int s.Compress.max_len);
      ("max_params", Json.Int s.Compress.max_params);
      ("dict_entry_bytes", Json.Int s.Compress.dict_entry_bytes);
      ("compress_branches", Json.Bool s.Compress.compress_branches);
      ("max_entries", Json.Int s.Compress.max_entries);
    ]

let controller_to_json (c : Controller.config) =
  Json.Obj
    [
      ("pt_entries", Json.Int c.Controller.pt_entries);
      ("pt_perfect", Json.Bool c.Controller.pt_perfect);
      ("rt_entries", Json.Int c.Controller.rt_entries);
      ("rt_assoc", Json.Int c.Controller.rt_assoc);
      ("rt_entries_per_block", Json.Int c.Controller.rt_entries_per_block);
      ("rt_perfect", Json.Bool c.Controller.rt_perfect);
      ("miss_penalty", Json.Int c.Controller.miss_penalty);
      ("compose_penalty", Json.Int c.Controller.compose_penalty);
      ("composing", Json.Bool c.Controller.composing);
    ]

let acf_to_json = function
  | Baseline -> Json.Obj [ ("kind", Json.String "baseline") ]
  | Mfi_dise variant ->
    Json.Obj
      [
        ("kind", Json.String "mfi_dise");
        ("variant", Json.String (mfi_variant_name variant));
      ]
  | Mfi_rewrite variant ->
    Json.Obj
      [
        ("kind", Json.String "mfi_rewrite");
        ("variant", Json.String (rw_variant_name variant));
      ]
  | Decompress { scheme; mfi; rewritten } ->
    Json.Obj
      [
        ("kind", Json.String "decompress");
        ("scheme", scheme_to_json scheme);
        ("mfi", Json.String (compose_name mfi));
        ("rewritten", Json.Bool rewritten);
      ]
  | Synth { scheme; seeds } ->
    (* The seed list is part of the canonical form, so every candidate
       dictionary the synthesis search scores caches under its own
       key — and never collides with a greedy "decompress" run. *)
    Json.Obj
      [
        ("kind", Json.String "synth");
        ("scheme", scheme_to_json scheme);
        ( "seeds",
          Json.List
            (List.map
               (fun (s : Compress.seed) ->
                 Json.List
                   [
                     Json.Int s.Compress.s_blk;
                     Json.Int s.Compress.s_start;
                     Json.Int s.Compress.s_len;
                   ])
               seeds) );
      ]

let to_json t =
  Json.Obj
    [
      ("bench", Json.String t.bench);
      ("dyn_target", Json.Int t.dyn_target);
      ("machine", Config.to_json t.machine);
      ( "controller",
        match t.controller with
        | None -> Json.Null
        | Some c -> controller_to_json c );
      ("acf", acf_to_json t.acf);
      (* Always present in the canonical form: a JIT-off run and a
         JIT-on run get distinct cache/memo keys (the timing model is
         identical by construction — the fuzz oracle proves it — but
         the jit counters inside the cached stats differ). *)
      ( "jit",
        Json.Obj
          [
            ("enabled", Json.Bool t.jit);
            ("threshold", Json.Int t.jit_threshold);
          ] );
    ]

let canonical t = Json.to_string (to_json t)
let key t = Cache.key (canonical t)

(* --- decoding ----------------------------------------------------------- *)

let parse_error msg = Error (Diag.Parse { source = "request"; line = 0; msg })
let ( let* ) = Result.bind

let lift what = function
  | Ok v -> Ok v
  | Error msg -> parse_error (what ^ ": " ^ msg)

let int_field ctx j name =
  match Json.member name j with
  | Some (Json.Int v) -> Ok v
  | Some _ -> parse_error (Printf.sprintf "%s.%s: expected integer" ctx name)
  | None -> parse_error (Printf.sprintf "%s.%s: missing" ctx name)

let bool_field ctx j name =
  match Json.member name j with
  | Some (Json.Bool v) -> Ok v
  | _ -> parse_error (Printf.sprintf "%s.%s: expected boolean" ctx name)

let string_field ctx j name =
  match Json.member name j with
  | Some (Json.String v) -> Ok v
  | _ -> parse_error (Printf.sprintf "%s.%s: expected string" ctx name)

let scheme_of_json j =
  let* name = string_field "scheme" j "name" in
  let* codeword_bytes = int_field "scheme" j "codeword_bytes" in
  let* min_len = int_field "scheme" j "min_len" in
  let* max_len = int_field "scheme" j "max_len" in
  let* max_params = int_field "scheme" j "max_params" in
  let* dict_entry_bytes = int_field "scheme" j "dict_entry_bytes" in
  let* compress_branches = bool_field "scheme" j "compress_branches" in
  let* max_entries = int_field "scheme" j "max_entries" in
  Ok
    {
      Compress.name;
      codeword_bytes;
      min_len;
      max_len;
      max_params;
      dict_entry_bytes;
      compress_branches;
      max_entries;
    }

let controller_of_json j =
  let* pt_entries = int_field "controller" j "pt_entries" in
  let* pt_perfect = bool_field "controller" j "pt_perfect" in
  let* rt_entries = int_field "controller" j "rt_entries" in
  let* rt_assoc = int_field "controller" j "rt_assoc" in
  let* rt_entries_per_block = int_field "controller" j "rt_entries_per_block" in
  let* rt_perfect = bool_field "controller" j "rt_perfect" in
  let* miss_penalty = int_field "controller" j "miss_penalty" in
  let* compose_penalty = int_field "controller" j "compose_penalty" in
  let* composing = bool_field "controller" j "composing" in
  Ok
    {
      Controller.pt_entries;
      pt_perfect;
      rt_entries;
      rt_assoc;
      rt_entries_per_block;
      rt_perfect;
      miss_penalty;
      compose_penalty;
      composing;
    }

let acf_of_json j =
  let* kind = string_field "acf" j "kind" in
  match kind with
  | "baseline" -> Ok Baseline
  | "mfi_dise" -> (
    let* variant = string_field "acf" j "variant" in
    match variant with
    | "dise3" -> Ok (Mfi_dise Mfi.Dise3)
    | "dise4" -> Ok (Mfi_dise Mfi.Dise4)
    | v -> parse_error (Printf.sprintf "acf.variant: unknown %S" v))
  | "mfi_rewrite" -> (
    let* variant = string_field "acf" j "variant" in
    match variant with
    | "segment_matching" -> Ok (Mfi_rewrite Rewrite.Segment_matching)
    | "sandboxing" -> Ok (Mfi_rewrite Rewrite.Sandboxing)
    | v -> parse_error (Printf.sprintf "acf.variant: unknown %S" v))
  | "decompress" ->
    let* scheme =
      match Json.member "scheme" j with
      | Some s -> scheme_of_json s
      | None -> parse_error "acf.scheme: missing"
    in
    let* mfi =
      match Json.member "mfi" j with
      | Some (Json.String "none") | None -> Ok `None
      | Some (Json.String "composed") -> Ok `Composed
      | Some (Json.String v) ->
        parse_error (Printf.sprintf "acf.mfi: unknown %S" v)
      | Some _ -> parse_error "acf.mfi: expected string"
    in
    let* rewritten =
      match Json.member "rewritten" j with
      | Some (Json.Bool b) -> Ok b
      | None -> Ok false
      | Some _ -> parse_error "acf.rewritten: expected boolean"
    in
    Ok (Decompress { scheme; mfi; rewritten })
  | "synth" ->
    let* scheme =
      match Json.member "scheme" j with
      | Some s -> scheme_of_json s
      | None -> parse_error "acf.scheme: missing"
    in
    let* seeds =
      match Json.member "seeds" j with
      | Some (Json.List items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.List [ Json.Int b; Json.Int s; Json.Int l ] :: rest ->
            go ({ Compress.s_blk = b; s_start = s; s_len = l } :: acc) rest
          | _ :: _ ->
            parse_error "acf.seeds: expected [blk, start, len] triples"
        in
        go [] items
      | Some _ -> parse_error "acf.seeds: expected array"
      | None -> parse_error "acf.seeds: missing"
    in
    Ok (Synth { scheme; seeds })
  | k -> parse_error (Printf.sprintf "acf.kind: unknown %S" k)

let of_json j =
  match j with
  | Json.Obj _ ->
    let* bench = string_field "request" j "bench" in
    let* () =
      match Profile.find bench with
      | Some _ -> Ok ()
      | None -> Error (Diag.Invalid (Printf.sprintf "unknown benchmark %S" bench))
    in
    let* dyn_target = int_field "request" j "dyn_target" in
    let* () =
      if dyn_target > 0 then Ok ()
      else parse_error "request.dyn_target: must be positive"
    in
    let* machine =
      match Json.member "machine" j with
      | Some m -> lift "machine" (Config.of_json m)
      | None -> Ok Config.default
    in
    let* controller =
      match Json.member "controller" j with
      | Some Json.Null | None -> Ok None
      | Some c ->
        let* c = controller_of_json c in
        Ok (Some c)
    in
    let* acf =
      match Json.member "acf" j with
      | Some a -> acf_of_json a
      | None -> Ok Baseline
    in
    let* jit, jit_threshold =
      match Json.member "jit" j with
      | None -> Ok !default_jit
      | Some jj ->
        let* enabled = bool_field "jit" jj "enabled" in
        let* threshold = int_field "jit" jj "threshold" in
        if threshold < 1 then parse_error "jit.threshold: must be >= 1"
        else Ok (enabled, threshold)
    in
    Ok { bench; dyn_target; machine; controller; acf; jit; jit_threshold }
  | _ -> parse_error "request: expected object"

(* --- cross-cell memo tables --------------------------------------------- *)

(* Shared by worker domains when cells run in parallel (see {!Pool});
   a mutex guards every table access. A key is claimed as [Pending]
   before its (expensive — the compressor, or a full baseline
   simulation) computation runs outside the lock; concurrent
   requesters for the same key block on the condition instead of
   duplicating the work, and every caller shares the one
   physically-identical value, exactly as the serial path would
   produce. Nested memoized computations (compression of a rewritten
   binary memoizes the rewrite) are safe: the dependency order is
   acyclic, so a waiter never blocks its own claimant. *)
let cache_mutex = Mutex.create ()
let cache_cond = Condition.create ()

type 'v slot = Pending | Ready of 'v

let with_cache_lock f =
  Mutex.lock cache_mutex;
  match f () with
  | v ->
    Mutex.unlock cache_mutex;
    v
  | exception e ->
    Mutex.unlock cache_mutex;
    raise e

let memoize table key compute =
  Mutex.lock cache_mutex;
  let rec claim () =
    match Hashtbl.find_opt table key with
    | Some (Ready v) ->
      Mutex.unlock cache_mutex;
      `Hit v
    | Some Pending ->
      Condition.wait cache_cond cache_mutex;
      claim ()
    | None ->
      Hashtbl.replace table key Pending;
      Mutex.unlock cache_mutex;
      `Compute
  in
  match claim () with
  | `Hit v -> v
  | `Compute -> (
    match compute () with
    | v ->
      with_cache_lock (fun () ->
          Hashtbl.replace table key (Ready v);
          Condition.broadcast cache_cond);
      v
    | exception e ->
      (* Drop the claim so a later caller can retry. *)
      with_cache_lock (fun () ->
          Hashtbl.remove table key;
          Condition.broadcast cache_cond);
      raise e)

(* Many figure cells normalize against the same ACF-free run (every
   series of a panel divides by the same per-benchmark baseline), so
   baseline statistics are memoized in memory by canonical request;
   baseline runs are deterministic, so sharing the Stats.t record
   cannot change any figure value. *)
let baseline_memo : (string, Stats.t slot) Hashtbl.t = Hashtbl.create 64
let rewritten_memo : (string * int, Dise_isa.Program.t slot) Hashtbl.t =
  Hashtbl.create 16

(* Keyed by what the compressor reads: the workload (bench,
   dyn_target), whether it is the rewritten binary, and the scheme's
   fields with its name blanked. The ablation schemes [p0], [p3] and
   [len8] are [+8byteDE], [DISE] and [DISE] under other names, and
   share their dictionaries. *)
let compress_memo :
    (string * int * bool * Compress.scheme, Compress.result slot) Hashtbl.t =
  Hashtbl.create 64

let clear_memory () =
  with_cache_lock (fun () ->
      Hashtbl.reset baseline_memo;
      Hashtbl.reset rewritten_memo;
      Hashtbl.reset compress_memo)

(* --- disk cache wiring -------------------------------------------------- *)

let disk : Cache.t option ref = ref None
let set_disk_cache c = disk := c
let disk_cache () = !disk
let clear_disk () = match !disk with None -> 0 | Some c -> Cache.clear c

(* Domain-local hit/miss counters: a worker snapshots them around one
   cell to get a race-free per-cell delta (the harness emits the
   deltas into run manifests). *)
let counters_key : (int ref * int ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref 0, ref 0))

let note_hit () = incr (fst (Domain.DLS.get counters_key))
let note_miss () = incr (snd (Domain.DLS.get counters_key))

let cache_counters () =
  let h, m = Domain.DLS.get counters_key in
  (!h, !m)

(* Lookups route through the envelope checks of {!Cache.find}; a
   payload that decodes wrong despite a valid envelope (a schema
   change without a version bump) is dropped like any other corrupt
   entry and recomputed. *)
let disk_find decode ~key:k =
  match !disk with
  | None -> None
  | Some c -> (
    match Cache.find c ~key:k with
    | None ->
      note_miss ();
      None
    | Some payload -> (
      match decode payload with
      | Ok v ->
        note_hit ();
        Some v
      | Error _ ->
        note_miss ();
        Cache.invalidate c ~key:k;
        None))

(* Worth one more try before giving up on a store: the failure modes
   are all environmental (ENOSPC races, NFS hiccups, a concurrent
   [clear]), never a function of the payload. *)
let transient_exn = function
  | Cache.Diag_error _ | Unix.Unix_error _ | Sys_error _ -> true
  | _ -> false

(* A store that still fails after its retries is dropped, never
   raised: the statistics it would persist already exist, and a sick
   cache must not fail the job that computed them. Reads need no such
   rule ({!Cache.find} never raises, so a sick cache reads as misses).
   The first drop in a process says so on stderr. *)
let store_warned = Atomic.make false

let disk_store ~key:k ~request payload =
  match !disk with
  | None -> ()
  | Some c -> (
    match
      Resilience.with_retries ~transient:transient_exn (fun () ->
          Cache.store c ~key:k ~request ~payload)
    with
    | () -> ()
    | exception e when transient_exn e ->
      Metrics.Counter.incr store_drops;
      if not (Atomic.exchange store_warned true) then
        let d =
          match e with
          | Cache.Diag_error d -> d
          | e -> Diag.Cache (Printexc.to_string e)
        in
        Format.eprintf
          "disesim: warning: result cache %s is dropping stores (%a); \
           results are computed but not cached@."
          (Cache.dir c) Diag.pp d)

(* --- simulation --------------------------------------------------------- *)

let max_steps = 100_000_000

let run_machine t ?prodset ?trace ?profile ?poll m =
  let controller =
    match (t.controller, prodset) with
    | Some cfg, Some ps -> Some (Controller.create cfg ps)
    | Some cfg, None -> Some (Controller.create cfg Prodset.empty)
    | None, _ -> None
  in
  let stats =
    Pipeline.run ~max_steps ?controller ?trace ?profile ?poll t.machine m
  in
  if stats.Stats.jit_compiles <> 0 then
    Metrics.Counter.add jit_compiles stats.Stats.jit_compiles;
  if stats.Stats.jit_hits <> 0 then Metrics.Counter.add jit_hits stats.Stats.jit_hits;
  if stats.Stats.jit_invalidations <> 0 then
    Metrics.Counter.add jit_invalidations stats.Stats.jit_invalidations;
  stats

let check_clean name m =
  if Machine.exit_code m <> 0 then
    failwith
      (Printf.sprintf "experiment %s: workload trapped (exit %d)" name
         (Machine.exit_code m))

let with_engine t image prodset =
  let engine = Engine.create ~image prodset in
  let m = Machine.create ~expander:(Engine.expander engine) image in
  if t.jit then Engine.attach_jit ~threshold:t.jit_threshold engine m;
  m

(* Expander-free machines (baseline, statically rewritten binaries)
   have no engine whose generation could move, so a detached JIT is
   sound. *)
let plain_machine t image =
  let m = Machine.create image in
  if t.jit then Machine.enable_jit ~threshold:t.jit_threshold m;
  m

let install_mfi m =
  Mfi.install m ~data_seg:Codegen.data_segment_id
    ~code_seg:Codegen.code_segment_id

let derive_entry t =
  match Profile.find t.bench with
  | Some p -> Suite.get ~dyn_target:t.dyn_target p
  | None -> invalid_arg ("unknown benchmark " ^ t.bench)

let rewritten_program (entry : Suite.entry) =
  let key = (entry.Suite.profile.Profile.name, entry.Suite.dyn_target) in
  memoize rewritten_memo key (fun () ->
      Rewrite.rewrite ~data_seg:Codegen.data_segment_id
        ~code_seg:Codegen.code_segment_id entry.Suite.gen.Codegen.program)

let compress_result ~scheme ?(rewritten = false) (entry : Suite.entry) =
  let key =
    ( entry.Suite.profile.Profile.name,
      entry.Suite.dyn_target,
      rewritten,
      { scheme with Compress.name = "" } )
  in
  memoize compress_memo key (fun () ->
      let prog =
        if rewritten then rewritten_program entry
        else entry.Suite.gen.Codegen.program
      in
      Compress.compress ~scheme prog)

let simulate ?trace ?profile ?poll t (entry : Suite.entry) =
  match t.acf with
  | Baseline ->
    let m = plain_machine t entry.Suite.image in
    let stats = run_machine t ?trace ?profile ?poll m in
    check_clean "baseline" m;
    stats
  | Mfi_dise variant ->
    let prodset = Mfi.productions_for ~variant entry.Suite.image in
    let m = with_engine t entry.Suite.image prodset in
    install_mfi m;
    let stats = run_machine t ~prodset ?trace ?profile ?poll m in
    check_clean "mfi_dise" m;
    stats
  | Mfi_rewrite variant ->
    let prog =
      match variant with
      | Rewrite.Segment_matching -> rewritten_program entry
      | v ->
        Rewrite.rewrite ~variant:v ~data_seg:Codegen.data_segment_id
          ~code_seg:Codegen.code_segment_id entry.Suite.gen.Codegen.program
    in
    let image = Dise_isa.Program.layout ~base:Codegen.code_base prog in
    let m = plain_machine t image in
    let stats = run_machine t ?trace ?profile ?poll m in
    check_clean "mfi_rewrite" m;
    stats
  | Decompress { scheme; mfi; rewritten } ->
    let result = compress_result ~scheme ~rewritten entry in
    let prodset =
      match mfi with
      | `None -> result.Compress.prodset
      | `Composed -> Dise_acf.Acf_compose.for_compressed result
    in
    let m = with_engine t result.Compress.image prodset in
    (match mfi with `Composed -> install_mfi m | `None -> ());
    let stats = run_machine t ~prodset ?trace ?profile ?poll m in
    check_clean "decompress" m;
    stats
  | Synth { scheme; seeds } ->
    (* Candidate dictionaries are transient (the search scores
       hundreds), so unlike [Decompress] the full result is not
       memoized in memory — the run's statistics still persist in the
       disk cache under the seed-bearing canonical key. *)
    let corpus = Compress.corpus ~scheme entry.Suite.gen.Codegen.program in
    let result = Compress.compress_seeded corpus ~seeds in
    let m = with_engine t result.Compress.image result.Compress.prodset in
    let stats =
      run_machine t ~prodset:result.Compress.prodset ?trace ?profile ?poll m
    in
    check_clean "synth" m;
    stats

(* --- the one run path --------------------------------------------------- *)

(* A deadline is an absolute wall-clock instant; the simulator polls
   it every few thousand events (see [Pipeline.run ?poll]) — OCaml
   domains cannot be cancelled from outside, so budgets have to be
   enforced cooperatively. [max_steps] bounds every simulation, so a
   deadline-free run can never hang; the deadline only bounds how
   long it takes. *)
let poll_of_deadline = function
  | None -> None
  | Some d ->
    Some
      (fun () ->
        if Unix.gettimeofday () > d then raise Resilience.Deadline_exceeded)

let run_cached ?entry ?deadline t =
  let canon = canonical t in
  let k = Cache.key canon in
  let fresh = ref false in
  let poll = poll_of_deadline deadline in
  let compute () =
    match disk_find Stats.of_json ~key:k with
    | Some stats -> stats
    | None ->
      fresh := true;
      let entry = match entry with Some e -> e | None -> derive_entry t in
      let stats = simulate ?poll t entry in
      disk_store ~key:k ~request:(Json.parse canon)
        (Stats.to_json stats);
      stats
  in
  let stats =
    match t.acf with
    | Baseline -> memoize baseline_memo canon compute
    | _ -> compute ()
  in
  (stats, not !fresh)

let run ?entry ?trace ?profile t =
  match (trace, profile) with
  | None, None -> fst (run_cached ?entry t)
  | _ ->
    (* Sinks need the event stream replayed, which cached statistics
       cannot provide: run outside every cache and leave them alone
       (a traced run's stats are identical to an untraced one's). *)
    let entry = match entry with Some e -> e | None -> derive_entry t in
    simulate ?trace ?profile t entry

(* Exactly the exceptions the simulation stack raises on purpose.
   Anything else — a chaos injection, a plain bug, Out_of_memory — is
   NOT converted to a polite [Runtime] diagnostic: it escapes
   [run_ext] so the pool ([Pool.run_outcomes]) can confine it to its
   slot and the server can answer [internal], backtrace on stderr. *)
let known_exn = function
  | Invalid_argument _ | Failure _ | Machine.Runtime_error _
  | Engine.Expansion_error _ | Cache.Diag_error _
  | Resilience.Deadline_exceeded ->
    true
  | _ -> false

let diag_of_exn = function
  | Invalid_argument msg -> Diag.Invalid msg
  | Failure msg -> Diag.Runtime msg
  | Machine.Runtime_error msg -> Diag.Runtime msg
  | Engine.Expansion_error msg -> Diag.Expansion msg
  | Cache.Diag_error d -> d
  | Resilience.Deadline_exceeded ->
    Diag.Timeout "simulation exceeded its wall-clock budget"
  | e -> Diag.Runtime (Printexc.to_string e)

(* Latency of the run path itself (memo/cache lookups included),
   regardless of which entry point reached it — the serve loop or a
   direct caller. Cache hits and misses land in the same histogram;
   the serve-level split lives one layer up. *)
let h_run = Metrics.Histogram.make "request_run_ns"

let run_ext ?entry ?deadline t =
  let expired () =
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  (* Upfront check: a job whose budget is already gone (it sat in the
     queue, or chaos stalled it) times out without simulating. *)
  if expired () then
    Error (Diag.Timeout "deadline expired before the simulation started")
  else begin
    let t0 = Unix.gettimeofday () in
    let finish r =
      Metrics.Histogram.observe_s h_run (Unix.gettimeofday () -. t0);
      r
    in
    match run_cached ?entry ?deadline t with
    | result -> finish (Ok result)
    | exception e when known_exn e -> finish (Error (diag_of_exn e))
  end

let relative stats ~baseline =
  float_of_int stats.Stats.cycles /. float_of_int baseline.Stats.cycles

(* --- compression summaries ---------------------------------------------- *)

type compress_summary = {
  orig_text_bytes : int;
  text_bytes : int;
  dict_bytes : int;
  dict_entries : int;
  codewords : int;
}

let summary_of_result (r : Compress.result) =
  {
    orig_text_bytes = r.Compress.orig_text_bytes;
    text_bytes = r.Compress.text_bytes;
    dict_bytes = r.Compress.dict_bytes;
    dict_entries = List.length r.Compress.entries;
    codewords = r.Compress.codewords;
  }

let summary_to_json s =
  Json.Obj
    [
      ("orig_text_bytes", Json.Int s.orig_text_bytes);
      ("text_bytes", Json.Int s.text_bytes);
      ("dict_bytes", Json.Int s.dict_bytes);
      ("dict_entries", Json.Int s.dict_entries);
      ("codewords", Json.Int s.codewords);
    ]

let summary_of_json j =
  let field name =
    match Json.member name j with
    | Some (Json.Int v) -> Ok v
    | _ -> Error (Printf.sprintf "compress_summary.%s: expected integer" name)
  in
  let* orig_text_bytes = field "orig_text_bytes" in
  let* text_bytes = field "text_bytes" in
  let* dict_bytes = field "dict_bytes" in
  let* dict_entries = field "dict_entries" in
  let* codewords = field "codewords" in
  Ok { orig_text_bytes; text_bytes; dict_bytes; dict_entries; codewords }

(* The canonical form is a distinct top-level shape ({"compress": ...}),
   so compression keys can never collide with run-request keys. The
   workload is pinned by (bench, dyn_target), exactly as a run
   request's is. *)
let summary_canonical ~scheme ~rewritten (entry : Suite.entry) =
  Json.to_string
    (Json.Obj
       [
         ( "compress",
           Json.Obj
             [
               ( "bench",
                 Json.String entry.Suite.profile.Profile.name );
               ("dyn_target", Json.Int entry.Suite.dyn_target);
               ("scheme", scheme_to_json scheme);
               ("rewritten", Json.Bool rewritten);
             ] );
       ])

let compress_summary ~scheme ?(rewritten = false) entry =
  let canon = summary_canonical ~scheme ~rewritten entry in
  let k = Cache.key canon in
  match disk_find summary_of_json ~key:k with
  | Some s -> s
  | None ->
    let s = summary_of_result (compress_result ~scheme ~rewritten entry) in
    disk_store ~key:k ~request:(Json.parse canon) (summary_to_json s);
    s

let summary_compression_ratio s =
  float_of_int s.text_bytes /. float_of_int s.orig_text_bytes

let summary_total_ratio s =
  float_of_int (s.text_bytes + s.dict_bytes) /. float_of_int s.orig_text_bytes
