module Machine = Dise_machine.Machine
module Tape = Dise_machine.Tape
module Engine = Dise_core.Engine
module Prodset = Dise_core.Prodset
module Controller = Dise_core.Controller
module Config = Dise_uarch.Config
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats
module Suite = Dise_workload.Suite
module Profile = Dise_workload.Profile
module Codegen = Dise_workload.Codegen
module Memo = Dise_workload.Memo
module Mfi = Dise_acf.Mfi
module Rewrite = Dise_acf.Rewrite
module Compress = Dise_acf.Compress
module Json = Dise_telemetry.Json
module Metrics = Dise_telemetry.Metrics
module Diag = Dise_isa.Diag
module Program = Dise_isa.Program

(* Process-wide counters for the serve summary: cache stores given up
   on, the JIT activity of every live run (per-run values live in the
   stats themselves; a replay's are the recording's, counted once),
   and the stream tapes recorded, replayed, abandoned and evicted
   before their first replay. *)
let store_drops = Metrics.Counter.make "store_drops"
let jit_compiles = Metrics.Counter.make "jit_compiles"
let jit_hits = Metrics.Counter.make "jit_hits"
let jit_invalidations = Metrics.Counter.make "jit_invalidations"
let tape_records = Metrics.Counter.make "tape_records"
let tape_replays = Metrics.Counter.make "tape_replays"
let tape_abandoned = Metrics.Counter.make "tape_abandoned"
let tape_evicted_unreplayed = Metrics.Counter.make "tape_evicted_unreplayed"

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

type observer = Trace | Profile

type t = {
  bench : string;
  dyn_target : int;
  machine : Config.t;
  controller : Controller.config option;
  acf : acf;
  observe : observer list;
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
    ?(acf = Baseline) ?(observe = []) ?jit ?jit_threshold bench =
  let d_enabled, d_threshold = !default_jit in
  let jit = Option.value jit ~default:d_enabled in
  let jit_threshold = Option.value jit_threshold ~default:d_threshold in
  { bench; dyn_target; machine; controller; acf; observe; jit; jit_threshold }

(* Canonical order, once each: neither key nor production set sees order. *)
let observers os = List.filter (fun o -> List.mem o os) [ Trace; Profile ]

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
    ([
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
    (* Left out at its default, so switch-free controllers keep their keys. *)
    @ if c.Controller.context_switch_every = 0 then []
      else [ ("context_switch_every", Json.Int c.Controller.context_switch_every) ])

let kind_name = function
  | Baseline -> "baseline"
  | Mfi_dise _ -> "mfi_dise"
  | Mfi_rewrite _ -> "mfi_rewrite"
  | Decompress _ -> "decompress"
  | Synth _ -> "synth"

let observer_json o = Json.String (match o with Trace -> "trace" | Profile -> "profile")

let acf_to_json a =
  Json.Obj
    (("kind", Json.String (kind_name a))
    ::
    (match a with
    | Baseline -> []
    | Mfi_dise variant -> [ ("variant", Json.String (mfi_variant_name variant)) ]
    | Mfi_rewrite variant -> [ ("variant", Json.String (rw_variant_name variant)) ]
    | Decompress { scheme; mfi; rewritten } ->
      [
        ("scheme", scheme_to_json scheme);
        ("mfi", Json.String (compose_name mfi));
        ("rewritten", Json.Bool rewritten);
      ]
    | Synth { scheme; seeds } ->
      (* The seed list is part of the canonical form, so every candidate
         dictionary the synthesis search scores caches under its own
         key — and never collides with a greedy "decompress" run. *)
      [
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
      ]))

let to_json t =
  Json.Obj
    ([
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
    (* Left out when empty, so unobserved requests keep their keys. *)
    @ if t.observe = [] then []
      else [ ("observe", Json.List (List.map observer_json (observers t.observe))) ])

let canonical t = Json.to_string (to_json t)
let key t = Cache.key (canonical t)

let blank_name (s : Compress.scheme) = { s with Compress.name = "" }

(* What the post-DISE stream depends on: the canonical request without
   the timing-only [machine] and [controller], and with the scheme's
   name blanked, as [compress_memo] blanks it. [jit] stays: the stream
   is the same either way, but the JIT counters in the stats are not. *)
let functional_key t =
  let acf =
    match t.acf with
    | Decompress d -> Decompress { d with scheme = blank_name d.scheme }
    | Synth s -> Synth { s with scheme = blank_name s.scheme }
    | (Baseline | Mfi_dise _ | Mfi_rewrite _) as a -> a
  in
  match to_json { t with acf } with
  | Json.Obj kvs ->
    Json.to_string
      (Json.Obj
         (List.filter (fun (k, _) -> k <> "machine" && k <> "controller") kvs))
  | j -> Json.to_string j

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

(* An integer member with a documented range: a value outside it is
   an input error naming the field, raised before any simulation runs
   on it or caches its result. *)
let ranged_field ctx j name ~expect ok =
  let* v = int_field ctx j name in
  if ok v then Ok v
  else
    parse_error
      (Printf.sprintf "%s.%s: %d out of range (expected %s)" ctx name v expect)

let check_dyn_target v =
  if v >= 1 then Ok ()
  else Error (Printf.sprintf "%d out of range (expected >= 1)" v)

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
  let field = ranged_field "scheme" j in
  let* codeword_bytes =
    field "codeword_bytes" ~expect:"2 or 4" (fun v -> v = 2 || v = 4)
  in
  let* min_len = field "min_len" ~expect:">= 1" (fun v -> v >= 1) in
  let* max_len =
    field "max_len" ~expect:">= min_len" (fun v -> v >= min_len)
  in
  let* max_params =
    field "max_params" ~expect:"0..3" (fun v -> v >= 0 && v <= 3)
  in
  let* dict_entry_bytes =
    field "dict_entry_bytes" ~expect:"4 or 8" (fun v -> v = 4 || v = 8)
  in
  let* compress_branches = bool_field "scheme" j "compress_branches" in
  let* max_entries =
    field "max_entries" ~expect:"1..2048" (fun v -> v >= 1 && v <= 2048)
  in
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
  let* pt_entries =
    ranged_field "controller" j "pt_entries" ~expect:">= 1" (fun v -> v >= 1)
  in
  let* pt_perfect = bool_field "controller" j "pt_perfect" in
  let* rt_entries = int_field "controller" j "rt_entries" in
  let* rt_assoc = int_field "controller" j "rt_assoc" in
  let* rt_entries_per_block = int_field "controller" j "rt_entries_per_block" in
  let* rt_perfect = bool_field "controller" j "rt_perfect" in
  let non_negative name =
    ranged_field "controller" j name ~expect:">= 0" (fun v -> v >= 0)
  in
  let* miss_penalty = non_negative "miss_penalty" in
  let* compose_penalty = non_negative "compose_penalty" in
  let* composing = bool_field "controller" j "composing" in
  let* context_switch_every =
    if Option.is_none (Json.member "context_switch_every" j) then Ok 0
    else non_negative "context_switch_every"
  in
  let* () =
    if rt_perfect then Ok ()
    else
      lift "controller.rt_entries"
        (Dise_core.Rt.check_geometry ~entries:rt_entries ~assoc:rt_assoc
           ~entries_per_block:rt_entries_per_block)
  in
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
      context_switch_every;
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

(* Which ACFs observers may join: tracing matches stores, as MFI's
   checks do, and a production set keeps one match per instruction. *)
let check_observe acf observe =
  match (acf, observe) with
  | _, [] | Baseline, _ | Mfi_dise _, [ Profile ] -> Ok ()
  | Mfi_dise _, _ -> Error "\"trace\" and acf kind \"mfi_dise\" both match stores"
  | (Mfi_rewrite _ | Decompress _ | Synth _), _ ->
    Error (Printf.sprintf "acf kind %S takes no observers" (kind_name acf))

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
    let* () = lift "request.dyn_target" (check_dyn_target dyn_target) in
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
    let* observe =
      match Json.member "observe" j with
      | None -> Ok []
      | Some (Json.List items) ->
        let named o = List.mem (observer_json o) items in
        let os = List.filter named [ Trace; Profile ] in
        if List.length os < List.length (List.sort_uniq compare items) then
          parse_error "request.observe: expected \"trace\" or \"profile\" names"
        else
          let* () = lift "request.observe" (check_observe acf os) in
          Ok os
      | Some _ -> parse_error "request.observe: expected array"
    in
    let* jit, jit_threshold =
      match Json.member "jit" j with
      | None -> Ok !default_jit
      | Some jj ->
        let* enabled = bool_field "jit" jj "enabled" in
        let* threshold =
          ranged_field "jit" jj "threshold" ~expect:">= 1" (fun v -> v >= 1)
        in
        Ok (enabled, threshold)
    in
    Ok { bench; dyn_target; machine; controller; acf; observe; jit; jit_threshold }
  | _ -> parse_error "request: expected object"

(* --- cross-cell memo tables --------------------------------------------- *)

(* Each memo is single-flight across the worker domains of {!Pool}: an
   expensive computation — the compressor, or a simulation — runs once
   per key, and every caller shares its value, exactly as the serial
   path would produce. Each is bounded ({!Memo}): the caps sit above a
   full figure pass's working set, so no figure pass loses a value, and
   a long-running serve worker keeps bounded tables.

   Every result is memoized in memory by its cache key: a figure pass
   asks for many requests more than once (every series of a panel
   divides by the same per-benchmark baseline, and panels share cells),
   and a serve worker answers a repeated request from memory. Results
   are deterministic, so sharing the Stats.t record cannot change any
   figure value. *)
let result_memo : (string, Stats.t) Memo.t = Memo.create ~capacity:4_096
(* The image of a workload's segment-matching rewrite: the image, not
   the program, because simulation runs it and compression, the other
   reader of the rewritten program, is memoized itself. *)
let rewritten_memo : (string * int, Program.Image.t) Memo.t = Memo.create ~capacity:64

(* Keyed by what the compressor reads: the workload (bench,
   dyn_target), whether it is the rewritten binary, and the scheme's
   fields with its name blanked. The ablation schemes [p0], [p3] and
   [len8] are [+8byteDE], [DISE] and [DISE] under other names, and
   share their dictionaries. *)
let compress_memo : (string * int * bool * Compress.scheme, Compress.result) Memo.t =
  Memo.create ~capacity:256

(* --- stream tapes ----------------------------------------------------- *)

(* A figure sweeps timing-only parameters, so many of its requests
   share one post-DISE stream (one functional key). A stream that will
   be requested again records on a tape; later requests replay the tape
   into a fresh pipeline and run no machine, engine or production-set
   build.

   Which streams will be requested again: inside a plan ([with_plan]),
   the plan says. It counts, per functional key, the planned requests
   still to compute; each computed request of the stream uses one up,
   and a simulation records if and only if its stream has one left.
   Outside a plan (serve, [run], synthesis), a stream records on its
   second request since [clear_memory]: [seen] holds the keys requested
   so far (at most [seen_capacity], then it empties), so a stream
   requested once records nothing.

   Storing a finished recording evicts tapes while the table holds more
   than [floor_tapes] tapes and more than [Tape.max_length] instructions
   of storage (24 MiB): four long streams always fit, and so do as many
   short ones as the budget holds (a serve worker's streams of ~40K
   instructions each). The victims are the tapes whose streams have no
   planned request left, least recently used first, and then the
   others by LRU. A recording that starts evicts nothing, so one that
   is abandoned or fails costs the table no tape. Tapes live in memory
   only. [tapes_mutex] guards every field and the plan; replays run
   outside it, counted in [readers]. A stream another domain is
   recording ([recording]) waits for that recording instead of making
   its own, so parallel cells of one stream replay as serial ones do;
   after [clear_memory] two domains may still record one stream at
   once, and the later store wins. *)
type held = {
  fkey : string;
  tape : Tape.t;
  prodset : Prodset.t option;  (* what the recording run's controller watched *)
  mutable used : int;  (* LRU stamp *)
  mutable readers : int;  (* replays in flight *)
  mutable replayed : bool;
}

let floor_tapes = 4
let seen_capacity = 4_096
let tapes_mutex = Mutex.create ()
let recorded = Condition.create ()  (* a recording ended *)
let held : held list ref = ref []
let seen : (string, unit) Hashtbl.t = Hashtbl.create 64
let recording : (string, unit) Hashtbl.t = Hashtbl.create 8
let tape_clock = ref 0

(* The running plan's planned requests still to compute, per
   functional key. *)
let plan : (string, int ref) Hashtbl.t option ref = ref None

let with_tapes f =
  Mutex.lock tapes_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock tapes_mutex) f

let planned fkey = Option.bind !plan (fun p -> Hashtbl.find_opt p fkey)

(* One request of [fkey] is computed: [Some n] when the plan covers the
   stream, [n] its planned requests still to come, [None] when not. *)
let use_planned fkey =
  Option.map
    (fun left ->
      left := max 0 (!left - 1);
      !left)
    (planned fkey)

let planned_left fkey = match planned fkey with Some left -> !left | None -> 0

let note_seen fkey =
  if Hashtbl.length seen >= seen_capacity then Hashtbl.reset seen;
  Hashtbl.replace seen fkey ()

type tape_use = Play of held | Record of Tape.t | Live

let use_tape fkey =
  with_tapes (fun () ->
      let rec decide () =
        incr tape_clock;
        match List.find_opt (fun h -> String.equal h.fkey fkey) !held with
        | Some h ->
          ignore (use_planned fkey);
          h.used <- !tape_clock;
          h.readers <- h.readers + 1;
          h.replayed <- true;
          Play h
        | None when Hashtbl.mem recording fkey ->
          Condition.wait recorded tapes_mutex;
          decide ()
        | None ->
          let again =
            match use_planned fkey with
            | Some left -> left > 0
            | None -> Hashtbl.mem seen fkey
          in
          note_seen fkey;
          if again then begin
            Hashtbl.replace recording fkey ();
            Record (Tape.create ())
          end
          else Live
      in
      decide ())

let unpin h = with_tapes (fun () -> h.readers <- h.readers - 1)

(* The end of a recording of [fkey], stored or not. *)
let recorded_end fkey =
  with_tapes (fun () ->
      Hashtbl.remove recording fkey;
      Condition.broadcast recorded)

(* A tape leaving the table: its chunks go back to the pool unless a
   replay still reads them (then the GC takes them). *)
let drop h = if h.readers = 0 then Tape.release h.tape

let footprint hs = List.fold_left (fun n h -> n + Tape.footprint h.tape) 0 hs

let store_tape fkey tape prodset =
  with_tapes (fun () ->
      incr tape_clock;
      let same, others =
        List.partition (fun h -> String.equal h.fkey fkey) !held
      in
      List.iter drop same;
      let stored =
        { fkey; tape; prodset; used = !tape_clock; readers = 0; replayed = false }
      in
      (* Victims first: tapes the plan no longer needs, then the rest,
         each least recently used first; the stored tape goes last. *)
      let rank h = (planned_left h.fkey > 0, h.used) in
      let rec evict count size = function
        | h :: rest when count > floor_tapes && size > Tape.max_length ->
          let size = size - Tape.footprint h.tape in
          drop h;
          if not h.replayed then Metrics.Counter.incr tape_evicted_unreplayed;
          evict (count - 1) size rest
        | hs -> hs
      in
      let hs = List.sort (fun a b -> compare (rank a) (rank b)) others @ [ stored ] in
      held := evict (List.length hs) (footprint hs) hs)

let tapes_held () = with_tapes (fun () -> List.length !held)

let tapes_footprint () = with_tapes (fun () -> footprint !held)

let with_plan reqs f =
  let counts = Hashtbl.create 64 and keys = Hashtbl.create 128 in
  List.iter
    (fun t ->
      let k = key t in
      if not (Hashtbl.mem keys k) then begin
        Hashtbl.replace keys k ();
        if not (Memo.mem result_memo k) then
          let fkey = functional_key t in
          match Hashtbl.find_opt counts fkey with
          | Some n -> incr n
          | None -> Hashtbl.replace counts fkey (ref 1)
      end)
    reqs;
  let outer =
    with_tapes (fun () ->
        let outer = !plan in
        plan := Some counts;
        outer)
  in
  Fun.protect ~finally:(fun () -> with_tapes (fun () -> plan := outer)) f

let clear_memory () =
  Memo.clear result_memo;
  Memo.clear rewritten_memo;
  Memo.clear compress_memo;
  with_tapes (fun () ->
      List.iter drop !held;
      held := [];
      Hashtbl.reset seen;
      Hashtbl.reset recording;
      Condition.broadcast recorded)

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

type tape_counts = { live : int; records : int; replays : int; abandoned : int }

(* Domain-local like the cache counters. *)
let tape_counters_key : tape_counts ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref { live = 0; records = 0; replays = 0; abandoned = 0 })

let tape_counters () = !(Domain.DLS.get tape_counters_key)

let note_tape ?counter bump =
  Option.iter Metrics.Counter.incr counter;
  let c = Domain.DLS.get tape_counters_key in
  c := bump !c

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

let controller_for t prodset =
  Option.map
    (fun cfg -> Controller.create cfg (Option.value prodset ~default:Prodset.empty))
    t.controller

let run_machine t ?prodset ?trace ?profile ?poll ?record m =
  let stats =
    Pipeline.run ~max_steps ?controller:(controller_for t prodset) ?trace
      ?profile ?poll ?record t.machine m
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

(* A caller-supplied entry stands in for [derive_entry t], so it must
   be the same workload. *)
let check_entry t (e : Suite.entry) =
  let name = e.Suite.profile.Profile.name in
  if not (String.equal name t.bench && e.Suite.dyn_target = t.dyn_target) then
    invalid_arg
      (Printf.sprintf
         "Request: entry %s at dyn_target %d does not match the request's \
          %s at dyn_target %d"
         name e.Suite.dyn_target t.bench t.dyn_target);
  e

let rewrite variant (entry : Suite.entry) =
  Rewrite.rewrite ~variant ~data_seg:Codegen.data_segment_id
    ~code_seg:Codegen.code_segment_id entry.Suite.gen.Codegen.program

let rewritten_image (entry : Suite.entry) =
  let key = (entry.Suite.profile.Profile.name, entry.Suite.dyn_target) in
  Memo.find_or_compute rewritten_memo key (fun () ->
      Program.layout ~base:Codegen.code_base
        (rewrite Rewrite.Segment_matching entry))

let compress_result ~scheme ?(rewritten = false) (entry : Suite.entry) =
  let key =
    ( entry.Suite.profile.Profile.name,
      entry.Suite.dyn_target,
      rewritten,
      blank_name scheme )
  in
  Memo.find_or_compute compress_memo key (fun () ->
      let prog =
        if rewritten then rewrite Rewrite.Segment_matching entry
        else entry.Suite.gen.Codegen.program
      in
      Compress.compress ~scheme prog)

(* [prodset] plus the observers' productions, on a machine whose trace
   and profile buffers sit where the decode ablation places them. *)
let with_observers t image prodset =
  let add s = function
    | Trace -> Prodset.union s (Dise_acf.Tracing.productions ())
    | Profile -> Prodset.union s (Dise_acf.Profiling.productions ())
  in
  let prodset = List.fold_left add prodset (observers t.observe) in
  let m = with_engine t image prodset in
  if t.observe <> [] then begin
    Dise_acf.Tracing.install m ~buffer:0x06000000;
    Dise_acf.Profiling.install m ~buffer:0x06800000
  end;
  (m, Some prodset)

(* The functional side of a request: the machine that executes its
   stream, the production set its controller watches ([None]: the
   empty set) and the name its trap check reports. *)
let functional t (entry : Suite.entry) =
  check_observe t.acf (observers t.observe)
  |> Result.iter_error (fun msg -> invalid_arg ("request.observe: " ^ msg));
  match t.acf with
  | Baseline when t.observe = [] -> ("baseline", plain_machine t entry.Suite.image, None)
  | Baseline ->
    let m, prodset = with_observers t entry.Suite.image Prodset.empty in
    ("baseline", m, prodset)
  | Mfi_dise variant ->
    let m, prodset =
      with_observers t entry.Suite.image
        (Mfi.productions_for ~variant entry.Suite.image)
    in
    install_mfi m;
    ("mfi_dise", m, prodset)
  | Mfi_rewrite variant ->
    let image =
      match variant with
      | Rewrite.Segment_matching -> rewritten_image entry
      | v -> Program.layout ~base:Codegen.code_base (rewrite v entry)
    in
    ("mfi_rewrite", plain_machine t image, None)
  | Decompress { scheme; mfi; rewritten } ->
    let result = compress_result ~scheme ~rewritten entry in
    let prodset =
      match mfi with
      | `None -> result.Compress.prodset
      | `Composed -> Dise_acf.Acf_compose.for_compressed result
    in
    let m = with_engine t result.Compress.image prodset in
    (match mfi with `Composed -> install_mfi m | `None -> ());
    ("decompress", m, Some prodset)
  | Synth { scheme; seeds } ->
    (* Candidate dictionaries are transient (the search scores
       hundreds), so unlike [Decompress] the full result is not
       memoized in memory — the run's statistics still persist in the
       disk cache under the seed-bearing canonical key. *)
    let corpus = Compress.corpus ~scheme entry.Suite.gen.Codegen.program in
    let result = Compress.compress_seeded corpus ~seeds in
    ( "synth",
      with_engine t result.Compress.image result.Compress.prodset,
      Some result.Compress.prodset )

(* A live run; returns the production set too, which a recorded tape
   keeps for the controllers of its replays. *)
let simulate ?trace ?profile ?poll ?record t entry =
  let name, m, prodset = functional t entry in
  let stats = run_machine t ?prodset ?trace ?profile ?poll ?record m in
  check_clean name m;
  (stats, prodset)

(* A fresh result for a request whose stream may be on a tape: a
   replay when one is held, else a live run that records the stream
   when it will be requested again ([use_tape]). Only a run that
   returned (halted cleanly, within its step and time budgets) with a
   whole recording stores its tape. [entry] is forced only for a live
   run. *)
let run_stream ?poll t ~entry =
  let fkey = functional_key t in
  match use_tape fkey with
  | Play h ->
    Fun.protect
      ~finally:(fun () -> unpin h)
      (fun () ->
        let stats =
          Pipeline.replay ?controller:(controller_for t h.prodset) ?poll
            t.machine h.tape
        in
        note_tape ~counter:tape_replays (fun c -> { c with replays = c.replays + 1 });
        stats)
  | Live ->
    let stats = fst (simulate ?poll t (entry ())) in
    note_tape (fun c -> { c with live = c.live + 1 });
    stats
  | Record tape ->
    let stored = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !stored then Tape.release tape;
        recorded_end fkey)
      (fun () ->
        let stats, prodset = simulate ?poll ~record:tape t (entry ()) in
        if Tape.complete tape then begin
          store_tape fkey tape prodset;
          stored := true;
          note_tape ~counter:tape_records (fun c -> { c with records = c.records + 1 })
        end
        else
          note_tape ~counter:tape_abandoned (fun c ->
              { c with abandoned = c.abandoned + 1 });
        stats)

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
  let entry = Option.map (check_entry t) entry in
  let canon = canonical t in
  let k = Cache.key canon in
  let fresh = ref false in
  let poll = poll_of_deadline deadline in
  let compute () =
    match disk_find Stats.of_json ~key:k with
    | Some stats ->
      (* A planned request read from disk simulates nothing. *)
      if Option.is_some !plan then begin
        let fkey = functional_key t in
        with_tapes (fun () -> ignore (use_planned fkey))
      end;
      stats
    | None ->
      fresh := true;
      let entry () = match entry with Some e -> e | None -> derive_entry t in
      let stats = run_stream ?poll t ~entry in
      disk_store ~key:k ~request:(Json.parse canon)
        (Stats.to_json stats);
      stats
  in
  let stats = Memo.find_or_compute result_memo k compute in
  (stats, not !fresh)

let run ?entry ?trace ?profile t =
  match (trace, profile) with
  | None, None -> fst (run_cached ?entry t)
  | _ ->
    (* Sinks need the event stream replayed, which cached statistics
       cannot provide: run outside every cache and leave them alone
       (a traced run's stats are identical to an untraced one's). *)
    let entry =
      match entry with Some e -> check_entry t e | None -> derive_entry t
    in
    fst (simulate ?trace ?profile t entry)

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
