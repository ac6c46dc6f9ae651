(** First-class, serializable simulation runs.

    A {!t} {e names} one cell of the paper's evaluation grid —
    workload × ACF × machine (× controller) — as plain data, with a
    canonical JSON encoding. That one value is what the whole stack
    agrees on:

    - {!run} is the driver behind the experiments: every figure and
      ablation cell is one [t];
    - {!canonical}/{!key} derive the content address under which the
      run's statistics persist in the on-disk {!Cache};
    - the JSONL protocol of [disesim serve] ships {!to_json} values
      over a pipe or socket (see doc/service.md for the schema).

    {b Caching.} [run] consults, in order: an in-memory memo
    (baseline runs only — many figure cells normalize against the
    same baseline), the configured disk cache ({!set_disk_cache}),
    a stream tape, and finally the simulator; fresh results are
    persisted. A {e tape} ({!Dise_machine.Tape}) is the recorded
    post-DISE stream of one {e functional key}: the request without
    its timing-only [machine] and [controller] (and with its scheme's
    name blanked). The stream's second request since {!clear_memory}
    records it; later requests of that stream replay it into a fresh
    timing model under their own machine and controller, running no
    functional machine, engine or production-set build. Storing a
    tape evicts the least recently used ones while the table holds
    more than four tapes {e and} more than
    {!Dise_machine.Tape.max_length} instructions of storage
    ({!Dise_machine.Tape.footprint}, 24 MiB): four long streams always
    fit, and many short ones do. A recording that starts evicts
    nothing. A recording past {!Dise_machine.Tape.max_length}
    instructions is abandoned, and only a run that halted cleanly
    stores its tape. Tapes live in memory only: they are never
    persisted, and a replay is a simulation ([cache_hit] false) whose
    result is stored to disk like any other. All four layers return
    statistics identical to a fresh simulation — every persisted
    field is an integer, so the round-trip is exact, and a replay
    feeds the timing model the records the machine would.

    {b Telemetry sinks bypass every cache.} This is the single place
    the rule lives: sinks ([?trace]/[?profile]) consume the expansion {e event
    stream}, which cached statistics cannot replay, and closures make
    unusable hash keys — so a sink-carrying [run] simulates
    unconditionally and live, and leaves every memo, the tapes and
    the disk cache untouched. Statistics are unaffected: a traced run's counters are
    identical to an untraced one's. *)

type mfi_compose = [ `None | `Composed ]

type acf =
  | Baseline  (** ACF-free run. *)
  | Mfi_dise of Dise_acf.Mfi.variant
      (** DISE memory fault isolation (legal segments installed). *)
  | Mfi_rewrite of Dise_acf.Rewrite.variant
      (** Binary-rewriting (software) fault isolation. *)
  | Decompress of {
      scheme : Dise_acf.Compress.scheme;
      mfi : mfi_compose;
          (** [`Composed] nests DISE fault isolation over the
              decompression productions (Figure 8's DISE+DISE). *)
      rewritten : bool;
          (** compress the software-fault-isolated binary (the
              rewriting+X combos). *)
    }
  | Synth of {
      scheme : Dise_acf.Compress.scheme;
      seeds : Dise_acf.Compress.seed list;
          (** candidate dictionary as seed windows, applied in order
              ({!Dise_acf.Compress.compress_seeded}); the list is part
              of the canonical form, so every candidate the synthesis
              search scores gets its own cache key (encoded as
              [[blk, start, len]] triples — see doc/synthesize.md). *)
    }

(** Transparent ACFs that log each store's address ({!Dise_acf.Tracing},
    [$dr5 = 0x06000000]) or conditional branch's PC
    ({!Dise_acf.Profiling}, [$dr6 = 0x06800000]). *)
type observer = Trace | Profile

type t = {
  bench : string;
      (** Workload reference: a {!Dise_workload.Profile} name.
          Together with [dyn_target] it deterministically defines the
          generated program. *)
  dyn_target : int;
  machine : Dise_uarch.Config.t;
  controller : Dise_core.Controller.config option;
      (** [None]: DISE is free (no PT/RT modelling). *)
  acf : acf;
  observe : observer list;
      (** Joins the ACF's productions: any over [Baseline], [Profile]
          over [Mfi_dise], none otherwise ([Invalid_argument]). Order and
          repeats do not matter; omitted from the canonical form when
          empty. *)
  jit : bool;
      (** Run the functional machine through the superblock JIT (see
          doc/jit.md). Purely a performance knob — statistics are
          identical either way — but part of the canonical form, so
          JIT-on and JIT-off results cache under distinct keys. *)
  jit_threshold : int;
      (** Dispatches of a PC before its trace is compiled (>= 1). *)
}

val v :
  ?dyn_target:int ->
  ?machine:Dise_uarch.Config.t ->
  ?controller:Dise_core.Controller.config ->
  ?acf:acf ->
  ?observe:observer list ->
  ?jit:bool ->
  ?jit_threshold:int ->
  string ->
  t
(** [v bench] with the paper's defaults: 300K dynamic instructions,
    default machine, free DISE, [Baseline] unobserved, and the
    process-wide JIT default ({!set_default_jit}) for [jit]/[jit_threshold]. *)

val set_default_jit : enabled:bool -> threshold:int -> unit
(** Process-wide default applied by {!v} and by {!of_json} when the
    incoming request has no ["jit"] member — how [--no-jit] and
    [--jit-threshold] act on whole CLI invocations (including serve
    sessions) without overriding requests that spell the knob out.
    Initially enabled with {!Dise_machine.Machine.default_jit_threshold}.
    [threshold] is clamped to >= 1. *)

(** {1 Canonical encoding} *)

val to_json : t -> Dise_telemetry.Json.t
(** Canonical encoding: fixed member order, schemes spelled out in
    full (so custom schemes serialize too), variants as strings. See
    doc/service.md for the schema. *)

val of_json : Dise_telemetry.Json.t -> (t, Dise_isa.Diag.t) result
(** Member order free; unknown members ignored (the serve protocol
    adds ["id"]); [bench] must name a known profile; a missing
    ["jit"] member takes the {!set_default_jit} default. Integers
    must lie in their documented ranges — a scheme's as in
    {!Dise_acf.Compress.scheme}, [max_len >= min_len]; a controller's
    [pt_entries >= 1], penalties [>= 0] and, unless [rt_perfect], an
    RT geometry {!Dise_core.Rt.check_geometry} accepts (reported as
    [controller.rt_entries]); a machine's as in
    {!Dise_uarch.Config.of_json} — and a value outside one is a
    [Diag.Parse] naming the field. Errors are
    [Diag.Parse]/[Diag.Invalid] (exit-code class "parse"). *)

val check_dyn_target : int -> (unit, string) result
(** The decoder's range check on [dyn_target] (at least 1), for front
    ends that take the value from elsewhere to prefix with their own
    option name. *)

val canonical : t -> string
(** The compact printing of {!to_json} — the string whose salted hash
    is the disk-cache key. Stable across processes; changing it is a
    cache-format change and must bump {!Cache.version}. *)

val key : t -> string
(** [Cache.key (canonical t)]. *)

val functional_key : t -> string
(** What the post-DISE stream depends on: the canonical form without
    the timing-only [machine] and [controller], and with the scheme's
    name blanked. Requests with one functional key share one stream
    tape; the serve tier routes by it ({!Coordinator}), so every
    machine and controller variant of a stream meets one worker, and
    so do identical requests. *)

(** {1 Running} *)

val run :
  ?entry:Dise_workload.Suite.entry ->
  ?trace:Dise_telemetry.Trace.t ->
  ?profile:Dise_telemetry.Profile.t ->
  t ->
  Dise_uarch.Stats.t
(** Execute the request (through the caches, unless a sink is
    attached — see above). [?entry] supplies an already-generated
    workload, which must be [Suite.get ~dyn_target (find bench)]
    (the harness passes the entry it already holds; omitting it
    derives — and on a cache hit skips even generating — the
    workload); an entry whose profile name or [dyn_target] differs
    from the request's raises [Invalid_argument] naming both. Raises
    like the simulator does ([Failure] on a trapped workload,
    [Invalid_argument] on an unknown benchmark, ...); {!run_ext} is
    the exception-free variant. *)

val run_ext :
  ?entry:Dise_workload.Suite.entry ->
  ?deadline:float ->
  t ->
  (Dise_uarch.Stats.t * bool, Dise_isa.Diag.t) result
(** Like {!run} (sink-free), returning [stats, cache_hit]. The flag
    is true when the result was served without running the simulator
    (in-memory memo or disk). Failures map onto {!Dise_isa.Diag}:
    unknown benchmark or mismatched [?entry] → [Invalid], trapped workload / machine fault →
    [Runtime], engine fault → [Expansion], deadline overrun →
    [Timeout]. A disk-cache store that still fails after bounded
    retries is {e not} an error: the result is returned uncached, the
    drop is counted in the [store_drops] metrics counter, and the
    first drop in a process prints one warning on stderr naming the
    cache directory. Reads never fail either — a sick cache reads as
    misses — so jobs answer ok while the cache is sick.

    [deadline] is an {e absolute} [Unix.gettimeofday] instant. An
    already-expired deadline fails fast; otherwise the simulator
    polls it every few thousand events and aborts with [Timeout]
    (cooperative — see {!Dise_uarch.Pipeline.run}). Cache hits beat
    the deadline by construction.

    Only {e expected} failures become [Error]: an exception outside
    the simulation stack's documented set (a bug, an injected chaos
    fault, [Out_of_memory]) escapes, to be confined per-slot by
    {!Pool.run_outcomes} and reported as kind [internal] by the
    server. *)

val relative :
  Dise_uarch.Stats.t -> baseline:Dise_uarch.Stats.t -> float
(** Execution-time ratio (cycles / baseline cycles). *)

(** {1 Compression measurements} *)

val compress_result :
  scheme:Dise_acf.Compress.scheme ->
  ?rewritten:bool ->
  Dise_workload.Suite.entry ->
  Dise_acf.Compress.result
(** Compress the workload's program (optionally after the rewriting
    MFI transformation, Figure 8's software combos). Memoized in
    memory per (bench, dyn_target, rewritten, scheme fields): the
    greedy compressor is by far the most expensive step and several
    panels reuse the same compressed binaries. The scheme's [name] is
    not part of the key, so schemes equal in every other field share
    one result, whose [scheme] is the first caller's. Full results
    (images, production sets) are not persisted to disk — see
    {!compress_summary} for what is. *)

type compress_summary = {
  orig_text_bytes : int;
  text_bytes : int;
  dict_bytes : int;
  dict_entries : int;
  codewords : int;
}
(** The size measurements behind the Figure 7 ratio panel — the
    disk-cacheable projection of a {!Dise_acf.Compress.result}. *)

val compress_summary :
  scheme:Dise_acf.Compress.scheme ->
  ?rewritten:bool ->
  Dise_workload.Suite.entry ->
  compress_summary
(** Like {!compress_result} but returning (and disk-caching, under a
    [{"compress": ...}] canonical form) only the sizes, so a warm
    rerun of the static-compression panel never runs the compressor. *)

val summary_compression_ratio : compress_summary -> float
(** [text_bytes / orig_text_bytes], exactly as
    {!Dise_acf.Compress.compression_ratio}. *)

val summary_total_ratio : compress_summary -> float

(** {1 Cache wiring} *)

val set_disk_cache : Cache.t option -> unit
(** Install (or remove, [None] — the initial state) the process-wide
    disk cache consulted by {!run}/{!compress_summary}. Set it before
    spawning worker domains. *)

val disk_cache : unit -> Cache.t option

val cache_counters : unit -> int * int
(** This domain's cumulative disk-cache [(hits, misses)]. Counters
    are domain-local, so a figure cell's delta (snapshot before/after
    on the worker that ran it) is race-free; the harness records the
    deltas in run manifests. Zero when no disk cache is installed. *)

val tape_counters : unit -> int * int * int
(** This domain's cumulative tape counts [(records, replays,
    abandoned)]: tapes recorded and stored, results computed by
    replaying a tape, and recordings not stored (past
    {!Dise_machine.Tape.max_length}, or a field the tape cannot hold).
    Domain-local like {!cache_counters}; the harness records per-cell
    deltas in run manifests. The process-wide totals are the
    [tape_records], [tape_replays] and [tape_abandoned]
    {!Dise_telemetry.Metrics} counters; a fourth,
    [tape_evicted_unreplayed], counts stored tapes evicted before
    their first replay. *)

val tapes_held : unit -> int
(** Tapes the table holds now. *)

val tapes_footprint : unit -> int
(** The instructions of storage ({!Dise_machine.Tape.footprint}) the
    held tapes take; at most {!Dise_machine.Tape.max_length} whenever
    more than four are held. *)

val clear_memory : unit -> unit
(** Drop the in-memory memo tables (baseline stats, compression
    results, rewritten images), the stream tapes and the set of
    streams requested so far. Mutex-protected and
    safe to call concurrently with worker domains; clearing mid-figure
    only costs recomputation, never correctness. *)

val clear_disk : unit -> int
(** Wipe the installed disk cache (0 when none is installed). Call it
    after {!clear_memory} so a stale cache cannot survive a code
    change that forgot to bump {!Cache.version}. *)
