(** First-class, serializable simulation runs.

    A {!t} {e names} one cell of the paper's evaluation grid —
    workload × ACF × machine (× controller) — as plain data, with a
    canonical JSON encoding. That one value is what the whole stack
    agrees on:

    - {!run} is the single driver behind every experiment (the
      [Dise_harness.Experiment] functions are one-line constructors
      over it);
    - {!canonical}/{!key} derive the content address under which the
      run's statistics persist in the on-disk {!Cache};
    - the JSONL protocol of [disesim serve] ships {!to_json} values
      over a pipe or socket (see doc/service.md for the schema).

    {b Caching.} [run] consults, in order: an in-memory memo
    (baseline runs only — many figure cells normalize against the
    same baseline), the configured disk cache ({!set_disk_cache}),
    and finally the simulator; fresh results are persisted. All three
    layers return statistics identical to a fresh simulation — every
    persisted field is an integer, so the round-trip is exact.

    {b Telemetry sinks bypass every cache.} This is the single place
    the rule lives (the deprecated [Experiment] drivers inherit it):
    sinks ([?trace]/[?profile]) consume the expansion {e event
    stream}, which cached statistics cannot replay, and closures make
    unusable hash keys — so a sink-carrying [run] simulates
    unconditionally and leaves every memo and the disk cache
    untouched. Statistics are unaffected: a traced run's counters are
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
  ?jit:bool ->
  ?jit_threshold:int ->
  string ->
  t
(** [v bench] with the paper's defaults: 300K dynamic instructions,
    default machine, free DISE, [Baseline], and the process-wide JIT
    default ({!set_default_jit}) for [jit]/[jit_threshold]. *)

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
    ["jit"] member takes the {!set_default_jit} default. Errors are
    [Diag.Parse]/[Diag.Invalid] (exit-code class "parse"). *)

val canonical : t -> string
(** The compact printing of {!to_json} — the string whose salted hash
    is the disk-cache key. Stable across processes; changing it is a
    cache-format change and must bump {!Cache.version}. *)

val key : t -> string
(** [Cache.key (canonical t)]. *)

(** {1 Running} *)

val run :
  ?entry:Dise_workload.Suite.entry ->
  ?trace:Dise_telemetry.Trace.t ->
  ?profile:Dise_telemetry.Profile.t ->
  t ->
  Dise_uarch.Stats.t
(** Execute the request (through the caches, unless a sink is
    attached — see above). [?entry] supplies an already-generated
    workload that MUST equal [Suite.get ~dyn_target (find bench)]
    (the harness passes the entry it already holds; omitting it
    derives — and on a cache hit skips even generating — the
    workload). Raises like the simulator does ([Failure] on a trapped
    workload, [Invalid_argument] on an unknown benchmark, ...);
    {!run_ext} is the exception-free variant. *)

val run_ext :
  ?entry:Dise_workload.Suite.entry ->
  ?deadline:float ->
  t ->
  (Dise_uarch.Stats.t * bool, Dise_isa.Diag.t) result
(** Like {!run} (sink-free), returning [stats, cache_hit]. The flag
    is true when the result was served without running the simulator
    (in-memory memo or disk). Failures map onto {!Dise_isa.Diag}:
    unknown benchmark → [Invalid], trapped workload / machine fault →
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

val clear_memory : unit -> unit
(** Drop the in-memory memo tables (baseline stats, compression
    results, rewritten programs). Mutex-protected and safe to call
    concurrently with worker domains; clearing mid-figure only costs
    recomputation, never correctness. *)

val clear_disk : unit -> int
(** Wipe the installed disk cache (0 when none is installed).
    [Experiment.clear_cache] calls both, so a stale cache cannot
    survive a code change that forgot to bump {!Cache.version}. *)
