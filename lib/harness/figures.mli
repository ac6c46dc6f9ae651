(** Reproduction drivers for every evaluation panel (Figures 6, 7, 8).

    Each driver runs the required configurations over the workload
    suite and returns a {!figure}: one labelled series per bar/line of
    the paper's panel, one value per benchmark. Values are normalized
    execution times or size ratios exactly as in the paper (noted per
    driver). Every cell is one {!Dise_service.Request.t} run through
    {!Dise_service.Request.run}, so cells share its memos and result
    cache. *)

type series = {
  label : string;
  values : (string * float) list;  (** benchmark name -> value *)
}

type figure = {
  id : string;
  title : string;
  ylabel : string;
  series : series list;
  stacks : (string * string * Dise_uarch.Stats.t) list;
      (** (series label, benchmark, stats of the measured run) for
          every timing cell, in series order; empty for ratio-only
          panels. Feeds the CPI-stack columns of {!Report}. *)
}

type opts = {
  dyn_target : int;        (** dynamic length per run (default 300K) *)
  benchmarks : string list; (** subset of {!Dise_workload.Profile.names} *)
  progress : string -> unit;
      (** progress callback; with [jobs > 1] it may be invoked from a
          worker domain (calls are serialized by a mutex) *)
  jobs : int;
      (** worker domains used to evaluate the (series × benchmark)
          cells of a figure; 1 = serial. Whatever the value, figures
          are reassembled in submission order and are bit-identical to
          a serial run. *)
  manifest : Dise_telemetry.Manifest.t option;
      (** when set, one JSONL record is emitted per evaluated cell
          (figure, series, benchmark, worker domain, wall-clock);
          emission is mutex-serialized and safe with [jobs > 1] *)
}

val default_opts : opts
val quick_opts : opts
(** Four representative benchmarks at 120K dynamic instructions. *)

type dseries
(** A deferred series: one independent closure per benchmark cell,
    evaluated through {!Dise_service.Pool} when the enclosing figure
    is built. Shared with {!Ablate} so every panel parallelizes the
    same way. *)

val series :
  opts -> string -> (Dise_workload.Suite.entry -> float) -> dseries
(** [series opts label f] defers [f] over [opts.benchmarks]. *)

val series_stats :
  opts ->
  string ->
  (Dise_workload.Suite.entry -> float * Dise_uarch.Stats.t) ->
  dseries
(** Like {!series}, but the cell also yields the statistics of the run
    behind the figure value, surfaced through {!figure}'s [stacks]. *)

val rel :
  ?machine:Dise_uarch.Config.t -> ?controller:Dise_core.Controller.config ->
  ?observe:Dise_service.Request.observer list -> ?norm:Dise_uarch.Config.t ->
  opts -> Dise_service.Request.acf -> Dise_workload.Suite.entry ->
  float * Dise_uarch.Stats.t
(** A timing cell: [acf]'s request relative to the [Baseline] request
    on [norm] (default: the paper's machine), and its statistics. *)

val figure :
  opts ->
  id:string ->
  title:string ->
  ylabel:string ->
  dseries list ->
  figure
(** Evaluate every cell of the deferred series on the pool
    ([opts.jobs] workers) and assemble the figure in submission
    order. *)

val fig6_top : opts -> figure
(** MFI execution time normalized to the MFI-free run: rewriting,
    DISE4/#stall/+pipe/DISE3. *)

val fig6_cache : opts -> figure
(** DISE3 vs rewriting across I-cache sizes (8K/32K/128K/perfect),
    each normalized to the MFI-free run at the same cache size. *)

val fig6_width : opts -> figure
(** DISE3 vs rewriting across widths (2/4/8), 32KB I-cache, normalized
    per width. *)

val fig7_ratio : opts -> figure
(** Static compression: text and text+dictionary ratios for the six
    schemes (dedicated / −1insn / −2byteCW / +8byteDE / +3param /
    DISE), normalized to uncompressed text size. *)

val fig7_perf : opts -> figure
(** DISE decompression execution time across I-cache sizes with a
    perfect RT, normalized to the uncompressed 32KB run. *)

val fig7_rt : opts -> figure
(** Decompression under realistic RTs (512/2K × direct-mapped/2-way,
    30-cycle miss) vs perfect, normalized to the uncompressed 32KB
    run. *)

val fig8_combo : opts -> figure
(** Composed fault isolation + decompression across I-cache sizes:
    rewriting+dedicated, rewriting+DISE, DISE+DISE (perfect RT),
    normalized to the unmodified 32KB run. *)

val fig8_rt : opts -> figure
(** DISE+DISE composition under realistic RTs with 30- vs 150-cycle
    (composing) miss handlers, 32KB I-cache, normalized to the
    unmodified 32KB run. *)

val synth_dict : opts -> figure
(** Auto-synthesized vs hand-built dictionaries (doc/synthesize.md):
    per benchmark, one deterministic profile-guided search
    ([Dise_synthesize.Search], budget 96, seed 1) against the greedy
    compressor, both under the paper's default PT/RT controller.
    Series: total size ratio and relative execution time for each
    dictionary, plus the savings quotient — the fraction of the
    hand-built dictionary's size savings the search recovers (the
    harness benchmark's acceptance line is >= 0.8). Not part of
    {!all}: a search per cell dwarfs any paper panel, so the panel is
    opt-in by id. *)

val all : (string * (opts -> figure)) list
(** Panel id -> driver, in paper order. {!synth_dict} is deliberately
    excluded (see above). *)

val by_id : string -> (opts -> figure) option
(** Resolves everything in {!all} plus the opt-in panels
    ([synth-dict]). *)
