(** The synthesis search: profile-guided hill climbing over candidate
    dictionaries (the engine behind [disesim synthesize]).

    One run: measure the baseline, collect the fetch profile, mine the
    candidate pool ({!Miner}), seed the climb with a {e warm start} —
    the longest weight-ordered candidate prefix that fits the PT/RT
    (found by binary search over static compressions; hill climbing
    alone grows a dictionary far too slowly to reach the hundreds of
    entries capacity allows) — then climb: each iteration proposes a
    batch of single-move mutations of the current dictionary (add a
    heat-weighted unused window / drop a seed / swap), scores the
    batch ({!Score}, through the journal memo first), and accepts the
    best proposal iff it improves fitness. The climb stops when the
    evaluation budget is spent or [patience] consecutive iterations
    fail to improve.

    {b Determinism.} Given the same configuration the search is a
    pure function of [rng_seed]: proposals come from one
    [Random.State], candidate order is fixed by the miner, batch
    results arrive in submission order, and nothing downstream of a
    measurement depends on where the measurement came from (fresh
    run, request disk cache, or journal). Two runs with the same seed
    therefore write byte-identical dictionaries — and a resumed run
    replays through its journal to the same place. *)

type config = {
  bench : string;
  dyn_target : int;
  scheme : Dise_acf.Compress.scheme;
  controller : Dise_core.Controller.config;
      (** PT/RT geometry: both the hard capacity constraint and the
          decompression-overhead model the timing runs use *)
  rng_seed : int;
  budget : int;  (** maximum candidate evaluations *)
  batch : int;  (** proposals scored per iteration *)
  max_seeds : int;  (** dictionary size cap (search tractability) *)
  patience : int;  (** improvement-free iterations before stopping *)
  rel_budget : float;  (** tolerated execution-time ratio *)
  slow_penalty : float;  (** fitness slope past the budget *)
  jobs : int;  (** worker domains scoring each batch *)
  journal : string option;  (** JSONL memo path ([None]: in-memory) *)
  progress : string -> unit;
}

val v :
  ?dyn_target:int ->
  ?scheme:Dise_acf.Compress.scheme ->
  ?controller:Dise_core.Controller.config ->
  ?rng_seed:int ->
  ?budget:int ->
  ?batch:int ->
  ?max_seeds:int ->
  ?patience:int ->
  ?rel_budget:float ->
  ?slow_penalty:float ->
  ?jobs:int ->
  ?journal:string ->
  ?progress:(string -> unit) ->
  string ->
  config
(** [v bench] with the production defaults: 300K dynamic target,
    [full_dise] scheme, the paper's default controller, seed 1,
    budget 192, batch 8 (a constant, never the worker count — the
    proposal stream must not depend on [--jobs]), 1024 max seeds
    (capacity, not the cap, is the effective bound), patience 4, 5%
    slowdown budget with penalty slope 4, [Pool.default_jobs ()]
    scoring domains, no journal, silent progress. *)

type result = {
  seeds : Dise_acf.Compress.seed list;  (** the winning dictionary *)
  outcome : Score.outcome;  (** its measurements and fitness *)
  compress : Dise_acf.Compress.result;  (** runnable compiled form *)
  footprint : Dise_core.Prodset.footprint;
  baseline_cycles : int;
  evaluations : int;  (** proposals scored (deterministic) *)
  inherited : int;  (** journal entries loaded at start (resume depth) *)
  candidates : int;  (** mined pool size *)
}

val run : config -> result
(** Raises [Invalid_argument] on an unknown benchmark and [Failure]
    when a measurement fails (a faulting candidate image — a bug, not
    a bad candidate). *)

val dictionary_json : config -> result -> Dise_telemetry.Json.t
(** The dictionary document: everything needed to reproduce and apply
    the result (bench, scheme, search parameters, seed list,
    measurements, PT/RT footprint). Deliberately timestamp-free so
    identical searches serialize byte-identically. *)

val write_dictionary : path:string -> config -> result -> unit
(** [dictionary_json] pretty-printed to [path] (trailing newline). *)
