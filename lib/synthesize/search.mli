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
    batch ({!Score}, through an in-run memo keyed by the seed list, so
    a repeated proposal is scored once), and accepts the best proposal
    iff it improves fitness. The climb stops when the evaluation budget
    is spent or 4 consecutive iterations fail to improve.

    {b Determinism.} Given the same configuration the search is a
    pure function of [rng_seed]: proposals come from one
    [Random.State], candidate order is fixed by the miner, batch
    results arrive in submission order, and nothing downstream of a
    measurement depends on where the measurement came from (a fresh
    simulation or the result cache). Two runs with the same seed
    therefore write byte-identical dictionaries.

    {b Resume.} The result cache is the search's only persistent memo:
    every fit candidate runs as a [Synth] request cached under a key
    that names the bench, dynamic length, scheme, controller and JIT
    settings as well as the seed list. A rerun over the same cache
    replays the same proposal stream, and every candidate timing run
    it reaches is a cache hit; only the static half (one compression
    per proposal) and the fetch profile are recomputed. With no disk
    cache nothing persists. *)

type config = {
  bench : string;
  dyn_target : int;
  scheme : Dise_acf.Compress.scheme;
  rng_seed : int;
  budget : int;  (** maximum candidate evaluations *)
  jobs : int;  (** worker domains scoring each batch *)
  progress : string -> unit;
}
(** Constants, not configuration: 8 proposals per iteration (never
    the worker count, so [jobs] never changes the result), a cap of
    1024 seeds (it binds: a gzip search at 120K dynamic instructions
    sits at the cap from its warm start on), and a stop after 4
    improvement-free iterations. *)

val v :
  ?dyn_target:int ->
  ?scheme:Dise_acf.Compress.scheme ->
  ?rng_seed:int ->
  ?budget:int ->
  ?jobs:int ->
  ?progress:(string -> unit) ->
  string ->
  config
(** [v bench] with the production defaults: 300K dynamic target,
    [full_dise] scheme, seed 1, budget 192, [Pool.default_jobs ()]
    scoring domains, silent progress. *)

type result = {
  seeds : Dise_acf.Compress.seed list;  (** the winning dictionary *)
  outcome : Score.outcome;  (** its measurements and fitness *)
  compress : Dise_acf.Compress.result;  (** runnable compiled form *)
  footprint : Dise_core.Prodset.footprint;
  baseline_cycles : int;
  evaluations : int;  (** proposals scored (deterministic) *)
  simulated : int;
      (** distinct candidates whose timing run simulated rather than
          hit the result cache ({!Score.outcome.fresh}); 0 on a rerun
          over a cache that holds the first run *)
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
