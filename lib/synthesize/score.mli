(** Candidate scoring: turn a seed list into measurements and a
    scalar fitness.

    Every candidate is measured twice. The {e static} half
    ({!Dise_acf.Compress.compress_seeded}) yields the total
    compression ratio and the hard capacity verdict ({!fits}); it
    comes first. The {e timing} half runs the candidate on the timing
    model through the result-cached {!Dise_service.Request} API (acf
    [Synth]); unfit candidates are never simulated. Candidates are
    scored in parallel on this process's domain pool. Fitness rewards
    bytes saved and penalizes execution slowdown past a budget — see
    {!fitness}. *)

type outcome = {
  fits : bool;
  ratio : float;  (** (text + dict) / original text *)
  rel : float;  (** cycles / baseline cycles; [nan] when unfit *)
  fitness : float;  (** [neg_infinity] when unfit *)
  fresh : bool;
      (** the timing run simulated in this call: false when it came
          from the result cache, and for an unfit candidate, which is
          never simulated *)
}

val controller : Dise_core.Controller.config
(** The paper's default controller
    ({!Dise_core.Controller.default_config}): both the capacity
    constraint and the decompression-overhead model the timing runs
    use. *)

val fitness : ratio:float -> rel:float -> float
(** [(1 - ratio) - 4 * max 0 (rel - 1.05)]: the fraction of the binary
    eliminated, minus a linear penalty (slope 4) once decompression
    overhead exceeds a 5% slowdown budget. *)

val fits : Dise_acf.Compress.result -> bool
(** Whole-set residency of the result's production set in
    {!controller}'s PT and RT ({!Dise_core.Prodset.fits}). *)

type t

val create :
  jobs:int ->
  base:Dise_service.Request.t ->
  entry:Dise_workload.Suite.entry ->
  scheme:Dise_acf.Compress.scheme ->
  corpus:Dise_acf.Compress.corpus ->
  baseline_cycles:int ->
  t
(** [jobs] is the pool width of {!score_batch}. [base] is the request
    template (bench, dyn_target, machine, controller, jit knobs);
    scoring swaps in the candidate's [Synth] acf, so each candidate
    caches under its own key. [corpus] must be built from [entry]'s
    program with [scheme]. *)

val score_batch : t -> Dise_acf.Compress.seed list array -> outcome array
(** Score candidates in parallel on the pool (results in submission
    order). Raises [Failure] on a candidate whose compressed image
    faults — a bug, not a bad candidate. *)

val seeds_json : Dise_acf.Compress.seed list -> Dise_telemetry.Json.t
(** The seed list as [[blk, start, len]] triples. *)

val seeds_key : Dise_acf.Compress.seed list -> string
(** Canonical in-run memo key: the compact {!seeds_json}. *)
