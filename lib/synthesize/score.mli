(** Candidate scoring: turn a seed list into measurements and a
    scalar fitness.

    Every candidate is measured twice. The {e static} half
    ({!Dise_acf.Compress.compress_seeded}) yields the total
    compression ratio and — via {!Dise_core.Prodset.footprint} against
    the controller's PT/RT geometry — the hard capacity verdict; it
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
  fresh : bool;  (** measured by a simulator run this call (not from
                     the request disk cache or the journal) *)
}

val fitness :
  rel_budget:float -> slow_penalty:float -> ratio:float -> rel:float -> float
(** [(1 - ratio) - slow_penalty * max 0 (rel - rel_budget)]: the
    fraction of the binary eliminated, minus a linear penalty once
    decompression overhead exceeds the slowdown budget. *)

type t

val create :
  jobs:int ->
  base:Dise_service.Request.t ->
  entry:Dise_workload.Suite.entry ->
  scheme:Dise_acf.Compress.scheme ->
  corpus:Dise_acf.Compress.corpus ->
  controller:Dise_core.Controller.config ->
  baseline_cycles:int ->
  rel_budget:float ->
  slow_penalty:float ->
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

val seeds_key : Dise_acf.Compress.seed list -> string
(** Canonical journal/memo key: the compact JSON of the seed list as
    [[blk, start, len]] triples. *)
