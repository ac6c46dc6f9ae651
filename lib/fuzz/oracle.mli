(** The differential oracle: run one case several ways and cross-check.

    One {!check} performs, in order:

    + {b encode roundtrip} (images of 4-byte instructions only): the
      laid-out program must survive
      {!Dise_isa.Encode.encode_image_result} and decode back to
      {!Dise_isa.Insn.equal} instructions — nothing silently wraps;
    + {b lockstep}: four sides execute the same image — machines with
      the reference {!Naive} expander, the memoizing
      {!Dise_core.Engine} and the engine under the superblock JIT,
      plus the {!Ref_machine} reference interpreter over {!Naive} —
      every event is compared as it retires, architectural register
      checksums are compared periodically, and exit codes plus a full
      memory checksum are compared at halt;
    + {b transparency}: {!Dise_harness.Diffexec} kept-stream
      equivalence between the expander-free reference image and the
      expanded run (the paper's semantic-transparency claim);
    + {b stats invariants}: a {!Dise_uarch.Pipeline} run over the
      expanded machine must retire exactly the dynamic instructions
      the functional machine executed, and its CPI stack must sum to
      its cycle count.

    The optional {e mutation} deliberately corrupts the engine-side
    expander (self-test mode): a correct fuzzer must detect it. *)

type mutation =
  | Nop_trigger_every of int
      (** every [k]-th expansion returned by the engine side has its
          final instruction (the trigger slot) replaced by [nop] — a
          classic lost-trigger bug: the ACF payload runs but the
          application instruction does not *)

val mutation_to_json : mutation -> Dise_telemetry.Json.t
val mutation_of_json :
  Dise_telemetry.Json.t -> (mutation, Dise_isa.Diag.t) result

type failure = {
  check : string;  (** ["encode"], ["lockstep"], ["state"], ["exit"],
                       ["transparency"], ["stats"], or ["crash"] *)
  detail : string;
}

type verdict =
  | Pass of { steps : int; expansions : int }
  | Fail of failure

val check : ?mutation:mutation -> Case.t -> verdict
(** Deterministic: equal inputs produce equal verdicts. Never raises —
    an unexpected exception from any side is itself a ["crash"]
    failure. *)

val pp_verdict : Format.formatter -> verdict -> unit
