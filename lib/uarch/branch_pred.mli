(** Branch prediction: gshare direction predictor, a tagged BTB for
    indirect targets, and a return address stack.

    The pipeline hands every {e application-level} control transfer to
    {!on_branch} and learns whether fetch would have been redirected
    (a misprediction). Direct jumps and calls always predict correctly
    (their targets are available at decode); conditional branches can
    mispredict direction; indirect jumps mispredict when the BTB/RAS
    target is wrong. Replacement-sequence branches that are not the
    trigger are {e not} predicted (the paper suppresses their
    prediction); the pipeline handles those itself as
    predicted-not-taken. *)

type t

type kind =
  | Cond       (** conditional branch *)
  | Direct     (** jmp/jal: target known at decode *)
  | Indirect   (** jr to a non-return target, jalr *)
  | Return     (** jr ra *)

val create : unit -> t
(** 12 history bits (4K-entry PHT), a 2K-entry BTB and a 16-entry RAS.
    Each size is a power of two, so every table index is a mask; a
    call that finds the RAS full drops its oldest entry. *)

val perfect : unit -> t
(** Oracle predictor: never mispredicts. *)

val on_branch :
  t ->
  pc:int ->
  kind:kind ->
  taken:bool ->
  target:int ->
  fallthrough:int ->
  [ `Correct | `Mispredict ]
(** Predict, compare against the actual outcome, and train. For calls
    ([Direct]/[Indirect] with a link — the caller signals by using
    {!on_call} instead) use {!on_call}. *)

val on_call : t -> pc:int -> target:int -> fallthrough:int -> indirect:bool ->
  [ `Correct | `Mispredict ]
(** A call: pushes the return address on the RAS; indirect calls also
    consult/train the BTB for their target. *)
