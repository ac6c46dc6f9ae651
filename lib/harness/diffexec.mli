(** Differential execution: lockstep comparison of two machines.

    The validation primitive for ACF and binary-transformation
    development — run the original and the transformed program side by
    side and report the first semantic divergence, instead of a bare
    end-state mismatch.

    The comparison is over each machine's {e kept} instruction stream
    (a filter drops ACF-inserted instructions, e.g. everything but the
    trigger of a fault-isolation expansion), with control-transfer
    targets normalized away (layouts differ between images), plus final
    exit codes and a data-segment digest that excludes the stack
    (return addresses are code pointers and legitimately differ across
    layouts). *)

type side = {
  image : Dise_isa.Program.Image.t;
  expander : Dise_machine.Machine.expander option;
  init : Dise_machine.Machine.t -> unit;  (** dedicated registers etc. *)
}

val side :
  ?expander:Dise_machine.Machine.expander ->
  ?init:(Dise_machine.Machine.t -> unit) ->
  Dise_isa.Program.Image.t ->
  side

type divergence = {
  position : int;       (** index in the kept stream *)
  reason : string;
  left : string option;  (** rendering of the offending instruction *)
  right : string option;
}

type outcome =
  | Equivalent of { left_steps : int; right_steps : int }
  | Diverged of divergence

val app_semantics : Dise_machine.Machine.Raw.t -> bool
(** The default filter: keep application instructions and expansion
    triggers (the last element of a replacement sequence), dropping
    inserted ACF instructions. Under this filter a correct transparent
    ACF or a correct decompressor is stream-equivalent to the original
    program. *)

val run :
  ?max_steps:int ->
  ?keep:(Dise_machine.Machine.Raw.t -> bool) ->
  ?data_lo:int ->
  ?data_hi:int ->
  left:side ->
  right:side ->
  unit ->
  outcome
(** Compare. Defaults: [keep] = {!app_semantics}, data digest over
    [0x04000000, 0x07F00000). *)

val pp_outcome : Format.formatter -> outcome -> unit
