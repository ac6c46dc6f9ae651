(** A production set: the active productions plus the replacement
    sequence store they reference.

    This is the software-visible unit the OS kernel virtualizes —
    what gets composed, swapped on context switch, and demand-loaded
    into the PT/RT. Lookup implements the engine's matching rule:
    among all matching productions, the highest-precedence
    (priority, then specificity) wins. *)

type t

val empty : t

val add_production : t -> Production.t -> t

val remove_production : t -> string -> t
(** Drop all productions with the given name (sequences stay bound; an
    ACF can be reactivated by re-adding its productions). The paper's
    assertions story depends on this being cheap: inactive assertions
    have no runtime cost once their productions are removed. *)

val define_sequence : t -> int -> Replacement.t -> t
(** Bind a replacement sequence id. Rebinding an id replaces it. *)

val add : t -> Production.t -> Replacement.t -> t
(** Convenience: define the production's [Direct] sequence and add the
    production. Raises [Invalid_argument] for [From_tag] productions
    (their sequences must be defined per tag). *)

val union : t -> t -> t
(** Left-biased on sequence-id collisions; raises [Invalid_argument]
    if both sides bind the same id to different sequences. *)

val productions : t -> Production.t list
val sequence : t -> int -> Replacement.t option
val sequences : t -> (int * Replacement.t) list
val num_productions : t -> int
val num_sequences : t -> int

val max_rsid : t -> int
(** Largest bound sequence id, or -1 when none. *)

val lookup : t -> Dise_isa.Insn.t -> (Production.t * int) option
(** Match an instruction: winning production and resolved replacement
    sequence id. *)

val patterns_for_key : t -> int -> Production.t list
(** Productions whose pattern can match the given opcode dispatch key,
    in precedence order; this is what a PT fill for that opcode
    loads. *)

val resolve_labels : (string -> int option) -> t -> t
(** Resolve symbolic targets in every replacement sequence. *)

val rename_dedicated : (int -> int) -> t -> t

(** {1 Capacity accounting}

    What a production set costs in PT/RT space, in the units the
    controller's structures are sized in: one PT entry per production
    (each production is one resident pattern), and one RT block per
    [ceil(len / entries_per_block)] chunk of each bound replacement
    sequence (Section 2.2's coalescing). [disesim synthesize] uses
    this to reject candidate dictionaries that could never be resident
    — a set that overflows the PT or RT thrashes on every context of
    use, so capacity is a hard search constraint, not a preference. *)

type footprint = {
  pt_patterns : int;  (** PT entries the set needs resident *)
  rt_blocks : int;    (** RT blocks over all bound sequences *)
  rt_entries : int;   (** [rt_blocks * entries_per_block] *)
}

val footprint : ?entries_per_block:int -> t -> footprint
(** Default [entries_per_block] is 1 (one RT entry per replacement
    instruction), matching {!Controller.default_config}. *)

val fits : ?entries_per_block:int -> pt_entries:int -> rt_entries:int -> t -> bool
(** Whole-set residency: every pattern fits the PT and every sequence
    block fits the RT at once. *)
