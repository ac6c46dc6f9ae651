(** Productions: pattern → replacement-sequence binding.

    Transparent productions carry the replacement sequence identifier
    directly ([Direct]); aware productions extract it from the
    trigger's explicit tag field ([From_tag]), letting a single
    reserved-opcode pattern name up to 2048 distinct replacement
    sequences.

    [priority] layers production sets: composition installs composite
    productions above the originals, and among equal priorities the
    most specific pattern wins. *)

type rsid_spec =
  | Direct of int
  | From_tag

type t = {
  name : string;
  pattern : Pattern.t;
  rsid : rsid_spec;
  priority : int;
}

val make : ?name:string -> ?priority:int -> Pattern.t -> rsid_spec -> t

val rsid_of : t -> Dise_isa.Insn.t -> int
(** Resolve the replacement sequence identifier for a concrete
    trigger. Raises [Invalid_argument] if [From_tag] is applied to a
    non-codeword. *)

val compare_precedence : t -> t -> int
(** Orders candidate productions for matching: higher priority first,
    then higher specificity, then name (for determinism). *)

val pp : Format.formatter -> t -> unit
(** The production-language line {!Lang.parse} reads:
    [name: conditions -> R<n>] (or [-> TAG]), with a [priority <n>]
    suffix when the priority is not 0. An unnamed production prints as
    [P]. *)
