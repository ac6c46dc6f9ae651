(** Replacement sequence specifications and their instantiation.

    A replacement instruction is {!Dise_isa.Insn.form}, the one
    declaration of the instruction forms, with directive operands, or
    [Trigger]. Each field carries a {e directive}:
    it is either a literal (including DISE dedicated registers) or is
    instantiated from the trigger — its register fields ([T.RS],
    [T.RT], [T.RD]), its immediate ([T.IMM]), its PC ([T.PC]), or, for
    aware ACFs, the codeword parameter fields ([T.P1]..[T.P3]).
    [Trigger] stands for [T.INSN], the fetched instruction itself.

    Codeword immediate parameters are 5-bit signed values; a branch
    offset may combine two adjacent parameter fields into a 10-bit
    signed value ([Iparam2]), scaled by 4 bytes — this is the mechanism
    that lets the compressor parameterize PC-relative branch offsets
    and share one dictionary entry between static branches whose
    offsets diverge after compression. *)

type rreg =
  | Rlit of Dise_isa.Reg.t  (** literal; dedicated registers live here *)
  | Rrs | Rrt | Rrd         (** copied from the trigger *)
  | Rparam of int           (** codeword parameter [1..3] as a register number *)

type rimm =
  | Ilit of int
  | Iimm          (** the trigger's immediate field *)
  | Ipc           (** the trigger's PC *)
  | Iparam of int (** codeword parameter [1..3], 5-bit signed *)
  | Iparam2 of int(** parameters [i] (high) and [i+1] (low), 10-bit signed *)

type rtarget =
  | Tabs of int         (** absolute address (e.g. an error handler) *)
  | Tlab of string      (** unresolved; see {!resolve_labels} *)
  | Trel_param of int   (** trigger PC + 4 * signed5(param i) *)
  | Trel_param2 of int  (** trigger PC + 4 * signed10(params i,i+1) *)

type rinsn =
  | Trigger  (** [T.INSN] *)
  | Insn of (rreg, rimm, rtarget, Dise_isa.Insn.never) Dise_isa.Insn.form
      (** an instruction form with directive operands; no codeword *)

type t = rinsn array

exception Instantiation_error of string

val signed5 : int -> int
(** Reinterpret a 5-bit field as signed ([16..31] map to [-16..-1]). *)

val to_field5 : int -> int
(** Inverse of {!signed5}; raises {!Instantiation_error} if the value
    does not fit. *)

val signed10 : int -> int -> int
val to_fields10 : int -> int * int

val instantiate : t -> trigger:Dise_isa.Insn.t -> pc:int -> Dise_isa.Insn.t array
(** Execute the instantiation directives: combine the specification
    with the trigger's fields to produce the concrete replacement
    sequence. Raises {!Instantiation_error} when a directive refers to
    a field the trigger lacks (e.g. [T.P1] on a non-codeword). *)

val resolve_labels : (string -> int option) -> t -> t
(** Resolve [Tlab] targets against a symbol lookup (typically
    {!Dise_isa.Program.Image.symbol}). Raises {!Instantiation_error}
    on unknown labels. *)

val dedicated_used : t -> int list
(** Dedicated register numbers mentioned anywhere in the sequence. *)

val rename_dedicated : (int -> int) -> t -> t
(** Renumber every dedicated register the sequence names. *)

val is_static : t -> bool
(** True when no directive depends on the trigger, i.e. the sequence
    instantiates identically for every trigger. *)

val of_insns : Dise_isa.Insn.t list -> t
(** Lift concrete instructions into an all-literal specification.
    Raises [Invalid_argument] on codewords (recursive expansion is
    forbidden). *)

val identity : t
(** The identity expansion [T.INSN] used for negative patterns. *)

val length : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_rinsn : Format.formatter -> rinsn -> unit
