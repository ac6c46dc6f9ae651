(** Pattern specifications.

    A pattern matches fetched instructions on any combination of
    opcode, opcode class, logical register names, and immediate
    attributes — exactly the menu of Section 2.1 of the paper
    ("loads that use the stack pointer as their address register",
    "conditional branches with negative offsets", ...).

    When several active patterns match one instruction, the engine
    picks the {e most specific} — the one constraining the most
    instruction bits ({!specificity}) — enabling overlapping and
    negative specifications such as "all loads that don't use the
    stack pointer" (a specific identity production shadowing a general
    one). *)

type imm_pred =
  | Imm_eq of int
  | Imm_neg
  | Imm_nonneg

type t = {
  opcode_key : int option;  (** exact opcode ({!Dise_isa.Insn.key}) *)
  opclass : Dise_isa.Opcode.cls option;
  rs : Dise_isa.Reg.t option;
  rt : Dise_isa.Reg.t option;
  rd : Dise_isa.Reg.t option;
  imm : imm_pred option;
}

val any : t
(** Matches every instruction (specificity 0). *)

val of_class : Dise_isa.Opcode.cls -> t
val of_opcode : Dise_isa.Insn.t -> t
(** Pattern matching exactly the opcode of the given example
    instruction (operands ignored). *)

val loads : t
val stores : t
val cond_branches : t
val indirect_jumps : t

val codewords : int -> t
(** Pattern matching DISE codewords built on reserved opcode [n]. *)

val with_rs : Dise_isa.Reg.t -> t -> t
val with_imm : imm_pred -> t -> t

val matches : t -> Dise_isa.Insn.t -> bool

val imm_matches : imm_pred -> int -> bool

val specificity : t -> int
(** Number of instruction bits the pattern constrains: opcode 6,
    opclass 4, each register name 5, immediate equality 16, immediate
    sign 1. *)

val dispatch_keys : t -> int list
(** The opcode dispatch keys this pattern can possibly match; used to
    build the per-opcode dispatch table. *)

val subsumes_key : t -> int -> bool
(** [subsumes_key p k] is true when instructions with dispatch key [k]
    can match [p] as far as the opcode/class constraint goes. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
