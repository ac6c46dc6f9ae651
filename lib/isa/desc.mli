(** Instruction descriptors: what the machine and the timing model need
    to know about one static instruction, decoded once and packed into
    an immediate [int].

    DISE hardware decodes an instruction once, at fetch, and carries
    the decoded fields down the pipe. The simulator does the same: a
    descriptor is computed once per static instruction (per image for
    application text, {!Program.Image.raw_descs}; per expansion for
    replacement instructions, [Machine.expansion]), together with the
    instruction's immediate ({!imm_of_insn}). The machine executes
    from the pair — it dispatches on {!key}, reads and writes
    registers by slot — and copies both into its step record; the
    timing model reads only the descriptor. Neither matches the boxed
    {!Insn.t}.

    The {!Insn} functions are the specification: for every
    instruction [i], [key (of_insn i) = Insn.key i], and likewise for
    [use1], [use2] and [def1] (property "descriptor fields agree with
    Insn" in test/test_props.ml). The type is private, so every
    descriptor comes from {!of_insn}. *)

type t = private int

type exec =
  | Alu    (** ALU op other than a multiply, [lda], [lui] *)
  | Mul    (** register or immediate multiply *)
  | Load   (** [ldq], [ldbu] *)
  | Store  (** [stq], [stb] *)
  | Other  (** control transfers, DISE branches, codewords, [nop], [halt] *)

type branch =
  | No_branch      (** not an application-level control transfer *)
  | Cond           (** conditional branch *)
  | Direct         (** [jmp] *)
  | Indirect       (** [jr] to a register other than [ra] *)
  | Return         (** [jr ra] *)
  | Call           (** [jal] *)
  | Indirect_call  (** [jalr] *)

val of_insn : Insn.t -> t

val of_packed : int -> t
(** The inverse of [(d :> int)] for storage that keeps descriptors as
    plain ints (a replay tape, [Dise_machine.Tape]):
    [of_packed (d :> int) = d]. Raises [Invalid_argument] on an int
    whose fields are out of range — a key past {!Insn.num_keys}, a
    register slot past the register file, an exec or branch code no
    constructor has — so no int it accepts makes an accessor read out
    of bounds. *)

val imm_of_insn : Insn.t -> int
(** The one int that execution needs beyond the descriptor: the
    immediate of [Ropi], [lda], [lui] and memory operations (as
    written, not sign-extended), the absolute target of [Br], [jmp]
    and [jal], the DISEPC offset of [Dbr] and [djmp], and a codeword's
    [p1], [p2], [p3] and [tag] packed 5/5/5/11 bits from the low end.
    0 for everything else, and for a target that is still a label
    (see {!unresolved}). Stored beside the descriptor:
    {!Program.Image.raw_imms}, [Machine.expansion]'s [imms]. *)

val key : t -> int
(** {!Insn.key}: the operation, one of {!Insn.num_keys}. *)

val use1 : t -> int
val use2 : t -> int
val def1 : t -> int
(** {!Insn.use1}, {!Insn.use2}, {!Insn.def1}: a {!Reg.index}, or [-1]
    for none. *)

val use1_slot : t -> int
val use2_slot : t -> int
val def1_slot : t -> int
(** The same operands as register-file slots: [Reg.index r + 1], and
    0 for none and for the zero register — so [use1_slot d = use1 d +
    1]. Slot 0 of a register file indexed this way reads 0. *)

val unresolved : t -> bool
(** True for a [Br], [jmp] or [jal] whose target is still a label.
    Executing one is a runtime error; {!Program.layout} never leaves
    one in an image. *)

val exec : t -> exec
(** Execution class: what decides the instruction's latency. *)

val branch : t -> branch
(** How the branch predictor sees the instruction. DISE-internal
    branches ([Dbr]/[Djmp]) are [No_branch]: they never reach the
    predictor. *)

val to_insn : t -> int -> Insn.t
(** [to_insn (of_insn i) (imm_of_insn i) = i] for every instruction
    whose targets are resolved (and whose codeword fields are in
    their encodable ranges): the descriptor and the immediate are the
    whole instruction. Allocates; for readers off the hot path.
    Raises [Invalid_argument] when {!unresolved}. *)

(** {1 The opcode-key table}

    Derived from {!to_insn}, the one inverse of {!Insn.key}, once at
    initialisation; each lookup is an array read. The [_of_key]
    functions raise [Invalid_argument] outside [0, Insn.num_keys). *)

val example_of_key : int -> Insn.t
(** [to_insn] of the bare key: zero registers, immediate 0. *)

val mnemonic_of_key : int -> string
(** The first word {!Insn.pp} prints (["add"], ["dbeq"], ["cw0"]);
    immediate ALU forms add an [i] (["addi"]) so that every key has a
    name of its own. *)

val key_of_mnemonic : string -> int option
(** The inverse of {!mnemonic_of_key}, ignoring case. *)

val cls_of_key : int -> Opcode.cls

val keys_of_class : Opcode.cls -> int list
(** Ascending; the classes partition the keys. *)
