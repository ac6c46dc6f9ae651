(** Timing descriptors: what the timing model needs to know about one
    static instruction, decoded once and packed into an immediate
    [int].

    DISE hardware decodes an instruction once, at fetch, and carries
    the decoded fields down the pipe. The simulator does the same: a
    descriptor is computed once per static instruction (per image for
    application text, {!Program.Image.raw_descs}; per expansion for
    replacement instructions, [Machine.expansion]), the machine copies
    it into its step record, and the timing model reads only the
    descriptor, never the boxed {!Insn.t}.

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

val key : t -> int
(** {!Insn.key}. *)

val use1 : t -> int
val use2 : t -> int
val def1 : t -> int
(** {!Insn.use1}, {!Insn.use2}, {!Insn.def1}: a {!Reg.index}, or [-1]
    for none. *)

val exec : t -> exec
(** Execution class: what decides the instruction's latency. *)

val branch : t -> branch
(** How the branch predictor sees the instruction. DISE-internal
    branches ([Dbr]/[Djmp]) are [No_branch]: they never reach the
    predictor. *)
