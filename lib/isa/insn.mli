(** Typed instructions.

    Operand order follows Alpha convention: sources first, destination
    last ([add r1, r2, r3] computes [r3 := r1 + r2]; [srl r1, #26, r2]
    computes [r2 := r1 >> 26]).

    Control-transfer targets are either absolute byte addresses ([Abs])
    or symbolic labels ([Lab]); labels only appear before layout
    ({!Program.layout} resolves every target to [Abs]).

    [Dbr]/[Djmp] are the DISE-internal control transfers: they modify
    the DISEPC only and are legal only inside replacement sequences.
    [Codeword] is a reserved-opcode instruction planted by DISE-aware
    tools: three 5-bit parameter fields plus an 11-bit replacement
    sequence tag. *)

type target =
  | Abs of int     (** absolute byte address *)
  | Lab of string  (** symbolic; resolved at layout *)

type t =
  | Rop of Opcode.rop * Reg.t * Reg.t * Reg.t  (** op rs, rt, rd *)
  | Ropi of Opcode.rop * Reg.t * int * Reg.t   (** op rs, #imm16, rd *)
  | Lda of Reg.t * int * Reg.t                 (** lda rd, imm16(rs): rd := rs+imm *)
  | Lui of int * Reg.t                         (** lui #imm16, rd: rd := imm<<16 *)
  | Mem of Opcode.mop * Reg.t * int * Reg.t    (** ldq/stq rt, imm16(rs) *)
  | Br of Opcode.bop * Reg.t * target          (** bne rs, target *)
  | Jmp of target
  | Jal of target                              (** link in ra *)
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t                      (** jalr rs, rd: rd := link *)
  | Dbr of Opcode.bop * Reg.t * int            (** DISEPC-relative, in instructions *)
  | Djmp of int                                (** absolute DISEPC *)
  | Codeword of { op : int; p1 : int; p2 : int; p3 : int; tag : int }
  | Nop
  | Halt

val cls : t -> Opcode.cls
(** Opcode class, the coarse category DISE patterns may match on. *)

val rs : t -> Reg.t option
(** First source register field (base register for memory ops). *)

val rt : t -> Reg.t option
(** Second register field: second ALU source, or the data register of a
    load/store (the destination for loads). *)

val rd : t -> Reg.t option
(** Destination register field, when the instruction writes one. *)

val imm : t -> int option
(** Immediate field, if present. For [Br] with a resolved target this
    is [None]; use {!branch_target}. *)

val branch_target : t -> target option
(** Target of a direct control transfer ([Br]/[Jmp]/[Jal]). *)

val defs : t -> Reg.t list
(** Registers written (excluding the zero register). *)

val uses : t -> Reg.t list
(** Registers read. *)

val use1 : t -> int
val use2 : t -> int
val def1 : t -> int
(** Closure-free forms of {!uses} and {!defs} for per-instruction hot
    paths: each is a {!Reg.index} or [-1] for none. Every instruction
    reads at most two registers and writes at most one; {!uses} lists
    exactly the non-negative ones of [use1], [use2] (in that order) and
    {!defs} the non-negative [def1] (property "use1/use2/def1 agree with
    uses/defs" in test/test_props.ml). *)

val is_control : t -> bool
(** True for every instruction that may redirect the application PC. *)

val writes_memory : t -> bool
val reads_memory : t -> bool

val codeword : op:int -> p1:int -> p2:int -> p3:int -> tag:int -> t
(** Smart constructor; range-checks each field ([op] < 4 reserved
    opcodes, params 5 bits, tag 11 bits). *)

val key : t -> int
(** A small dense dispatch key identifying the opcode (not the
    operands); used to index pattern-dispatch tables. All keys are in
    [0, num_keys). {!Desc.to_insn} inverts it, and {!Desc} derives the
    per-key table (mnemonics, classes) from that inverse. *)

val num_keys : int

val map_target : (target -> target) -> t -> t
(** Rewrite the control-transfer target, if any. *)

val map_regs : (Reg.t -> Reg.t) -> t -> t
(** Rewrite every register field. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
