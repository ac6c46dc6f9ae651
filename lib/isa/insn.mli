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

(** The instruction forms, declared once. The operand types are
    parameters: registers ['r], immediates ['i], branch targets ['t]
    and a codeword's parameter and tag fields ['c]. {!t} is the
    concrete instance; {!Asm.form} reads operands as strings, and a
    replacement instruction ([Dise_core.Replacement]) carries
    directives, with ['c] = {!never} so that no codeword can appear in
    a replacement sequence. *)
type ('r, 'i, 't, 'c) form =
  | Rop of Opcode.rop * 'r * 'r * 'r  (** op rs, rt, rd *)
  | Ropi of Opcode.rop * 'r * 'i * 'r  (** op rs, #imm16, rd *)
  | Lda of 'r * 'i * 'r                (** lda rd, imm16(rs): rd := rs+imm *)
  | Lui of 'i * 'r                     (** lui #imm16, rd: rd := imm<<16 *)
  | Mem of Opcode.mop * 'r * 'i * 'r   (** ldq/stq rt, imm16(rs) *)
  | Br of Opcode.bop * 'r * 't         (** bne rs, target *)
  | Jmp of 't
  | Jal of 't                          (** link in ra *)
  | Jr of 'r
  | Jalr of 'r * 'r                    (** jalr rs, rd: rd := link *)
  | Dbr of Opcode.bop * 'r * int       (** DISEPC-relative, in instructions *)
  | Djmp of int                        (** absolute DISEPC *)
  | Codeword of { op : int; p1 : 'c; p2 : 'c; p3 : 'c; tag : 'c }
      (** reserved opcode [op]; three parameter fields and a tag *)
  | Nop
  | Halt

type t = (Reg.t, int, target, int) form

type never = |
(** The empty type. *)

val cls : _ form -> Opcode.cls
(** Opcode class, the coarse category DISE patterns may match on. *)

val rs : ('r, _, _, _) form -> 'r option
(** First source register field (base register for memory ops). *)

val rt : ('r, _, _, _) form -> 'r option
(** Second register field: second ALU source, or the data register of a
    load/store (the destination for loads). *)

val rd : link:'r -> ('r, _, _, _) form -> 'r option
(** Destination register field, when the instruction writes one;
    [link] for [Jal], which writes the return address register. *)

val imm : target:('t -> 'i option) -> ('r, 'i, 't, _) form -> 'i option
(** Immediate field, if present. A [Br]'s immediate is its target, read
    by [target]: for {!t}, {!resolved} gives a resolved branch its
    absolute target, as patterns and [#T.IMM] see it. *)

val resolved : target -> int option
(** [Some a] for [Abs a], [None] for a label. *)

val branch_target : (_, _, 't, _) form -> 't option
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

val key : _ form -> int
(** A small dense dispatch key identifying the opcode (not the
    operands); used to index pattern-dispatch tables. All keys are in
    [0, num_keys). {!Desc.to_insn} inverts it, and {!Desc} derives the
    per-key table (mnemonics, classes) from that inverse. *)

val num_keys : int

val map :
  reg:('r -> 'r2) ->
  imm:('i -> 'i2) ->
  target:('t -> 't2) ->
  cw:('c -> 'c2) ->
  ('r, 'i, 't, 'c) form ->
  ('r2, 'i2, 't2, 'c2) form
(** The same form with every operand mapped: registers by [reg],
    immediates by [imm], targets by [target], and a codeword's
    parameter and tag fields by [cw]. The functions run on the
    operands from right to left in the form's order, so a function
    that raises reports the rightmost operand it rejects. *)

val fold :
  reg:('a -> 'r -> 'a) ->
  imm:('a -> 'i -> 'a) ->
  target:('a -> 't -> 'a) ->
  'a ->
  ('r, 'i, 't, _) form ->
  'a
(** Fold over the operands from left to right, in the order the
    constructors list them; operand [k] is field [k] of the
    instruction. A codeword's fields are not operands. *)

val equal : t -> t -> bool

val pp_form :
  reg:(Format.formatter -> 'r -> unit) ->
  imm:(Format.formatter -> 'i -> unit) ->
  off:(Format.formatter -> 'i -> unit) ->
  target:(Format.formatter -> 't -> unit) ->
  cw:(Format.formatter -> 'c -> unit) ->
  Format.formatter ->
  ('r, 'i, 't, 'c) form ->
  unit
(** The assembler's layout of a form: its mnemonic, then its operands
    in {!Asm}'s order, an immediate printed by [imm] and a memory
    offset ([off(base)]) by [off]. *)

val pp : Format.formatter -> t -> unit
(** [pp_form] with an immediate as [#n] and an offset as [n]. *)

val to_string : t -> string
