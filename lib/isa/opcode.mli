(** Opcodes and opcode classes.

    The ISA is a regular 32-bit Alpha/MIPS-flavoured RISC. Register
    operations come in a register form ([rop]) and an immediate form
    (the same [rop] with a 16-bit immediate as the second source).
    Conditional branches compare one register against zero, as on
    Alpha. Four opcodes are {e reserved}: they never occur in compiled
    code and are available to DISE-aware ACFs as codewords. *)

type rop =
  | Add | Sub | Mul
  | And_ | Or_ | Xor
  | Sll | Srl | Sra
  | Slt | Sltu
  | Cmpeq | Cmplt | Cmple

type mop =
  | Ldq   (** load 32-bit word *)
  | Ldbu  (** load byte, zero-extended *)
  | Stq   (** store 32-bit word *)
  | Stb   (** store byte *)

type bop = Beq | Bne | Blt | Bge | Ble | Bgt

type cls =
  | C_load
  | C_store
  | C_branch    (** conditional, PC-relative *)
  | C_jump      (** direct jump or call *)
  | C_ijump     (** indirect jump or call (jr / jalr) *)
  | C_alu       (** register and immediate ALU forms, incl. lda / lui *)
  | C_dise      (** DISE-internal control (replacement sequences only) *)
  | C_codeword  (** reserved-opcode DISE codeword *)
  | C_nop
  | C_sys       (** halt *)

val num_reserved : int
(** Number of reserved codeword opcodes (4). *)

val all_classes : cls list

val mask32 : int -> int
(** Truncate to the low 32 bits (an unsigned 32-bit value). *)

val signed32 : int -> int
(** Truncate to 32 bits and sign-extend; the canonical form in which
    register values are stored throughout the simulator. *)

val eval_rop : rop -> int -> int -> int
(** [eval_rop op a b] evaluates the ALU operation on 32-bit values
    (represented as OCaml ints, truncated to 32 bits). Shift amounts
    are taken modulo 32. Comparison results are 0 or 1. *)

val eval_bop : bop -> int -> bool
(** [eval_bop op v] is the branch decision for a register value [v]
    interpreted as a signed 32-bit integer compared against zero. *)

val rop_to_string : rop -> string
val mop_to_string : mop -> string
val bop_to_string : bop -> string
val cls_to_string : cls -> string
val cls_of_string : string -> cls option

val all_rops : rop list
val all_mops : mop list
val all_bops : bop list
