(* Layout of the packed int, low bits first: the opcode key (6 bits),
   then use1, use2 and def1 each stored plus one so that "none" is 0
   (6 bits each), then the exec class (3 bits) and the branch kind
   (3 bits). Every accessor is a shift and a mask. *)

type t = int

type exec =
  | Alu
  | Mul
  | Load
  | Store
  | Other

type branch =
  | No_branch
  | Cond
  | Direct
  | Indirect
  | Return
  | Call
  | Indirect_call

let () =
  assert (Insn.num_keys <= 64);
  assert (Reg.num_arch + Reg.num_dedicated < 64)

let exec_code : Insn.t -> int = function
  | Insn.Rop (Opcode.Mul, _, _, _) | Insn.Ropi (Opcode.Mul, _, _, _) -> 1
  | Insn.Rop _ | Insn.Ropi _ | Insn.Lda _ | Insn.Lui _ -> 0
  | Insn.Mem ((Opcode.Ldq | Opcode.Ldbu), _, _, _) -> 2
  | Insn.Mem ((Opcode.Stq | Opcode.Stb), _, _, _) -> 3
  | Insn.Br _ | Insn.Jmp _ | Insn.Jal _ | Insn.Jr _ | Insn.Jalr _ | Insn.Dbr _
  | Insn.Djmp _ | Insn.Codeword _ | Insn.Nop | Insn.Halt ->
    4

let branch_code : Insn.t -> int = function
  | Insn.Br _ -> 1
  | Insn.Jmp _ -> 2
  | Insn.Jr r -> if Reg.equal r Reg.ra then 4 else 3
  | Insn.Jal _ -> 5
  | Insn.Jalr _ -> 6
  | Insn.Rop _ | Insn.Ropi _ | Insn.Lda _ | Insn.Lui _ | Insn.Mem _ | Insn.Dbr _
  | Insn.Djmp _ | Insn.Codeword _ | Insn.Nop | Insn.Halt ->
    0

let of_insn i =
  Insn.key i
  lor ((Insn.use1 i + 1) lsl 6)
  lor ((Insn.use2 i + 1) lsl 12)
  lor ((Insn.def1 i + 1) lsl 18)
  lor (exec_code i lsl 24)
  lor (branch_code i lsl 27)

let key d = d land 63
let use1 d = ((d lsr 6) land 63) - 1
let use2 d = ((d lsr 12) land 63) - 1
let def1 d = ((d lsr 18) land 63) - 1

(* Constant constructors, indexed by their codes above. [t] is private,
   so a stored code is always in range. *)
let execs = [| Alu; Mul; Load; Store; Other |]

let branches =
  [| No_branch; Cond; Direct; Indirect; Return; Call; Indirect_call |]

let exec d = Array.unsafe_get execs ((d lsr 24) land 7)
let branch d = Array.unsafe_get branches ((d lsr 27) land 7)
