(* Layout of the packed int, low bits first: the opcode key (6 bits),
   then use1, use2 and def1 each stored plus one so that "none" is 0
   (6 bits each), then the exec class (3 bits), the branch kind
   (3 bits) and the unresolved-target flag (1 bit). Every accessor is
   a shift and a mask. *)

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

let unresolved_bit = 1 lsl 30

let unresolved_code : Insn.t -> int = function
  | Insn.Br (_, _, Insn.Lab _) | Insn.Jmp (Insn.Lab _) | Insn.Jal (Insn.Lab _)
    ->
    unresolved_bit
  | _ -> 0

let of_insn i =
  Insn.key i
  lor ((Insn.use1 i + 1) lsl 6)
  lor ((Insn.use2 i + 1) lsl 12)
  lor ((Insn.def1 i + 1) lsl 18)
  lor (exec_code i lsl 24)
  lor (branch_code i lsl 27)
  lor unresolved_code i

let imm_of_insn : Insn.t -> int = function
  | Insn.Ropi (_, _, v, _) | Insn.Lda (_, v, _) | Insn.Lui (v, _)
  | Insn.Mem (_, _, v, _) | Insn.Dbr (_, _, v) | Insn.Djmp v ->
    v
  | Insn.Br (_, _, Insn.Abs a) | Insn.Jmp (Insn.Abs a) | Insn.Jal (Insn.Abs a)
    ->
    a
  | Insn.Codeword { p1; p2; p3; tag; _ } ->
    p1 lor (p2 lsl 5) lor (p3 lsl 10) lor (tag lsl 15)
  | Insn.Br (_, _, Insn.Lab _) | Insn.Jmp (Insn.Lab _) | Insn.Jal (Insn.Lab _)
  | Insn.Rop _ | Insn.Jr _ | Insn.Jalr _ | Insn.Nop | Insn.Halt ->
    0

let key d = d land 63
let use1 d = ((d lsr 6) land 63) - 1
let use2 d = ((d lsr 12) land 63) - 1
let def1 d = ((d lsr 18) land 63) - 1
let use1_slot d = (d lsr 6) land 63
let use2_slot d = (d lsr 12) land 63
let def1_slot d = (d lsr 18) land 63
let unresolved d = d land unresolved_bit <> 0

let max_slot = Reg.num_arch + Reg.num_dedicated

let of_packed d =
  if
    d lsr 31 <> 0
    || key d >= Insn.num_keys
    || use1_slot d > max_slot
    || use2_slot d > max_slot
    || def1_slot d > max_slot
    || (d lsr 24) land 7 > 4
    || (d lsr 27) land 7 > 6
  then invalid_arg "Desc.of_packed: not a descriptor"
  else d

(* Constant constructors, indexed by their codes above. [t] is private
   and {!of_packed} checks the codes, so a stored code is always in
   range. *)
let execs = [| Alu; Mul; Load; Store; Other |]

let branches =
  [| No_branch; Cond; Direct; Indirect; Return; Call; Indirect_call |]

let exec d = Array.unsafe_get execs ((d lsr 24) land 7)
let branch d = Array.unsafe_get branches ((d lsr 27) land 7)

(* The inverse of the decoding, for readers off the hot path. Key
   ranges as in {!Insn.key}. *)
let rops = Array.of_list Opcode.all_rops
let mops = Array.of_list Opcode.all_mops
let bops = Array.of_list Opcode.all_bops

let reg_of_slot s =
  if s = 0 then Reg.zero
  else if s <= Reg.num_arch then Reg.r (s - 1)
  else Reg.d (s - 1 - Reg.num_arch)

let to_insn d imm =
  if unresolved d then invalid_arg "Desc.to_insn: unresolved label";
  let k = key d in
  let s1 = reg_of_slot (use1_slot d)
  and s2 = reg_of_slot (use2_slot d)
  and dst = reg_of_slot (def1_slot d) in
  if k < 14 then Insn.Rop (rops.(k), s1, s2, dst)
  else if k < 28 then Insn.Ropi (rops.(k - 14), s1, imm, dst)
  else if k = 28 then Insn.Lda (s1, imm, dst)
  else if k = 29 then Insn.Lui (imm, dst)
  else if k < 32 then Insn.Mem (mops.(k - 30), s1, imm, dst)
  else if k < 34 then Insn.Mem (mops.(k - 30), s1, imm, s2)
  else if k < 40 then Insn.Br (bops.(k - 34), s1, Insn.Abs imm)
  else if k = 40 then Insn.Jmp (Insn.Abs imm)
  else if k = 41 then Insn.Jal (Insn.Abs imm)
  else if k = 42 then Insn.Jr s1
  else if k = 43 then Insn.Jalr (s1, dst)
  else if k < 50 then Insn.Dbr (bops.(k - 44), s1, imm)
  else if k = 50 then Insn.Djmp imm
  else if k < 55 then
    Insn.Codeword
      {
        op = k - 51;
        p1 = imm land 31;
        p2 = (imm lsr 5) land 31;
        p3 = (imm lsr 10) land 31;
        tag = imm lsr 15;
      }
  else if k = 55 then Insn.Nop
  else Insn.Halt

(* --- the opcode-key table ----------------------------------------------- *)

(* Every per-key fact is read off one representative instruction per
   key, [to_insn] of the bare key (zero registers, immediate 0), and
   tabulated once here. *)
let examples = Array.init Insn.num_keys (fun k -> to_insn k 0)
let example_of_key k = examples.(k)

(* A key's mnemonic is the first word {!Insn.pp} prints for it, so the
   assembler reads exactly what the printer writes. The immediate ALU
   forms print like the register forms; they take an [i] suffix so that
   every key has a name of its own. *)
let mnemonics =
  Array.map
    (fun i ->
      let m = List.hd (String.split_on_char ' ' (Insn.to_string i)) in
      match i with Insn.Ropi _ -> m ^ "i" | _ -> m)
    examples

let mnemonic_of_key k = mnemonics.(k)

let key_of_mnemonic m =
  let m = String.lowercase_ascii m in
  let rec find k =
    if k = Insn.num_keys then None
    else if String.equal mnemonics.(k) m then Some k
    else find (k + 1)
  in
  find 0

let classes = Array.map Insn.cls examples
let cls_of_key k = classes.(k)

let cls_index : Opcode.cls -> int = function
  | C_load -> 0 | C_store -> 1 | C_branch -> 2 | C_jump -> 3 | C_ijump -> 4
  | C_alu -> 5 | C_dise -> 6 | C_codeword -> 7 | C_nop -> 8 | C_sys -> 9

let class_keys =
  let t = Array.make (List.length Opcode.all_classes) [] in
  for k = Insn.num_keys - 1 downto 0 do
    let c = cls_index classes.(k) in
    t.(c) <- k :: t.(c)
  done;
  t

let keys_of_class c = class_keys.(cls_index c)
