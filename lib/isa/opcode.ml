type rop =
  | Add | Sub | Mul
  | And_ | Or_ | Xor
  | Sll | Srl | Sra
  | Slt | Sltu
  | Cmpeq | Cmplt | Cmple

type mop = Ldq | Ldbu | Stq | Stb

type bop = Beq | Bne | Blt | Bge | Ble | Bgt

type cls =
  | C_load
  | C_store
  | C_branch
  | C_jump
  | C_ijump
  | C_alu
  | C_dise
  | C_codeword
  | C_nop
  | C_sys

let num_reserved = 4

let all_classes =
  [ C_load; C_store; C_branch; C_jump; C_ijump; C_alu; C_dise; C_codeword;
    C_nop; C_sys ]

(* Values are kept as signed 32-bit integers in OCaml ints. *)
let mask32 v = v land 0xFFFFFFFF

let signed32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let unsigned32 v = mask32 v

let eval_rop op a b =
  let bool_ c = if c then 1 else 0 in
  match op with
  | Add -> signed32 (a + b)
  | Sub -> signed32 (a - b)
  | Mul -> signed32 (a * b)
  | And_ -> signed32 (mask32 a land mask32 b)
  | Or_ -> signed32 (mask32 a lor mask32 b)
  | Xor -> signed32 (mask32 a lxor mask32 b)
  | Sll -> signed32 (mask32 a lsl (b land 31))
  | Srl -> signed32 (unsigned32 a lsr (b land 31))
  | Sra -> signed32 (signed32 a asr (b land 31))
  | Slt | Cmplt -> bool_ (signed32 a < signed32 b)
  | Sltu -> bool_ (unsigned32 a < unsigned32 b)
  | Cmpeq -> bool_ (signed32 a = signed32 b)
  | Cmple -> bool_ (signed32 a <= signed32 b)

let eval_bop op v =
  let v = signed32 v in
  match op with
  | Beq -> v = 0
  | Bne -> v <> 0
  | Blt -> v < 0
  | Bge -> v >= 0
  | Ble -> v <= 0
  | Bgt -> v > 0

let rop_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | And_ -> "and" | Or_ -> "or" | Xor -> "xor"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
  | Slt -> "slt" | Sltu -> "sltu"
  | Cmpeq -> "cmpeq" | Cmplt -> "cmplt" | Cmple -> "cmple"

let mop_to_string = function
  | Ldq -> "ldq" | Ldbu -> "ldbu" | Stq -> "stq" | Stb -> "stb"

let bop_to_string = function
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt"
  | Bge -> "bge" | Ble -> "ble" | Bgt -> "bgt"

let cls_to_string = function
  | C_load -> "load" | C_store -> "store" | C_branch -> "branch"
  | C_jump -> "jump" | C_ijump -> "ijump" | C_alu -> "alu"
  | C_dise -> "dise" | C_codeword -> "codeword" | C_nop -> "nop"
  | C_sys -> "sys"

let all_rops =
  [ Add; Sub; Mul; And_; Or_; Xor; Sll; Srl; Sra; Slt; Sltu; Cmpeq; Cmplt;
    Cmple ]

let all_mops = [ Ldq; Ldbu; Stq; Stb ]
let all_bops = [ Beq; Bne; Blt; Bge; Ble; Bgt ]

let cls_of_string s =
  List.find_opt (fun c -> String.equal (cls_to_string c) s) all_classes
