type target =
  | Abs of int
  | Lab of string

type ('r, 'i, 't, 'c) form =
  | Rop of Opcode.rop * 'r * 'r * 'r
  | Ropi of Opcode.rop * 'r * 'i * 'r
  | Lda of 'r * 'i * 'r
  | Lui of 'i * 'r
  | Mem of Opcode.mop * 'r * 'i * 'r
  | Br of Opcode.bop * 'r * 't
  | Jmp of 't
  | Jal of 't
  | Jr of 'r
  | Jalr of 'r * 'r
  | Dbr of Opcode.bop * 'r * int
  | Djmp of int
  | Codeword of { op : int; p1 : 'c; p2 : 'c; p3 : 'c; tag : 'c }
  | Nop
  | Halt

type t = (Reg.t, int, target, int) form

type never = |

let cls = function
  | Rop _ | Ropi _ | Lda _ | Lui _ -> Opcode.C_alu
  | Mem ((Ldq | Ldbu), _, _, _) -> Opcode.C_load
  | Mem ((Stq | Stb), _, _, _) -> Opcode.C_store
  | Br _ -> Opcode.C_branch
  | Jmp _ | Jal _ -> Opcode.C_jump
  | Jr _ | Jalr _ -> Opcode.C_ijump
  | Dbr _ | Djmp _ -> Opcode.C_dise
  | Codeword _ -> Opcode.C_codeword
  | Nop -> Opcode.C_nop
  | Halt -> Opcode.C_sys

let rs = function
  | Rop (_, rs, _, _) | Ropi (_, rs, _, _) | Lda (rs, _, _)
  | Mem (_, rs, _, _) | Br (_, rs, _) | Jr rs | Jalr (rs, _)
  | Dbr (_, rs, _) ->
    Some rs
  | Lui _ | Jmp _ | Jal _ | Djmp _ | Codeword _ | Nop | Halt -> None

let rt = function
  | Rop (_, _, rt, _) | Mem (_, _, _, rt) -> Some rt
  | Ropi _ | Lda _ | Lui _ | Br _ | Jmp _ | Jal _ | Jr _ | Jalr _ | Dbr _
  | Djmp _ | Codeword _ | Nop | Halt ->
    None

let rd ~link = function
  | Rop (_, _, _, rd) | Ropi (_, _, _, rd) | Lda (_, _, rd) | Lui (_, rd)
  | Jalr (_, rd) ->
    Some rd
  | Mem ((Ldq | Ldbu), _, _, rt) -> Some rt
  | Mem ((Stq | Stb), _, _, _) -> None
  | Br _ | Jmp _ | Jr _ | Dbr _ | Djmp _ | Codeword _ | Nop | Halt -> None
  | Jal _ -> Some link

let imm ~target = function
  | Ropi (_, _, i, _) | Lda (_, i, _) | Lui (i, _) | Mem (_, _, i, _) ->
    Some i
  | Br (_, _, t) -> target t
  | Rop _ | Jmp _ | Jal _ | Jr _ | Jalr _ | Dbr _ | Djmp _ | Codeword _ | Nop
  | Halt ->
    None

let resolved = function Abs a -> Some a | Lab _ -> None

let branch_target = function
  | Br (_, _, t) | Jmp t | Jal t -> Some t
  | Rop _ | Ropi _ | Lda _ | Lui _ | Mem _ | Jr _ | Jalr _ | Dbr _ | Djmp _
  | Codeword _ | Nop | Halt ->
    None

let non_zero r = not (Reg.equal r Reg.zero)

let defs i =
  let d =
    match i with
    | Rop (_, _, _, rd) | Ropi (_, _, _, rd) | Lda (_, _, rd) | Lui (_, rd)
    | Jalr (_, rd) | Mem ((Ldq | Ldbu), _, _, rd) ->
      [ rd ]
    | Jal _ -> [ Reg.ra ]
    | Mem ((Stq | Stb), _, _, _) | Br _ | Jmp _ | Jr _ | Dbr _ | Djmp _
    | Codeword _ | Nop | Halt ->
      []
  in
  List.filter non_zero d

let uses i =
  let u =
    match i with
    | Rop (_, rs, rt, _) -> [ rs; rt ]
    | Ropi (_, rs, _, _) | Lda (rs, _, _) | Mem ((Ldq | Ldbu), rs, _, _)
    | Br (_, rs, _) | Jr rs | Jalr (rs, _) | Dbr (_, rs, _) ->
      [ rs ]
    | Mem ((Stq | Stb), rs, _, rt) -> [ rs; rt ]
    | Lui _ | Jmp _ | Jal _ | Djmp _ | Codeword _ | Nop | Halt -> []
  in
  List.filter non_zero u

(* Closure-free forms of [uses]/[defs] for the timing model's
   scoreboard: flat register indices, -1 for none. Every instruction
   reads at most two registers and writes at most one. *)

let dep_index r = match r with Reg.R 0 -> -1 | _ -> Reg.index r

let use1 = function
  | Rop (_, rs, _, _) | Ropi (_, rs, _, _) | Lda (rs, _, _) | Mem (_, rs, _, _)
  | Br (_, rs, _) | Jr rs | Jalr (rs, _) | Dbr (_, rs, _) ->
    dep_index rs
  | Lui _ | Jmp _ | Jal _ | Djmp _ | Codeword _ | Nop | Halt -> -1

let use2 = function
  | Rop (_, _, rt, _) | Mem ((Stq | Stb), _, _, rt) -> dep_index rt
  | Ropi _ | Lda _ | Lui _ | Mem ((Ldq | Ldbu), _, _, _) | Br _ | Jmp _
  | Jal _ | Jr _ | Jalr _ | Dbr _ | Djmp _ | Codeword _ | Nop | Halt ->
    -1

let def1 = function
  | Rop (_, _, _, rd) | Ropi (_, _, _, rd) | Lda (_, _, rd) | Lui (_, rd)
  | Jalr (_, rd) | Mem ((Ldq | Ldbu), _, _, rd) ->
    dep_index rd
  | Jal _ -> Reg.index Reg.ra
  | Mem ((Stq | Stb), _, _, _) | Br _ | Jmp _ | Jr _ | Dbr _ | Djmp _
  | Codeword _ | Nop | Halt ->
    -1

let is_control = function
  | Br _ | Jmp _ | Jal _ | Jr _ | Jalr _ | Halt -> true
  | Rop _ | Ropi _ | Lda _ | Lui _ | Mem _ | Dbr _ | Djmp _ | Codeword _
  | Nop ->
    false

let writes_memory = function
  | Mem ((Stq | Stb), _, _, _) -> true
  | _ -> false

let reads_memory = function
  | Mem ((Ldq | Ldbu), _, _, _) -> true
  | _ -> false

let codeword ~op ~p1 ~p2 ~p3 ~tag =
  if op < 0 || op >= Opcode.num_reserved then
    invalid_arg "Insn.codeword: reserved opcode out of range";
  let check5 name v =
    if v < 0 || v > 31 then
      invalid_arg (Printf.sprintf "Insn.codeword: %s out of 5-bit range" name)
  in
  check5 "p1" p1;
  check5 "p2" p2;
  check5 "p3" p3;
  if tag < 0 || tag > 2047 then
    invalid_arg "Insn.codeword: tag out of 11-bit range";
  Codeword { op; p1; p2; p3; tag }

(* Dense dispatch keys. Layout:
   Rop: 0..13, Ropi: 14..27, Lda: 28, Lui: 29, Mem: 30..33, Br: 34..39,
   Jmp: 40, Jal: 41, Jr: 42, Jalr: 43, Dbr: 44..49, Djmp: 50,
   Codeword: 51..54, Nop: 55, Halt: 56. *)

let rop_index (op : Opcode.rop) =
  match op with
  | Add -> 0 | Sub -> 1 | Mul -> 2 | And_ -> 3 | Or_ -> 4 | Xor -> 5
  | Sll -> 6 | Srl -> 7 | Sra -> 8 | Slt -> 9 | Sltu -> 10 | Cmpeq -> 11
  | Cmplt -> 12 | Cmple -> 13

let mop_index (op : Opcode.mop) =
  match op with Ldq -> 0 | Ldbu -> 1 | Stq -> 2 | Stb -> 3

let bop_index (op : Opcode.bop) =
  match op with Beq -> 0 | Bne -> 1 | Blt -> 2 | Bge -> 3 | Ble -> 4
  | Bgt -> 5

let key = function
  | Rop (op, _, _, _) -> rop_index op
  | Ropi (op, _, _, _) -> 14 + rop_index op
  | Lda _ -> 28
  | Lui _ -> 29
  | Mem (op, _, _, _) -> 30 + mop_index op
  | Br (op, _, _) -> 34 + bop_index op
  | Jmp _ -> 40
  | Jal _ -> 41
  | Jr _ -> 42
  | Jalr _ -> 43
  | Dbr (op, _, _) -> 44 + bop_index op
  | Djmp _ -> 50
  | Codeword { op; _ } -> 51 + op
  | Nop -> 55
  | Halt -> 56

let num_keys = 57

(* Right to left, in explicit lets: OCaml leaves a constructor's
   argument order unspecified, and callers depend on this one. A parse
   with several bad operands reports the rightmost, and the compressor
   numbers fields counting down. *)
let map ~reg ~imm ~target ~cw = function
  | Rop (op, a, b, c) ->
    let c = reg c in
    let b = reg b in
    Rop (op, reg a, b, c)
  | Ropi (op, a, v, c) ->
    let c = reg c in
    let v = imm v in
    Ropi (op, reg a, v, c)
  | Lda (a, v, c) ->
    let c = reg c in
    let v = imm v in
    Lda (reg a, v, c)
  | Lui (v, c) ->
    let c = reg c in
    Lui (imm v, c)
  | Mem (op, a, v, c) ->
    let c = reg c in
    let v = imm v in
    Mem (op, reg a, v, c)
  | Br (op, r, t) ->
    let t = target t in
    Br (op, reg r, t)
  | Jmp t -> Jmp (target t)
  | Jal t -> Jal (target t)
  | Jr r -> Jr (reg r)
  | Jalr (a, b) ->
    let b = reg b in
    Jalr (reg a, b)
  | Dbr (op, r, off) -> Dbr (op, reg r, off)
  | Djmp off -> Djmp off
  | Codeword { op; p1; p2; p3; tag } ->
    let tag = cw tag in
    let p3 = cw p3 in
    let p2 = cw p2 in
    Codeword { op; p1 = cw p1; p2; p3; tag }
  | Nop -> Nop
  | Halt -> Halt

let fold ~reg ~imm ~target acc = function
  | Rop (_, a, b, c) -> reg (reg (reg acc a) b) c
  | Ropi (_, a, v, c) | Lda (a, v, c) | Mem (_, a, v, c) ->
    reg (imm (reg acc a) v) c
  | Lui (v, c) -> reg (imm acc v) c
  | Br (_, r, t) -> target (reg acc r) t
  | Jmp t | Jal t -> target acc t
  | Jr r | Dbr (_, r, _) -> reg acc r
  | Jalr (a, b) -> reg (reg acc a) b
  | Djmp _ | Codeword _ | Nop | Halt -> acc

let equal (a : t) (b : t) = a = b

let pp_target ppf = function
  | Abs a -> Format.fprintf ppf "0x%x" a
  | Lab l -> Format.pp_print_string ppf l

let pp_form ~reg ~imm ~off ~target ~cw ppf i =
  let pr fmt = Format.fprintf ppf fmt in
  match i with
  | Rop (op, a, b, c) ->
    pr "%s %a, %a, %a" (Opcode.rop_to_string op) reg a reg b reg c
  | Ropi (op, a, v, c) ->
    pr "%s %a, %a, %a" (Opcode.rop_to_string op) reg a imm v reg c
  | Lda (base, v, dst) -> pr "lda %a, %a(%a)" reg dst off v reg base
  | Lui (v, dst) -> pr "lui %a, %a" imm v reg dst
  | Mem (op, base, v, data) ->
    pr "%s %a, %a(%a)" (Opcode.mop_to_string op) reg data off v reg base
  | Br (op, r, t) -> pr "%s %a, %a" (Opcode.bop_to_string op) reg r target t
  | Jmp t -> pr "jmp %a" target t
  | Jal t -> pr "jal %a" target t
  | Jr r -> pr "jr %a" reg r
  | Jalr (r, d) -> pr "jalr %a, %a" reg r reg d
  | Dbr (op, r, o) -> pr "d%s %a, @%d" (Opcode.bop_to_string op) reg r o
  | Djmp o -> pr "djmp @%d" o
  | Codeword { op; p1; p2; p3; tag } ->
    pr "cw%d %a, %a, %a, tag=%a" op cw p1 cw p2 cw p3 cw tag
  | Nop -> pr "nop"
  | Halt -> pr "halt"

let pp ppf i =
  pp_form ~reg:Reg.pp
    ~imm:(fun ppf -> Format.fprintf ppf "#%d")
    ~off:Format.pp_print_int ~target:pp_target ~cw:Format.pp_print_int ppf i

let to_string i = Format.asprintf "%a" pp i
