module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg

type rreg =
  | Rlit of Reg.t
  | Rrs | Rrt | Rrd
  | Rparam of int

type rimm =
  | Ilit of int
  | Iimm
  | Ipc
  | Iparam of int
  | Iparam2 of int

type rtarget =
  | Tabs of int
  | Tlab of string
  | Trel_param of int
  | Trel_param2 of int

type rinsn =
  | Trigger
  | Rop of Op.rop * rreg * rreg * rreg
  | Ropi of Op.rop * rreg * rimm * rreg
  | Lda of rreg * rimm * rreg
  | Lui of rimm * rreg
  | Mem of Op.mop * rreg * rimm * rreg
  | Br of Op.bop * rreg * rtarget
  | Jmp of rtarget
  | Jal of rtarget
  | Jr of rreg
  | Jalr of rreg * rreg
  | Dbr of Op.bop * rreg * int
  | Djmp of int
  | Nop
  | Halt

type t = rinsn array

exception Instantiation_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Instantiation_error s)) fmt

let signed5 v = if v land 0x10 <> 0 then (v land 0x1F) - 32 else v land 0x1F

let to_field5 v =
  if v < -16 || v > 15 then fail "value %d does not fit a 5-bit parameter" v
  else v land 0x1F

let signed10 hi lo =
  let v = ((hi land 0x1F) lsl 5) lor (lo land 0x1F) in
  if v land 0x200 <> 0 then v - 1024 else v

let to_fields10 v =
  if v < -512 || v > 511 then
    fail "value %d does not fit a 10-bit parameter pair" v
  else
    let v = v land 0x3FF in
    ((v lsr 5) land 0x1F, v land 0x1F)

let param_of_trigger trigger i =
  match trigger with
  | I.Codeword { p1; p2; p3; _ } -> (
    match i with
    | 1 -> p1
    | 2 -> p2
    | 3 -> p3
    | _ -> fail "parameter index %d out of range" i)
  | _ -> fail "T.P%d directive on a non-codeword trigger" i

let inst_reg trigger = function
  | Rlit r -> r
  | Rrs -> (
    match I.rs trigger with
    | Some r -> r
    | None -> fail "T.RS: trigger has no rs field")
  | Rrt -> (
    match I.rt trigger with
    | Some r -> r
    | None -> fail "T.RT: trigger has no rt field")
  | Rrd -> (
    match I.rd trigger with
    | Some r -> r
    | None -> fail "T.RD: trigger has no rd field")
  | Rparam i -> Reg.r (param_of_trigger trigger i)

let inst_imm trigger pc = function
  | Ilit v -> v
  | Iimm -> (
    match I.imm trigger with
    | Some v -> v
    | None -> fail "T.IMM: trigger has no immediate field")
  | Ipc -> pc
  | Iparam i -> signed5 (param_of_trigger trigger i)
  | Iparam2 i ->
    signed10 (param_of_trigger trigger i) (param_of_trigger trigger (i + 1))

let inst_target trigger pc = function
  | Tabs a -> I.Abs a
  | Tlab l -> fail "unresolved replacement label %s" l
  | Trel_param i -> I.Abs (pc + (4 * signed5 (param_of_trigger trigger i)))
  | Trel_param2 i ->
    I.Abs
      (pc
      + 4
        * signed10 (param_of_trigger trigger i)
            (param_of_trigger trigger (i + 1)))

let inst_rinsn trigger pc spec =
  let reg = inst_reg trigger in
  let imm = inst_imm trigger pc in
  let tgt = inst_target trigger pc in
  match spec with
  | Trigger -> trigger
  | Rop (op, a, b, c) -> I.Rop (op, reg a, reg b, reg c)
  | Ropi (op, a, v, c) -> I.Ropi (op, reg a, imm v, reg c)
  | Lda (base, off, rd) -> I.Lda (reg base, imm off, reg rd)
  | Lui (v, rd) -> I.Lui (imm v, reg rd)
  | Mem (op, base, off, data) -> I.Mem (op, reg base, imm off, reg data)
  | Br (op, r, t) -> I.Br (op, reg r, tgt t)
  | Jmp t -> I.Jmp (tgt t)
  | Jal t -> I.Jal (tgt t)
  | Jr r -> I.Jr (reg r)
  | Jalr (r, d) -> I.Jalr (reg r, reg d)
  | Dbr (op, r, off) -> I.Dbr (op, reg r, off)
  | Djmp off -> I.Djmp off
  | Nop -> I.Nop
  | Halt -> I.Halt

let instantiate t ~trigger ~pc =
  Array.map (inst_rinsn trigger pc) t

let resolve_labels lookup t =
  let tgt = function
    | Tlab l -> (
      match lookup l with
      | Some a -> Tabs a
      | None -> fail "unknown label %s in replacement sequence" l)
    | other -> other
  in
  Array.map
    (function
      | Br (op, r, t) -> Br (op, r, tgt t)
      | Jmp t -> Jmp (tgt t)
      | Jal t -> Jal (tgt t)
      | other -> other)
    t

let reg_dedicated acc = function
  | Rlit (Reg.D n) -> n :: acc
  | Rlit (Reg.R _) | Rrs | Rrt | Rrd | Rparam _ -> acc

let rinsn_regs = function
  | Trigger | Djmp _ | Nop | Halt | Lui _ | Jmp _ | Jal _ -> []
  | Rop (_, a, b, c) -> [ a; b; c ]
  | Ropi (_, a, _, c) -> [ a; c ]
  | Lda (a, _, c) -> [ a; c ]
  | Mem (_, a, _, c) -> [ a; c ]
  | Br (_, r, _) | Jr r | Dbr (_, r, _) -> [ r ]
  | Jalr (a, b) -> [ a; b ]

let rinsn_regs_full i =
  match i with
  | Lui (_, rd) -> [ rd ]
  | _ -> rinsn_regs i

let dedicated_used t =
  Array.fold_left
    (fun acc i -> List.fold_left reg_dedicated acc (rinsn_regs_full i))
    [] t
  |> List.sort_uniq compare

let rename_dedicated f t =
  let reg = function
    | Rlit (Reg.D n) -> Rlit (Reg.d (f n))
    | other -> other
  in
  Array.map
    (function
      | Trigger -> Trigger
      | Rop (op, a, b, c) -> Rop (op, reg a, reg b, reg c)
      | Ropi (op, a, v, c) -> Ropi (op, reg a, v, reg c)
      | Lda (a, v, c) -> Lda (reg a, v, reg c)
      | Lui (v, c) -> Lui (v, reg c)
      | Mem (op, a, v, c) -> Mem (op, reg a, v, reg c)
      | Br (op, r, tg) -> Br (op, reg r, tg)
      | Jmp tg -> Jmp tg
      | Jal tg -> Jal tg
      | Jr r -> Jr (reg r)
      | Jalr (a, b) -> Jalr (reg a, reg b)
      | Dbr (op, r, off) -> Dbr (op, reg r, off)
      | Djmp off -> Djmp off
      | Nop -> Nop
      | Halt -> Halt)
    t

let reg_static = function Rlit _ -> true | Rrs | Rrt | Rrd | Rparam _ -> false
let imm_static = function Ilit _ -> true | Iimm | Ipc | Iparam _ | Iparam2 _ -> false

let target_static = function
  | Tabs _ | Tlab _ -> true
  | Trel_param _ | Trel_param2 _ -> false

let rinsn_static = function
  | Trigger -> false
  | Rop (_, a, b, c) -> reg_static a && reg_static b && reg_static c
  | Ropi (_, a, v, c) -> reg_static a && imm_static v && reg_static c
  | Lda (a, v, c) -> reg_static a && imm_static v && reg_static c
  | Lui (v, c) -> imm_static v && reg_static c
  | Mem (_, a, v, c) -> reg_static a && imm_static v && reg_static c
  | Br (_, r, t) -> reg_static r && target_static t
  | Jmp t | Jal t -> target_static t
  | Jr r -> reg_static r
  | Jalr (a, b) -> reg_static a && reg_static b
  | Dbr (_, r, _) -> reg_static r
  | Djmp _ | Nop | Halt -> true

let is_static t = Array.for_all rinsn_static t

let of_insn (i : I.t) =
  match i with
  | I.Rop (op, a, b, c) -> Rop (op, Rlit a, Rlit b, Rlit c)
  | I.Ropi (op, a, v, c) -> Ropi (op, Rlit a, Ilit v, Rlit c)
  | I.Lda (a, v, c) -> Lda (Rlit a, Ilit v, Rlit c)
  | I.Lui (v, c) -> Lui (Ilit v, Rlit c)
  | I.Mem (op, a, v, c) -> Mem (op, Rlit a, Ilit v, Rlit c)
  | I.Br (op, r, I.Abs a) -> Br (op, Rlit r, Tabs a)
  | I.Br (op, r, I.Lab l) -> Br (op, Rlit r, Tlab l)
  | I.Jmp (I.Abs a) -> Jmp (Tabs a)
  | I.Jmp (I.Lab l) -> Jmp (Tlab l)
  | I.Jal (I.Abs a) -> Jal (Tabs a)
  | I.Jal (I.Lab l) -> Jal (Tlab l)
  | I.Jr r -> Jr (Rlit r)
  | I.Jalr (a, b) -> Jalr (Rlit a, Rlit b)
  | I.Dbr (op, r, off) -> Dbr (op, Rlit r, off)
  | I.Djmp off -> Djmp off
  | I.Codeword _ ->
    invalid_arg "Replacement.of_insns: codeword in replacement sequence"
  | I.Nop -> Nop
  | I.Halt -> Halt

let of_insns insns = Array.of_list (List.map of_insn insns)

let identity = [| Trigger |]
let length = Array.length
let equal (a : t) (b : t) = a = b

let pp_rreg ppf = function
  | Rlit r -> Reg.pp ppf r
  | Rrs -> Format.pp_print_string ppf "T.RS"
  | Rrt -> Format.pp_print_string ppf "T.RT"
  | Rrd -> Format.pp_print_string ppf "T.RD"
  | Rparam i -> Format.fprintf ppf "T.P%d" i

let pp_rimm ppf = function
  | Ilit v -> Format.fprintf ppf "#%d" v
  | Iimm -> Format.pp_print_string ppf "#T.IMM"
  | Ipc -> Format.pp_print_string ppf "#T.PC"
  | Iparam i -> Format.fprintf ppf "#T.P%d" i
  | Iparam2 i -> Format.fprintf ppf "#T.P%dP%d" i (i + 1)

let pp_rtarget ppf = function
  | Tabs a -> Format.fprintf ppf "0x%x" a
  | Tlab l -> Format.pp_print_string ppf l
  | Trel_param i -> Format.fprintf ppf "T.PC+T.P%d" i
  | Trel_param2 i -> Format.fprintf ppf "T.PC+T.P%dP%d" i (i + 1)

let pp_rinsn ppf i =
  let pr fmt = Format.fprintf ppf fmt in
  match i with
  | Trigger -> pr "T.INSN"
  | Rop (op, a, b, c) ->
    pr "%s %a, %a, %a" (Op.rop_to_string op) pp_rreg a pp_rreg b pp_rreg c
  | Ropi (op, a, v, c) ->
    pr "%s %a, %a, %a" (Op.rop_to_string op) pp_rreg a pp_rimm v pp_rreg c
  | Lda (base, off, rd) -> pr "lda %a, %a(%a)" pp_rreg rd pp_rimm off pp_rreg base
  | Lui (v, rd) -> pr "lui %a, %a" pp_rimm v pp_rreg rd
  | Mem (op, base, off, data) ->
    pr "%s %a, %a(%a)" (Op.mop_to_string op) pp_rreg data pp_rimm off pp_rreg
      base
  | Br (op, r, t) -> pr "%s %a, %a" (Op.bop_to_string op) pp_rreg r pp_rtarget t
  | Jmp t -> pr "jmp %a" pp_rtarget t
  | Jal t -> pr "jal %a" pp_rtarget t
  | Jr r -> pr "jr %a" pp_rreg r
  | Jalr (a, b) -> pr "jalr %a, %a" pp_rreg a pp_rreg b
  | Dbr (op, r, off) -> pr "d%s %a, @%d" (Op.bop_to_string op) pp_rreg r off
  | Djmp off -> pr "djmp @%d" off
  | Nop -> pr "nop"
  | Halt -> pr "halt"

let pp ppf t =
  Array.iteri
    (fun i r ->
      if i > 0 then Format.pp_print_newline ppf ();
      Format.fprintf ppf "  %a" pp_rinsn r)
    t
