exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let reg_bits r =
  match r with
  | Reg.R n -> n
  | Reg.D _ -> fail "dedicated register %s is not encodable" (Reg.to_string r)

let imm16 v =
  if v < -32768 || v > 32767 then fail "immediate %d out of 16-bit range" v
  else v land 0xFFFF

let sign16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

(* Branch offsets are signed 16-bit halfword deltas from the
   fall-through address: reachable targets are
   [pc + 4 - 0x10000, pc + 4 + 0xFFFE] in steps of 2. Anything else
   must be rejected loudly — [delta asr 1] followed by [land 0xFFFF]
   would otherwise silently wrap an out-of-range or odd delta onto a
   different (valid-looking) target. *)
let branch_off ~pc target =
  match target with
  | Insn.Lab l -> fail "unresolved label %s" l
  | Insn.Abs a ->
    let delta = a - (pc + 4) in
    if delta land 1 <> 0 then
      fail "branch target 0x%x misaligned (odd delta %d from pc 0x%x)" a delta
        pc;
    let off = delta asr 1 in
    if off < -32768 || off > 32767 then
      fail "branch target 0x%x out of range from pc 0x%x (offset %d halfwords)"
        a pc off
    else off land 0xFFFF

let jump_field target =
  match target with
  | Insn.Lab l -> fail "unresolved label %s" l
  | Insn.Abs a ->
    if a land 3 <> 0 then fail "jump target misaligned: 0x%x" a;
    let w = a lsr 2 in
    if w > 0x3FFFFFF then fail "jump target 0x%x out of 26-bit range" a
    else w

(* Field packers. All formats place the primary opcode in bits 31:26. *)
let pack ~op ~a ~b rest = (op lsl 26) lor (a lsl 21) lor (b lsl 16) lor rest

let encode ~pc (i : Insn.t) =
  let op = Insn.key i in
  match i with
  | Rop (_, rs, rt, rd) ->
    pack ~op ~a:(reg_bits rs) ~b:(reg_bits rt) (reg_bits rd lsl 11)
  | Ropi (_, rs, v, rd) -> pack ~op ~a:(reg_bits rs) ~b:(reg_bits rd) (imm16 v)
  | Lda (rs, v, rd) -> pack ~op ~a:(reg_bits rs) ~b:(reg_bits rd) (imm16 v)
  | Lui (v, rd) -> pack ~op ~a:0 ~b:(reg_bits rd) (imm16 v)
  | Mem (_, rs, v, rt) -> pack ~op ~a:(reg_bits rs) ~b:(reg_bits rt) (imm16 v)
  | Br (_, rs, t) -> pack ~op ~a:(reg_bits rs) ~b:0 (branch_off ~pc t)
  | Jmp t | Jal t -> (op lsl 26) lor jump_field t
  | Jr rs -> pack ~op ~a:(reg_bits rs) ~b:0 0
  | Jalr (rs, rd) -> pack ~op ~a:(reg_bits rs) ~b:(reg_bits rd) 0
  | Dbr (_, rs, off) -> pack ~op ~a:(reg_bits rs) ~b:0 (imm16 off)
  | Djmp off ->
    if off < 0 || off > 0x3FFFFFF then fail "djmp offset out of range"
    else (op lsl 26) lor off
  | Codeword { op = cw_op; p1; p2; p3; tag } ->
    (* The fields share one word with no hardware range enforcement:
       an oversized parameter would wrap into the opcode bits and an
       oversized tag into p3, decoding as a different instruction. *)
    if cw_op < 0 || cw_op > 3 then fail "codeword opcode %d out of range" cw_op;
    let param name v =
      if v < 0 || v > 0x1F then
        fail "codeword parameter %s=%d out of 5-bit range" name v
      else v
    in
    if tag < 0 || tag > 0x7FF then
      fail "codeword tag %d out of 11-bit range" tag;
    pack ~op ~a:(param "p1" p1) ~b:(param "p2" p2)
      ((param "p3" p3 lsl 11) lor tag)
  | Nop | Halt -> op lsl 26

let nth_rop n = List.nth Opcode.all_rops n
let nth_mop n = List.nth Opcode.all_mops n
let nth_bop n = List.nth Opcode.all_bops n

let decode ~pc word =
  let word = word land 0xFFFFFFFF in
  let op = (word lsr 26) land 0x3F in
  let a = (word lsr 21) land 0x1F in
  let b = (word lsr 16) land 0x1F in
  let c = (word lsr 11) land 0x1F in
  let low16 = word land 0xFFFF in
  let low26 = word land 0x3FFFFFF in
  let reg = Reg.r in
  let branch_target () = Insn.Abs (pc + 4 + (sign16 low16 * 2)) in
  if op < 14 then Insn.Rop (nth_rop op, reg a, reg b, reg c)
  else if op < 28 then Insn.Ropi (nth_rop (op - 14), reg a, sign16 low16, reg b)
  else
    match op with
    | 28 -> Lda (reg a, sign16 low16, reg b)
    | 29 -> Lui (sign16 low16, reg b)
    | 30 | 31 | 32 | 33 -> Mem (nth_mop (op - 30), reg a, sign16 low16, reg b)
    | 34 | 35 | 36 | 37 | 38 | 39 -> Br (nth_bop (op - 34), reg a, branch_target ())
    | 40 -> Jmp (Abs (low26 lsl 2))
    | 41 -> Jal (Abs (low26 lsl 2))
    | 42 -> Jr (reg a)
    | 43 -> Jalr (reg a, reg b)
    | 44 | 45 | 46 | 47 | 48 | 49 -> Dbr (nth_bop (op - 44), reg a, sign16 low16)
    | 50 -> Djmp low26
    | 51 | 52 | 53 | 54 ->
      Codeword { op = op - 51; p1 = a; p2 = b; p3 = c; tag = word land 0x7FF }
    | 55 -> Nop
    | 56 -> Halt
    | _ -> fail "unknown primary opcode %d" op

let encode_image img =
  let n = Program.Image.length img in
  Array.init n (fun i ->
      let size = Program.Image.size_of_index img i in
      if size <> 4 then fail "instruction %d has size %d (need 4)" i size;
      encode ~pc:(Program.Image.addr_of_index img i) (Program.Image.get img i))

let decode_image ~base words =
  Array.mapi (fun i w -> decode ~pc:(base + (4 * i)) w) words

(* Exception-free entry points: encoding failures are user-input
   defects (a program that cannot exist as binary), so they surface as
   parse-class diagnostics (exit code 2), not crashes. *)
let diag msg = Diag.Parse { source = "encode"; line = 0; msg }

let encode_result ~pc i =
  match encode ~pc i with
  | word -> Ok word
  | exception Error msg -> Error (diag msg)

let encode_image_result img =
  match encode_image img with
  | words -> Ok words
  | exception Error msg -> Error (diag msg)

let encodable i =
  let arch r = Reg.is_arch r in
  let regs_ok =
    List.for_all arch (Insn.defs i) && List.for_all arch (Insn.uses i)
  in
  let target_ok =
    match Insn.branch_target i with
    | Some (Lab _) -> false
    | Some (Abs _) | None -> true
  in
  regs_ok && target_ok
