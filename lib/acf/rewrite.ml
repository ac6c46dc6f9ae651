module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Program = Dise_isa.Program

type variant =
  | Segment_matching
  | Sandboxing

(* Scavenged registers (reserved by the workload generator). *)
let r_dseg = Reg.r 23   (* data segment id (matching) or base (sandbox) *)
let r_scratch = Reg.r 24  (* scratch (matching) or offset mask (sandbox) *)
let r_copy = Reg.r 25
let r_cseg = Reg.r 26
let scavenged = [ r_dseg; r_scratch; r_copy; r_cseg ]

(* The checks hold segment ids and addresses in the scavenged
   registers, so an application instruction that reads or writes one
   would silently defeat (or be clobbered by) them. *)
let check_scavenged insn =
  let touches r = List.exists (Reg.equal r) scavenged in
  match List.find_opt touches (I.uses insn @ I.defs insn) with
  | None -> ()
  | Some r ->
    invalid_arg
      (Printf.sprintf
         "Rewrite.rewrite: %s uses %s, a register the rewriter reserves \
          (r23-r26)"
         (I.to_string insn) (Reg.to_string r))

let seg_shift = 26
let offset_mask = (1 lsl seg_shift) - 1

(* Local constant loader (mirrors the generator's li). *)
let emit_li acc reg v =
  if v <= 32767 then I.Ropi (Op.Add, Reg.zero, v, reg) :: acc
  else begin
    let hi = v lsr 16 and lo = v land 0xFFFF in
    let acc = I.Lui (hi, reg) :: acc in
    if lo = 0 then acc
    else if lo <= 32767 then I.Ropi (Op.Add, reg, lo, reg) :: acc
    else
      let acc = I.Ropi (Op.Add, reg, 0x4000, reg) :: acc in
      let acc = I.Ropi (Op.Add, reg, 0x4000, reg) :: acc in
      if lo - 0x8000 = 0 then acc
      else I.Ropi (Op.Add, reg, lo - 0x8000, reg) :: acc
  end

let init_code variant ~data_seg ~code_seg =
  let acc =
    match variant with
    | Segment_matching ->
      emit_li (emit_li [] r_dseg data_seg) r_cseg code_seg
    | Sandboxing ->
      emit_li
        (emit_li (emit_li [] r_dseg (data_seg lsl seg_shift)) r_cseg
           (code_seg lsl seg_shift))
        r_scratch offset_mask
  in
  List.rev acc

(* Checks for segment matching: the extra copy into r25 protects the
   check against control transfers into its middle — the cost the
   paper charges to software SFI. *)
let matching_check ~error_label ~seg_reg rs =
  [
    I.Lda (rs, 0, r_copy);
    I.Ropi (Op.Srl, r_copy, seg_shift, r_scratch);
    I.Rop (Op.Xor, r_scratch, seg_reg, r_scratch);
    I.Br (Op.Bne, r_scratch, I.Lab error_label);
  ]

(* Sandboxing: force the effective address's segment bits, and rewrite
   the access to go through the sandboxed register. *)
let sandbox_addr ~seg_base_reg rs imm =
  [
    I.Lda (rs, imm, r_copy);
    I.Rop (Op.And_, r_copy, r_scratch, r_copy);
    I.Rop (Op.Or_, r_copy, seg_base_reg, r_copy);
  ]

let rewrite_insn variant ~check_jumps ~error_label insn =
  match variant with
  | Segment_matching -> (
    match insn with
    | I.Mem (_, rs, _, _) ->
      matching_check ~error_label ~seg_reg:r_dseg rs @ [ insn ]
    | I.Jr rs | I.Jalr (rs, _) ->
      if check_jumps then
        matching_check ~error_label ~seg_reg:r_cseg rs @ [ insn ]
      else [ insn ]
    | _ -> [ insn ])
  | Sandboxing -> (
    match insn with
    | I.Mem (mop, rs, imm, rt) ->
      sandbox_addr ~seg_base_reg:r_dseg rs imm @ [ I.Mem (mop, r_copy, 0, rt) ]
    | I.Jr rs when check_jumps ->
      sandbox_addr ~seg_base_reg:r_cseg rs 0 @ [ I.Jr r_copy ]
    | I.Jalr (rs, rd) when check_jumps ->
      sandbox_addr ~seg_base_reg:r_cseg rs 0 @ [ I.Jalr (r_copy, rd) ]
    | _ -> [ insn ])

let rewrite ?(variant = Segment_matching) ?(check_jumps = false)
    ?(error_label = "__error") ~data_seg ~code_seg prog =
  List.concat_map
    (fun item ->
      match item with
      | Program.Label "main" ->
        item
        :: List.map
             (fun i -> Program.Ins i)
             (init_code variant ~data_seg ~code_seg)
      | Program.Label _ -> [ item ]
      | Program.Ins insn ->
        check_scavenged insn;
        List.map
          (fun i -> Program.Ins i)
          (rewrite_insn variant ~check_jumps ~error_label insn))
    prog

let static_growth original rewritten =
  float_of_int (Program.size rewritten) /. float_of_int (Program.size original)
