module R = Dise_core.Replacement
module Pattern = Dise_core.Pattern
module Production = Dise_core.Production
module Prodset = Dise_core.Prodset
module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Op = Dise_isa.Opcode

type variant = Dise3 | Dise4

let rsid_base = 4096

let check_length = function Dise3 -> 3 | Dise4 -> 4

(* The segment check against dedicated register [seg_reg], ending with
   the trigger. *)
let check_seq variant ~error ~seg_reg =
  let scratch0 = R.Rlit (Reg.d 0) in
  let scratch1 = R.Rlit (Reg.d 1) in
  let seg = R.Rlit (Reg.d seg_reg) in
  let tail =
    [
      R.Insn (I.Rop (Op.Xor, scratch1, seg, scratch1));
      R.Insn (I.Br (Op.Bne, scratch1, R.Tabs error));
      R.Trigger;
    ]
  in
  match variant with
  | Dise3 ->
    (* No defensive copy: replacement sequences cannot be jumped into,
       so checking T.RS directly is safe. *)
    Array.of_list
      (R.Insn (I.Ropi (Op.Srl, R.Rrs, R.Ilit 26, scratch1)) :: tail)
  | Dise4 ->
    (* The software formulation's sequence: copy the address register
       first so a malicious jump past the copy would still check the
       copied value. *)
    Array.of_list
      (R.Insn (I.Lda (R.Rrs, R.Ilit 0, scratch0))
      :: R.Insn (I.Ropi (Op.Srl, scratch0, R.Ilit 26, scratch1))
      :: tail)

let productions ?(variant = Dise3) ?(check_jumps = false) ~error () =
  let mem_rsid = rsid_base and jump_rsid = rsid_base + 1 in
  let set =
    Prodset.empty
    |> (fun s ->
         Prodset.define_sequence s mem_rsid
           (check_seq variant ~error ~seg_reg:2))
    |> fun s ->
    Prodset.add_production
      (Prodset.add_production s
         (Production.make ~name:"mfi_store" Pattern.stores
            (Production.Direct mem_rsid)))
      (Production.make ~name:"mfi_load" Pattern.loads
         (Production.Direct mem_rsid))
  in
  if not check_jumps then set
  else
    Prodset.add_production
      (Prodset.define_sequence set jump_rsid
         (check_seq variant ~error ~seg_reg:3))
      (Production.make ~name:"mfi_jump" Pattern.indirect_jumps
         (Production.Direct jump_rsid))

let productions_for ?variant ?check_jumps image =
  match Dise_isa.Program.Image.symbol image "__error" with
  | Some error -> productions ?variant ?check_jumps ~error ()
  | None -> invalid_arg "Mfi.productions_for: image has no __error symbol"

let install m ~data_seg ~code_seg =
  Dise_machine.Machine.set_dise_reg m 2 data_seg;
  Dise_machine.Machine.set_dise_reg m 3 code_seg

(* --- sandboxing --------------------------------------------------------- *)

let seg_shift = 26
let offset_mask = (1 lsl seg_shift) - 1

(* One production per memory opcode: the rebuilt access must carry the
   trigger's own opcode. *)
let sandbox_seq (mop : Op.mop) =
  let addr = R.Rlit (Reg.d 0) in
  let mask = R.Rlit (Reg.d 4) in
  let segbase = R.Rlit (Reg.d 5) in
  [|
    R.Insn (I.Lda (R.Rrs, R.Iimm, addr));  (* full effective address *)
    R.Insn (I.Rop (Op.And_, addr, mask, addr));  (* strip segment bits *)
    R.Insn (I.Rop (Op.Or_, addr, segbase, addr));  (* force the legal segment *)
    R.Insn (I.Mem (mop, addr, R.Ilit 0, R.Rrt));  (* the access, rebuilt *)
  |]

let mop_index (op : Op.mop) =
  match op with Ldq -> 0 | Ldbu -> 1 | Stq -> 2 | Stb -> 3

let sandbox_productions () =
  List.fold_left
    (fun set mop ->
      let rsid = rsid_base + 8 + mop_index mop in
      let example = Dise_isa.Insn.Mem (mop, Reg.zero, 0, Reg.zero) in
      Prodset.add set
        (Production.make
           ~name:("mfi_sandbox_" ^ Op.mop_to_string mop)
           (Pattern.of_opcode example) (Production.Direct rsid))
        (sandbox_seq mop))
    Prodset.empty Op.all_mops

let install_sandbox m ~data_seg =
  Dise_machine.Machine.set_dise_reg m 4 offset_mask;
  Dise_machine.Machine.set_dise_reg m 5 (data_seg lsl seg_shift)
