module R = Dise_core.Replacement
module Machine = Dise_machine.Machine
module Memory = Dise_machine.Memory
module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Op = Dise_isa.Opcode

let rsid = 4134
let block_bytes = 64
let block_shift = 6

(* lda $dr4, T.IMM(T.RS)   effective address
   srl $dr4, #6, $dr4      block number
   add $dr8, $dr4, $dr4    state-table entry address
   ldbu $dr4, 0($dr4)      block state
   beq $dr4, handler       0 = absent: miss
   T.INSN *)
let check_seq ~handler =
  let scratch = R.Rlit (Reg.d 4) in
  let table = R.Rlit (Reg.d 8) in
  [|
    R.Insn (I.Lda (R.Rrs, R.Iimm, scratch));
    R.Insn (I.Ropi (Op.Srl, scratch, R.Ilit block_shift, scratch));
    R.Insn (I.Rop (Op.Add, table, scratch, scratch));
    R.Insn (I.Mem (Op.Ldbu, scratch, R.Ilit 0, scratch));
    R.Insn (I.Br (Op.Beq, scratch, R.Tabs handler));
    R.Trigger;
  |]

let productions ~handler () =
  let set =
    Dise_core.Prodset.define_sequence Dise_core.Prodset.empty rsid
      (check_seq ~handler)
  in
  let set =
    Dise_core.Prodset.add_production set
      (Dise_core.Production.make ~name:"dsm_store" Dise_core.Pattern.stores
         (Dise_core.Production.Direct rsid))
  in
  Dise_core.Prodset.add_production set
    (Dise_core.Production.make ~name:"dsm_load" Dise_core.Pattern.loads
       (Dise_core.Production.Direct rsid))

let productions_for image =
  match Dise_isa.Program.Image.symbol image "__error" with
  | Some handler -> productions ~handler ()
  | None -> invalid_arg "Dsm.productions_for: no __error symbol"

let table_bias ~shadow_base ~data_base = shadow_base - (data_base lsr block_shift)

let install m ~shadow_base ~data_base =
  Machine.set_dise_reg m 8 (table_bias ~shadow_base ~data_base)

let mark m ~shadow_base ~data_base ~addr ~len v =
  let mem = Machine.memory m in
  let first = addr lsr block_shift in
  let last = (addr + max 1 len - 1) lsr block_shift in
  for blk = first to last do
    Memory.write_u8 mem (table_bias ~shadow_base ~data_base + blk) v
  done

let mark_present m ~shadow_base ~data_base ~addr ~len =
  mark m ~shadow_base ~data_base ~addr ~len 1

let mark_absent m ~shadow_base ~data_base ~addr ~len =
  mark m ~shadow_base ~data_base ~addr ~len 0
