module R = Dise_core.Replacement
module Machine = Dise_machine.Machine
module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Op = Dise_isa.Opcode

let rsid = 4128

let sequence =
  [|
    R.Insn (I.Lda (R.Rrs, R.Iimm, R.Rlit (Reg.d 4)));
    R.Insn (I.Mem (Op.Stq, R.Rlit (Reg.d 5), R.Ilit 0, R.Rlit (Reg.d 4)));
    R.Insn (I.Lda (R.Rlit (Reg.d 5), R.Ilit 4, R.Rlit (Reg.d 5)));
    R.Trigger;
  |]

let productions () =
  Dise_core.Prodset.add Dise_core.Prodset.empty
    (Dise_core.Production.make ~name:"trace_store" Dise_core.Pattern.stores
       (Dise_core.Production.Direct rsid))
    sequence

let install m ~buffer = Machine.set_dise_reg m 5 buffer

let trace m ~buffer =
  let stop = Dise_machine.Regfile.get (Machine.regs m) (Reg.d 5) in
  let mem = Machine.memory m in
  let rec go addr acc =
    if addr >= stop then List.rev acc
    else go (addr + 4) (Dise_machine.Memory.read_u32 mem addr :: acc)
  in
  go buffer []
