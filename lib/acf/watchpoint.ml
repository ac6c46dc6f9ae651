module R = Dise_core.Replacement
module Machine = Dise_machine.Machine
module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Op = Dise_isa.Opcode

let rsid = 4132

let sequence ~handler =
  [|
    R.Insn (I.Lda (R.Rrs, R.Iimm, R.Rlit (Reg.d 4)));
    R.Insn (I.Rop (Op.Xor, R.Rlit (Reg.d 4), R.Rlit (Reg.d 7), R.Rlit (Reg.d 4)));
    R.Insn (I.Br (Op.Beq, R.Rlit (Reg.d 4), R.Tabs handler));
    R.Trigger;
  |]

let productions ~handler () =
  Dise_core.Prodset.add Dise_core.Prodset.empty
    (Dise_core.Production.make ~name:"watch_store" Dise_core.Pattern.stores
       (Dise_core.Production.Direct rsid))
    (sequence ~handler)

let productions_for image =
  match Dise_isa.Program.Image.symbol image "__error" with
  | Some handler -> productions ~handler ()
  | None -> invalid_arg "Watchpoint.productions_for: no __error symbol"

let install m ~addr = Machine.set_dise_reg m 7 addr
let disarm m = Machine.set_dise_reg m 7 1
