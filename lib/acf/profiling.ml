module R = Dise_core.Replacement
module Machine = Dise_machine.Machine
module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Op = Dise_isa.Opcode

let rsid = 4130

(* add zero, #T.PC, $dr4: the trigger's PC materialized as a value —
   replacement immediates are not bound by the 16-bit encodable field
   because the RT holds them in internal form. *)
let sequence =
  [|
    R.Insn (I.Ropi (Op.Add, R.Rlit Reg.zero, R.Ipc, R.Rlit (Reg.d 4)));
    R.Insn (I.Mem (Op.Stq, R.Rlit (Reg.d 6), R.Ilit 0, R.Rlit (Reg.d 4)));
    R.Insn (I.Lda (R.Rlit (Reg.d 6), R.Ilit 4, R.Rlit (Reg.d 6)));
    R.Trigger;
  |]

let productions () =
  Dise_core.Prodset.add Dise_core.Prodset.empty
    (Dise_core.Production.make ~name:"profile_branch"
       Dise_core.Pattern.cond_branches (Dise_core.Production.Direct rsid))
    sequence

let install m ~buffer = Machine.set_dise_reg m 6 buffer

let counts m ~buffer =
  let stop = Dise_machine.Regfile.get (Machine.regs m) (Reg.d 6) in
  let mem = Machine.memory m in
  let tbl = Hashtbl.create 256 in
  let addr = ref buffer in
  while !addr < stop do
    let pc = Dise_machine.Memory.read_u32 mem !addr in
    Hashtbl.replace tbl pc (1 + Option.value ~default:0 (Hashtbl.find_opt tbl pc));
    addr := !addr + 4
  done;
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let hottest m ~buffer ~n =
  List.filteri (fun i _ -> i < n) (counts m ~buffer)
