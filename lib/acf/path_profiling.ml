module R = Dise_core.Replacement
module Pattern = Dise_core.Pattern
module Production = Dise_core.Production
module Prodset = Dise_core.Prodset
module Machine = Dise_machine.Machine
module Memory = Dise_machine.Memory
module Regfile = Dise_machine.Regfile
module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg

let rsid_base = 4140
let history_bits = 28

let hist = R.Rlit (Reg.d 9)
let scratch = R.Rlit (Reg.d 4)
let buf = R.Rlit (Reg.d 6)

(* One sequence per conditional-branch opcode: the internal branch must
   test the trigger's own condition. *)
let branch_seq (bop : Op.bop) : R.t =
  [|
    (* lossy truncation: restart the tag when the history fills *)
    R.Insn (I.Ropi (Op.Srl, hist, R.Ilit history_bits, scratch));
    R.Insn (I.Dbr (Op.Beq, scratch, 3));
    R.Insn (I.Ropi (Op.Add, R.Rlit Reg.zero, R.Ilit 1, hist));
    (* append the outcome bit, decided by the trigger's own condition *)
    R.Insn (I.Dbr (bop, R.Rrs, 6));
    R.Insn (I.Ropi (Op.Sll, hist, R.Ilit 1, hist));
    R.Insn (I.Djmp 8);
    R.Insn (I.Ropi (Op.Sll, hist, R.Ilit 1, hist));
    R.Insn (I.Lda (hist, R.Ilit 1, hist));
    R.Trigger;
  |]

(* Path endpoint (function return): record (PC, history), reset. *)
let endpoint_seq : R.t =
  [|
    R.Insn (I.Ropi (Op.Add, R.Rlit Reg.zero, R.Ipc, scratch));
    R.Insn (I.Mem (Op.Stq, buf, R.Ilit 0, scratch));
    R.Insn (I.Mem (Op.Stq, buf, R.Ilit 4, hist));
    R.Insn (I.Lda (buf, R.Ilit 8, buf));
    R.Insn (I.Ropi (Op.Add, R.Rlit Reg.zero, R.Ilit 1, hist));
    R.Trigger;
  |]

let bop_index (op : Op.bop) =
  match op with Beq -> 0 | Bne -> 1 | Blt -> 2 | Bge -> 3 | Ble -> 4
  | Bgt -> 5

let productions () =
  let set =
    List.fold_left
      (fun set bop ->
        let rsid = rsid_base + bop_index bop in
        let pattern =
          Pattern.of_opcode (I.Br (bop, Reg.zero, I.Abs 0))
        in
        Prodset.add set
          (Production.make
             ~name:(Printf.sprintf "path_%s" (Op.bop_to_string bop))
             pattern (Production.Direct rsid))
          (branch_seq bop))
      Prodset.empty Op.all_bops
  in
  Prodset.add set
    (Production.make ~name:"path_endpoint"
       (Pattern.with_rs Reg.ra Pattern.indirect_jumps)
       (Production.Direct (rsid_base + 6)))
    endpoint_seq

let install m ~buffer =
  Machine.set_dise_reg m 6 buffer;
  Machine.set_dise_reg m 9 1  (* sentinel: empty history *)

type path = {
  endpoint : int;
  history : int;
  length : int;
  count : int;
}

let decode_history tag =
  (* The sentinel 1 bit marks the start; bits below it are outcomes. *)
  let rec msb i = if tag lsr i = 1 then i else msb (i + 1) in
  if tag <= 0 then (0, 0)
  else
    let len = msb 0 in
    (tag land ((1 lsl len) - 1), len)

let paths m ~buffer =
  let stop = Regfile.get (Machine.regs m) (Reg.d 6) in
  let mem = Machine.memory m in
  let tbl = Hashtbl.create 256 in
  let addr = ref buffer in
  while !addr + 8 <= stop do
    let pc = Memory.read_u32 mem !addr in
    let tag = Memory.read_u32 mem (!addr + 4) in
    let key = (pc, tag) in
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key));
    addr := !addr + 8
  done;
  Hashtbl.fold
    (fun (endpoint, tag) count acc ->
      let history, length = decode_history tag in
      { endpoint; history; length; count } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.count a.count)

let pp_path ppf p =
  let bits =
    String.init p.length (fun i ->
        if (p.history lsr (p.length - 1 - i)) land 1 = 1 then 'T' else 'N')
  in
  Format.fprintf ppf "endpoint %08x path [%s] x%d" p.endpoint
    (if bits = "" then "-" else bits)
    p.count
