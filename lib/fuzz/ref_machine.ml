(* The reference interpreter: the machine's semantics written the
   direct way, one match on the boxed instruction per step. It shares
   no execution code with {!Dise_machine.Machine}: registers go
   through [Regfile.get]/[set] by [Reg.t], ALU and branch semantics
   through [Opcode.eval_rop]/[eval_bop], and each step decodes its
   descriptor afresh. Slow on purpose; see ref_machine.mli. *)

module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Image = Dise_isa.Program.Image
module Desc = Dise_isa.Desc
module Machine = Dise_machine.Machine
module Raw = Machine.Raw
module Regfile = Dise_machine.Regfile
module Memory = Dise_machine.Memory

type t = {
  image : Image.t;
  index : (int, int) Hashtbl.t;
      (* instruction address -> index, built from [Image.addr_of_index]
         rather than taken from [Image.find_index], which it checks *)
  expander : Machine.expander;
  mem : Memory.t;
  regs : Regfile.t;
  mutable pc : int;
  mutable disepc : int;
  mutable cur : Machine.expansion option;
  mutable cur_size : int;
  mutable halted : bool;
  mutable insn : I.t;
  raw : Raw.t;
}

let fail fmt =
  Printf.ksprintf (fun s -> raise (Machine.Runtime_error s)) fmt

let no_expander ~pc:_ _ = None

let of_machine ?(expander = no_expander) m =
  let image = Machine.image m in
  let index = Hashtbl.create (Image.length image) in
  for i = 0 to Image.length image - 1 do
    Hashtbl.replace index (Image.addr_of_index image i) i
  done;
  {
    image;
    index;
    expander;
    mem = Machine.memory m;
    regs = Machine.regs m;
    pc = Machine.pc m;
    disepc = Machine.disepc m;
    cur = None;
    cur_size = 4;
    halted = Machine.halted m;
    insn = I.Nop;
    raw =
      {
        Raw.pc = 0;
        desc = Desc.of_insn I.Nop;
        imm = 0;
        rsid = -1;
        offset = 0;
        len = 0;
        expansion_start = false;
        fetched_new_pc = false;
        mem_addr = Raw.no_mem;
        branch = -1;
        target = 0;
      };
  }

let raw t = t.raw
let insn t = t.insn
let regs t = t.regs
let memory t = t.mem
let pc t = t.pc
let disepc t = t.disepc
let exit_code t = Regfile.get t.regs (Reg.r 2)

type flow = Next | App_goto | Dise_goto | Stop

let target_addr = function
  | I.Abs a -> a
  | I.Lab l -> fail "unresolved label %s at runtime" l

(* Execute [insn]; DISE-internal control is legal only [in_seq]. The
   return address of a call is the application-level fall-through.
   Memory address and branch outcome go to [t.raw]. *)
let exec_one t insn ~in_seq =
  let regs = t.regs in
  let r = t.raw in
  r.Raw.mem_addr <- Raw.no_mem;
  r.Raw.branch <- -1;
  match insn with
  | I.Rop (op, a, b, c) ->
    Regfile.set regs c
      (Op.eval_rop op (Regfile.get regs a) (Regfile.get regs b));
    Next
  | I.Ropi (op, a, v, c) ->
    Regfile.set regs c (Op.eval_rop op (Regfile.get regs a) v);
    Next
  | I.Lda (base, off, rd) ->
    Regfile.set regs rd (Regfile.get regs base + off);
    Next
  | I.Lui (v, rd) ->
    Regfile.set regs rd (v lsl 16);
    Next
  | I.Mem (mop, base, off, data) ->
    let addr = Op.mask32 (Regfile.get regs base + off) in
    r.Raw.mem_addr <- addr;
    (match mop with
    | Op.Ldq -> Regfile.set regs data (Memory.read_s32 t.mem addr)
    | Op.Ldbu -> Regfile.set regs data (Memory.read_u8 t.mem addr)
    | Op.Stq ->
      Memory.write_u32 t.mem addr (Op.mask32 (Regfile.get regs data))
    | Op.Stb -> Memory.write_u8 t.mem addr (Regfile.get regs data));
    Next
  | I.Br (bop, r0, tgt) ->
    let target = target_addr tgt in
    let taken = Op.eval_bop bop (Regfile.get regs r0) in
    r.Raw.branch <- (if taken then 1 else 0);
    r.Raw.target <- target;
    if taken then App_goto else Next
  | I.Jmp tgt ->
    r.Raw.target <- target_addr tgt;
    r.Raw.branch <- 1;
    App_goto
  | I.Jal tgt ->
    let target = target_addr tgt in
    Regfile.set regs Reg.ra (t.pc + t.cur_size);
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    App_goto
  | I.Jr r0 ->
    r.Raw.branch <- 1;
    r.Raw.target <- Op.mask32 (Regfile.get regs r0);
    App_goto
  | I.Jalr (r0, rd) ->
    let target = Op.mask32 (Regfile.get regs r0) in
    Regfile.set regs rd (t.pc + t.cur_size);
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    App_goto
  | I.Dbr (bop, r0, off) ->
    if not in_seq then fail "DISE branch outside replacement sequence";
    let taken = Op.eval_bop bop (Regfile.get regs r0) in
    r.Raw.branch <- (if taken then 3 else 2);
    r.Raw.target <- off;
    if taken then Dise_goto else Next
  | I.Djmp off ->
    if not in_seq then fail "DISE jump outside replacement sequence";
    r.Raw.branch <- 3;
    r.Raw.target <- off;
    Dise_goto
  | I.Codeword _ ->
    if in_seq then fail "codeword inside replacement sequence (recursion)"
    else fail "codeword at 0x%x matched no production" t.pc
  | I.Nop -> Next
  | I.Halt -> Stop

(* Describe the step; the descriptor and the immediate are decoded
   here, from the instruction, not copied from a pre-decoded table. *)
let describe t insn ~rsid ~offset ~len ~expansion_start ~fetched_new_pc =
  let r = t.raw in
  t.insn <- insn;
  r.Raw.pc <- t.pc;
  r.Raw.desc <- Desc.of_insn insn;
  r.Raw.imm <- Desc.imm_of_insn insn;
  r.Raw.rsid <- rsid;
  r.Raw.offset <- offset;
  r.Raw.len <- len;
  r.Raw.expansion_start <- expansion_start;
  r.Raw.fetched_new_pc <- fetched_new_pc

let finish_sequence t =
  t.cur <- None;
  t.disepc <- 0;
  t.pc <- t.pc + t.cur_size

let step_in_sequence_core t (e : Machine.expansion) ~expansion_start =
  let len = Array.length e.Machine.seq in
  let offset = t.disepc in
  let insn = e.Machine.seq.(offset) in
  let flow = exec_one t insn ~in_seq:true in
  describe t insn ~rsid:e.Machine.rsid ~offset ~len ~expansion_start
    ~fetched_new_pc:expansion_start;
  (match flow with
  | Next ->
    t.disepc <- offset + 1;
    if t.disepc >= len then finish_sequence t
  | App_goto ->
    t.cur <- None;
    t.disepc <- 0;
    t.pc <- t.raw.Raw.target
  | Dise_goto ->
    let d = t.raw.Raw.target in
    if d < 0 || d > len then
      fail "DISE transfer to offset %d outside sequence of length %d" d len;
    t.disepc <- d;
    if d = len then finish_sequence t
  | Stop -> t.halted <- true)

let step t =
  if t.halted then false
  else
    match t.cur with
    | Some e when t.disepc < Array.length e.Machine.seq ->
      step_in_sequence_core t e ~expansion_start:false;
      true
    | Some _ | None -> (
      match Hashtbl.find_opt t.index t.pc with
      | None -> fail "PC 0x%x outside text" t.pc
      | Some idx -> (
        let insn = Image.get t.image idx in
        t.cur_size <- Image.size_of_index t.image idx;
        match t.expander ~pc:t.pc insn with
        | Some e ->
          if Array.length e.Machine.seq = 0 then
            fail "empty replacement sequence for 0x%x" t.pc;
          t.cur <- Some e;
          if t.disepc >= Array.length e.Machine.seq then t.disepc <- 0;
          step_in_sequence_core t e ~expansion_start:true;
          true
        | None ->
          t.disepc <- 0;
          let flow = exec_one t insn ~in_seq:false in
          describe t insn ~rsid:(-1) ~offset:0 ~len:0 ~expansion_start:false
            ~fetched_new_pc:true;
          (match flow with
          | Next -> t.pc <- t.pc + t.cur_size
          | App_goto -> t.pc <- t.raw.Raw.target
          | Dise_goto -> assert false
          | Stop -> t.halted <- true);
          true))
