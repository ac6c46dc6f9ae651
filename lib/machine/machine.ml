module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module Image = Dise_isa.Program.Image
module Desc = Dise_isa.Desc

type expansion = {
  rsid : int;
  seq : I.t array;
  descs : Desc.t array;
  imms : int array;
}

let expansion ~rsid seq =
  {
    rsid;
    seq;
    descs = Array.map Desc.of_insn seq;
    imms = Array.map Desc.imm_of_insn seq;
  }

type expander = pc:int -> I.t -> expansion option

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* The description of one dynamic instruction: one mutable record per
   machine, overwritten by every executed instruction, so walking the
   post-expansion stream allocates nothing. Every field is immediate,
   so filling it stores no pointer. *)
module Raw = struct
  type t = {
    mutable pc : int;
    mutable desc : Desc.t;
    mutable imm : int;
    mutable rsid : int;  (* -1 = application instruction *)
    mutable offset : int;
    mutable len : int;
    mutable expansion_start : bool;
    mutable fetched_new_pc : bool;
    mutable mem_addr : int;  (* effective address, or [no_mem] *)
    mutable branch : int;  (* -1 = none; bit 0 = taken, bit 1 = dise_internal *)
    mutable target : int;
  }

  (* Sentinel for "no memory access"; addresses are 32-bit masked, so
     [min_int] can never collide. *)
  let no_mem = min_int

  let make () =
    {
      pc = 0;
      desc = Desc.of_insn I.Nop;
      imm = 0;
      rsid = -1;
      offset = 0;
      len = 0;
      expansion_start = false;
      fetched_new_pc = false;
      mem_addr = no_mem;
      branch = -1;
      target = 0;
    }

  let insn r = Desc.to_insn r.desc r.imm
end

let no_mem = Raw.no_mem

(* --- superblock JIT ------------------------------------------------------ *)

(* Once an application PC has been dispatched [threshold] times, the
   static code reachable from it — with every expansion already
   performed — is flattened into a contiguous arena of parallel arrays
   (the superblock). Executing from the arena costs zero per-fetch
   matching, hashing, or allocation: the expander is consulted only at
   compile time. A block ends at the first application-level transfer;
   the next one is found through the dispatcher. Soundness is
   generation-stamped: the engine bumps [generation] on any
   production-set swap or PT/RT write, and a mismatch observed at the
   next application-instruction boundary retires every superblock at
   once (see doc/jit.md). *)
type jit = {
  threshold : int;
  generation : int ref;  (* owned by the engine; [ref 0] when detached *)
  mutable cur_gen : int;
  (* per static instruction, indexed by [Image.find_index] *)
  slot_block : int array;  (* block id; -1 unknown, -2 never *)
  slot_count : int array;  (* dispatches so far *)
  (* block table: block id -> arena [start, start+len) *)
  mutable blk_start : int array;
  mutable blk_len : int array;
  mutable n_blocks : int;
  (* the arena: one entry per post-expansion dynamic-instruction slot,
     as parallel int arrays (no per-entry record, no pointer to
     chase) *)
  mutable a_desc : Desc.t array;
  mutable a_imm : int array;
  mutable a_pc : int array;  (* application PC of the (trigger) instruction *)
  mutable a_size : int array;  (* byte size of the application instruction *)
  mutable a_rsid : int array;  (* -1 = application instruction *)
  mutable a_off : int array;  (* DISEPC within the sequence *)
  mutable a_len : int array;  (* sequence length (0 for app entries) *)
  mutable a_base : int array;  (* arena index of the sequence's offset 0 *)
  mutable a_flags : int array;
  mutable a_used : int;
  mutable compiles : int;
  mutable hits : int;
  mutable invalidations : int;
}

(* Arena entry flags. [f_app] marks an application-instruction
   boundary (a fresh fetch: I-cache + PT are touched); [f_estart] the
   first instruction of an expansion; [f_inseq] replacement-sequence
   membership (DISE-internal control is legal); [f_last] an entry
   whose [Next] completes the application instruction. *)
let f_app = 1
let f_estart = 2
let f_inseq = 4
let f_last = 8

let default_jit_threshold = 8
let jit_max_block_app = 4096

type t = {
  image : Image.t;
  insns : I.t array;  (* [Image.raw_insns image], for the expander *)
  descs : Desc.t array;  (* [Image.raw_descs image] *)
  imms : int array;  (* [Image.raw_imms image] *)
  mem : Memory.t;
  regs : Regfile.t;
  rf : int array;  (* [Regfile.slots regs] *)
  expander : expander;
  mutable pc : int;
  mutable disepc : int;
  mutable cur : expansion option;
  mutable cur_size : int;  (* byte size of the current application insn *)
  mutable halted : bool;
  mutable executed : int;
  mutable app_fetched : int;
  mutable expansions : int;
  (* Output of the execution core, read by the caller after each
     step: filling mutable fields instead of returning a value keeps
     the hot path allocation-free. *)
  raw : Raw.t;
  mutable jit : jit option;
  (* Superblock cursor: the next arena entry to execute is
     [jit_ix] while [jit_ix < jit_end]; equal fields mean "not inside
     a block". *)
  mutable jit_ix : int;
  mutable jit_end : int;
}

let no_expander ~pc:_ _ = None

let default_sp = 0x07FFFF00

let create ?(expander = no_expander) ?(entry = "main") image =
  let pc =
    match Image.symbol image entry with
    | Some a -> a
    | None -> Image.base image
  in
  let regs = Regfile.create () in
  Regfile.set regs Reg.sp default_sp;
  {
    image;
    insns = Image.raw_insns image;
    descs = Image.raw_descs image;
    imms = Image.raw_imms image;
    mem = Memory.create ();
    regs;
    rf = Regfile.slots regs;
    expander;
    pc;
    disepc = 0;
    cur = None;
    cur_size = 4;
    halted = false;
    executed = 0;
    app_fetched = 0;
    expansions = 0;
    raw = Raw.make ();
    jit = None;
    jit_ix = 0;
    jit_end = 0;
  }

let image t = t.image
let memory t = t.mem
let regs t = t.regs
let pc t = t.pc
let disepc t = t.disepc
let halted t = t.halted
let executed t = t.executed
let app_fetched t = t.app_fetched
let expansions t = t.expansions
let set_dise_reg t n v = Regfile.set t.regs (Reg.d n) v
let set_reg t r v = Regfile.set t.regs r v
let exit_code t = Regfile.get t.regs (Reg.r 2)
let raw t = t.raw

let enable_jit ?(threshold = default_jit_threshold) ?(generation = ref 0) t =
  let threshold = Int.max 1 threshold in
  let n = Array.length t.descs in
  t.jit <-
    Some
      {
        threshold;
        generation;
        cur_gen = !generation;
        slot_block = Array.make n (-1);
        slot_count = Array.make n 0;
        blk_start = Array.make 16 0;
        blk_len = Array.make 16 0;
        n_blocks = 0;
        a_desc = Array.make 4096 (Desc.of_insn I.Nop);
        a_imm = Array.make 4096 0;
        a_pc = Array.make 4096 0;
        a_size = Array.make 4096 0;
        a_rsid = Array.make 4096 0;
        a_off = Array.make 4096 0;
        a_len = Array.make 4096 0;
        a_base = Array.make 4096 0;
        a_flags = Array.make 4096 0;
        a_used = 0;
        compiles = 0;
        hits = 0;
        invalidations = 0;
      }

let jit_compiles t = match t.jit with None -> 0 | Some j -> j.compiles
let jit_hits t = match t.jit with None -> 0 | Some j -> j.hits

let jit_invalidations t =
  match t.jit with None -> 0 | Some j -> j.invalidations

(* --- execution ------------------------------------------------------------ *)

(* Result of executing one instruction. A transfer's destination is
   in [t.raw.target]; constant constructors keep the return
   allocation-free. *)
type flow =
  | Next
  | App_goto
  | Dise_goto
  | Stop

(* Registers hold signed 32-bit values (the invariant of {!Regfile}):
   [sext] sign-extends bit 31 through the 63-bit int with two shifts
   and no branch. Sums, differences, products, left shifts and logical
   right shifts can leave 32 bits and are sign-extended; [land], [lor],
   [lxor] and [asr] of sign-extended values are sign-extended already.
   An immediate is stored as written, so it is sign-extended where it
   meets a register in a comparison or a bitwise operation. *)
let () = assert (Sys.int_size = 63)
let sext v = (v lsl 31) asr 31
let word_mask = 0xFFFFFFFF

(* The annotations keep the register file an [int array] to the
   compiler: an unannotated array parameter is generic, and every read
   would test for a float array. *)
let rd1 (rf : int array) d = Array.unsafe_get rf (Desc.use1_slot d)
let rd2 (rf : int array) d = Array.unsafe_get rf (Desc.use2_slot d)

(* A write to the zero register lands in slot 0 and is re-zeroed. *)
let wr (rf : int array) d v =
  Array.unsafe_set rf (Desc.def1_slot d) v;
  Array.unsafe_set rf 0 0

(* Only a replacement instruction can carry an unresolved label:
   {!Dise_isa.Program.layout} resolves every application target, and
   a block never compiles one (see [compile_block]). So the failing
   instruction is the current expansion's, at the current DISEPC. *)
let unresolved_label t =
  match t.cur with
  | Some e -> (
    match I.branch_target e.seq.(t.disepc) with
    | Some (I.Lab l) -> fail "unresolved label %s at runtime" l
    | Some (I.Abs _) | None -> assert false)
  | None -> assert false

let branch t d imm taken =
  if Desc.unresolved d then unresolved_label t;
  let r = t.raw in
  r.Raw.branch <- Bool.to_int taken;
  r.Raw.target <- imm;
  if taken then App_goto else Next

let dise_branch t imm ~in_seq taken =
  if not in_seq then fail "DISE branch outside replacement sequence";
  let r = t.raw in
  r.Raw.branch <- (if taken then 3 else 2);
  r.Raw.target <- imm;
  if taken then Dise_goto else Next

(* Execute the instruction decoded as [d] and [imm]; [in_seq] tells
   whether we are inside a replacement sequence (DISE-internal control
   is only legal there). Dispatches on the opcode key ({!Insn.key}):
   Rop 0-13 and Ropi 14-27 (add sub mul and or xor sll srl sra slt
   sltu cmpeq cmplt cmple), lda 28, lui 29, ldq ldbu stq stb 30-33,
   Br 34-39 and Dbr 44-49 (beq bne blt bge ble bgt), jmp 40, jal 41,
   jr 42, jalr 43, djmp 50, codewords 51-54, nop 55, halt 56. The
   return address for calls is the application-level fall-through,
   i.e. the address after the (possibly expanded) trigger. Memory
   address and branch outcome are reported through [t.raw]. *)
let exec t d imm ~in_seq =
  let rf = t.rf in
  let r = t.raw in
  r.Raw.mem_addr <- no_mem;
  r.Raw.branch <- -1;
  match Desc.key d with
  | 0 -> wr rf d (sext (rd1 rf d + rd2 rf d)); Next
  | 1 -> wr rf d (sext (rd1 rf d - rd2 rf d)); Next
  | 2 -> wr rf d (sext (rd1 rf d * rd2 rf d)); Next
  | 3 -> wr rf d (rd1 rf d land rd2 rf d); Next
  | 4 -> wr rf d (rd1 rf d lor rd2 rf d); Next
  | 5 -> wr rf d (rd1 rf d lxor rd2 rf d); Next
  | 6 -> wr rf d (sext (rd1 rf d lsl (rd2 rf d land 31))); Next
  | 7 ->
    wr rf d (sext ((rd1 rf d land word_mask) lsr (rd2 rf d land 31)));
    Next
  | 8 -> wr rf d (rd1 rf d asr (rd2 rf d land 31)); Next
  | 9 | 12 -> wr rf d (Bool.to_int (rd1 rf d < rd2 rf d)); Next
  | 10 ->
    wr rf d (Bool.to_int (rd1 rf d land word_mask < rd2 rf d land word_mask));
    Next
  | 11 -> wr rf d (Bool.to_int (rd1 rf d = rd2 rf d)); Next
  | 13 -> wr rf d (Bool.to_int (rd1 rf d <= rd2 rf d)); Next
  | 14 -> wr rf d (sext (rd1 rf d + imm)); Next
  | 15 -> wr rf d (sext (rd1 rf d - imm)); Next
  | 16 -> wr rf d (sext (rd1 rf d * imm)); Next
  | 17 -> wr rf d (sext (rd1 rf d land imm)); Next
  | 18 -> wr rf d (sext (rd1 rf d lor imm)); Next
  | 19 -> wr rf d (sext (rd1 rf d lxor imm)); Next
  | 20 -> wr rf d (sext (rd1 rf d lsl (imm land 31))); Next
  | 21 ->
    wr rf d (sext ((rd1 rf d land word_mask) lsr (imm land 31)));
    Next
  | 22 -> wr rf d (rd1 rf d asr (imm land 31)); Next
  | 23 | 26 -> wr rf d (Bool.to_int (rd1 rf d < sext imm)); Next
  | 24 ->
    wr rf d (Bool.to_int (rd1 rf d land word_mask < imm land word_mask));
    Next
  | 25 -> wr rf d (Bool.to_int (rd1 rf d = sext imm)); Next
  | 27 -> wr rf d (Bool.to_int (rd1 rf d <= sext imm)); Next
  | 28 -> wr rf d (sext (rd1 rf d + imm)); Next
  | 29 -> wr rf d (sext (imm lsl 16)); Next
  | 30 ->
    let addr = (rd1 rf d + imm) land word_mask in
    r.Raw.mem_addr <- addr;
    wr rf d (Memory.read_s32 t.mem addr);
    Next
  | 31 ->
    let addr = (rd1 rf d + imm) land word_mask in
    r.Raw.mem_addr <- addr;
    wr rf d (Memory.read_u8 t.mem addr);
    Next
  | 32 ->
    let addr = (rd1 rf d + imm) land word_mask in
    r.Raw.mem_addr <- addr;
    Memory.write_u32 t.mem addr (rd2 rf d);
    Next
  | 33 ->
    let addr = (rd1 rf d + imm) land word_mask in
    r.Raw.mem_addr <- addr;
    Memory.write_u8 t.mem addr (rd2 rf d);
    Next
  | 34 -> branch t d imm (rd1 rf d = 0)
  | 35 -> branch t d imm (rd1 rf d <> 0)
  | 36 -> branch t d imm (rd1 rf d < 0)
  | 37 -> branch t d imm (rd1 rf d >= 0)
  | 38 -> branch t d imm (rd1 rf d <= 0)
  | 39 -> branch t d imm (rd1 rf d > 0)
  | 40 ->
    if Desc.unresolved d then unresolved_label t;
    r.Raw.branch <- 1;
    r.Raw.target <- imm;
    App_goto
  | 41 ->
    if Desc.unresolved d then unresolved_label t;
    wr rf d (sext (t.pc + t.cur_size));
    r.Raw.branch <- 1;
    r.Raw.target <- imm;
    App_goto
  | 42 ->
    r.Raw.branch <- 1;
    r.Raw.target <- rd1 rf d land word_mask;
    App_goto
  | 43 ->
    r.Raw.branch <- 1;
    r.Raw.target <- rd1 rf d land word_mask;
    wr rf d (sext (t.pc + t.cur_size));
    App_goto
  | 44 -> dise_branch t imm ~in_seq (rd1 rf d = 0)
  | 45 -> dise_branch t imm ~in_seq (rd1 rf d <> 0)
  | 46 -> dise_branch t imm ~in_seq (rd1 rf d < 0)
  | 47 -> dise_branch t imm ~in_seq (rd1 rf d >= 0)
  | 48 -> dise_branch t imm ~in_seq (rd1 rf d <= 0)
  | 49 -> dise_branch t imm ~in_seq (rd1 rf d > 0)
  | 50 ->
    if not in_seq then fail "DISE jump outside replacement sequence";
    r.Raw.branch <- 3;
    r.Raw.target <- imm;
    Dise_goto
  | 51 | 52 | 53 | 54 ->
    if in_seq then fail "codeword inside replacement sequence (recursion)"
    else fail "codeword at 0x%x matched no production" t.pc
  | 55 -> Next
  | _ -> Stop

let advance_app t = t.pc <- t.pc + t.cur_size

let finish_sequence t =
  t.cur <- None;
  t.disepc <- 0;
  advance_app t

(* Execute the replacement instruction at the current DISEPC, leaving
   the step's description in [t.raw]. *)
let step_in_sequence_core t (e : expansion) ~expansion_start =
  let len = Array.length e.descs in
  let offset = t.disepc in
  let d = e.descs.(offset) in
  let imm = Array.unsafe_get e.imms offset in
  let flow = exec t d imm ~in_seq:true in
  let r = t.raw in
  r.Raw.pc <- t.pc;
  r.Raw.desc <- d;
  r.Raw.imm <- imm;
  r.Raw.rsid <- e.rsid;
  r.Raw.offset <- offset;
  r.Raw.len <- len;
  r.Raw.expansion_start <- expansion_start;
  r.Raw.fetched_new_pc <- expansion_start;
  (match flow with
  | Next ->
    t.disepc <- offset + 1;
    if t.disepc >= len then finish_sequence t
  | App_goto ->
    t.cur <- None;
    t.disepc <- 0;
    t.pc <- r.Raw.target
  | Dise_goto ->
    let d = r.Raw.target in
    if d < 0 || d > len then
      fail "DISE transfer to offset %d outside sequence of length %d" d len;
    t.disepc <- d;
    if d = len then finish_sequence t
  | Stop -> t.halted <- true);
  t.executed <- t.executed + 1

let interrupt t =
  let saved = (t.pc, t.disepc) in
  t.cur <- None;
  t.jit_ix <- 0;
  t.jit_end <- 0;
  saved

let resume t ~pc ~disepc =
  t.pc <- pc;
  t.disepc <- disepc;
  t.cur <- None;
  t.jit_ix <- 0;
  t.jit_end <- 0;
  t.halted <- false

(* One interpreted dynamic instruction: fills [t.raw], returns false
   once halted. *)
let step_core t =
  if t.halted then false
  else
    match t.cur with
    | Some e when t.disepc < Array.length e.descs ->
      step_in_sequence_core t e ~expansion_start:false;
      true
    | Some _ | None ->
      (* Application-level fetch: predecoded text. *)
      let idx = Image.find_index t.image t.pc in
      if idx < 0 then fail "PC 0x%x outside text" t.pc
      else begin
        t.cur_size <- Image.size_of_index t.image idx;
        t.app_fetched <- t.app_fetched + 1;
        match t.expander ~pc:t.pc (Array.unsafe_get t.insns idx) with
        | Some e as cur ->
          if Array.length e.descs = 0 then
            fail "empty replacement sequence for 0x%x" t.pc;
          t.expansions <- t.expansions + 1;
          (* The expander's own option: [Some e] would allocate. *)
          t.cur <- cur;
          (* A restored DISEPC (interrupt resumption) skips the first
             instructions of the sequence; normally it is 0. *)
          if t.disepc >= Array.length e.descs then t.disepc <- 0;
          step_in_sequence_core t e ~expansion_start:true;
          true
        | None ->
          t.disepc <- 0;
          let d = Array.unsafe_get t.descs idx in
          let imm = Array.unsafe_get t.imms idx in
          let flow = exec t d imm ~in_seq:false in
          let r = t.raw in
          r.Raw.pc <- t.pc;
          r.Raw.desc <- d;
          r.Raw.imm <- imm;
          r.Raw.rsid <- -1;
          r.Raw.offset <- 0;
          r.Raw.len <- 0;
          r.Raw.expansion_start <- false;
          r.Raw.fetched_new_pc <- true;
          (match flow with
          | Next -> advance_app t
          | App_goto -> t.pc <- r.Raw.target
          | Dise_goto -> assert false
          | Stop -> t.halted <- true);
          t.executed <- t.executed + 1;
          true
      end

(* --- superblock compilation and execution -------------------------------- *)

let ensure_capacity j n =
  let cap = Array.length j.a_pc in
  if j.a_used + n > cap then begin
    let ncap = Int.max (2 * cap) (j.a_used + n) in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 j.a_used;
      b
    in
    let descs = Array.make ncap (Desc.of_insn I.Nop) in
    Array.blit j.a_desc 0 descs 0 j.a_used;
    j.a_desc <- descs;
    j.a_imm <- grow j.a_imm;
    j.a_pc <- grow j.a_pc;
    j.a_size <- grow j.a_size;
    j.a_rsid <- grow j.a_rsid;
    j.a_off <- grow j.a_off;
    j.a_len <- grow j.a_len;
    j.a_base <- grow j.a_base;
    j.a_flags <- grow j.a_flags
  end

exception Stop_compile

(* A trace ends at ANY application-level transfer, conditional
   branches included. Compiling through a conditional (recording it
   fall-through, superblock-style) looks attractive, but in branchy
   code it flattens long speculative tails past frequently-taken
   branches — compile time and arena space proportional to code that
   never executes, which made one-shot pipeline runs measurably
   SLOWER with the JIT than without. Ending at the branch makes every
   block an app-level basic block: each compiled entry executes every
   time the block is entered, so compile cost tracks the hot footprint
   and nothing else. Straight-line code is unaffected (blocks still
   run to [jit_max_block_app]); successor blocks chain through one
   dispatch probe. The keys are Br, jmp, jal, jr, jalr (34-43),
   codewords (51-54) and halt (56). *)
let ends_straight_line d =
  let k = Desc.key d in
  (k >= 34 && k <= 43) || (k >= 51 && k <= 54) || k = 56

(* Is [pc] already the head of a compiled block? Without this stop
   rule every hot branch target inside a straight-line run would
   re-flatten the same shared tail — overlapping copies that cost
   quadratic arena space and compile time. Ending a walk at an
   existing head instead chains blocks through dispatch: one slot
   probe per transition, no duplicated entries. *)
let compiled_head t j pc =
  let idx = Image.find_index t.image pc in
  idx >= 0 && Array.unsafe_get j.slot_block idx >= 0

(* Flatten the static code reachable by fall-through from [start_pc]
   into the arena; returns the new block id, or -1 when nothing could
   be compiled (first instruction off-image, erroring, or expanding to
   an empty sequence — the interpreter raises the identical error when
   it gets there). The walk stops before any instruction whose
   expansion cannot be computed or that transfers to an unresolved
   label ({!Desc.unresolved}: the interpreter reaches it and raises),
   so compilation never raises an error the interpreter would only
   reach later (or not at all). The expander must be pure and
   idempotent for the PCs walked — true of the memoizing engine; the
   machine never compiles through a mutated fuzz expander because
   those sides never enable the JIT. *)
let compile_block t j start_pc =
  let first = j.a_used in
  let append desc imm ~pc ~size ~rsid ~off ~len ~base ~flags =
    ensure_capacity j 1;
    let i = j.a_used in
    j.a_desc.(i) <- desc;
    j.a_imm.(i) <- imm;
    j.a_pc.(i) <- pc;
    j.a_size.(i) <- size;
    j.a_rsid.(i) <- rsid;
    j.a_off.(i) <- off;
    j.a_len.(i) <- len;
    j.a_base.(i) <- base;
    j.a_flags.(i) <- flags;
    j.a_used <- i + 1
  in
  let pc = ref start_pc in
  let napp = ref 0 in
  (try
     while !napp < jit_max_block_app do
       let idx = Image.find_index t.image !pc in
       if idx < 0 then raise Stop_compile;
       let d = t.descs.(idx) in
       let size = Image.size_of_index t.image idx in
       (match t.expander ~pc:!pc t.insns.(idx) with
       | exception _ -> raise Stop_compile
       | None ->
         if Desc.unresolved d then raise Stop_compile;
         (* An unmatched codeword is included: executing it raises
            exactly the error the interpreter would. *)
         append d t.imms.(idx) ~pc:!pc ~size ~rsid:(-1) ~off:0 ~len:0
           ~base:j.a_used ~flags:(f_app lor f_last);
         incr napp;
         if ends_straight_line d then raise Stop_compile
       | Some e ->
         let len = Array.length e.descs in
         (* Checked before appending anything, so the arena never holds
            a truncated expansion. *)
         if len = 0 || Array.exists Desc.unresolved e.descs then
           raise Stop_compile;
         let base = j.a_used in
         for off = 0 to len - 1 do
           append e.descs.(off) e.imms.(off) ~pc:!pc ~size ~rsid:e.rsid ~off
             ~len ~base
             ~flags:
               (f_inseq
               lor (if off = 0 then f_app lor f_estart else 0)
               lor (if off = len - 1 then f_last else 0))
         done;
         incr napp;
         if ends_straight_line e.descs.(len - 1) then raise Stop_compile);
       pc := !pc + size;
       if compiled_head t j !pc then raise Stop_compile
     done
   with Stop_compile -> ());
  let n = j.a_used - first in
  if n = 0 then -1
  else begin
    if j.n_blocks >= Array.length j.blk_start then begin
      let ncap = 2 * Array.length j.blk_start in
      let grow a =
        let b = Array.make ncap 0 in
        Array.blit a 0 b 0 j.n_blocks;
        b
      in
      j.blk_start <- grow j.blk_start;
      j.blk_len <- grow j.blk_len
    end;
    let b = j.n_blocks in
    j.blk_start.(b) <- first;
    j.blk_len.(b) <- n;
    j.n_blocks <- b + 1;
    j.compiles <- j.compiles + 1;
    b
  end

(* Retire every superblock: the production set (or a PT/RT entry)
   changed, so all flattened expansions may be stale. Counts and block
   indices restart cold; hot traces re-earn compilation under the new
   generation. *)
let jit_reset t j =
  j.invalidations <- j.invalidations + j.n_blocks;
  j.n_blocks <- 0;
  j.a_used <- 0;
  Array.fill j.slot_block 0 (Array.length j.slot_block) (-1);
  Array.fill j.slot_count 0 (Array.length j.slot_count) 0;
  j.cur_gen <- !(j.generation);
  t.jit_ix <- 0;
  t.jit_end <- 0

(* Block lookup at an application-instruction boundary (cur drained,
   DISEPC 0). Returns the block id to execute, or -1 to interpret this
   fetch. Compiles once the slot's dispatch count reaches the
   threshold. [hits] counts dispatches served by an already-compiled
   block. *)
let jit_dispatch t j =
  if !(j.generation) <> j.cur_gen then jit_reset t j;
  let idx = Image.find_index t.image t.pc in
  if idx < 0 then -1
  else begin
    let b = Array.unsafe_get j.slot_block idx in
    if b >= 0 then begin
      j.hits <- j.hits + 1;
      b
    end
    else if b = -2 then -1
    else begin
      let c = Array.unsafe_get j.slot_count idx + 1 in
      Array.unsafe_set j.slot_count idx c;
      if c < j.threshold then -1
      else begin
        let b = compile_block t j t.pc in
        j.slot_block.(idx) <- (if b < 0 then -2 else b);
        b
      end
    end
  end

(* Execute arena entry [i]; returns the next arena index, or -1 when
   the block was exited (machine state — pc, disepc, cur — is left at
   a consistent boundary either way). A block is only entered with no
   interpreted expansion in flight, so [t.cur] is [None] throughout
   and is never stored here. *)
let exec_entry t j i =
  let d = Array.unsafe_get j.a_desc i in
  let imm = Array.unsafe_get j.a_imm i in
  let flags = Array.unsafe_get j.a_flags i in
  let pc = Array.unsafe_get j.a_pc i in
  t.pc <- pc;
  t.cur_size <- Array.unsafe_get j.a_size i;
  if flags land f_app <> 0 then begin
    t.app_fetched <- t.app_fetched + 1;
    if flags land f_estart <> 0 then t.expansions <- t.expansions + 1
  end;
  (* Described before executing, so that fewer values live across the
     call; a step that raises describes nothing anyone reads. *)
  let r = t.raw in
  r.Raw.pc <- pc;
  r.Raw.desc <- d;
  r.Raw.imm <- imm;
  r.Raw.rsid <- Array.unsafe_get j.a_rsid i;
  r.Raw.offset <- Array.unsafe_get j.a_off i;
  r.Raw.len <- Array.unsafe_get j.a_len i;
  r.Raw.expansion_start <- flags land f_estart <> 0;
  r.Raw.fetched_new_pc <- flags land f_app <> 0;
  let flow = exec t d imm ~in_seq:(flags land f_inseq <> 0) in
  (* Tests in the order of frequency rather than a [match], which
     compiles to a jump table: most steps fall through, and a taken
     conditional branch predicts better than an indirect jump
     (about 3% of the machine's time in an interleaved comparison). *)
  let next =
    if flow == Next then begin
      if flags land f_last <> 0 then begin
        t.disepc <- 0;
        t.pc <- pc + t.cur_size
      end
      else t.disepc <- Array.unsafe_get j.a_off i + 1;
      i + 1
    end
    else if flow == App_goto then begin
      t.disepc <- 0;
      t.pc <- r.Raw.target;
      -1
    end
    else if flow == Dise_goto then begin
      let d = r.Raw.target in
      let len = Array.unsafe_get j.a_len i in
      if d < 0 || d > len then
        fail "DISE transfer to offset %d outside sequence of length %d" d len;
      if d = len then begin
        t.disepc <- 0;
        t.pc <- pc + t.cur_size;
        Array.unsafe_get j.a_base i + len
      end
      else begin
        t.disepc <- d;
        Array.unsafe_get j.a_base i + d
      end
    end
    else begin
      t.halted <- true;
      -1
    end
  in
  t.executed <- t.executed + 1;
  next

(* The cursor holds a block whose next entry may run: an application
   boundary inside it re-checks the generation, so a mid-block
   invalidation abandons the block (its state is already consistent)
   and the next dispatch retires everything. *)
let block_live t j =
  let i = t.jit_ix in
  i < t.jit_end
  && (Array.unsafe_get j.a_flags i land f_app = 0
     || !(j.generation) = j.cur_gen)

(* Blocks are dispatched at an application-instruction boundary: not
   halted, no expansion in flight, DISEPC 0 (a nonzero DISEPC is an
   interrupt resumption, which the interpreter re-expands). *)
let at_boundary t =
  (not t.halted)
  && t.disepc = 0
  && match t.cur with Some e -> t.disepc >= Array.length e.descs | None -> true

(* One dynamic instruction: the arena entry at the cursor when a block
   is live (after a dispatch that may enter one), the interpreter
   otherwise. The described stream, counters, and failure behaviour
   are identical with and without the JIT — the differential fuzzer
   runs the JIT as a lockstep backend to prove it. A block is exited
   on a halt, so a machine inside one is not halted. *)
let step t =
  match t.jit with
  | None -> step_core t
  | Some j ->
    if not (block_live t j) then begin
      t.jit_ix <- 0;
      t.jit_end <- 0;
      if at_boundary t then begin
        let b = jit_dispatch t j in
        if b >= 0 then begin
          let s = Array.unsafe_get j.blk_start b in
          t.jit_ix <- s;
          t.jit_end <- s + Array.unsafe_get j.blk_len b
        end
      end
    end;
    if t.jit_ix < t.jit_end then begin
      let next = exec_entry t j t.jit_ix in
      if next < 0 || next >= t.jit_end then begin
        t.jit_ix <- 0;
        t.jit_end <- 0
      end
      else t.jit_ix <- next;
      true
    end
    else step_core t

let default_max_steps = 100_000_000

let run_raw ?(max_steps = default_max_steps) ?poll t sink =
  match poll with
  | None ->
    (* The halted check lets a program whose final instruction is
       exactly the [max_steps]-th complete normally; a still-running
       machine stops having executed exactly [max_steps] instructions,
       never [max_steps + 1]. *)
    let rec go () =
      if (not t.halted) && t.executed >= max_steps then
        fail "exceeded %d steps without halting" max_steps;
      if step t then begin
        sink t.raw;
        go ()
      end
      else t.executed
    in
    go ()
  | Some poll ->
    (* Amortized cooperative cancellation point: one poll every 2048
       steps keeps the overhead below the noise floor while bounding
       how long a deadline overrun can go unnoticed. *)
    let k = ref 0 in
    let rec go () =
      if (not t.halted) && t.executed >= max_steps then
        fail "exceeded %d steps without halting" max_steps;
      if step t then begin
        sink t.raw;
        incr k;
        if !k land 2047 = 0 then poll ();
        go ()
      end
      else t.executed
    in
    go ()
