module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Image = Dise_isa.Program.Image

type expansion = {
  rsid : int;
  seq : I.t array;
}

type expander = pc:int -> I.t -> expansion option

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* The description of one dynamic instruction: one mutable record per
   machine, overwritten by every executed instruction, so walking the
   post-expansion stream allocates nothing. *)
module Raw = struct
  type t = {
    mutable pc : int;
    mutable insn : I.t;
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
      insn = I.Nop;
      rsid = -1;
      offset = 0;
      len = 0;
      expansion_start = false;
      fetched_new_pc = false;
      mem_addr = no_mem;
      branch = -1;
      target = 0;
    }
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
  jit_base : int;  (* image base, for the dense slot arithmetic *)
  slot_block : int array;  (* dense: slot -> block id; -1 unknown, -2 never *)
  slot_count : int array;
  sparse_block : (int, int) Hashtbl.t;  (* sparse images: pc -> block id *)
  sparse_count : (int, int) Hashtbl.t;
  (* block table: block id -> arena [start, start+len) *)
  mutable blk_start : int array;
  mutable blk_len : int array;
  mutable n_blocks : int;
  (* the arena: one entry per post-expansion dynamic-instruction slot,
     as parallel arrays (no per-entry record, no per-fetch pointer
     chase beyond the instruction itself) *)
  mutable a_insn : I.t array;
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
  insns : I.t array;  (* predecoded text: [Image.raw_insns image] *)
  dense : bool;       (* [Image.is_dense image]: size 4 everywhere *)
  mem : Memory.t;
  regs : Regfile.t;
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
    dense = Image.is_dense image;
    mem = Memory.create ();
    regs;
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
  let threshold = max 1 threshold in
  let n = if t.dense then Array.length t.insns else 0 in
  t.jit <-
    Some
      {
        threshold;
        generation;
        cur_gen = !generation;
        jit_base = Image.base t.image;
        slot_block = Array.make (max n 1) (-1);
        slot_count = Array.make (max n 1) 0;
        sparse_block = Hashtbl.create (if n = 0 then 1024 else 1);
        sparse_count = Hashtbl.create (if n = 0 then 1024 else 1);
        blk_start = Array.make 16 0;
        blk_len = Array.make 16 0;
        n_blocks = 0;
        a_insn = Array.make 4096 I.Nop;
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

let jit_enabled t = t.jit <> None
let jit_compiles t = match t.jit with None -> 0 | Some j -> j.compiles
let jit_hits t = match t.jit with None -> 0 | Some j -> j.hits

let jit_invalidations t =
  match t.jit with None -> 0 | Some j -> j.invalidations

(* Result of executing one instruction. *)
type flow =
  | Next
  | App_goto of int
  | Dise_goto of int
  | Stop

let target_addr = function
  | I.Abs a -> a
  | I.Lab l -> fail "unresolved label %s at runtime" l

(* Execute [insn]; [in_seq] tells whether we are inside a replacement
   sequence (DISE-internal control is only legal there). The return
   address for calls is the application-level fall-through, i.e. the
   address after the (possibly expanded) trigger. Memory address and
   branch outcome are reported through [t.raw]. *)
let exec_one t insn ~in_seq =
  let get r = Regfile.get t.regs r in
  let set r v = Regfile.set t.regs r v in
  let r = t.raw in
  r.Raw.mem_addr <- no_mem;
  r.Raw.branch <- -1;
  match insn with
  | I.Rop (op, a, b, c) ->
    set c (Op.eval_rop op (get a) (get b));
    Next
  | I.Ropi (op, a, v, c) ->
    set c (Op.eval_rop op (get a) v);
    Next
  | I.Lda (base, off, rd) ->
    set rd (get base + off);
    Next
  | I.Lui (v, rd) ->
    set rd (v lsl 16);
    Next
  | I.Mem (mop, base, off, data) ->
    let addr = Op.mask32 (get base + off) in
    r.Raw.mem_addr <- addr;
    (match mop with
    | Op.Ldq -> set data (Memory.read_s32 t.mem addr)
    | Op.Ldbu -> set data (Memory.read_u8 t.mem addr)
    | Op.Stq -> Memory.write_u32 t.mem addr (Op.mask32 (get data))
    | Op.Stb -> Memory.write_u8 t.mem addr (get data));
    Next
  | I.Br (bop, r0, tgt) ->
    let target = target_addr tgt in
    let taken = Op.eval_bop bop (get r0) in
    r.Raw.branch <- (if taken then 1 else 0);
    r.Raw.target <- target;
    if taken then App_goto target else Next
  | I.Jmp tgt ->
    let target = target_addr tgt in
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    App_goto target
  | I.Jal tgt ->
    let target = target_addr tgt in
    set Reg.ra (t.pc + t.cur_size);
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    App_goto target
  | I.Jr r0 ->
    let target = Op.mask32 (get r0) in
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    App_goto target
  | I.Jalr (r0, rd) ->
    let target = Op.mask32 (get r0) in
    set rd (t.pc + t.cur_size);
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    App_goto target
  | I.Dbr (bop, r0, off) ->
    if not in_seq then fail "DISE branch outside replacement sequence";
    let taken = Op.eval_bop bop (get r0) in
    r.Raw.branch <- (if taken then 3 else 2);
    r.Raw.target <- off;
    if taken then Dise_goto off else Next
  | I.Djmp off ->
    if not in_seq then fail "DISE jump outside replacement sequence";
    r.Raw.branch <- 3;
    r.Raw.target <- off;
    Dise_goto off
  | I.Codeword _ ->
    if in_seq then fail "codeword inside replacement sequence (recursion)"
    else fail "codeword at 0x%x matched no production" t.pc
  | I.Nop -> Next
  | I.Halt -> Stop

let advance_app t = t.pc <- t.pc + t.cur_size

let finish_sequence t =
  t.cur <- None;
  t.disepc <- 0;
  advance_app t

(* Execute the replacement instruction at the current DISEPC, leaving
   the step's description in [t.raw]. *)
let step_in_sequence_core t (e : expansion) ~expansion_start =
  let len = Array.length e.seq in
  let offset = t.disepc in
  let insn = e.seq.(offset) in
  let flow = exec_one t insn ~in_seq:true in
  let r = t.raw in
  r.Raw.pc <- t.pc;
  r.Raw.insn <- insn;
  r.Raw.rsid <- e.rsid;
  r.Raw.offset <- offset;
  r.Raw.len <- len;
  r.Raw.expansion_start <- expansion_start;
  r.Raw.fetched_new_pc <- expansion_start;
  (match flow with
  | Next ->
    t.disepc <- offset + 1;
    if t.disepc >= len then finish_sequence t
  | App_goto target ->
    t.cur <- None;
    t.disepc <- 0;
    t.pc <- target
  | Dise_goto d ->
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
    | Some e when t.disepc < Array.length e.seq ->
      step_in_sequence_core t e ~expansion_start:false;
      true
    | Some _ | None ->
      (* Application-level fetch: predecoded text, O(1) for dense
         images (no per-step hashtable probe). *)
      let idx = Image.find_index t.image t.pc in
      if idx < 0 then fail "PC 0x%x outside text" t.pc
      else begin
        let insn = Array.unsafe_get t.insns idx in
        t.cur_size <- (if t.dense then 4 else Image.size_of_index t.image idx);
        t.app_fetched <- t.app_fetched + 1;
        match t.expander ~pc:t.pc insn with
        | Some e ->
          if Array.length e.seq = 0 then
            fail "empty replacement sequence for 0x%x" t.pc;
          t.expansions <- t.expansions + 1;
          t.cur <- Some e;
          (* A restored DISEPC (interrupt resumption) skips the first
             instructions of the sequence; normally it is 0. *)
          if t.disepc >= Array.length e.seq then t.disepc <- 0;
          step_in_sequence_core t e ~expansion_start:true;
          true
        | None ->
          t.disepc <- 0;
          let flow = exec_one t insn ~in_seq:false in
          let r = t.raw in
          r.Raw.pc <- t.pc;
          r.Raw.insn <- insn;
          r.Raw.rsid <- -1;
          r.Raw.offset <- 0;
          r.Raw.len <- 0;
          r.Raw.expansion_start <- false;
          r.Raw.fetched_new_pc <- true;
          (match flow with
          | Next -> advance_app t
          | App_goto target -> t.pc <- target
          | Dise_goto _ -> assert false
          | Stop -> t.halted <- true);
          t.executed <- t.executed + 1;
          true
      end

(* --- superblock compilation and execution -------------------------------- *)

let ensure_capacity j n =
  let cap = Array.length j.a_pc in
  if j.a_used + n > cap then begin
    let ncap = max (2 * cap) (j.a_used + n) in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 j.a_used;
      b
    in
    let insns = Array.make ncap I.Nop in
    Array.blit j.a_insn 0 insns 0 j.a_used;
    j.a_insn <- insns;
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
   dispatch probe. *)
let ends_straight_line = function
  | I.Jmp _ | I.Jal _ | I.Jr _ | I.Jalr _ | I.Halt | I.Codeword _ | I.Br _ ->
    true
  | _ -> false

(* Is [pc] already the head of a compiled block? Without this stop
   rule every hot branch target inside a straight-line run would
   re-flatten the same shared tail — overlapping copies that cost
   quadratic arena space and compile time. Ending a walk at an
   existing head instead chains blocks through dispatch: one
   slot/hashtable probe per transition, no duplicated entries. *)
let compiled_head t j pc =
  if t.dense then begin
    let off = pc - j.jit_base in
    let idx = off lsr 2 in
    off >= 0
    && off land 3 = 0
    && idx < Array.length j.slot_block
    && Array.unsafe_get j.slot_block idx >= 0
  end
  else match Hashtbl.find_opt j.sparse_block pc with
    | Some b -> b >= 0
    | None -> false

(* A transfer to an unresolved label fails when it executes. A block
   ends before one, so the interpreter reaches it and raises. *)
let unresolved = function
  | I.Br (_, _, I.Lab _) | I.Jmp (I.Lab _) | I.Jal (I.Lab _) -> true
  | _ -> false

(* Flatten the static code reachable by fall-through from [start_pc]
   into the arena; returns the new block id, or -1 when nothing could
   be compiled (first instruction off-image, erroring, or expanding to
   an empty sequence — the interpreter raises the identical error when
   it gets there). The walk stops before any instruction whose
   expansion cannot be computed or that transfers to an unresolved
   label, so compilation never raises an error the interpreter would
   only reach later (or not at all). The expander must be pure and
   idempotent for the PCs walked — true of the memoizing engine; the
   machine never compiles through a mutated fuzz expander because
   those sides never enable the JIT. *)
let compile_block t j start_pc =
  let first = j.a_used in
  let append insn ~pc ~size ~rsid ~off ~len ~base ~flags =
    ensure_capacity j 1;
    let i = j.a_used in
    j.a_insn.(i) <- insn;
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
       let insn = Array.unsafe_get t.insns idx in
       let size = if t.dense then 4 else Image.size_of_index t.image idx in
       (match t.expander ~pc:!pc insn with
       | exception _ -> raise Stop_compile
       | None ->
         if unresolved insn then raise Stop_compile;
         (* An unmatched codeword is included: executing it raises
            exactly the error the interpreter would. *)
         append insn ~pc:!pc ~size ~rsid:(-1) ~off:0 ~len:0 ~base:j.a_used
           ~flags:(f_app lor f_last);
         incr napp;
         if ends_straight_line insn then raise Stop_compile
       | Some e ->
         let len = Array.length e.seq in
         (* Checked before appending anything, so the arena never holds
            a truncated expansion. *)
         if len = 0 || Array.exists unresolved e.seq then raise Stop_compile;
         let base = j.a_used in
         for off = 0 to len - 1 do
           append e.seq.(off) ~pc:!pc ~size ~rsid:e.rsid ~off ~len ~base
             ~flags:
               (f_inseq
               lor (if off = 0 then f_app lor f_estart else 0)
               lor (if off = len - 1 then f_last else 0))
         done;
         incr napp;
         if ends_straight_line e.seq.(len - 1) then raise Stop_compile);
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
   changed, so all flattened expansions are suspect. Counts and block
   indices restart cold; hot traces re-earn compilation under the new
   generation. *)
let jit_reset t j =
  j.invalidations <- j.invalidations + j.n_blocks;
  j.n_blocks <- 0;
  j.a_used <- 0;
  Array.fill j.slot_block 0 (Array.length j.slot_block) (-1);
  Array.fill j.slot_count 0 (Array.length j.slot_count) 0;
  Hashtbl.reset j.sparse_block;
  Hashtbl.reset j.sparse_count;
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
  let pc = t.pc in
  if t.dense then begin
    let off = pc - j.jit_base in
    let idx = off lsr 2 in
    if off >= 0 && off land 3 = 0 && idx < Array.length j.slot_block then begin
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
          let b = compile_block t j pc in
          j.slot_block.(idx) <- (if b < 0 then -2 else b);
          b
        end
      end
    end
    else -1
  end
  else
    match Hashtbl.find_opt j.sparse_block pc with
    | Some b when b >= 0 ->
      j.hits <- j.hits + 1;
      b
    | Some _ -> -1
    | None ->
      let c =
        (match Hashtbl.find_opt j.sparse_count pc with
        | Some c -> c
        | None -> 0)
        + 1
      in
      Hashtbl.replace j.sparse_count pc c;
      if c < j.threshold then -1
      else begin
        let b = compile_block t j pc in
        Hashtbl.replace j.sparse_block pc (if b < 0 then -2 else b);
        b
      end

(* Execute arena entry [i]; returns the next arena index, or -1 when
   the block was exited (machine state — pc, disepc, cur — is left at
   a consistent boundary either way). *)
let exec_entry t j i =
  let insn = Array.unsafe_get j.a_insn i in
  let flags = Array.unsafe_get j.a_flags i in
  let pc = Array.unsafe_get j.a_pc i in
  t.pc <- pc;
  t.cur_size <- Array.unsafe_get j.a_size i;
  if flags land f_app <> 0 then begin
    t.app_fetched <- t.app_fetched + 1;
    if flags land f_estart <> 0 then t.expansions <- t.expansions + 1
  end;
  let flow = exec_one t insn ~in_seq:(flags land f_inseq <> 0) in
  let r = t.raw in
  r.Raw.pc <- pc;
  r.Raw.insn <- insn;
  r.Raw.rsid <- Array.unsafe_get j.a_rsid i;
  r.Raw.offset <- Array.unsafe_get j.a_off i;
  r.Raw.len <- Array.unsafe_get j.a_len i;
  r.Raw.expansion_start <- flags land f_estart <> 0;
  r.Raw.fetched_new_pc <- flags land f_app <> 0;
  let next =
    match flow with
    | Next ->
      if flags land f_last <> 0 then begin
        t.disepc <- 0;
        t.pc <- pc + t.cur_size;
        i + 1
      end
      else begin
        t.disepc <- Array.unsafe_get j.a_off i + 1;
        i + 1
      end
    | App_goto target ->
      t.cur <- None;
      t.disepc <- 0;
      t.pc <- target;
      -1
    | Dise_goto d ->
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
    | Stop ->
      t.halted <- true;
      -1
  in
  t.executed <- t.executed + 1;
  next

(* One dynamic instruction, through the superblock cursor when one is
   active. The described stream, counters, and failure behaviour are
   identical to {!step_core}'s — the differential fuzzer runs this as
   its fourth lockstep backend to prove it. *)
let rec jit_step_core t j =
  if t.halted then false
  else if t.jit_ix < t.jit_end then begin
    let i = t.jit_ix in
    if
      Array.unsafe_get j.a_flags i land f_app <> 0
      && !(j.generation) <> j.cur_gen
    then begin
      (* Mid-block invalidation, observed at an application boundary:
         abandon the block (state is already consistent) and fall back
         to dispatch, which retires everything. *)
      t.jit_ix <- 0;
      t.jit_end <- 0;
      jit_step_core t j
    end
    else begin
      let next = exec_entry t j i in
      if next < 0 || next >= t.jit_end then begin
        t.jit_ix <- 0;
        t.jit_end <- 0
      end
      else t.jit_ix <- next;
      true
    end
  end
  else
    match t.cur with
    | Some e when t.disepc < Array.length e.seq ->
      step_in_sequence_core t e ~expansion_start:false;
      true
    | _ ->
      if t.disepc <> 0 then
        (* Interrupt resumption mid-sequence: the interpreter path
           re-expands and skips the first [disepc] instructions. *)
        step_core t
      else begin
        let b = jit_dispatch t j in
        if b < 0 then step_core t
        else begin
          let s = Array.unsafe_get j.blk_start b in
          t.jit_ix <- s;
          t.jit_end <- s + Array.unsafe_get j.blk_len b;
          jit_step_core t j
        end
      end

let step t =
  match t.jit with None -> step_core t | Some j -> jit_step_core t j

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
