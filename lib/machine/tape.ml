module Desc = Dise_isa.Desc
module Raw = Machine.Raw

(* Three words per instruction, in a bigarray, which lies outside the
   OCaml heap (tape words on the heap would also grow the garbage the
   major GC lets float, by its space overhead):

   w0: pc (bits 0-31), offset (32-43), len (44-55), fetched_new_pc
       (56), expansion_start (57), mem (58: w1's address is
       [mem_addr]), branch + 1 (59-61);
   w1: the address (bits 0-31) — [mem_addr] when mem is set, else
       [target] when the instruction branches, else 0 (the timing
       model reads [target] only when [branch >= 0]) — and rsid + 1
       (32-61);
   w2: the descriptor, read back through [Desc.of_packed].

   No word is ever negative, and every field reads back with a shift
   and a mask.

   A tape is a list of fixed-size chunks. Chunks come from one
   process-wide pool and go back to it when a tape is restarted or
   released, so recording allocates only until the pool has served
   the largest set of tapes held at once, and a tape holds at most
   one partly filled chunk. *)

let chunk_bits = 14
let chunk_len = 1 lsl chunk_bits
let max_length = 1 lsl 20
let mask32 = 0xFFFF_FFFF
let nop = Desc.of_insn Dise_isa.Insn.Nop

type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let new_chunk n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* At most a cap's worth of chunks wait in the pool; more are left to
   the GC. *)
let pool_mutex = Mutex.create ()
let pool : chunk list ref = ref []
let pooled = ref 0
let pool_cap = max_length / chunk_len

let take_chunk () =
  Mutex.lock pool_mutex;
  let c =
    match !pool with
    | c :: rest ->
      pool := rest;
      decr pooled;
      Some c
    | [] -> None
  in
  Mutex.unlock pool_mutex;
  match c with
  | Some c -> c
  | None -> new_chunk (3 * chunk_len)

let give_chunks cs =
  Mutex.lock pool_mutex;
  List.iter
    (fun c ->
      if !pooled < pool_cap then begin
        pool := c :: !pool;
        incr pooled
      end)
    cs;
  Mutex.unlock pool_mutex

type t = {
  mutable chunks : chunk list;  (* newest first *)
  mutable cur : chunk;  (* the chunk being filled, the head of [chunks] *)
  mutable length : int;
  mutable recording : bool;
  mutable abandoned : bool;
  mutable finished : bool;
  mutable jit_compiles : int;
  mutable jit_hits : int;
  mutable jit_invalidations : int;
}

let empty_chunk = new_chunk 0

let create () =
  {
    chunks = [];
    cur = empty_chunk;
    length = 0;
    recording = false;
    abandoned = false;
    finished = false;
    jit_compiles = 0;
    jit_hits = 0;
    jit_invalidations = 0;
  }

let clear t =
  give_chunks t.chunks;
  t.chunks <- [];
  t.cur <- empty_chunk;
  t.length <- 0

let start t =
  clear t;
  t.recording <- true;
  t.abandoned <- false;
  t.finished <- false

let release t =
  clear t;
  t.recording <- false;
  t.finished <- false

let abandon t =
  clear t;
  t.recording <- false;
  t.abandoned <- true

let record t (r : Raw.t) =
  if t.recording then begin
    let n = t.length in
    let i = n land (chunk_len - 1) in
    if i = 0 then
      if n >= max_length then abandon t
      else begin
        let c = take_chunk () in
        t.chunks <- c :: t.chunks;
        t.cur <- c
      end;
    if t.recording then begin
      let mem = r.Raw.mem_addr <> Raw.no_mem in
      let branch = r.Raw.branch in
      let addr =
        if mem then r.Raw.mem_addr else if branch >= 0 then r.Raw.target else 0
      in
      let pc = r.Raw.pc and offset = r.Raw.offset and len = r.Raw.len in
      let rsid1 = r.Raw.rsid + 1 in
      (* Every field in its width (a negative one has its top bits
         set), and never a memory access that also branches: w1 holds
         one address. *)
      if
        ((pc lor addr) lsr 32)
        lor ((offset lor len) lsr 12)
        lor ((branch + 1) lsr 3)
        lor (rsid1 lsr 30)
        <> 0
        || (mem && branch >= 0)
      then abandon t
      else begin
        let c = t.cur and j = 3 * i in
        Bigarray.Array1.unsafe_set c j
          (pc
          lor (offset lsl 32)
          lor (len lsl 44)
          lor (Bool.to_int r.Raw.fetched_new_pc lsl 56)
          lor (Bool.to_int r.Raw.expansion_start lsl 57)
          lor (Bool.to_int mem lsl 58)
          lor ((branch + 1) lsl 59));
        Bigarray.Array1.unsafe_set c (j + 1) (addr lor (rsid1 lsl 32));
        Bigarray.Array1.unsafe_set c (j + 2) (r.Raw.desc :> int);
        t.length <- n + 1
      end
    end
  end

let finish t m =
  t.recording <- false;
  t.finished <- true;
  t.jit_compiles <- Machine.jit_compiles m;
  t.jit_hits <- Machine.jit_hits m;
  t.jit_invalidations <- Machine.jit_invalidations m

let complete t = t.finished && not t.abandoned
let footprint t = List.length t.chunks * chunk_len
let jit_compiles t = t.jit_compiles
let jit_hits t = t.jit_hits
let jit_invalidations t = t.jit_invalidations

let replay ?(poll = fun () -> ()) t sink =
  if not (complete t) then invalid_arg "Tape.replay: recording not complete";
  let r =
    {
      Raw.pc = 0;
      desc = nop;
      imm = 0;
      rsid = -1;
      offset = 0;
      len = 0;
      expansion_start = false;
      fetched_new_pc = false;
      mem_addr = Raw.no_mem;
      branch = -1;
      target = 0;
    }
  in
  List.iteri
    (fun k (c : chunk) ->
      let base = k lsl chunk_bits in
      for i = 0 to Int.min chunk_len (t.length - base) - 1 do
        let j = 3 * i in
        let w0 = Bigarray.Array1.unsafe_get c j
        and w1 = Bigarray.Array1.unsafe_get c (j + 1) in
        let addr = w1 land mask32 in
        r.Raw.pc <- w0 land mask32;
        r.Raw.desc <- Desc.of_packed (Bigarray.Array1.unsafe_get c (j + 2));
        r.Raw.offset <- (w0 lsr 32) land 4095;
        r.Raw.len <- (w0 lsr 44) land 4095;
        r.Raw.fetched_new_pc <- (w0 lsr 56) land 1 <> 0;
        r.Raw.expansion_start <- (w0 lsr 57) land 1 <> 0;
        r.Raw.branch <- (w0 lsr 59) - 1;
        if (w0 lsr 58) land 1 <> 0 then r.Raw.mem_addr <- addr
        else begin
          r.Raw.mem_addr <- Raw.no_mem;
          r.Raw.target <- addr
        end;
        r.Raw.rsid <- (w1 lsr 32) - 1;
        sink r;
        if i land 2047 = 2047 then poll ()
      done)
    (List.rev t.chunks);
  t.length
