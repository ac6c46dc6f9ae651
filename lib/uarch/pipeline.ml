module I = Dise_isa.Insn
module Desc = Dise_isa.Desc
module Reg = Dise_isa.Reg
module Machine = Dise_machine.Machine
module Tape = Dise_machine.Tape
module Controller = Dise_core.Controller
module Cpi_stack = Dise_telemetry.Cpi_stack
module Trace = Dise_telemetry.Trace
module Profile = Dise_telemetry.Profile
module Json = Dise_telemetry.Json

(* Redirect causes, for CPI attribution of the fetch bubble the next
   instruction observes. *)
let redirect_none = 0
let redirect_mispredict = 1
let redirect_replacement = 2  (* taken replacement or DISE-internal branch *)

type t = {
  cfg : Config.t;
  icache : Cache.t option;
  dcache : Cache.t option;
  l2 : Cache.t option;
  bp : Branch_pred.t;
  controller : Controller.t option;
  stats : Stats.t;
  trace : Trace.t option;
  profile : Profile.t option;
  trace_lanes : int;
  reg_ready : int array;
      (* cycle each register's value is ready, at [Reg.index + 1]: slot
         0 stands for "no register" and stays 0, so reading a
         descriptor's absent source needs no test *)
  rob : int array;
      (* ring of retire timestamps, indexed by [seq land rob_mask]: a
         power of two >= rob_size and width, so both look-backs are
         still in it and indexing masks instead of dividing *)
  issue : int array;
      (* ring of issue timestamps, indexed like [rob]; a slot not yet
         written reads 0 *)
  rob_mask : int;
  mutable serial_stalls : int;
  mutable seq : int;
  mutable fetch_cycle : int;
  mutable fetch_count : int;
  mutable last_line : int;
  mutable last_l2_ifetch_line : int;
  mutable last_retire : int;
  mutable pending_redirect : int;
      (* cause of the most recent redirect, consumed by the first
         instruction fetched after it *)
  mutable dmiss : bool;
      (* the instruction currently being consumed took an L1-D load miss *)
  mutable finished : bool;
}

let make_cache = function
  | None -> None
  | Some { Config.size_bytes; assoc; line_bytes } ->
    Some (Cache.create ~size_bytes ~assoc ~line_bytes)

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create ?controller ?trace ?profile (cfg : Config.t) =
  if cfg.width < 1 then invalid_arg "Pipeline.create: width must be >= 1";
  let trace_lanes = 4 * cfg.width in
  let rob_len = pow2_at_least (Int.max cfg.rob_size cfg.width) in
  (match trace with
  | None -> ()
  | Some tr ->
    Trace.metadata_thread tr ~tid:0 ~name:"stalls+redirects";
    for i = 1 to trace_lanes do
      Trace.metadata_thread tr ~tid:i ~name:(Printf.sprintf "pipe slot %d" (i - 1))
    done);
  {
    cfg;
    icache = make_cache cfg.icache;
    dcache = make_cache cfg.dcache;
    l2 = make_cache cfg.l2;
    bp =
      (if cfg.perfect_branch_pred then Branch_pred.perfect ()
       else Branch_pred.create ());
    controller;
    stats = Stats.create ();
    trace;
    profile;
    trace_lanes;
    reg_ready = Array.make (Reg.num_arch + Reg.num_dedicated + 1) 0;
    rob = Array.make rob_len 0;
    issue = Array.make rob_len 0;
    rob_mask = rob_len - 1;
    serial_stalls = 0;
    seq = 0;
    fetch_cycle = 0;
    fetch_count = 0;
    last_line = -1;
    last_l2_ifetch_line = min_int;
    last_retire = 0;
    pending_redirect = redirect_none;
    dmiss = false;
    finished = false;
  }

(* Penalty of an L1 miss: the L2 access, plus memory on an L2 miss.
   [prefetched] marks L2 misses whose latency a next-line prefetcher
   would have hidden (sequential instruction streaming): they cost only
   the L2 access. *)
let l1_miss_penalty ~prefetched t addr =
  match t.l2 with
  | None -> t.cfg.l2_latency
  | Some l2 -> (
    t.stats.Stats.l2_accesses <- t.stats.Stats.l2_accesses + 1;
    match Cache.access l2 addr with
    | `Hit -> t.cfg.l2_latency
    | `Miss ->
      t.stats.Stats.l2_misses <- t.stats.Stats.l2_misses + 1;
      if prefetched then t.cfg.l2_latency
      else t.cfg.l2_latency + t.cfg.mem_latency)

let redirect_depth t =
  t.cfg.depth + (match t.cfg.dise_decode with Config.Extra_stage -> 1 | _ -> 0)

(* Restart fetch after a pipeline redirect resolving at [cycle].
   [cause] tells CPI attribution which bucket the bubble belongs to
   once the next fetched instruction exposes it. *)
let redirect t ~cause cycle =
  t.fetch_cycle <- Int.max t.fetch_cycle (cycle + redirect_depth t);
  t.fetch_count <- 0;
  t.last_line <- -1;
  t.pending_redirect <- cause;
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.instant tr
      ~name:
        (if cause = redirect_mispredict then "mispredict-redirect"
         else "replacement-redirect")
      ~cat:"redirect" ~ts:cycle ~tid:0 ~args:[]

(* End the current fetch group (taken branch or stall). *)
let break_group t extra =
  t.fetch_cycle <- t.fetch_cycle + 1 + extra;
  t.fetch_count <- 0

(* A serializing stall (I-fetch miss, DISE decode stall, PT/RT miss
   flush): the whole pipeline stops or is flushed, so the cycles
   cannot be hidden behind front-end slack, ROB back-pressure, or
   spare issue slots the way an ordinary fetch bubble can. Every
   timestamp in this model is relative and all microarchitectural
   state (caches, predictor) is timing-independent, so a
   whole-timeline offset accounts for these stalls exactly: accumulate
   them and add the total to the final cycle count. Each stall is
   charged in full to the CPI bucket of the event that raised it. *)
let serialize_stall t bucket cycles =
  if cycles > 0 then begin
    t.serial_stalls <- t.serial_stalls + cycles;
    let cpi = t.stats.Stats.cpi in
    (match bucket with
    | `Icache -> cpi.Cpi_stack.icache <- cpi.Cpi_stack.icache + cycles
    | `Ptrt -> cpi.Cpi_stack.ptrt_miss <- cpi.Cpi_stack.ptrt_miss + cycles
    | `Decode -> cpi.Cpi_stack.dise_decode <- cpi.Cpi_stack.dise_decode + cycles);
    t.fetch_count <- 0;
    match t.trace with
    | None -> ()
    | Some tr ->
      Trace.instant tr
        ~name:
          (match bucket with
          | `Icache -> "icache-miss-stall"
          | `Ptrt -> "pt/rt-miss-stall"
          | `Decode -> "decode-stall")
        ~cat:"stall" ~ts:t.fetch_cycle ~tid:0
        ~args:[ ("cycles", Json.Int cycles) ]
  end

(* One D-cache access, and the L2 behind it on a miss: returns the
   miss penalty, 0 on a hit. [mem_addr] is the effective address
   ([Machine.Raw.no_mem] when the instruction made no access; loads
   and stores always set it, so the sentinel is defensively treated as
   address 0). Only a load miss marks the instruction for CPI
   attribution: stores retire through a store buffer. *)
let dcache_access t ~load mem_addr =
  t.stats.Stats.dcache_accesses <- t.stats.Stats.dcache_accesses + 1;
  match t.dcache with
  | None -> 0
  | Some dc -> (
    let addr = if mem_addr = Machine.Raw.no_mem then 0 else mem_addr in
    match Cache.access dc addr with
    | `Hit -> 0
    | `Miss ->
      t.stats.Stats.dcache_misses <- t.stats.Stats.dcache_misses + 1;
      if load then t.dmiss <- true;
      l1_miss_penalty ~prefetched:false t addr)

(* Execution latency from the descriptor's exec class. Stores charge
   1 cycle but still move the cache footprint. *)
let[@inline] latency_of t desc ~mem_addr =
  match Desc.exec desc with
  | Desc.Alu | Desc.Other -> 1
  | Desc.Mul -> t.cfg.mul_latency
  | Desc.Load -> t.cfg.l1_latency + dcache_access t ~load:true mem_addr
  | Desc.Store ->
    ignore (dcache_access t ~load:false mem_addr);
    1

(* Predict an application-level control transfer and train the
   predictor on its outcome. *)
let predict t desc ~pc ~taken ~target =
  let fallthrough = pc + 4 in
  match Desc.branch desc with
  | Desc.Cond ->
    Branch_pred.on_branch t.bp ~pc ~kind:Branch_pred.Cond ~taken ~target
      ~fallthrough
  | Desc.Direct ->
    Branch_pred.on_branch t.bp ~pc ~kind:Branch_pred.Direct ~taken ~target
      ~fallthrough
  | Desc.Indirect ->
    Branch_pred.on_branch t.bp ~pc ~kind:Branch_pred.Indirect ~taken ~target
      ~fallthrough
  | Desc.Return ->
    Branch_pred.on_branch t.bp ~pc ~kind:Branch_pred.Return ~taken ~target
      ~fallthrough
  | Desc.Call ->
    Branch_pred.on_call t.bp ~pc ~target ~fallthrough ~indirect:false
  | Desc.Indirect_call ->
    Branch_pred.on_call t.bp ~pc ~target ~fallthrough ~indirect:true
  | Desc.No_branch -> `Correct

(* The single consumption path, over the machine's (allocation free)
   step record. It reads the instruction only through its pre-decoded
   descriptor [r.desc], never by matching an instruction.
   [rsid < 0] means an application instruction;
   [branch < 0] no branch, else bit 0 = taken / bit 1 = dise_internal;
   [mem_addr = Raw.no_mem] no memory access. *)
let consume_raw t (r : Machine.Raw.t) =
  let cfg = t.cfg in
  let stats = t.stats in
  let desc = r.Machine.Raw.desc in
  (* The redirect bubble set by a previous instruction is attributed
     (at most once) to the first instruction whose issue is bound by
     the delayed fetch — this one, if any. *)
  let pending = t.pending_redirect in
  t.pending_redirect <- redirect_none;
  t.dmiss <- false;
  (* ---- fetch ---- *)
  if t.fetch_count >= cfg.width then begin
    t.fetch_cycle <- t.fetch_cycle + 1;
    t.fetch_count <- 0
  end;
  if r.Machine.Raw.fetched_new_pc then begin
    stats.Stats.app_instrs <- stats.Stats.app_instrs + 1;
    (match t.profile with
    | None -> ()
    | Some p -> Profile.on_fetch p ~pc:r.Machine.Raw.pc);
    (match t.icache with
    | None -> ()
    | Some ic ->
      let line = Cache.line_of ic r.Machine.Raw.pc in
      if line <> t.last_line then begin
        t.last_line <- line;
        stats.Stats.icache_accesses <- stats.Stats.icache_accesses + 1;
        match Cache.access ic r.Machine.Raw.pc with
        | `Hit -> ()
        | `Miss ->
          stats.Stats.icache_misses <- stats.Stats.icache_misses + 1;
          let prefetched = line = t.last_l2_ifetch_line + 1 in
          t.last_l2_ifetch_line <- line;
          (* Instruction misses starve the whole core: the decoupling
             queue drains in a couple of cycles, so unlike data misses
             the latency is essentially exposed. *)
          serialize_stall t `Icache (l1_miss_penalty ~prefetched t r.Machine.Raw.pc)
      end);
    (* PT inspection happens on every application fetch. *)
    match t.controller with
    | None -> ()
    | Some c ->
      let stall = Controller.on_fetch c ~key:(Desc.key desc) in
      if stall > 0 then begin
        stats.Stats.dise_stall_cycles <- stats.Stats.dise_stall_cycles + stall;
        serialize_stall t `Ptrt stall
      end
  end
  else stats.Stats.rep_instrs <- stats.Stats.rep_instrs + 1;
  (* An expansion is charged once, at its first instruction. An
     interrupt resumption re-enters a sequence at offset > 0 with
     [expansion_start] set; that re-expansion is not a new dynamic
     expansion, so the offset guard excludes it. *)
  if r.Machine.Raw.expansion_start && r.Machine.Raw.offset = 0 then begin
    let rsid = r.Machine.Raw.rsid and len = r.Machine.Raw.len in
    stats.Stats.expansions <- stats.Stats.expansions + 1;
    (match t.profile with
    | None -> ()
    | Some p -> Profile.on_expansion p ~rsid ~pc:r.Machine.Raw.pc);
    (match t.controller with
    | None -> ()
    | Some c ->
      stats.Stats.rt_accesses <- stats.Stats.rt_accesses + 1;
      let stall = Controller.on_expansion c ~rsid ~len in
      (match t.profile with
      | None -> ()
      | Some p -> Profile.on_rt p ~rsid ~miss:(stall > 0));
      if stall > 0 then begin
        stats.Stats.rt_misses <- stats.Stats.rt_misses + 1;
        stats.Stats.dise_stall_cycles <- stats.Stats.dise_stall_cycles + stall;
        serialize_stall t `Ptrt stall
      end);
    (match cfg.dise_decode with
    | Config.Stall_per_expansion ->
      stats.Stats.dise_stall_cycles <- stats.Stats.dise_stall_cycles + 1;
      serialize_stall t `Decode 1
    | Config.Free | Config.Extra_stage -> ())
  end;
  (match t.profile with
  | Some p when r.Machine.Raw.rsid >= 0 ->
    Profile.on_rep_instr p ~rsid:r.Machine.Raw.rsid
  | _ -> ());
  let fetch = t.fetch_cycle in
  t.fetch_count <- t.fetch_count + 1;
  (* ---- dispatch: ROB back-pressure ---- *)
  let rob_bound =
    t.seq >= cfg.rob_size
    && t.rob.((t.seq - cfg.rob_size) land t.rob_mask) > fetch
  in
  let fetch =
    if rob_bound then t.rob.((t.seq - cfg.rob_size) land t.rob_mask) else fetch
  in
  t.fetch_cycle <- Int.max t.fetch_cycle fetch;
  (* ---- issue / execute ---- *)
  (* A descriptor slot is always a slot of [reg_ready] ([Desc.t] is
     private), and an absent source reads slot 0. *)
  let src_ready =
    Int.max
      (Array.unsafe_get t.reg_ready (Desc.use1_slot desc))
      (Array.unsafe_get t.reg_ready (Desc.use2_slot desc))
  in
  (* Issue bandwidth: at most [width] instructions may begin execution
     per cycle; the [width]-th previous issue bounds this one (the
     first [width] instructions read unwritten slots: 0). *)
  let bandwidth_ready = t.issue.((t.seq - cfg.width) land t.rob_mask) + 1 in
  let start = Int.max (Int.max fetch src_ready) bandwidth_ready in
  (* Fetch bound the issue: [fetch >= src_ready && fetch >=
     bandwidth_ready], without the two branches. *)
  let fetch_dominant = start = fetch in
  t.issue.(t.seq land t.rob_mask) <- start;
  let complete = start + latency_of t desc ~mem_addr:r.Machine.Raw.mem_addr in
  let d = Desc.def1_slot desc in
  if d > 0 then Array.unsafe_set t.reg_ready d complete;
  (* ---- control flow ---- *)
  (if r.Machine.Raw.branch >= 0 then begin
     let taken = r.Machine.Raw.branch land 1 <> 0 in
     let target = r.Machine.Raw.target in
     if r.Machine.Raw.branch land 2 <> 0 then begin
       (* A taken DISE branch is interpreted as a misprediction. *)
       if taken then begin
         stats.Stats.dise_branch_redirects <-
           stats.Stats.dise_branch_redirects + 1;
         redirect t ~cause:redirect_replacement complete
       end
     end
     else begin
       stats.Stats.branches <- stats.Stats.branches + 1;
       let predicted_normally =
         (* Only the trigger (last element of a replacement sequence)
            was seen by the fetch-side predictor; prediction of other
            replacement branches is suppressed. *)
         r.Machine.Raw.rsid < 0
         || r.Machine.Raw.offset = r.Machine.Raw.len - 1
       in
       if predicted_normally then begin
         match predict t desc ~pc:r.Machine.Raw.pc ~taken ~target with
         | `Mispredict ->
           stats.Stats.mispredicts <- stats.Stats.mispredicts + 1;
           redirect t ~cause:redirect_mispredict complete
         | `Correct -> if taken then break_group t 0
       end
       else if taken then begin
         (* Effectively predicted not-taken: a taken replacement branch
            redirects (this is the fault-isolation trap path). *)
         stats.Stats.rep_branch_redirects <- stats.Stats.rep_branch_redirects + 1;
         redirect t ~cause:redirect_replacement complete
       end
     end
   end);
  (* ---- retire ---- *)
  (* In order: not before the previous instruction retired. *)
  let in_order = t.last_retire in
  let bandwidth =
    if t.seq >= cfg.width then t.rob.((t.seq - cfg.width) land t.rob_mask) + 1
    else 0
  in
  let retire = Int.max complete (Int.max in_order bandwidth) in
  (* ---- CPI attribution ----
     The retire-to-retire gap of this instruction is charged, in full,
     to the dominant constraint. Retire timestamps are monotonic
     (retire >= in_order = previous retire), so these gaps partition
     [0, last_retire] exactly; together with the serializing-stall
     charges above, every cycle of the final count lands in exactly
     one bucket. *)
  let delta = retire - t.last_retire in
  if delta > 0 then begin
    let cpi = stats.Stats.cpi in
    if complete < retire then
      (* Retire-bandwidth (or in-order) limited: the machine was
         retiring at full width — base. *)
      cpi.Cpi_stack.base <- cpi.Cpi_stack.base + delta
    else if t.dmiss then cpi.Cpi_stack.dcache <- cpi.Cpi_stack.dcache + delta
    else if pending <> redirect_none && fetch_dominant then begin
      if pending = redirect_mispredict then
        cpi.Cpi_stack.branch <- cpi.Cpi_stack.branch + delta
      else cpi.Cpi_stack.rep_redirect <- cpi.Cpi_stack.rep_redirect + delta
    end
    else if rob_bound && fetch_dominant then
      cpi.Cpi_stack.rob <- cpi.Cpi_stack.rob + delta
    else cpi.Cpi_stack.base <- cpi.Cpi_stack.base + delta
  end;
  (match t.trace with
  | None -> ()
  | Some tr ->
    let origin_args =
      if r.Machine.Raw.rsid < 0 then []
      else
        [ ("rsid", Json.Int r.Machine.Raw.rsid);
          ("offset", Json.Int r.Machine.Raw.offset);
          ("len", Json.Int r.Machine.Raw.len) ]
    in
    Trace.complete tr
      ~name:(I.to_string (Machine.Raw.insn r))
      ~cat:(if r.Machine.Raw.rsid < 0 then "app" else "rep")
      ~ts:fetch ~dur:(Int.max 1 (retire - fetch))
      ~tid:(1 + (t.seq mod t.trace_lanes))
      ~args:
        (("pc", Json.String (Printf.sprintf "0x%x" r.Machine.Raw.pc))
        :: ("seq", Json.Int t.seq)
        :: ("issue", Json.Int start)
        :: ("complete", Json.Int complete)
        :: ("retire", Json.Int retire)
        :: origin_args));
  t.rob.(t.seq land t.rob_mask) <- retire;
  t.last_retire <- retire;
  t.seq <- t.seq + 1;
  stats.Stats.retired <- stats.Stats.retired + 1

let finish t =
  if not t.finished then begin
    t.finished <- true;
    t.stats.Stats.cycles <- t.last_retire + t.serial_stalls;
    (match t.controller with
    | Some c ->
      let cs = Controller.stats c in
      t.stats.Stats.pt_misses <- cs.Controller.pt_misses
    | None -> ());
    Cpi_stack.check t.stats.Stats.cpi ~cycles:t.stats.Stats.cycles;
    match t.trace with None -> () | Some tr -> Trace.close tr
  end;
  t.stats

(* Where a run's stream comes from: a live machine, optionally
   recording its stream on a tape, or a tape recorded earlier. *)
type source =
  | Live of Machine.t * Tape.t option
  | Replay of Tape.t

(* The one driver behind [run] and [replay]. The stream allocates
   nothing per dynamic instruction; deadline polling happens in the
   machine loop or the tape loop every 2048 instructions. The sink is
   picked once, with a context switch if the controller sets an
   interval. The JIT counters are the machine's, or the recording's. *)
let drive ?max_steps ?controller ?trace ?profile ?poll cfg source =
  let p = create ?controller ?trace ?profile cfg in
  let consume =
    match controller with
    | Some c when (Controller.config c).Controller.context_switch_every > 0 ->
      let every = (Controller.config c).Controller.context_switch_every and n = ref 0 in
      fun r ->
        consume_raw p r;
        incr n;
        if !n = every then (n := 0; Controller.context_switch c)
    | _ -> fun r -> consume_raw p r
  in
  (match source with
  | Live (machine, None) -> ignore (Machine.run_raw ?max_steps ?poll machine consume)
  | Live (machine, Some tape) ->
    Tape.start tape;
    ignore
      (Machine.run_raw ?max_steps ?poll machine (fun r ->
           Tape.record tape r;
           consume r));
    Tape.finish tape machine
  | Replay tape -> ignore (Tape.replay ?poll tape consume));
  let stats = finish p in
  (match source with
  | Live (machine, _) ->
    stats.Stats.jit_compiles <- Machine.jit_compiles machine;
    stats.Stats.jit_hits <- Machine.jit_hits machine;
    stats.Stats.jit_invalidations <- Machine.jit_invalidations machine
  | Replay tape ->
    stats.Stats.jit_compiles <- Tape.jit_compiles tape;
    stats.Stats.jit_hits <- Tape.jit_hits tape;
    stats.Stats.jit_invalidations <- Tape.jit_invalidations tape);
  stats

let run ?max_steps ?controller ?trace ?profile ?poll ?record cfg machine =
  drive ?max_steps ?controller ?trace ?profile ?poll cfg (Live (machine, record))

let replay ?controller ?poll cfg tape = drive ?controller ?poll cfg (Replay tape)
