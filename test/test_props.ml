(* Property-based tests over the core data structures and invariants. *)

open Dise_isa
open Dise_core
module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module W = Dise_workload

let t = QCheck_alcotest.to_alcotest

(* --- patterns --------------------------------------------------------- *)

let prop_of_opcode_matches =
  QCheck.Test.make ~name:"of_opcode matches its example" ~count:300
    (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      Pattern.matches (Pattern.of_opcode i) i)

let prop_class_pattern_matches =
  QCheck.Test.make ~name:"class pattern matches class members" ~count:300
    (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      Pattern.matches (Pattern.of_class (Insn.cls i)) i)

let prop_constraint_narrows =
  QCheck.Test.make ~name:"field constraint only narrows the match set"
    ~count:300
    (QCheck.pair (Gens.arbitrary_insn ~pc:0x100000)
       (QCheck.make (QCheck.Gen.int_bound 31)))
    (fun (i, rn) ->
      let r = Reg.r rn in
      let base = Pattern.of_class (Insn.cls i) in
      let narrowed = Pattern.with_rs r base in
      (* If the narrowed pattern matches, the base must too; and
         specificity strictly grows. *)
      (not (Pattern.matches narrowed i) || Pattern.matches base i)
      && Pattern.specificity narrowed > Pattern.specificity base)

let prop_dispatch_keys_sound =
  QCheck.Test.make ~name:"matching instructions are in dispatch_keys"
    ~count:300 (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      let patterns =
        [ Pattern.any; Pattern.of_class (Insn.cls i); Pattern.of_opcode i ]
      in
      List.for_all
        (fun p ->
          (not (Pattern.matches p i))
          || List.mem (Insn.key i) (Pattern.dispatch_keys p))
        patterns)

(* --- replacement instantiation ----------------------------------------- *)

let prop_literal_sequences_trigger_independent =
  QCheck.Test.make ~name:"literal sequences instantiate independently of trigger"
    ~count:200
    (QCheck.pair Gens.arbitrary_alu_program (Gens.arbitrary_insn ~pc:0x400))
    (fun (prog, trigger) ->
      let spec = Replacement.of_insns prog in
      match Insn.cls trigger with
      | Opcode.C_codeword -> QCheck.assume_fail ()
      | _ ->
        let out = Replacement.instantiate spec ~trigger ~pc:0x400 in
        Array.to_list out = prog)

let prop_field5_roundtrip =
  QCheck.Test.make ~name:"5-bit parameter field round-trip" ~count:200
    (QCheck.make (QCheck.Gen.int_range (-16) 15)) (fun v ->
      Replacement.signed5 (Replacement.to_field5 v) = v)

let prop_field10_roundtrip =
  QCheck.Test.make ~name:"10-bit parameter pair round-trip" ~count:200
    (QCheck.make (QCheck.Gen.int_range (-512) 511)) (fun v ->
      let hi, lo = Replacement.to_fields10 v in
      Replacement.signed10 hi lo = v
      && hi >= 0 && hi < 32 && lo >= 0 && lo < 32)

(* --- prodset ------------------------------------------------------------ *)

let prop_union_lookup_agrees =
  QCheck.Test.make ~name:"union lookup agrees with side lookups" ~count:200
    (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      let a =
        Prodset.add Prodset.empty
          (Production.make ~name:"a" Pattern.loads (Production.Direct 1))
          Replacement.identity
      in
      let b =
        Prodset.add Prodset.empty
          (Production.make ~name:"b" Pattern.stores (Production.Direct 2))
          Replacement.identity
      in
      let u = Prodset.union a b in
      match Prodset.lookup u i with
      | Some (_, 1) -> Prodset.lookup a i <> None
      | Some (_, 2) -> Prodset.lookup b i <> None
      | Some _ -> false
      | None -> Prodset.lookup a i = None && Prodset.lookup b i = None)

let prop_engine_agrees_with_prodset =
  QCheck.Test.make ~name:"engine dispatch agrees with reference lookup"
    ~count:300 (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      (* A set with overlapping patterns across priorities and
         specificities: the compiled dispatch table must agree with the
         simple list-scan lookup. *)
      let set =
        Prodset.empty
        |> (fun s ->
             Prodset.add s
               (Production.make ~name:"a" Pattern.loads (Production.Direct 1))
               Replacement.identity)
        |> (fun s ->
             Prodset.add s
               (Production.make ~name:"b"
                  (Pattern.with_rs Dise_isa.Reg.sp Pattern.loads)
                  (Production.Direct 2))
               Replacement.identity)
        |> (fun s ->
             Prodset.add s
               (Production.make ~name:"c" ~priority:1 Pattern.stores
                  (Production.Direct 3))
               Replacement.identity)
        |> fun s ->
        Prodset.add s
          (Production.make ~name:"d" (Pattern.of_class Opcode.C_branch)
             (Production.Direct 4))
          Replacement.identity
      in
      let engine = Engine.create set in
      let via_engine =
        match Engine.expand engine ~pc:0x100000 i with
        | Some e -> Some e.Dise_machine.Machine.rsid
        | None -> None
      in
      let via_lookup =
        match Prodset.lookup set i with
        | Some (_, rsid) -> Some rsid
        | None -> None
      in
      via_engine = via_lookup)

(* --- RT and caches -------------------------------------------------------- *)

let rt_trace_gen =
  QCheck.Gen.(list_size (int_range 1 300) (pair (int_bound 200) (int_range 1 8)))

let prop_rt_bounded_and_rehit =
  QCheck.Test.make ~name:"RT occupancy bounded; immediate re-access hits"
    ~count:100
    (QCheck.make rt_trace_gen)
    (fun trace ->
      let rt = Rt.create ~entries:64 ~assoc:2 () in
      List.for_all
        (fun (rsid, len) ->
          ignore (Rt.access rt ~rsid ~len);
          (* A sequence that fits entirely must hit right after its
             fill. *)
          (len > 64 || Rt.access rt ~rsid ~len = `Hit)
          && Rt.occupancy rt <= Rt.capacity_blocks rt)
        trace)

let prop_cache_rehit =
  QCheck.Test.make ~name:"cache immediate re-access hits" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) (int_bound 0xFFFFF)))
    (fun addrs ->
      let c = Dise_uarch.Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
      List.for_all
        (fun a ->
          ignore (Dise_uarch.Cache.access c a);
          Dise_uarch.Cache.access c a = `Hit)
        addrs)

(* A direct model of set-associative LRU: each set is the list of its
   lines, most recently used first. [inval] is the index of the access
   before which the whole cache is invalidated (-1: never). Returns the
   hit/miss sequence. *)
let lru_model ~n_sets ~assoc ~line_bytes ~inval addrs =
  let sets = Array.make n_sets [] in
  List.mapi
    (fun k a ->
      if k = inval then Array.fill sets 0 n_sets [];
      let line = a / line_bytes in
      let s = line mod n_sets in
      let hit = List.mem line sets.(s) in
      let ways = line :: List.filter (fun l -> l <> line) sets.(s) in
      sets.(s) <- List.filteri (fun i _ -> i < assoc) ways;
      hit)
    addrs

(* Random geometries and address streams; half the streams cycle a
   few more lines than there are ways through two sets, so evictions
   and LRU order decide most outcomes. A quarter of the touches come in
   runs of up to five accesses to one line, the pattern the cache's
   same-line fast path serves, and half the streams invalidate the
   cache somewhere in the middle. *)
let cache_stream_gen =
  let open QCheck.Gen in
  let* assoc = oneofl [ 1; 2; 4; 8 ] in
  let* n_sets = oneofl [ 1; 2; 16 ] in
  let* line_bytes = oneofl [ 16; 64 ] in
  let* conflict = bool in
  let addr =
    if conflict then
      map3
        (fun k s off -> (((k * n_sets) + s) * line_bytes) + off)
        (int_bound (2 * assoc)) (int_bound 1) (int_bound (line_bytes - 1))
    else int_bound 0xFFFF
  in
  let same_line_run =
    map2
      (fun a offs -> List.map (fun o -> a - (a mod line_bytes) + o) offs)
      addr
      (list_size (int_range 2 5) (int_bound (line_bytes - 1)))
  in
  let* runs =
    list_size (int_range 1 200)
      (frequency [ (3, map (fun a -> [ a ]) addr); (1, same_line_run) ])
  in
  let addrs = List.concat runs in
  let+ inval =
    frequency [ (1, return (-1)); (1, int_bound (List.length addrs - 1)) ]
  in
  (assoc, n_sets, line_bytes, inval, addrs)

let prop_cache_matches_lru_model =
  QCheck.Test.make ~name:"cache hit/miss sequence matches an LRU model"
    ~count:300
    (QCheck.make
       ~print:(fun (assoc, n_sets, line_bytes, inval, addrs) ->
         Printf.sprintf "assoc=%d sets=%d line=%d inval=%d [%s]" assoc n_sets
           line_bytes inval
           (String.concat ";" (List.map string_of_int addrs)))
       cache_stream_gen)
    (fun (assoc, n_sets, line_bytes, inval, addrs) ->
      let c =
        Dise_uarch.Cache.create ~size_bytes:(n_sets * assoc * line_bytes) ~assoc
          ~line_bytes
      in
      let got =
        List.mapi
          (fun k a ->
            if k = inval then Dise_uarch.Cache.invalidate c;
            Dise_uarch.Cache.access c a = `Hit)
          addrs
      in
      let want = lru_model ~n_sets ~assoc ~line_bytes ~inval addrs in
      got = want
      && Dise_uarch.Cache.misses c = List.length (List.filter not want))

(* --- layout ------------------------------------------------------------ *)

(* A random mix of 2- and 4-byte instructions at a random base:
   [find_index] finds each instruction at its own address and nothing
   anywhere else, [fetch] agrees with it, and a size other than 2 or 4
   is refused. Instruction [k] is the codeword with tag [k], so
   [size_of] can give each instruction its drawn size. *)
let prop_find_index_exact =
  QCheck.Test.make ~name:"find_index hits exactly the instruction starts"
    ~count:200
    QCheck.(
      triple (int_bound 0x200000)
        (list_of_size Gen.(int_bound 60) bool)
        (int_bound 59))
    (fun (base, wide, bad) ->
      let sizes = Array.of_list (List.map (fun w -> if w then 4 else 2) wide) in
      let n = Array.length sizes in
      let tag_of = function Insn.Codeword { tag; _ } -> tag | _ -> -1 in
      let prog =
        List.init n (fun tag ->
            Program.Ins (Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag))
      in
      let img =
        Program.layout ~base ~size_of:(fun i -> sizes.(tag_of i)) prog
      in
      let module Im = Program.Image in
      let is_start = Hashtbl.create n in
      let ok = ref (Im.length img = n) in
      for i = 0 to n - 1 do
        Hashtbl.replace is_start (Im.addr_of_index img i) ();
        ok := !ok && Im.find_index img (Im.addr_of_index img i) = i
      done;
      for addr = base - 2 to Im.end_addr img + 2 do
        let i = Im.find_index img addr in
        ok :=
          !ok
          && (Hashtbl.mem is_start addr || i = -1)
          && Im.fetch img addr = (if i < 0 then None else Some (Im.get img i))
      done;
      !ok
      && (n = 0
         ||
         let bad = bad mod n in
         let size_of i = if tag_of i = bad then 3 else sizes.(tag_of i) in
         match Program.layout ~base ~size_of prog with
         | exception Program.Layout_error _ -> true
         | _ -> false))

(* --- closure-free use/def indices ----------------------------------------- *)

let prop_use_def_indices =
  QCheck.Test.make ~name:"use1/use2/def1 agree with uses/defs" ~count:500
    (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      let present = List.filter (fun x -> x >= 0) in
      present [ Insn.use1 i; Insn.use2 i ] = List.map Reg.index (Insn.uses i)
      && present [ Insn.def1 i ] = List.map Reg.index (Insn.defs i))

(* --- machine vs. the reference interpreter ------------------------------ *)

(* Random architectural state: register values mix small integers,
   word-aligned and unaligned addresses into a data window, the text
   base, and arbitrary 32-bit values; the data window holds random
   words. *)
let data_window = 0x10000

type start = { regs : int array; dregs : int array; words : int array }

let start_gen =
  let open QCheck.Gen in
  let word =
    map2
      (fun lo hi -> Opcode.signed32 (lo lor (hi lsl 30)))
      (int_bound 0x3FFFFFFF) (int_bound 3)
  in
  let value =
    frequency
      [
        (3, int_range (-40) 40);
        (3, map (fun k -> data_window + (4 * k)) (int_bound 63));
        (1, map (fun k -> data_window + k) (int_bound 255));
        (1, return 0x100000);
        (2, word);
      ]
  in
  map3
    (fun regs dregs words -> { regs; dregs; words })
    (array_repeat Reg.num_arch value)
    (array_repeat Reg.num_dedicated value)
    (array_repeat 64 word)

(* Instructions from {!Gens.insn_gen}, with memory operations made
   common and their offsets small, mostly word multiples, so that they
   land in the data window off an aligned base. *)
let near_insn_gen =
  let open QCheck.Gen in
  let offset =
    frequency
      [ (3, map (fun k -> 4 * k) (int_range (-2) 16)); (1, int_range (-8) 64) ]
  in
  let mem =
    map3
      (fun op (base, data) off -> Insn.Mem (op, base, off, data))
      (oneofl Opcode.all_mops) (pair Gens.reg_gen Gens.reg_gen) offset
  in
  frequency [ (1, mem); (1, Gens.insn_gen ~pc:0x100000) ]

let apply_start s m =
  Array.iteri (fun n v -> if n > 0 then Machine.set_reg m (Reg.r n) v) s.regs;
  Array.iteri (fun n v -> Machine.set_dise_reg m n v) s.dregs;
  Array.iteri
    (fun k v ->
      Dise_machine.Memory.write_u32 (Machine.memory m)
        (data_window + (4 * k))
        v)
    s.words

(* A side's step, the state after it, and its description. *)
type outcome = {
  result : (bool, string) result;
  event : Machine.Raw.t;
  insn : Insn.t option;  (* the executed instruction, when it ran *)
  state : int list;  (* every register, pc, disepc, memory checksum *)
}

let all_regs =
  List.init Reg.num_arch Reg.r @ List.init Reg.num_dedicated Reg.d

let outcome result ~raw ~insn ~regs ~pc ~disepc ~mem =
  {
    result;
    event = { raw with Machine.Raw.pc = raw.Machine.Raw.pc };
    insn = (match result with Ok true -> Some insn | _ -> None);
    state =
      pc :: disepc :: Dise_machine.Memory.checksum mem
      :: List.map (Regfile.get regs) all_regs;
  }

let try_step f =
  match f () with
  | s -> Ok s
  | exception ex -> Error (Printexc.to_string ex)

let machine_outcome m =
  let result = try_step (fun () -> Machine.step m) in
  let raw = Machine.raw m in
  outcome result ~raw
    ~insn:(match result with Ok true -> Machine.Raw.insn raw | _ -> Insn.Nop)
    ~regs:(Machine.regs m) ~pc:(Machine.pc m) ~disepc:(Machine.disepc m)
    ~mem:(Machine.memory m)

let ref_outcome r =
  let result = try_step (fun () -> Dise_fuzz.Ref_machine.step r) in
  outcome result ~raw:(Dise_fuzz.Ref_machine.raw r)
    ~insn:(Dise_fuzz.Ref_machine.insn r)
    ~regs:(Dise_fuzz.Ref_machine.regs r) ~pc:(Dise_fuzz.Ref_machine.pc r)
    ~disepc:(Dise_fuzz.Ref_machine.disepc r)
    ~mem:(Dise_fuzz.Ref_machine.memory r)

(* Two outcomes agree on the result (or the error), the state after
   the step and, when it ran, every field of its description. *)
let agree a b =
  a.result = b.result && a.state = b.state && a.insn = b.insn
  &&
  match a.result with
  | Ok true ->
    let x = a.event and y = b.event in
    x.pc = y.pc
    && (x.desc :> int) = (y.desc :> int)
    && x.imm = y.imm && x.rsid = y.rsid && x.offset = y.offset
    && x.len = y.len && x.expansion_start = y.expansion_start
    && x.fetched_new_pc = y.fetched_new_pc && x.mem_addr = y.mem_addr
    && x.branch = y.branch
    && (x.branch < 0 || x.target = y.target)
  | Ok false | Error _ -> true

(* Run [insn] from [s] on the three sides, as the application
   instruction at [main] or ([in_seq]) in the middle of a replacement
   sequence [nop; insn; nop] that the [nop] at [main] triggers, and
   compare every step up to the one that executes [insn]. *)
let three_sides_agree s ~in_seq insn =
  let items =
    [ Program.Label "main"; Program.Ins (if in_seq then Insn.Nop else insn);
      Program.Ins Insn.Halt ]
  in
  let img = Program.layout items in
  let main = Option.get (Program.Image.symbol img "main") in
  let expander =
    if in_seq then begin
      let e = Machine.expansion ~rsid:7 [| Insn.Nop; insn; Insn.Nop |] in
      fun ~pc _ -> if pc = main then Some e else None
    end
    else fun ~pc:_ _ -> None
  in
  let fresh () =
    let m = Machine.create ~expander img in
    apply_start s m;
    m
  in
  let interp = fresh () in
  let jit = fresh () in
  Machine.enable_jit ~threshold:1 jit;
  let reference = Dise_fuzz.Ref_machine.of_machine ~expander (fresh ()) in
  let rec go k =
    k = 0
    ||
    let a = machine_outcome interp in
    let b = machine_outcome jit in
    let c = ref_outcome reference in
    agree a b && agree a c
    && (match a.result with Ok true -> go (k - 1) | Ok false | Error _ -> true)
  in
  go (if in_seq then 2 else 1)

(* Each case: eight generated instructions and the example of every
   opcode key, each run from the case's random state, as an
   application instruction and inside a sequence. *)
let prop_machine_matches_reference =
  QCheck.Test.make
    ~name:"machine and JIT agree with Ref_machine on every instruction"
    ~count:40
    (QCheck.make
       ~print:(fun (l, _) -> String.concat "; " (List.map Insn.to_string l))
       (QCheck.Gen.pair (QCheck.Gen.list_repeat 8 near_insn_gen) start_gen))
    (fun (insns, s) ->
      List.for_all
        (fun i ->
          three_sides_agree s ~in_seq:false i
          && three_sides_agree s ~in_seq:true i)
        (insns @ List.init Insn.num_keys Desc.example_of_key))

let prop_machine_deterministic =
  QCheck.Test.make ~name:"machine runs are deterministic" ~count:20
    (QCheck.make (QCheck.Gen.int_bound 1000)) (fun seed ->
      let profile = { W.Profile.tiny with W.Profile.seed = 7000 + seed } in
      let gen = W.Codegen.generate ~dyn_target:5_000 profile in
      let img = W.Codegen.layout gen in
      let run () =
        let m = Machine.create img in
        ignore (Machine.run_raw ~max_steps:1_000_000 m ignore);
        (Machine.executed m, Regfile.checksum_arch (Machine.regs m))
      in
      run () = run ())

(* --- pipeline stats are jit-invariant --------------------------------------- *)

(* Store/load-checking productions (the paper's MFI shape): every
   memory access expands, so the superblock JIT has real work on any
   generated workload. *)
let mfi_like_set =
  Prodset.resolve_labels
    (fun _ -> Some 0x9000)
    (Lang.parse
       {|
       P1: T.OPCLASS == store -> R1
       P2: T.OPCLASS == load -> R1
       R1: srl T.RS, #26, $dr1
           xor $dr1, $dr1, $dr1
           bne $dr1, __error
           T.INSN
       |})

(* The JIT is a fetch-path optimization: with it on or off, the
   pipeline must see the identical event stream, so every simulated
   statistic — cycles, cache traffic, redirects, the whole CPI stack —
   must be bit-identical. Only the jit_* telemetry counters may
   differ, so they are masked before comparing. *)
let prop_pipeline_stats_jit_invariant =
  QCheck.Test.make ~name:"pipeline stats identical with jit on and off"
    ~count:10
    (QCheck.make (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let profile = { W.Profile.tiny with W.Profile.seed = 9000 + seed } in
      let gen = W.Codegen.generate ~dyn_target:5_000 profile in
      let img = W.Codegen.layout gen in
      let stats ~jit =
        let eng = Engine.create ~image:img mfi_like_set in
        let m = Machine.create ~expander:(Engine.expander eng) img in
        if jit then Engine.attach_jit ~threshold:2 eng m;
        let s =
          Dise_uarch.Pipeline.run ~max_steps:1_000_000
            Dise_uarch.Config.default m
        in
        s.Dise_uarch.Stats.jit_compiles <- 0;
        s.Dise_uarch.Stats.jit_hits <- 0;
        s.Dise_uarch.Stats.jit_invalidations <- 0;
        Dise_uarch.Stats.to_json s
      in
      stats ~jit:false = stats ~jit:true)

(* --- timing descriptors ------------------------------------------------------ *)

(* The definitions each descriptor field is decoded from: the [Insn]
   functions, and the exec class and branch kind the timing model
   charges. *)
let exec_spec : Insn.t -> Desc.exec = function
  | Insn.Rop (Opcode.Mul, _, _, _) | Insn.Ropi (Opcode.Mul, _, _, _) -> Desc.Mul
  | i when Insn.reads_memory i -> Desc.Load
  | i when Insn.writes_memory i -> Desc.Store
  | i when Insn.cls i = Opcode.C_alu -> Desc.Alu
  | _ -> Desc.Other

let branch_spec : Insn.t -> Desc.branch = function
  | Insn.Br _ -> Desc.Cond
  | Insn.Jmp _ -> Desc.Direct
  | Insn.Jr r when Reg.equal r Reg.ra -> Desc.Return
  | Insn.Jr _ -> Desc.Indirect
  | Insn.Jal _ -> Desc.Call
  | Insn.Jalr _ -> Desc.Indirect_call
  | _ -> Desc.No_branch

let desc_agrees i =
  let d = Desc.of_insn i in
  Desc.key d = Insn.key i
  && Desc.use1 d = Insn.use1 i
  && Desc.use2 d = Insn.use2 i
  && Desc.def1 d = Insn.def1 i
  && Desc.exec d = exec_spec i
  && Desc.branch d = branch_spec i
  && Desc.use1_slot d = Insn.use1 i + 1
  && Desc.use2_slot d = Insn.use2 i + 1
  && Desc.def1_slot d = Insn.def1 i + 1
  && (not (Desc.unresolved d))
  && Desc.to_insn d (Desc.imm_of_insn i) = i
  && Desc.of_packed (d :> int) = d

(* A label target is marked unresolved; [Program.layout] resolves it. *)
let unresolved_marked i =
  match
    Insn.map ~reg:Fun.id ~imm:Fun.id ~target:(fun _ -> Insn.Lab "l") ~cw:Fun.id i
  with
  | (Insn.Br _ | Insn.Jmp _ | Insn.Jal _) as j ->
    Desc.unresolved (Desc.of_insn j)
  | j -> not (Desc.unresolved (Desc.of_insn j))

(* An int with a field out of range is no descriptor: past 31 bits, a
   key past [num_keys], a register slot past the register file, an
   exec or branch code no constructor has. *)
let packed_out_of_range =
  List.for_all
    (fun v ->
      match Desc.of_packed v with
      | _ -> false
      | exception Invalid_argument _ -> true)
    [ 1 lsl 31; 63; 63 lsl 6; 63 lsl 12; 63 lsl 18; 7 lsl 24; 7 lsl 27 ]

let prop_desc_fields =
  QCheck.Test.make ~name:"descriptor fields agree with Insn" ~count:500
    (Gens.arbitrary_insn ~pc:0x100000) (fun i ->
      desc_agrees i && unresolved_marked i && packed_out_of_range
      && desc_agrees (Insn.Jr Reg.ra)
      && List.for_all
           (fun k -> desc_agrees (Desc.example_of_key k))
           (List.init Insn.num_keys Fun.id))

let descs_of seq = Array.map Desc.of_insn seq
let imms_of seq = Array.map Desc.imm_of_insn seq

(* Every image carries its instructions' descriptors and immediates,
   and every expansion, from the engine (memoizing over the image, and
   image-less) and from the reference expander alike, carries its
   sequence's. *)
let prop_descs_match_insns =
  QCheck.Test.make ~name:"image and expansion descriptors match their insns"
    ~count:5
    (QCheck.make (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let profile = { W.Profile.tiny with W.Profile.seed = 7000 + seed } in
      let gen = W.Codegen.generate ~dyn_target:5_000 profile in
      let plain = W.Codegen.layout gen in
      let r =
        Dise_acf.Compress.compress ~scheme:Dise_acf.Compress.full_dise
          gen.W.Codegen.program
      in
      let image_ok img =
        Program.Image.raw_descs img = descs_of (Program.Image.raw_insns img)
        && Program.Image.raw_imms img = imms_of (Program.Image.raw_insns img)
      in
      let expansions_ok img prodset =
        let expanders =
          [ Engine.expander (Engine.create ~image:img prodset);
            Engine.expander (Engine.create prodset);
            Dise_fuzz.Naive.expander prodset ]
        in
        let ok = ref true and n = ref 0 in
        Program.Image.iter
          (fun ~addr insn ->
            List.iter
              (fun expand ->
                match expand ~pc:addr insn with
                | Some e ->
                  incr n;
                  ok :=
                    !ok
                    && e.Machine.descs = descs_of e.Machine.seq
                    && e.Machine.imms = imms_of e.Machine.seq
                | None -> ())
              expanders)
          img;
        !ok && !n > 0
      in
      image_ok plain
      && image_ok r.Dise_acf.Compress.image
      && expansions_ok r.Dise_acf.Compress.image r.Dise_acf.Compress.prodset
      && expansions_ok plain mfi_like_set)

(* --- compression losslessness over random programs -------------------------- *)

let data_digest m =
  Dise_machine.Memory.checksum_range (Machine.memory m) ~lo:0x04000000
    ~hi:0x07F00000

let prop_compression_lossless_random_seeds =
  QCheck.Test.make ~name:"compression lossless across generator seeds"
    ~count:6
    (QCheck.make (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let profile = { W.Profile.tiny with W.Profile.seed = 8000 + seed } in
      let gen = W.Codegen.generate ~dyn_target:8_000 profile in
      let img = W.Codegen.layout gen in
      let m0 = Machine.create img in
      ignore (Machine.run_raw ~max_steps:2_000_000 m0 ignore);
      List.for_all
        (fun scheme ->
          let r = Dise_acf.Compress.compress ~scheme gen.W.Codegen.program in
          let engine = Engine.create r.Dise_acf.Compress.prodset in
          let m =
            Machine.create ~expander:(Engine.expander engine)
              r.Dise_acf.Compress.image
          in
          ignore (Machine.run_raw ~max_steps:2_000_000 m ignore);
          Machine.exit_code m = Machine.exit_code m0
          && data_digest m = data_digest m0)
        [ Dise_acf.Compress.dedicated; Dise_acf.Compress.full_dise ])

(* --- composition --------------------------------------------------------- *)

let prop_merge_length =
  QCheck.Test.make ~name:"merged sequence length = |A| + |B| - 1" ~count:100
    (QCheck.pair Gens.arbitrary_alu_program Gens.arbitrary_alu_program)
    (fun (a, b) ->
      let mk prog = Array.append (Replacement.of_insns prog) [| Replacement.Trigger |] in
      let sa = mk a and sb = mk b in
      let merged = Compose.merge_sequences sa sb in
      Array.length merged = Array.length sa + Array.length sb - 1)

let prop_safety_accepts_literal_sequences =
  QCheck.Test.make ~name:"safety accepts literal store expansions" ~count:60
    Gens.arbitrary_alu_program (fun prog ->
      let seq =
        Array.append (Replacement.of_insns prog) [| Replacement.Trigger |]
      in
      let set =
        Prodset.add Prodset.empty
          (Production.make ~name:"p" Pattern.stores (Production.Direct 1))
          seq
      in
      Safety.errors (Safety.check set) = [])

let suite =
  [
    t prop_of_opcode_matches;
    t prop_class_pattern_matches;
    t prop_constraint_narrows;
    t prop_dispatch_keys_sound;
    t prop_literal_sequences_trigger_independent;
    t prop_field5_roundtrip;
    t prop_field10_roundtrip;
    t prop_union_lookup_agrees;
    t prop_engine_agrees_with_prodset;
    t prop_rt_bounded_and_rehit;
    t prop_cache_rehit;
    t prop_cache_matches_lru_model;
    t prop_find_index_exact;
    t prop_use_def_indices;
    t prop_desc_fields;
    t prop_descs_match_insns;
    t prop_machine_matches_reference;
    t prop_machine_deterministic;
    t prop_pipeline_stats_jit_invariant;
    t prop_compression_lossless_random_seeds;
    t prop_merge_length;
    t prop_safety_accepts_literal_sequences;
  ]
