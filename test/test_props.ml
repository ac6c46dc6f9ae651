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

(* --- machine vs. reference ALU semantics ----------------------------------- *)

(* A direct evaluator over an int array, the specification the machine
   must agree with on straight-line ALU code. *)
let eval_reference prog =
  let regs = Array.make 32 0 in
  let get r = match r with Reg.R 0 -> 0 | Reg.R n -> regs.(n) | _ -> 0 in
  let set r v =
    match r with Reg.R 0 -> () | Reg.R n -> regs.(n) <- Opcode.signed32 v | _ -> ()
  in
  List.iter
    (fun i ->
      match i with
      | Insn.Rop (op, a, b, c) -> set c (Opcode.eval_rop op (get a) (get b))
      | Insn.Ropi (op, a, v, c) -> set c (Opcode.eval_rop op (get a) v)
      | Insn.Lui (v, c) -> set c (v lsl 16)
      | _ -> assert false)
    prog;
  regs

let prop_machine_matches_reference =
  QCheck.Test.make ~name:"machine agrees with reference ALU evaluator"
    ~count:200 Gens.arbitrary_alu_program (fun prog ->
      let items =
        (Dise_isa.Program.Label "main"
         :: List.map (fun i -> Dise_isa.Program.Ins i) prog)
        @ [ Dise_isa.Program.Ins Insn.Halt ]
      in
      let img = Dise_isa.Program.layout items in
      let m = Machine.create img in
      ignore (Machine.run_raw m ignore);
      let expected = eval_reference prog in
      let ok = ref true in
      for n = 1 to 7 do
        if Regfile.get (Machine.regs m) (Reg.r n) <> expected.(n) then
          ok := false
      done;
      !ok)

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
    t prop_machine_matches_reference;
    t prop_machine_deterministic;
    t prop_pipeline_stats_jit_invariant;
    t prop_compression_lossless_random_seeds;
    t prop_merge_length;
    t prop_safety_accepts_literal_sequences;
  ]
