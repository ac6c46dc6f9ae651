(* Tests for the DISE core: pattern matching and specificity, the
   production DSL, instantiation, the engine on the paper's Figure 1
   example, PT/RT models, the controller, and composition (Figure 5). *)

open Dise_isa
open Dise_core
module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module Memory = Dise_machine.Memory

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let r1 = Reg.r 1
let r2 = Reg.r 2
let r3 = Reg.r 3

(* --- patterns ------------------------------------------------------- *)

let test_pattern_class_match () =
  let p = Pattern.loads in
  check bool_ "matches ldq" true
    (Pattern.matches p (Insn.Mem (Opcode.Ldq, r1, 0, r2)));
  check bool_ "matches ldbu" true
    (Pattern.matches p (Insn.Mem (Opcode.Ldbu, r1, 0, r2)));
  check bool_ "rejects store" false
    (Pattern.matches p (Insn.Mem (Opcode.Stq, r1, 0, r2)));
  check bool_ "rejects alu" false
    (Pattern.matches p (Insn.Rop (Opcode.Add, r1, r2, r3)))

let test_pattern_field_match () =
  (* "loads that use the stack pointer as their address register" *)
  let p = Pattern.with_rs Reg.sp Pattern.loads in
  check bool_ "sp load matches" true
    (Pattern.matches p (Insn.Mem (Opcode.Ldq, Reg.sp, 8, r2)));
  check bool_ "other load rejected" false
    (Pattern.matches p (Insn.Mem (Opcode.Ldq, r1, 8, r2)))

let test_pattern_imm_match () =
  (* "conditional branches with negative offsets" — on immediate-bearing
     forms; here an ALU immediate. *)
  let p = Pattern.with_imm Pattern.Imm_neg (Pattern.of_class Opcode.C_alu) in
  check bool_ "negative imm matches" true
    (Pattern.matches p (Insn.Ropi (Opcode.Add, r1, -4, r2)));
  check bool_ "nonnegative rejected" false
    (Pattern.matches p (Insn.Ropi (Opcode.Add, r1, 4, r2)));
  check bool_ "no-imm form rejected" false
    (Pattern.matches p (Insn.Rop (Opcode.Add, r1, r2, r3)))

let test_pattern_specificity () =
  let general = Pattern.loads in
  let specific = Pattern.with_rs Reg.sp Pattern.loads in
  check bool_ "field constraint is more specific" true
    (Pattern.specificity specific > Pattern.specificity general);
  let opc = Pattern.of_opcode (Insn.Mem (Opcode.Ldq, r1, 0, r2)) in
  check bool_ "opcode more specific than class" true
    (Pattern.specificity opc > Pattern.specificity general)

let test_pattern_codeword () =
  let p = Pattern.codewords 0 in
  check bool_ "matches own reserved opcode" true
    (Pattern.matches p (Insn.codeword ~op:0 ~p1:1 ~p2:2 ~p3:3 ~tag:44));
  check bool_ "other reserved opcode rejected" false
    (Pattern.matches p (Insn.codeword ~op:1 ~p1:1 ~p2:2 ~p3:3 ~tag:44))

let test_dispatch_keys () =
  let p = Pattern.loads in
  check int_ "loads cover 2 keys" 2 (List.length (Pattern.dispatch_keys p));
  let q = Pattern.any in
  check int_ "any covers all keys" Insn.num_keys
    (List.length (Pattern.dispatch_keys q))

(* --- instantiation -------------------------------------------------- *)

let test_instantiate_mfi_sequence () =
  (* Figure 1's R1 over a store trigger. *)
  let seq =
    [|
      Replacement.Insn
        (Insn.Ropi (Opcode.Srl, Replacement.Rrs, Replacement.Ilit 26,
                    Replacement.Rlit (Reg.d 1)));
      Replacement.Insn
        (Insn.Rop (Opcode.Xor, Replacement.Rlit (Reg.d 1),
                   Replacement.Rlit (Reg.d 2), Replacement.Rlit (Reg.d 1)));
      Replacement.Insn
        (Insn.Br (Opcode.Bne, Replacement.Rlit (Reg.d 1),
                  Replacement.Tabs 0x9000));
      Replacement.Trigger;
    |]
  in
  let trigger = Insn.Mem (Opcode.Stq, r3, 16, r2) in
  let out = Replacement.instantiate seq ~trigger ~pc:0x100 in
  check int_ "length" 4 (Array.length out);
  (match out.(0) with
  | Insn.Ropi (Opcode.Srl, rs, 26, Reg.D 1) ->
    check bool_ "T.RS instantiated to store base" true (Reg.equal rs r3)
  | i -> Alcotest.failf "bad instantiation: %s" (Insn.to_string i));
  check bool_ "T.INSN is the trigger" true (Insn.equal out.(3) trigger)

let test_instantiate_params () =
  let seq =
    [|
      Replacement.Insn
        (Insn.Lda (Replacement.Rparam 1, Replacement.Iparam 2,
                   Replacement.Rparam 1));
    |]
  in
  let trigger = Insn.codeword ~op:0 ~p1:9 ~p2:24 ~p3:0 ~tag:7 in
  let out = Replacement.instantiate seq ~trigger ~pc:0 in
  (match out.(0) with
  | Insn.Lda (base, imm, dst) ->
    check bool_ "param reg" true (Reg.equal base (Reg.r 9));
    check bool_ "same reg dest" true (Reg.equal dst (Reg.r 9));
    check int_ "param imm sign-extended (24 -> -8)" (-8) imm
  | i -> Alcotest.failf "bad instantiation: %s" (Insn.to_string i));
  (* Parameters on a non-codeword trigger must fail. *)
  match
    Replacement.instantiate seq ~trigger:(Insn.Mem (Opcode.Ldq, r1, 0, r2))
      ~pc:0
  with
  | exception Replacement.Instantiation_error _ -> ()
  | _ -> Alcotest.fail "expected instantiation error"

let test_instantiate_branch_param_offset () =
  let seq =
    [|
      Replacement.Insn
        (Insn.Br (Opcode.Bne, Replacement.Rparam 1, Replacement.Trel_param2 2));
    |]
  in
  let hi, lo = Replacement.to_fields10 (-25) in
  let trigger = Insn.codeword ~op:0 ~p1:5 ~p2:hi ~p3:lo ~tag:0 in
  let out = Replacement.instantiate seq ~trigger ~pc:0x1000 in
  match out.(0) with
  | Insn.Br (Opcode.Bne, r, Insn.Abs target) ->
    check bool_ "reg param" true (Reg.equal r (Reg.r 5));
    check int_ "pc-relative scaled target" (0x1000 - 100) target
  | i -> Alcotest.failf "bad instantiation: %s" (Insn.to_string i)

let test_field_codecs () =
  for v = -16 to 15 do
    check int_ "signed5 round-trip" v
      (Replacement.signed5 (Replacement.to_field5 v))
  done;
  for v = -512 to 511 do
    let hi, lo = Replacement.to_fields10 v in
    check int_ "signed10 round-trip" v (Replacement.signed10 hi lo)
  done;
  (match Replacement.to_field5 16 with
  | exception Replacement.Instantiation_error _ -> ()
  | _ -> Alcotest.fail "5-bit overflow not caught");
  match Replacement.to_fields10 600 with
  | exception Replacement.Instantiation_error _ -> ()
  | _ -> Alcotest.fail "10-bit overflow not caught"

(* --- the DSL and Figure 1 end to end -------------------------------- *)

let mfi_source =
  {|
  ; memory fault isolation, Figure 1 (DISE3 formulation)
  P1: T.OPCLASS == store -> R1
  P2: T.OPCLASS == load -> R1
  R1: srl T.RS, #26, $dr1
      xor $dr1, $dr2, $dr1
      bne $dr1, error
      T.INSN
  |}

let test_lang_parse_mfi () =
  let set = Lang.parse mfi_source in
  check int_ "two productions" 2 (Prodset.num_productions set);
  check int_ "one sequence" 1 (Prodset.num_sequences set);
  let st = Insn.Mem (Opcode.Stq, r1, 0, r2) in
  (match Prodset.lookup set st with
  | Some (_, 1) -> ()
  | Some (_, id) -> Alcotest.failf "wrong rsid %d" id
  | None -> Alcotest.fail "store should match");
  check bool_ "alu does not match" true
    (Prodset.lookup set (Insn.Rop (Opcode.Add, r1, r2, r3)) = None)

let test_lang_parse_aware () =
  let set =
    Lang.parse
      {|
      P1: T.OP == cw0 -> TAG
      R5: lda T.P1, #T.P2(T.P1)
          ldq r4, 0(T.P1)
      |}
  in
  let cw = Insn.codeword ~op:0 ~p1:9 ~p2:8 ~p3:0 ~tag:5 in
  (match Prodset.lookup set cw with
  | Some (_, 5) -> ()
  | Some (_, id) -> Alcotest.failf "tag should give rsid 5, got %d" id
  | None -> Alcotest.fail "codeword should match");
  match Prodset.sequence set 5 with
  | Some seq -> check int_ "sequence parsed" 2 (Replacement.length seq)
  | None -> Alcotest.fail "sequence missing"

let test_remove_production () =
  let set = Lang.parse mfi_source in
  let st = Insn.Mem (Opcode.Stq, r1, 0, r2) in
  let ld = Insn.Mem (Opcode.Ldq, r1, 0, r2) in
  check bool_ "store matched before" true (Prodset.lookup set st <> None);
  let set' = Prodset.remove_production set "P1" in
  check bool_ "store unmatched after removal" true
    (Prodset.lookup set' st = None);
  check bool_ "load production untouched" true (Prodset.lookup set' ld <> None);
  check bool_ "sequence stays bound for reactivation" true
    (Prodset.sequence set' 1 <> None);
  (* Reactivate. *)
  let set'' =
    Prodset.add_production set'
      (Production.make ~name:"P1" Pattern.stores (Production.Direct 1))
  in
  check bool_ "reactivated" true (Prodset.lookup set'' st <> None)

let test_lang_field_conditions () =
  (* The full condition menu: opcode, register fields, immediate
     equality and sign. *)
  let set =
    Lang.parse
      {|
      P1: T.OP == ldq && T.RS == sp -> R1
      P2: T.OPCLASS == alu && T.IMM < 0 -> R2
      P3: T.OPCLASS == alu && T.IMM >= 0 && T.RD == r7 -> R3
      P4: T.IMM == 42 -> R4
      R1: T.INSN
      R2: T.INSN
      R3: T.INSN
      R4: T.INSN
      |}
  in
  let rsid i =
    match Prodset.lookup set i with Some (_, id) -> id | None -> -1
  in
  check int_ "sp load" 1 (rsid (Insn.Mem (Opcode.Ldq, Reg.sp, 0, r2)));
  check int_ "other load unmatched" (-1) (rsid (Insn.Mem (Opcode.Ldq, r1, 0, r2)));
  check int_ "negative-imm alu" 2 (rsid (Insn.Ropi (Opcode.Add, r1, -5, r2)));
  check int_ "nonneg imm to r7" 3 (rsid (Insn.Ropi (Opcode.Add, r1, 5, Reg.r 7)));
  check int_ "imm equality wins by specificity" 4
    (rsid (Insn.Ropi (Opcode.Add, r1, 42, Reg.r 7)))

let test_lang_errors () =
  let bad s =
    match Lang.parse s with
    | exception Lang.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "P1: T.FROB == 3 -> R1";
  bad "P1: T.OPCLASS == store -> X1";
  bad "R1: frobnicate r1";
  bad "srl r1, #2, r2"  (* instruction outside a block *)

let resolve_error_at addr set =
  Prodset.resolve_labels (fun _ -> Some addr) set

let test_lang_roundtrip () =
  let set = resolve_error_at 0x9000 (Lang.parse mfi_source) in
  let printed = Lang.to_string set in
  let set2 = Lang.parse printed in
  check int_ "productions preserved" (Prodset.num_productions set)
    (Prodset.num_productions set2);
  let st = Insn.Mem (Opcode.Stq, r1, 4, r2) in
  let e1 = Engine.create set and e2 = Engine.create set2 in
  let x1 = Engine.expand e1 ~pc:0x100 st and x2 = Engine.expand e2 ~pc:0x100 st in
  match x1, x2 with
  | Some a, Some b ->
    check bool_ "same expansion" true (a.Machine.seq = b.Machine.seq)
  | _ -> Alcotest.fail "both should expand"

(* Build the Figure 1 machine: a program with a legal and an illegal
   store, MFI productions active. *)
let mfi_machine ~legal =
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1      ; data segment (segment 1)
           lui #3072, r9      ; segment 3: illegal
           add zero, #7, r2
           stq r2, 0(r1)
           stq r2, 0(r9)      ; out-of-segment store
           add zero, #1, r8
           halt
         error:
           add zero, #77, r2
           halt
         |})
  in
  let set =
    Prodset.resolve_labels (Program.Image.symbol img) (Lang.parse mfi_source)
  in
  let engine = Engine.create set in
  let m = Machine.create ~expander:(Engine.expander engine) img in
  Machine.set_dise_reg m 2 (if legal then 3 else 1);
  (m, engine)

let test_lang_opcode_pattern_roundtrip () =
  (* Every opcode mnemonic printed by Pattern.pp must re-parse to the
     same dispatch key. *)
  for k = 0 to Insn.num_keys - 1 do
    let set =
      Prodset.add Prodset.empty
        (Production.make ~name:"P1"
           (Pattern.of_opcode (Desc.example_of_key k))
           (Production.Direct 1))
        Replacement.identity
    in
    let printed = Lang.to_string set in
    match Lang.parse printed with
    | set2 -> (
      match (Prodset.productions set2 : Production.t list) with
      | [ p ] ->
        if p.Production.pattern.Pattern.opcode_key <> Some k then
          Alcotest.failf "key %d (%s) did not round-trip" k
            (Desc.mnemonic_of_key k)
      | _ -> Alcotest.failf "key %d: wrong production count" k)
    | exception Lang.Parse_error (_, msg) ->
      Alcotest.failf "key %d (%s) failed to re-parse: %s" k
        (Desc.mnemonic_of_key k) msg
  done;
  (* Mnemonics are case-insensitive, in conditions too. *)
  for k = 0 to Insn.num_keys - 1 do
    let m = String.uppercase_ascii (Desc.mnemonic_of_key k) in
    match Lang.parse (Printf.sprintf "P1: T.OP == %s -> R1\nR1: T.INSN" m) with
    | set -> (
      match (Prodset.productions set : Production.t list) with
      | [ p ] when p.Production.pattern.Pattern.opcode_key = Some k -> ()
      | _ -> Alcotest.failf "T.OP == %s did not name key %d" m k)
    | exception Lang.Parse_error (_, msg) ->
      Alcotest.failf "T.OP == %s rejected: %s" m msg
  done

(* The assembler and the production language read one instruction
   grammar. Each case below is one where the two front ends used to
   disagree, or where a malformed instruction escaped as something
   other than a parse error. *)
let test_one_grammar () =
  let asm_error s =
    match Asm.parse_insn s with
    | exception Asm.Parse_error (_, msg) -> msg
    | _ -> Alcotest.failf "assembler accepted %S" s
  in
  let lang_error s =
    match Lang.parse_rinsn s with
    | exception Lang.Parse_error (_, msg) -> msg
    | _ -> Alcotest.failf "production language accepted %S" s
  in
  let same_error s expected =
    check Alcotest.string ("asm: " ^ s) expected (asm_error s);
    check Alcotest.string ("lang: " ^ s) expected (lang_error s)
  in
  (* Bad codeword fields are parse errors, not Invalid_argument. *)
  List.iter
    (fun (src, line) ->
      match Asm.parse_result src with
      | Error (Diag.Parse { line = l; _ }) -> check int_ src line l
      | Error _ | Ok _ -> Alcotest.failf "%S: expected a parse error" src)
    [ ("nop\ncw9 1, 2, 3, tag=4", 2); ("cw0 99, 2, 3, tag=4", 1) ];
  (* Comments run from the first ';' or '//', in a .dise as in a .s. *)
  let set =
    Lang.parse
      "P1: T.OPCLASS == store -> R1\n\
       R1: lda $dr0, T.IMM(T.RS) // note ; more\n\
      \    T.INSN ; done // really"
  in
  check int_ "commented sequence parsed" 2
    (match Prodset.sequences set with [ (_, seq) ] -> Array.length seq | _ -> 0);
  check bool_ "same comment in a .s" true
    (Asm.parse "lda r1, 8(r2) // note ; more" <> []);
  (* Mnemonics are case-insensitive everywhere. *)
  check bool_ "T.OP == ADD" true
    ((List.hd (Prodset.productions (Lang.parse "P1: T.OP == ADD -> R1\nR1: T.INSN")))
       .Production.pattern.Pattern.opcode_key
    = Some (Insn.key (Insn.Rop (Opcode.Add, r1, r1, r1))));
  check bool_ "ADD in a .s" true
    (Asm.parse_insn "ADD r1, r2, r3" = Insn.Rop (Opcode.Add, r1, r2, r3));
  check bool_ "ADD in a sequence" true
    (Lang.parse_rinsn "ADD $dr0, #T.IMM, $dr1"
    = Replacement.Insn
        (Insn.Ropi
           (Opcode.Add, Replacement.Rlit (Reg.d 0), Replacement.Iimm,
            Replacement.Rlit (Reg.d 1))));
  (* Every form checks its operand count, with one message. *)
  same_error "lda r1" "lda expects 2 operands, got 1";
  same_error "jmp a, b" "jmp expects 1 operands, got 2";
  check Alcotest.string "dbeq" "dbeq expects 2 operands, got 3"
    (lang_error "dbeq $dr0, @3, x");
  (* Labels are identifiers in both front ends. *)
  same_error "jmp foo-bar" "bad target \"foo-bar\"";
  check bool_ "label target" true
    (Asm.parse_insn "jmp .L_1$" = Insn.Jmp (Insn.Lab ".L_1$"))

let test_mfi_catches_bad_store () =
  let m, engine = mfi_machine ~legal:false in
  (* $dr2 = 1: the r1 store is legal, the r9 store is not. *)
  ignore (Machine.run_raw m ignore);
  check int_ "error handler exit code" 77 (Machine.exit_code m);
  check int_ "legal store went through" 7
    (Memory.read_u32 (Machine.memory m) 0x04000000);
  check int_ "illegal store suppressed" 0
    (Memory.read_u32 (Machine.memory m) 0x0C000000);
  check int_ "r8 never set (we trapped first)" 0
    (Regfile.get (Machine.regs m) (Reg.r 8));
  check bool_ "expansions happened" true (Engine.expansions_performed engine >= 2)

let test_mfi_passes_when_legal () =
  (* With $dr2 = 3 the *first* store traps instead. *)
  let m, _ = mfi_machine ~legal:true in
  ignore (Machine.run_raw m ignore);
  check int_ "trapped on first store" 77 (Machine.exit_code m);
  check int_ "first store suppressed" 0
    (Memory.read_u32 (Machine.memory m) 0x04000000)

let test_engine_most_specific_wins () =
  (* "all loads that don't use the stack pointer": identity for sp
     loads, counting expansion for others. *)
  let sp_loads = Pattern.with_rs Reg.sp Pattern.loads in
  let set =
    Prodset.empty
    |> (fun s ->
         Prodset.add s (Production.make ~name:"ident" sp_loads (Production.Direct 1))
           Replacement.identity)
    |> fun s ->
    Prodset.add s (Production.make ~name:"count" Pattern.loads (Production.Direct 2))
      [| Replacement.Insn
           (Insn.Ropi (Opcode.Add, Replacement.Rlit (Reg.d 0),
                       Replacement.Ilit 1, Replacement.Rlit (Reg.d 0)));
         Replacement.Trigger |]
  in
  let engine = Engine.create set in
  let sp_load = Insn.Mem (Opcode.Ldq, Reg.sp, 0, r2) in
  let other_load = Insn.Mem (Opcode.Ldq, r1, 0, r2) in
  (match Engine.expand engine ~pc:0x100 sp_load with
  | Some { Machine.rsid = 1; seq; _ } ->
    check int_ "identity expansion" 1 (Array.length seq);
    check bool_ "identity is the trigger" true (Insn.equal seq.(0) sp_load)
  | Some { Machine.rsid; _ } -> Alcotest.failf "wrong production %d" rsid
  | None -> Alcotest.fail "sp load should match identity");
  match Engine.expand engine ~pc:0x104 other_load with
  | Some { Machine.rsid = 2; seq; _ } -> check int_ "counting expansion" 2 (Array.length seq)
  | _ -> Alcotest.fail "other load should match counting production"

let test_engine_memoizes_by_pc () =
  let set = resolve_error_at 0x9000 (Lang.parse mfi_source) in
  let st = Insn.Mem (Opcode.Stq, r1, 0, r2) in
  let image = Program.layout ~base:0x100 [ Program.Ins st ] in
  let engine = Engine.create ~image set in
  let a = Engine.expand engine ~pc:0x100 st in
  let b = Engine.expand engine ~pc:0x100 st in
  check bool_ "same expansion object" true (a == b);
  check int_ "distinct triggers counted once" 1 (Engine.distinct_triggers engine)

let test_engine_cache_keyed_by_insn () =
  (* Regression: the memo once keyed by PC alone, so a second
     instruction at the same PC (re-laid-out codeword image, or a
     hand-driven probe) got the first instruction's expansion. *)
  let sp_loads = Pattern.with_rs Reg.sp Pattern.loads in
  let set =
    Prodset.empty
    |> (fun s ->
         Prodset.add s
           (Production.make ~name:"ident" sp_loads (Production.Direct 1))
           Replacement.identity)
    |> fun s ->
    Prodset.add s
      (Production.make ~name:"count" Pattern.loads (Production.Direct 2))
      [| Replacement.Insn
           (Insn.Ropi (Opcode.Add, Replacement.Rlit (Reg.d 0),
                       Replacement.Ilit 1, Replacement.Rlit (Reg.d 0)));
         Replacement.Trigger |]
  in
  let sp_load = Insn.Mem (Opcode.Ldq, Reg.sp, 0, r2) in
  let other_load = Insn.Mem (Opcode.Ldq, r1, 0, r2) in
  let pc = 0x100 in
  let image = Program.layout ~base:pc [ Program.Ins sp_load ] in
  let engine = Engine.create ~image set in
  (match Engine.expand engine ~pc sp_load with
  | Some { Machine.rsid = 1; _ } -> ()
  | _ -> Alcotest.fail "sp load should hit the identity production");
  (* Same PC, different instruction: must not reuse the memo entry. *)
  (match Engine.expand engine ~pc other_load with
  | Some { Machine.rsid = 2; seq; _ } ->
    check int_ "counting expansion, not stale identity" 2 (Array.length seq)
  | Some { Machine.rsid; _ } ->
    Alcotest.failf "stale expansion (rsid %d) returned for new insn" rsid
  | None -> Alcotest.fail "other load should match counting production");
  (* And the original pairing still hits its own entry. *)
  match Engine.expand engine ~pc sp_load with
  | Some { Machine.rsid = 1; seq; _ } -> check int_ "identity intact" 1 (Array.length seq)
  | _ -> Alcotest.fail "identity expansion lost"

let test_engine_unbound_sequence () =
  let set =
    Prodset.add_production Prodset.empty
      (Production.make Pattern.loads (Production.Direct 9))
  in
  let engine = Engine.create set in
  match Engine.expand engine ~pc:0 (Insn.Mem (Opcode.Ldq, r1, 0, r2)) with
  | exception Engine.Expansion_error _ -> ()
  | _ -> Alcotest.fail "unbound sequence should error"

(* --- PT / RT / controller ------------------------------------------- *)

let test_pt_hits_and_misses () =
  let set = Lang.parse mfi_source in
  let pt = Pt.create ~capacity:32 set in
  let load_key = Insn.key (Insn.Mem (Opcode.Ldq, r1, 0, r2)) in
  let alu_key = Insn.key (Insn.Rop (Opcode.Add, r1, r2, r3)) in
  (* First touch of an opcode with active patterns misses... *)
  (match Pt.access pt ~key:load_key with
  | `Miss n -> check int_ "one pattern filled" 1 n
  | `Hit -> Alcotest.fail "first access should miss");
  (* ...then hits. *)
  check bool_ "second access hits" true (Pt.access pt ~key:load_key = `Hit);
  (* Opcodes with no active patterns never miss. *)
  check bool_ "patternless opcode hits" true (Pt.access pt ~key:alu_key = `Hit);
  check int_ "misses counted" 1 (Pt.misses pt)

let test_pt_capacity_eviction () =
  (* A 1-entry PT with patterns on two opcodes must thrash. *)
  let set =
    Prodset.empty
    |> (fun s ->
         Prodset.add s
           (Production.make (Pattern.of_opcode (Insn.Mem (Opcode.Ldq, r1, 0, r2)))
              (Production.Direct 1))
           Replacement.identity)
    |> fun s ->
    Prodset.add s
      (Production.make (Pattern.of_opcode (Insn.Mem (Opcode.Stq, r1, 0, r2)))
         (Production.Direct 1))
      Replacement.identity
  in
  let pt = Pt.create ~capacity:1 set in
  let ld = Insn.key (Insn.Mem (Opcode.Ldq, r1, 0, r2)) in
  let st = Insn.key (Insn.Mem (Opcode.Stq, r1, 0, r2)) in
  ignore (Pt.access pt ~key:ld);
  ignore (Pt.access pt ~key:st);
  (match Pt.access pt ~key:ld with
  | `Miss _ -> ()
  | `Hit -> Alcotest.fail "1-entry PT should thrash between two opcodes");
  check bool_ "occupancy bounded" true (Pt.resident_patterns pt <= 1)

let test_rt_basic () =
  let rt = Rt.create ~entries:8 ~assoc:2 () in
  check bool_ "cold miss" true (Rt.access rt ~rsid:1 ~len:3 = `Miss);
  check bool_ "warm hit" true (Rt.access rt ~rsid:1 ~len:3 = `Hit);
  check bool_ "different sequence misses" true (Rt.access rt ~rsid:2 ~len:3 = `Miss);
  check int_ "two misses" 2 (Rt.misses rt);
  check int_ "three accesses" 3 (Rt.accesses rt)

let test_rt_capacity () =
  let rt = Rt.create ~entries:4 ~assoc:1 () in
  (* Fill with more distinct sequences than capacity, then re-touch the
     first: it should have been evicted. *)
  for rsid = 1 to 8 do
    ignore (Rt.access rt ~rsid ~len:1)
  done;
  let misses_before = Rt.misses rt in
  (match Rt.access rt ~rsid:1 ~len:1 with
  | `Miss -> ()
  | `Hit ->
    (* With hashing, rsid 1 may have survived; at least occupancy must
       be bounded by capacity. *)
    ());
  ignore misses_before;
  check bool_ "occupancy bounded by capacity" true (Rt.occupancy rt <= 4)

let test_rt_perfect () =
  let rt = Rt.perfect () in
  for rsid = 0 to 10_000 do
    if Rt.access rt ~rsid ~len:5 <> `Hit then
      Alcotest.fail "perfect RT must always hit"
  done;
  check int_ "no misses" 0 (Rt.misses rt)

let test_rt_long_sequence_blocks () =
  (* One long sequence occupying more than one block still hits after
     a single fill. *)
  let rt = Rt.create ~entries:64 ~assoc:2 ~entries_per_block:4 () in
  check bool_ "miss fills all blocks" true (Rt.access rt ~rsid:3 ~len:10 = `Miss);
  check bool_ "whole sequence hits" true (Rt.access rt ~rsid:3 ~len:10 = `Hit)

let test_controller_costs () =
  let set = Lang.parse mfi_source in
  let cfg =
    { Controller.default_config with rt_entries = 16; rt_assoc = 1 }
  in
  let c = Controller.create cfg set in
  let stall1 = Controller.on_expansion c ~rsid:1 ~len:4 in
  check int_ "cold RT miss costs 30" 30 stall1;
  let stall2 = Controller.on_expansion c ~rsid:1 ~len:4 in
  check int_ "warm expansion is free" 0 stall2;
  let c2 = Controller.create { cfg with composing = true } set in
  check int_ "composing miss costs 150" 150
    (Controller.on_expansion c2 ~rsid:1 ~len:4);
  let stats = Controller.stats c in
  check int_ "stall cycles accumulated" 30 stats.Controller.stall_cycles

let test_controller_context_switch () =
  let set = Lang.parse mfi_source in
  let c = Controller.create Controller.default_config set in
  ignore (Controller.on_expansion c ~rsid:1 ~len:4);
  check int_ "warm" 0 (Controller.on_expansion c ~rsid:1 ~len:4);
  Controller.context_switch c;
  check int_ "cold again after context switch" 30
    (Controller.on_expansion c ~rsid:1 ~len:4)

(* --- composition (Figure 5) ----------------------------------------- *)

let tracing_source =
  {|
  ; store address tracing: write the store's effective address into a
  ; buffer pointed to by $dr5
  P3: T.OPCLASS == store -> R3
  R3: lda $dr4, #T.IMM(T.RS)
      stq $dr4, 0($dr5)
      lda $dr5, 4($dr5)
      T.INSN
  |}

let test_nested_composition_structure () =
  (* Nest tracing (inner, applied first) within MFI (outer):
     MFI(tracing(app)). The tracing sequence contains two stores (the
     literal trace store and the trigger); both must get MFI checks. *)
  let mfi = Lang.parse mfi_source in
  let tracing = Compose.shift_direct_rsids 10 (Lang.parse tracing_source) in
  let composed = Compose.nest ~outer:mfi ~inner:tracing in
  let st = Insn.Mem (Opcode.Stq, r1, 8, r2) in
  match Prodset.lookup composed st with
  | None -> Alcotest.fail "composed set should match stores"
  | Some (p, rsid) ->
    check bool_ "tracing production wins (higher priority)" true
      (p.Production.priority > 0);
    let seq =
      match Prodset.sequence composed rsid with
      | Some s -> s
      | None -> Alcotest.fail "sequence missing"
    in
    (* R3 is 4 instructions; MFI expands its two stores (+3 each). *)
    check int_ "inlined length" 10 (Replacement.length seq);
    (* The composite still ends with the trigger. *)
    check bool_ "ends with trigger" true
      (seq.(Replacement.length seq - 1) = Replacement.Trigger)

let test_nested_composition_runs () =
  (* Execute the composed ACF: trace buffer filled AND illegal stores
     caught. *)
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1
           add zero, #7, r2
           stq r2, 16(r1)
           stq r2, 32(r1)
           add zero, #1, r8
           halt
         error:
           add zero, #77, r2
           halt
         |})
  in
  let mfi =
    Prodset.resolve_labels (Program.Image.symbol img) (Lang.parse mfi_source)
  in
  let tracing = Compose.shift_direct_rsids 10 (Lang.parse tracing_source) in
  let composed = Compose.nest ~outer:mfi ~inner:tracing in
  let engine = Engine.create composed in
  let m = Machine.create ~expander:(Engine.expander engine) img in
  Machine.set_dise_reg m 2 1;            (* legal data segment *)
  Machine.set_dise_reg m 5 0x04100000;   (* trace buffer, in-segment *)
  ignore (Machine.run_raw m ignore);
  check int_ "program completed" 1 (Regfile.get (Machine.regs m) (Reg.r 8));
  let mem = Machine.memory m in
  check int_ "stores performed" 7 (Memory.read_u32 mem 0x04000010);
  check int_ "trace entry 0 is first store address" 0x04000010
    (Memory.read_u32 mem 0x04100000);
  check int_ "trace entry 1 is second store address" 0x04000020
    (Memory.read_u32 mem 0x04100004);
  check int_ "trace pointer advanced" (0x04100000 + 8)
    (Regfile.get (Machine.regs m) (Reg.d 5))

let test_nested_composition_traps_tracing_store () =
  (* Nested means the tracing stores are themselves fault-isolated: a
     trace buffer outside the legal segment must trap. *)
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1
           add zero, #7, r2
           stq r2, 16(r1)
           halt
         error:
           add zero, #77, r2
           halt
         |})
  in
  let mfi =
    Prodset.resolve_labels (Program.Image.symbol img) (Lang.parse mfi_source)
  in
  let tracing = Compose.shift_direct_rsids 10 (Lang.parse tracing_source) in
  let composed = Compose.nest ~outer:mfi ~inner:tracing in
  let engine = Engine.create composed in
  let m = Machine.create ~expander:(Engine.expander engine) img in
  Machine.set_dise_reg m 2 1;
  Machine.set_dise_reg m 5 0x0C100000;  (* trace buffer in segment 3! *)
  ignore (Machine.run_raw m ignore);
  check int_ "tracing store trapped" 77 (Machine.exit_code m);
  check int_ "application store suppressed too" 0
    (Memory.read_u32 (Machine.memory m) 0x04000010)

let test_merge_sequences () =
  (* Figure 5's non-nested composition: trace and fault-isolate
     application stores without fault-isolating the tracing stores. *)
  let mfi = Lang.parse mfi_source in
  let tracing = Lang.parse tracing_source in
  let r3 = match Prodset.sequence tracing 3 with Some s -> s | None -> [||] in
  let r1_ = match Prodset.sequence mfi 1 with Some s -> s | None -> [||] in
  let merged = Compose.merge_sequences r3 r1_ in
  check int_ "R4 length (3 + 4)" 7 (Replacement.length merged);
  check bool_ "single trigger" true
    (Array.to_list merged
     |> List.filter (fun x -> x = Replacement.Trigger)
     |> List.length = 1);
  (* The merged sequence must end with: srl/xor/bne/T.INSN. *)
  check bool_ "MFI check precedes trigger" true
    (match merged.(Replacement.length merged - 2) with
    | Replacement.Insn (Insn.Br (Opcode.Bne, _, _)) -> true
    | _ -> false)

let test_merge_errors () =
  let no_trigger = [| Replacement.Insn Insn.Nop |] in
  let with_trigger = [| Replacement.Insn Insn.Nop; Replacement.Trigger |] in
  (match Compose.merge_sequences no_trigger with_trigger with
  | exception Compose.Composition_error _ -> ()
  | _ -> Alcotest.fail "first sequence must end with trigger");
  match Compose.merge_sequences with_trigger no_trigger with
  | exception Compose.Composition_error _ -> ()
  | _ -> Alcotest.fail "second sequence must contain a trigger"

let test_compose_rsid_collision () =
  let mfi = Lang.parse mfi_source in
  let tracing = Lang.parse tracing_source in
  (* Both bind low sequence ids (1 vs 3) — fine. Force a collision: *)
  let clash = Compose.shift_direct_rsids (-2) tracing in
  match Compose.nest ~outer:mfi ~inner:clash with
  | exception Compose.Composition_error _ -> ()
  | _ -> Alcotest.fail "rsid collision should be rejected"

let test_compose_dedicated_renaming () =
  (* Inner uses $dr1 (conflicting with MFI's scratch); nest must rename
     the inner register so both ACFs keep working. *)
  let inner =
    Lang.parse
      {|
      P9: T.OPCLASS == load -> R20
      R20: lda $dr1, 1($dr1)
           T.INSN
      |}
  in
  let mfi = Lang.parse mfi_source in
  let composed = Compose.nest ~outer:mfi ~inner in
  let seq =
    match Prodset.sequence composed 20 with Some s -> s | None -> [||]
  in
  (* The inner lda must now use a register other than $dr1 (which the
     inlined MFI check still legitimately uses further down). *)
  match seq.(0) with
  | Replacement.Insn
      (Insn.Lda (Replacement.Rlit (Reg.D n), _, Replacement.Rlit (Reg.D n'))) ->
    check int_ "same register on both sides" n n';
    check bool_ "renamed away from $dr1" true (n <> 1)
  | _ -> Alcotest.fail "expected the renamed inner lda first"

let test_inline_ambiguity_detected () =
  (* An outer pattern constraining a register field cannot be decided
     against a parameterized template. *)
  let outer =
    Prodset.add Prodset.empty
      (Production.make (Pattern.with_rs Reg.sp Pattern.stores) (Production.Direct 1))
      [| Replacement.Insn Insn.Nop; Replacement.Trigger |]
  in
  let template =
    [|
      Replacement.Insn
        (Insn.Mem (Opcode.Stq, Replacement.Rparam 1, Replacement.Ilit 0,
                   Replacement.Rparam 2));
    |]
  in
  match Compose.inline_seq ~outer template with
  | exception Compose.Composition_error _ -> ()
  | _ -> Alcotest.fail "ambiguous match should be an error"

(* A branch's T.IMM is its absolute target for patterns and for
   [#T.IMM]; composition must read a branch template the same way, or
   the composed set is not outer(inner(stream)). *)
let branch_imm_outer =
  "P1: T.OPCLASS == branch && T.IMM >= 0 -> R1\nR1: nop\n    T.INSN\n"

let nest_over_branch target =
  Compose.nest ~outer:(Lang.parse branch_imm_outer)
    ~inner:
      (Lang.parse
         (Printf.sprintf
            "P2: T.OPCLASS == load -> R2\nR2: bne r1, %s\n    T.INSN\n" target))

let test_compose_branch_imm_absolute () =
  let outer = Lang.parse branch_imm_outer in
  let bne = Insn.Br (Opcode.Bne, r1, Insn.Abs 0x1000) in
  check bool_ "the outer pattern matches the concrete branch" true
    (Pattern.matches
       (List.hd (Prodset.productions outer)).Production.pattern bne);
  let r2 = Prodset.sequence (nest_over_branch "0x1000") 2 in
  check bool_ "the outer sequence wraps the inner branch" true
    (r2
    = Some
        [|
          Replacement.Insn Insn.Nop;
          Replacement.Insn
            (Insn.Br (Opcode.Bne, Replacement.Rlit r1, Replacement.Tabs 0x1000));
          Replacement.Trigger;
        |])

let test_compose_branch_imm_undecidable () =
  List.iter
    (fun target ->
      match nest_over_branch target with
      | exception Compose.Composition_error _ -> ()
      | _ -> Alcotest.failf "T.IMM of a branch to %s was decided" target)
    [ "somewhere"; "T.PC+T.P1"; "T.PC+T.P2P3" ]

let suite =
  [
    ("pattern class match", `Quick, test_pattern_class_match);
    ("pattern field match", `Quick, test_pattern_field_match);
    ("pattern imm match", `Quick, test_pattern_imm_match);
    ("pattern specificity", `Quick, test_pattern_specificity);
    ("pattern codeword", `Quick, test_pattern_codeword);
    ("dispatch keys", `Quick, test_dispatch_keys);
    ("instantiate MFI sequence", `Quick, test_instantiate_mfi_sequence);
    ("instantiate params", `Quick, test_instantiate_params);
    ("instantiate branch param offset", `Quick,
     test_instantiate_branch_param_offset);
    ("field codecs", `Quick, test_field_codecs);
    ("lang parse MFI", `Quick, test_lang_parse_mfi);
    ("lang parse aware", `Quick, test_lang_parse_aware);
    ("remove production", `Quick, test_remove_production);
    ("lang field conditions", `Quick, test_lang_field_conditions);
    ("lang errors", `Quick, test_lang_errors);
    ("lang roundtrip", `Quick, test_lang_roundtrip);
    ("lang opcode pattern roundtrip", `Quick, test_lang_opcode_pattern_roundtrip);
    ("asm and lang share one grammar", `Quick, test_one_grammar);
    ("MFI catches bad store", `Quick, test_mfi_catches_bad_store);
    ("MFI traps when segment mismatched", `Quick, test_mfi_passes_when_legal);
    ("most specific pattern wins", `Quick, test_engine_most_specific_wins);
    ("engine memoizes by pc", `Quick, test_engine_memoizes_by_pc);
    ("engine cache keyed by (pc, insn)", `Quick,
     test_engine_cache_keyed_by_insn);
    ("engine unbound sequence", `Quick, test_engine_unbound_sequence);
    ("PT hits and misses", `Quick, test_pt_hits_and_misses);
    ("PT capacity eviction", `Quick, test_pt_capacity_eviction);
    ("RT basic", `Quick, test_rt_basic);
    ("RT capacity", `Quick, test_rt_capacity);
    ("RT perfect", `Quick, test_rt_perfect);
    ("RT long sequence blocks", `Quick, test_rt_long_sequence_blocks);
    ("controller costs", `Quick, test_controller_costs);
    ("controller context switch", `Quick, test_controller_context_switch);
    ("nested composition structure", `Quick, test_nested_composition_structure);
    ("nested composition runs", `Quick, test_nested_composition_runs);
    ("nested composition traps tracing store", `Quick,
     test_nested_composition_traps_tracing_store);
    ("merge sequences", `Quick, test_merge_sequences);
    ("merge errors", `Quick, test_merge_errors);
    ("compose rsid collision", `Quick, test_compose_rsid_collision);
    ("compose dedicated renaming", `Quick, test_compose_dedicated_renaming);
    ("inline ambiguity detected", `Quick, test_inline_ambiguity_detected);
    ("compose branch T.IMM is its target", `Quick,
     test_compose_branch_imm_absolute);
    ("compose branch T.IMM undecidable", `Quick,
     test_compose_branch_imm_undecidable);
  ]
