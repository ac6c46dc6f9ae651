(* Tests for the ISA substrate: registers, opcode semantics, encoding
   round-trips, the assembler, and program layout. *)

open Dise_isa

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0
let string_ = Alcotest.string

(* --- registers ------------------------------------------------------ *)

let test_reg_basics () =
  check bool_ "r0 is arch" true (Reg.is_arch Reg.zero);
  check bool_ "dr0 is dedicated" true (Reg.is_dedicated (Reg.d 0));
  check int_ "arch index" 7 (Reg.index (Reg.r 7));
  check int_ "dedicated index" (32 + 3) (Reg.index (Reg.d 3));
  check bool_ "equal same" true (Reg.equal (Reg.r 5) (Reg.r 5));
  check bool_ "arch vs dedicated differ" false (Reg.equal (Reg.r 5) (Reg.d 5))

let test_reg_strings () =
  let round r = Reg.of_string (Reg.to_string r) in
  check bool_ "r13 round-trips" true (round (Reg.r 13) = Some (Reg.r 13));
  check bool_ "sp round-trips" true (round Reg.sp = Some Reg.sp);
  check bool_ "ra round-trips" true (round Reg.ra = Some Reg.ra);
  check bool_ "zero round-trips" true (round Reg.zero = Some Reg.zero);
  check bool_ "$dr2 round-trips" true (round (Reg.d 2) = Some (Reg.d 2));
  check bool_ "dr7 parses" true (Reg.of_string "dr7" = Some (Reg.d 7));
  check bool_ "r32 rejected" true (Reg.of_string "r32" = None);
  check bool_ "garbage rejected" true (Reg.of_string "x1" = None)

let test_reg_range_checks () =
  Alcotest.check_raises "r -1" (Invalid_argument "Reg.r: out of range")
    (fun () -> ignore (Reg.r (-1)));
  Alcotest.check_raises "d 16" (Invalid_argument "Reg.d: out of range")
    (fun () -> ignore (Reg.d 16))

(* --- opcode semantics ----------------------------------------------- *)

let test_alu_semantics () =
  check int_ "add" 7 (Opcode.eval_rop Opcode.Add 3 4);
  check int_ "add wraps to negative" (-2147483648)
    (Opcode.eval_rop Opcode.Add 2147483647 1);
  check int_ "sub" (-1) (Opcode.eval_rop Opcode.Sub 3 4);
  check int_ "mul" 12 (Opcode.eval_rop Opcode.Mul 3 4);
  check int_ "and" 4 (Opcode.eval_rop Opcode.And_ 6 12);
  check int_ "or" 14 (Opcode.eval_rop Opcode.Or_ 6 12);
  check int_ "xor" 10 (Opcode.eval_rop Opcode.Xor 6 12);
  check int_ "sll" 24 (Opcode.eval_rop Opcode.Sll 3 3);
  check int_ "srl of negative is logical" 0x3FFFFFFF
    (Opcode.eval_rop Opcode.Srl (-1) 2);
  check int_ "sra of negative is arithmetic" (-1)
    (Opcode.eval_rop Opcode.Sra (-1) 2);
  check int_ "slt signed" 1 (Opcode.eval_rop Opcode.Slt (-1) 0);
  check int_ "sltu unsigned" 0 (Opcode.eval_rop Opcode.Sltu (-1) 0);
  check int_ "cmpeq true" 1 (Opcode.eval_rop Opcode.Cmpeq 5 5);
  check int_ "cmpeq false" 0 (Opcode.eval_rop Opcode.Cmpeq 5 6);
  check int_ "cmplt" 1 (Opcode.eval_rop Opcode.Cmplt 4 5);
  check int_ "cmple equal" 1 (Opcode.eval_rop Opcode.Cmple 5 5);
  check int_ "shift amount mod 32" 2 (Opcode.eval_rop Opcode.Sll 1 33)

let test_branch_semantics () =
  check bool_ "beq 0" true (Opcode.eval_bop Opcode.Beq 0);
  check bool_ "beq 1" false (Opcode.eval_bop Opcode.Beq 1);
  check bool_ "bne -1" true (Opcode.eval_bop Opcode.Bne (-1));
  check bool_ "blt -1" true (Opcode.eval_bop Opcode.Blt (-1));
  check bool_ "blt 0" false (Opcode.eval_bop Opcode.Blt 0);
  check bool_ "bge 0" true (Opcode.eval_bop Opcode.Bge 0);
  check bool_ "ble 0" true (Opcode.eval_bop Opcode.Ble 0);
  check bool_ "bgt 1" true (Opcode.eval_bop Opcode.Bgt 1);
  check bool_ "bgt works on sign-extended" true
    (Opcode.eval_bop Opcode.Bgt (Opcode.signed32 5))

let test_word_helpers () =
  check int_ "mask32 of -1" 0xFFFFFFFF (Opcode.mask32 (-1));
  check int_ "signed32 of 0x80000000" (-2147483648)
    (Opcode.signed32 0x80000000);
  check int_ "signed32 of small" 42 (Opcode.signed32 42)

(* --- instruction structure ------------------------------------------ *)

let r1 = Reg.r 1
let r2 = Reg.r 2
let r3 = Reg.r 3

let test_insn_fields () =
  let add = Insn.Rop (Opcode.Add, r1, r2, r3) in
  check bool_ "add rs" true (Insn.rs add = Some r1);
  check bool_ "add rt" true (Insn.rt add = Some r2);
  check bool_ "add rd" true (Insn.rd ~link:Reg.ra add = Some r3);
  let ld = Insn.Mem (Opcode.Ldq, r1, 8, r2) in
  check bool_ "load rs is base" true (Insn.rs ld = Some r1);
  check bool_ "load rd is data" true (Insn.rd ~link:Reg.ra ld = Some r2);
  check bool_ "load imm" true (Insn.imm ~target:Insn.resolved ld = Some 8);
  let st = Insn.Mem (Opcode.Stq, r1, -4, r2) in
  check bool_ "store has no rd" true (Insn.rd ~link:Reg.ra st = None);
  check bool_ "store rt is data" true (Insn.rt st = Some r2);
  check bool_ "jal defines ra" true (Insn.defs (Insn.Jal (Insn.Abs 0)) = [ Reg.ra ]);
  check bool_ "store uses base and data" true
    (Insn.uses st = [ r1; r2 ])

let test_insn_classes () =
  let cls i = Insn.cls i in
  check bool_ "load class" true (cls (Insn.Mem (Opcode.Ldq, r1, 0, r2)) = Opcode.C_load);
  check bool_ "store class" true (cls (Insn.Mem (Opcode.Stb, r1, 0, r2)) = Opcode.C_store);
  check bool_ "branch class" true
    (cls (Insn.Br (Opcode.Bne, r1, Insn.Abs 0)) = Opcode.C_branch);
  check bool_ "jr is indirect" true (cls (Insn.Jr r1) = Opcode.C_ijump);
  check bool_ "jal is jump" true (cls (Insn.Jal (Insn.Abs 0)) = Opcode.C_jump);
  check bool_ "codeword class" true
    (cls (Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:0) = Opcode.C_codeword);
  check bool_ "dbr class" true (cls (Insn.Dbr (Opcode.Beq, r1, 2)) = Opcode.C_dise)

let test_key_class_consistency () =
  (* Every key belongs to exactly one class, and cls_of_key agrees with
     keys_of_class. *)
  for k = 0 to Insn.num_keys - 1 do
    let c = Desc.cls_of_key k in
    if not (List.mem k (Desc.keys_of_class c)) then
      Alcotest.failf "key %d not in its own class %s" k
        (Opcode.cls_to_string c);
    check int_ "key inverts example_of_key" k (Insn.key (Desc.example_of_key k))
  done;
  let total =
    List.fold_left
      (fun acc c -> acc + List.length (Desc.keys_of_class c))
      0 Opcode.all_classes
  in
  check int_ "classes partition the key space" Insn.num_keys total

let test_codeword_validation () =
  Alcotest.check_raises "bad op"
    (Invalid_argument "Insn.codeword: reserved opcode out of range") (fun () ->
      ignore (Insn.codeword ~op:4 ~p1:0 ~p2:0 ~p3:0 ~tag:0));
  Alcotest.check_raises "bad tag"
    (Invalid_argument "Insn.codeword: tag out of 11-bit range") (fun () ->
      ignore (Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:2048));
  Alcotest.check_raises "bad param"
    (Invalid_argument "Insn.codeword: p2 out of 5-bit range") (fun () ->
      ignore (Insn.codeword ~op:0 ~p1:0 ~p2:32 ~p3:0 ~tag:0))

(* --- encoding ------------------------------------------------------- *)

let sample_insns pc =
  [
    Insn.Rop (Opcode.Add, r1, r2, r3);
    Insn.Rop (Opcode.Cmplt, Reg.r 30, Reg.r 31, Reg.r 0);
    Insn.Ropi (Opcode.Srl, r1, 26, r2);
    Insn.Ropi (Opcode.Add, r1, -32768, r2);
    Insn.Lda (r1, 32767, r2);
    Insn.Lui (4096, r3);
    Insn.Mem (Opcode.Ldq, r1, 8, r2);
    Insn.Mem (Opcode.Stq, Reg.sp, -64, r2);
    Insn.Mem (Opcode.Ldbu, r1, 255, r2);
    Insn.Mem (Opcode.Stb, r1, 0, r2);
    Insn.Br (Opcode.Bne, r1, Insn.Abs (pc + 4 + 40));
    Insn.Br (Opcode.Beq, r1, Insn.Abs (pc + 4 - 120));
    Insn.Jmp (Insn.Abs 0x200000);
    Insn.Jal (Insn.Abs 0x104);
    Insn.Jr Reg.ra;
    Insn.Jalr (r1, r2);
    Insn.Dbr (Opcode.Bne, r1, 3);
    Insn.Djmp 7;
    Insn.codeword ~op:0 ~p1:1 ~p2:2 ~p3:3 ~tag:2047;
    Insn.codeword ~op:3 ~p1:31 ~p2:0 ~p3:15 ~tag:0;
    Insn.Nop;
    Insn.Halt;
  ]

let test_encode_roundtrip () =
  let pc = 0x100200 in
  List.iter
    (fun i ->
      let w = Encode.encode ~pc i in
      check bool_ "word in 32 bits" true (w >= 0 && w <= 0xFFFFFFFF);
      let i' = Encode.decode ~pc w in
      if not (Insn.equal i i') then
        Alcotest.failf "round-trip failed: %s -> %08x -> %s"
          (Insn.to_string i) w (Insn.to_string i'))
    (sample_insns pc)

let test_encode_rejects_dedicated () =
  let i = Insn.Rop (Opcode.Add, Reg.d 1, r2, r3) in
  check bool_ "dedicated not encodable" false (Encode.encodable i);
  (match Encode.encode ~pc:0 i with
  | exception Encode.Error _ -> ()
  | _ -> Alcotest.fail "expected Encode.Error");
  let lab = Insn.Jmp (Insn.Lab "foo") in
  check bool_ "label not encodable" false (Encode.encodable lab)

let test_encode_range_errors () =
  (match Encode.encode ~pc:0 (Insn.Ropi (Opcode.Add, r1, 40000, r2)) with
  | exception Encode.Error _ -> ()
  | _ -> Alcotest.fail "imm16 overflow not caught");
  match Encode.encode ~pc:0 (Insn.Br (Opcode.Beq, r1, Insn.Abs 0x1000000)) with
  | exception Encode.Error _ -> ()
  | _ -> Alcotest.fail "branch range overflow not caught"

(* Property: random instructions round-trip through encode/decode. *)
let arbitrary_insn =
  let open QCheck in
  let reg = Gen.map Reg.r (Gen.int_bound 31) in
  let imm16 = Gen.int_range (-32768) 32767 in
  let pc = 0x100000 in
  let gen =
    Gen.oneof
      [
        Gen.map3
          (fun op a (b, c) -> Insn.Rop (op, a, b, c))
          (Gen.oneofl Opcode.all_rops) reg (Gen.pair reg reg);
        Gen.map3
          (fun op a (v, c) -> Insn.Ropi (op, a, v, c))
          (Gen.oneofl Opcode.all_rops) reg (Gen.pair imm16 reg);
        Gen.map3 (fun a v c -> Insn.Lda (a, v, c)) reg imm16 reg;
        Gen.map2 (fun v c -> Insn.Lui (v, c)) imm16 reg;
        Gen.map3
          (fun op a (v, c) -> Insn.Mem (op, a, v, c))
          (Gen.oneofl Opcode.all_mops) reg (Gen.pair imm16 reg);
        Gen.map3
          (fun op r off -> Insn.Br (op, r, Insn.Abs (pc + 4 + (off * 2))))
          (Gen.oneofl Opcode.all_bops) reg imm16;
        Gen.map (fun t -> Insn.Jmp (Insn.Abs (t * 4))) (Gen.int_bound 0xFFFF);
        Gen.map (fun t -> Insn.Jal (Insn.Abs (t * 4))) (Gen.int_bound 0xFFFF);
        Gen.map (fun r -> Insn.Jr r) reg;
        Gen.map2 (fun a b -> Insn.Jalr (a, b)) reg reg;
        Gen.map2 (fun (op, r) off -> Insn.Dbr (op, r, off))
          (Gen.pair (Gen.oneofl Opcode.all_bops) reg)
          (Gen.int_bound 100);
        Gen.map
          (fun (op, (p1, (p2, (p3, tag)))) ->
            Insn.codeword ~op ~p1 ~p2 ~p3 ~tag)
          (Gen.pair (Gen.int_bound 3)
             (Gen.pair (Gen.int_bound 31)
                (Gen.pair (Gen.int_bound 31)
                   (Gen.pair (Gen.int_bound 31) (Gen.int_bound 2047)))));
        Gen.return Insn.Nop;
        Gen.return Insn.Halt;
      ]
  in
  make ~print:Insn.to_string gen

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trip" ~count:500 arbitrary_insn
    (fun i ->
      let pc = 0x100000 in
      Insn.equal i (Encode.decode ~pc (Encode.encode ~pc i)))

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:500 arbitrary_insn
    (fun i ->
      (* Codewords print with a tag= suffix the assembler accepts;
         everything else prints in plain assembly, which the production
         language reads as the all-literal replacement instruction. *)
      let s = Insn.to_string i in
      let module R = Dise_core.Replacement in
      match Asm.parse_insn s with
      | exception Asm.Parse_error (_, msg) ->
        QCheck.Test.fail_reportf "parse of %S failed: %s" s msg
      | i' -> (
        Insn.equal i i'
        &&
        match i with
        | Insn.Codeword _ -> true
        | _ -> (
          match Dise_core.Lang.parse_rinsn s with
          | r -> [| r |] = R.of_insns [ i ]
          | exception Asm.Parse_error (_, msg) ->
            QCheck.Test.fail_reportf "replacement parse of %S failed: %s" s
              msg)))

(* --- assembler ------------------------------------------------------ *)

let test_asm_basic () =
  let p =
    Asm.parse
      {|
      ; a tiny function
      main:
        lda r1, 8(r2)
        srl r1, #26, r4
        ldq r5, 0(r1)
        xor r4, r6, r4
        bne r4, error
        jal helper   // call
        jr ra
      error:
        halt
      |}
  in
  check int_ "eight instructions" 8 (Program.size p);
  match Program.insns p with
  | Insn.Lda (base, 8, dst) :: Insn.Ropi (Opcode.Srl, _, 26, _) :: _ ->
    check bool_ "lda base" true (Reg.equal base r2);
    check bool_ "lda dst" true (Reg.equal dst r1)
  | _ -> Alcotest.fail "unexpected parse"

let test_asm_errors () =
  let bad s =
    match Asm.parse s with
    | exception Asm.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  bad "frobnicate r1, r2";
  bad "add r1, r2";
  bad "ldq r1, r2";
  bad "beq r99, foo";
  bad "lda r1, 8(r2";
  bad "1bad: nop"

let test_asm_codeword_fields () =
  (* Every field is range-checked as a parse error naming the line and
     the field, never the smart constructor's Invalid_argument. *)
  let error_at line field text =
    match Asm.parse_result text with
    | Error (Diag.Parse { line = l; msg; _ }) ->
      check int_ ("line of " ^ field) line l;
      if not (contains msg field) then
        Alcotest.failf "message %S does not name %s" msg field
    | Error d -> Alcotest.failf "not a parse error: %s" (Diag.to_string d)
    | Ok _ -> Alcotest.failf "accepted a bad %s" field
  in
  error_at 2 "opcode" "nop\ncw9 1, 2, 3, tag=4\n";
  error_at 1 "p1" "cw0 99, 2, 3, tag=4";
  error_at 1 "p2" "cw1 1, 32, 3, tag=4";
  error_at 1 "p3" "cw2 1, 2, -1, tag=4";
  error_at 3 "tag" "nop\nnop\ncw3 1, 2, 3, tag=2048";
  error_at 1 "cw0 expects 4 operands, got 3" "cw0 1, 2, 3";
  check bool_ "in-range fields parse" true
    (Asm.parse_insn "CW3 31, 0, 31, tag=2047"
    = Insn.codeword ~op:3 ~p1:31 ~p2:0 ~p3:31 ~tag:2047)

let test_asm_line_numbers () =
  match Asm.parse "nop\nnop\nbogus r1\n" with
  | exception Asm.Parse_error (3, _) -> ()
  | exception Asm.Parse_error (n, _) ->
    Alcotest.failf "wrong line number %d" n
  | _ -> Alcotest.fail "expected parse error"

(* --- layout --------------------------------------------------------- *)

let test_layout_resolves_labels () =
  let p =
    Asm.parse
      {|
      main:
        beq r1, skip
        nop
      skip:
        jmp main
        halt
      |}
  in
  let img = Program.layout ~base:0x1000 p in
  check int_ "4 instructions" 4 (Program.Image.length img);
  check int_ "text bytes" 16 (Program.Image.text_bytes img);
  check bool_ "main at base" true (Program.Image.symbol img "main" = Some 0x1000);
  check bool_ "skip resolved" true (Program.Image.symbol img "skip" = Some 0x1008);
  (match Program.Image.get img 0 with
  | Insn.Br (_, _, Insn.Abs a) -> check int_ "branch target" 0x1008 a
  | i -> Alcotest.failf "expected branch, got %s" (Insn.to_string i));
  match Program.Image.get img 2 with
  | Insn.Jmp (Insn.Abs a) -> check int_ "jump target" 0x1000 a
  | i -> Alcotest.failf "expected jump, got %s" (Insn.to_string i)

let test_layout_variable_sizes () =
  let cw = Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:1 in
  let p = [ Program.Ins Insn.Nop; Program.Ins cw; Program.Ins Insn.Halt ] in
  let size_of i = match i with Insn.Codeword _ -> 2 | _ -> 4 in
  let img = Program.layout ~base:0 ~size_of p in
  check int_ "compressed text bytes" 10 (Program.Image.text_bytes img);
  check int_ "addr of halt" 6 (Program.Image.addr_of_index img 2);
  check bool_ "fetch at 4 is codeword" true
    (Program.Image.fetch img 4 = Some cw);
  check bool_ "no insn at 5" true (Program.Image.fetch img 5 = None)

let test_layout_errors () =
  (match Program.layout [ Program.Ins (Insn.Jmp (Insn.Lab "nowhere")) ] with
  | exception Program.Layout_error _ -> ()
  | _ -> Alcotest.fail "undefined label not caught");
  match
    Program.layout [ Program.Label "a"; Program.Label "a"; Program.Ins Insn.Nop ]
  with
  | exception Program.Layout_error _ -> ()
  | _ -> Alcotest.fail "duplicate label not caught"

let test_builder () =
  let b = Program.Builder.create () in
  Program.Builder.label b "f";
  Program.Builder.ins b Insn.Nop;
  let l1 = Program.Builder.fresh_label b "loop" in
  let l2 = Program.Builder.fresh_label b "loop" in
  check bool_ "fresh labels distinct" true (l1 <> l2);
  Program.Builder.label b l1;
  Program.Builder.ins b (Insn.Jmp (Insn.Lab l1));
  let p = Program.Builder.to_program b in
  check int_ "two instructions" 2 (Program.size p);
  ignore (Program.layout p)

let test_encode_whole_workload () =
  (* Encode and decode a full generated program: the binary form is
     total over everything the generator can emit. *)
  let gen = Dise_workload.Codegen.generate ~dyn_target:10_000 Dise_workload.Profile.tiny in
  let img = Dise_workload.Codegen.layout gen in
  let words = Encode.encode_image img in
  check int_ "one word per instruction" (Program.Image.length img)
    (Array.length words);
  let back = Encode.decode_image ~base:(Program.Image.base img) words in
  Array.iteri
    (fun i insn ->
      if not (Insn.equal insn (Program.Image.get img i)) then
        Alcotest.failf "image round-trip failed at %d: %s vs %s" i
          (Insn.to_string (Program.Image.get img i))
          (Insn.to_string insn))
    back

let test_encode_image_rejects_halfword () =
  let cw = Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:1 in
  let img =
    Program.layout
      ~size_of:(function Insn.Codeword _ -> 2 | _ -> 4)
      [ Program.Ins cw; Program.Ins Insn.Halt ]
  in
  match Encode.encode_image img with
  | exception Encode.Error _ -> ()
  | _ -> Alcotest.fail "halfword layout must not binary-encode"

let test_disasm () =
  let p = Asm.parse "main:\n  jal f\n  halt\nf:\n  jr ra\n" in
  let img = Program.layout ~base:0x400 p in
  let text = Format.asprintf "%a" Disasm.pp_image img in
  check bool_ "labels rendered" true (contains text "main:");
  check bool_ "call target symbolic" true (contains text "jal f");
  check string_ "insn_at" "jal f" (Disasm.insn_at img 0x400)

let suite =
  [
    ("reg basics", `Quick, test_reg_basics);
    ("reg strings", `Quick, test_reg_strings);
    ("reg range checks", `Quick, test_reg_range_checks);
    ("alu semantics", `Quick, test_alu_semantics);
    ("branch semantics", `Quick, test_branch_semantics);
    ("word helpers", `Quick, test_word_helpers);
    ("insn fields", `Quick, test_insn_fields);
    ("insn classes", `Quick, test_insn_classes);
    ("key/class consistency", `Quick, test_key_class_consistency);
    ("codeword validation", `Quick, test_codeword_validation);
    ("encode round-trip", `Quick, test_encode_roundtrip);
    ("encode rejects dedicated", `Quick, test_encode_rejects_dedicated);
    ("encode range errors", `Quick, test_encode_range_errors);
    QCheck_alcotest.to_alcotest prop_encode_roundtrip;
    QCheck_alcotest.to_alcotest prop_asm_roundtrip;
    ("asm basic", `Quick, test_asm_basic);
    ("asm errors", `Quick, test_asm_errors);
    ("asm codeword fields", `Quick, test_asm_codeword_fields);
    ("asm line numbers", `Quick, test_asm_line_numbers);
    ("layout resolves labels", `Quick, test_layout_resolves_labels);
    ("layout variable sizes", `Quick, test_layout_variable_sizes);
    ("layout errors", `Quick, test_layout_errors);
    ("builder", `Quick, test_builder);
    ("encode whole workload", `Quick, test_encode_whole_workload);
    ("encode image rejects halfword", `Quick, test_encode_image_rejects_halfword);
    ("disasm", `Quick, test_disasm);
  ]
