(* Tests for the safety analyzer and the OS virtualization layer. *)

open Dise_isa
open Dise_core
module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module Memory = Dise_machine.Memory
module W = Dise_workload
module A = Dise_acf

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- safety ----------------------------------------------------------- *)

let parse s = Lang.parse s

let has_error fs = Safety.errors fs <> []
let has_warning fs =
  List.exists (fun f -> f.Safety.severity = Safety.Warning) fs

let test_safety_clean_mfi () =
  let set =
    Prodset.resolve_labels (fun _ -> Some 0x9000)
      (parse
         {|
         P1: T.OPCLASS == store -> R1
         R1: srl T.RS, #26, $dr1
             xor $dr1, $dr2, $dr1
             bne $dr1, __error
             T.INSN
         |})
  in
  check bool_ "MFI passes inspection" false (has_error (Safety.check set))

let test_safety_unbound_sequence () =
  let set =
    Prodset.add_production Prodset.empty
      (Production.make Pattern.loads (Production.Direct 7))
  in
  check bool_ "unbound sequence is an error" true
    (has_error (Safety.check set))

let test_safety_empty_sequence () =
  let set =
    Prodset.add Prodset.empty
      (Production.make Pattern.loads (Production.Direct 1))
      [||]
  in
  check bool_ "empty sequence is an error" true (has_error (Safety.check set))

let test_safety_params_on_transparent () =
  (* T.P1 under a loads pattern can never instantiate. *)
  let set =
    parse {|
    P1: T.OPCLASS == load -> R1
    R1: lda T.P1, 0(T.P1)
        T.INSN
    |}
  in
  check bool_ "params on non-codeword pattern rejected" true
    (has_error (Safety.check set))

let test_safety_params_on_codeword_ok () =
  let set =
    parse {|
    P1: T.OP == cw0 -> TAG
    R1: lda T.P1, #T.P2(T.P1)
    |}
  in
  check bool_ "params on codeword pattern fine" false
    (has_error (Safety.check set))

let test_safety_missing_field () =
  (* T.IMM under a pattern matching register-form ALU (no immediate). *)
  let set =
    parse {|
    P1: T.OP == add -> R1
    R1: lda $dr1, #T.IMM($dr2)
        T.INSN
    |}
  in
  check bool_ "T.IMM on imm-less opcode is an error" true
    (has_error (Safety.check set));
  (* Under a whole-class pattern it is only a warning (some ALU forms
     carry immediates). *)
  let set2 =
    parse {|
    P1: T.OPCLASS == alu -> R1
    R1: lda $dr1, #T.IMM($dr2)
        T.INSN
    |}
  in
  let fs = Safety.check set2 in
  check bool_ "not a hard error" false (has_error fs);
  check bool_ "but a warning" true (has_warning fs)

let test_safety_reserved_registers () =
  let set =
    parse {|
    P1: T.OPCLASS == store -> R1
    R1: lda $dr2, 0($dr2)
        T.INSN
    |}
  in
  check bool_ "writing $dr2 rejected when reserved" true
    (has_error (Safety.check ~reserved_dedicated:[ 2 ] set));
  check bool_ "fine when not reserved" false
    (has_error (Safety.check ~reserved_dedicated:[ 4 ] set))

let test_safety_internal_control_range () =
  let set =
    Prodset.add Prodset.empty
      (Production.make Pattern.loads (Production.Direct 1))
      [| Replacement.Insn (Insn.Djmp 5); Replacement.Trigger |]
  in
  check bool_ "DISE jump out of sequence rejected" true
    (has_error (Safety.check set))

let test_safety_halt_policy () =
  let set =
    parse {|
    P1: T.OPCLASS == store -> R1
    R1: halt
    |}
  in
  check bool_ "halt flagged by default" true (has_warning (Safety.check set));
  check bool_ "allowed when opted in" false
    (has_warning (Safety.check ~allow_halt:true set))

(* --- osvirt ------------------------------------------------------------ *)

let small_image label exit_code =
  Program.layout
    (Asm.parse
       (Printf.sprintf
          {|
          main:
            lui #1024, r1
            add zero, #200, r4
          loop_%s:
            mul r4, r4, r5
            stq r5, 0(r1)
            add r4, #-1, r4
            bgt r4, loop_%s
            add zero, #%d, r2
            halt
          |}
          label label exit_code))

let mfi_set img =
  Prodset.resolve_labels
    (fun l -> if l = "__error" then Some (Program.Image.end_addr img) else None)
    (parse
       {|
       P1: T.OPCLASS == store -> R4100
       R4100: srl T.RS, #26, $dr1
              xor $dr1, $dr2, $dr1
              bne $dr1, 0x9000
              T.INSN
       |})

let counting_acf rsid =
  Prodset.add Prodset.empty
    (Production.make ~name:"count" Pattern.stores (Production.Direct rsid))
    [| Replacement.Insn
         (Insn.Lda (Replacement.Rlit (Reg.d 5), Replacement.Ilit 1,
                    Replacement.Rlit (Reg.d 5)));
       Replacement.Trigger |]

let test_osvirt_runs_two_processes () =
  let os = Osvirt.create () in
  let a = Osvirt.spawn os ~name:"a" (small_image "a" 11) in
  let b = Osvirt.spawn os ~name:"b" (small_image "b" 22) in
  Osvirt.round_robin ~slice:100 os;
  check int_ "a finished" 11 (Machine.exit_code (Osvirt.machine os a));
  check int_ "b finished" 22 (Machine.exit_code (Osvirt.machine os b));
  check bool_ "interleaved (several switches)" true (Osvirt.switches os > 4);
  check bool_ "no live processes" true (Osvirt.live os = [])

let test_osvirt_per_process_acfs_isolated () =
  (* Both processes store 200 times; only the one with the counting ACF
     sees its $dr5 grow, and their counters do not bleed into each
     other through the shared hardware registers. *)
  let os = Osvirt.create () in
  let a =
    Osvirt.spawn os ~name:"a" ~acf:(counting_acf 100) (small_image "a" 0)
  in
  let b = Osvirt.spawn os ~name:"b" (small_image "b" 0) in
  Osvirt.round_robin ~slice:37 os;
  let dr5 m = Regfile.get (Machine.regs m) (Reg.d 5) in
  check int_ "a counted its stores" 200 (dr5 (Osvirt.machine os a));
  check int_ "b unaffected" 0 (dr5 (Osvirt.machine os b))

let test_osvirt_kernel_acf_applies_to_all () =
  let img_a = small_image "a" 0 and img_b = small_image "b" 0 in
  let os = Osvirt.create () in
  let a = Osvirt.spawn os ~name:"a" img_a in
  Osvirt.install_kernel_acf os ~name:"mfi" ~regs:[ (2, 1) ] (mfi_set img_a);
  let b = Osvirt.spawn os ~name:"b" img_b in
  Osvirt.round_robin ~slice:50 os;
  (* Both ran cleanly under the kernel MFI (legal segment installed),
     and both machines performed expansions. *)
  check int_ "a clean" 0 (Machine.exit_code (Osvirt.machine os a));
  check int_ "b clean" 0 (Machine.exit_code (Osvirt.machine os b));
  check bool_ "a expanded" true (Machine.expansions (Osvirt.machine os a) > 100);
  check bool_ "b expanded" true (Machine.expansions (Osvirt.machine os b) > 100)

let test_osvirt_rejects_unsafe_user_acf () =
  let os = Osvirt.create () in
  let evil =
    parse {|
    P1: T.OPCLASS == store -> R9
    R9: lda $dr2, 7($dr2)
        T.INSN
    |}
  in
  match Osvirt.spawn os ~name:"evil" ~acf:evil (small_image "e" 0) with
  | exception Osvirt.Rejected fs ->
    check bool_ "findings reported" true (fs <> [])
  | _ -> Alcotest.fail "unsafe ACF must be rejected"

let test_osvirt_kernel_may_own_reserved () =
  let img = small_image "k" 0 in
  let os = Osvirt.create () in
  (* The kernel MFI writes nothing reserved, but even a kernel ACF
     updating $dr2 must be admitted. *)
  let updater =
    parse {|
    P1: T.OPCLASS == load -> R4101
    R4101: lda $dr2, 0($dr2)
           T.INSN
    |}
  in
  Osvirt.install_kernel_acf os ~name:"seg-updater" updater;
  ignore (Osvirt.spawn os ~name:"p" img)

let test_osvirt_switch_invalidates_rt () =
  let os =
    Osvirt.create ~controller_cfg:Controller.default_config ()
  in
  let a = Osvirt.spawn os ~name:"a" (small_image "a" 0) in
  let b = Osvirt.spawn os ~name:"b" (small_image "b" 0) in
  ignore (Osvirt.run_slice os a ~steps:50);
  ignore (Osvirt.run_slice os b ~steps:50);
  ignore (Osvirt.run_slice os a ~steps:50);
  check bool_ "switches recorded" true (Osvirt.switches os >= 3);
  ignore (Osvirt.controller os)

let test_osvirt_dregs_saved_restored () =
  (* Process a's ACF accumulates in $dr5; interleave with b whose ACF
     also uses $dr5 with a different count. Each must keep its own. *)
  let os = Osvirt.create () in
  let a =
    Osvirt.spawn os ~name:"a" ~acf:(counting_acf 100)
      ~dise_regs:[ (5, 1000) ] (small_image "a" 0)
  in
  let b =
    Osvirt.spawn os ~name:"b" ~acf:(counting_acf 101)
      ~dise_regs:[ (5, 5000) ] (small_image "b" 0)
  in
  Osvirt.round_robin ~slice:23 os;
  let dr5 p = Regfile.get (Machine.regs (Osvirt.machine os p)) (Reg.d 5) in
  check int_ "a's counter correct" 1200 (dr5 a);
  check int_ "b's counter correct" 5200 (dr5 b)

let test_osvirt_run_slice_halted () =
  let os = Osvirt.create () in
  let p = Osvirt.spawn os ~name:"p" (small_image "p" 9) in
  (match Osvirt.run_slice os p ~steps:1_000_000 with
  | `Halted -> ()
  | `Ran n -> Alcotest.failf "should have halted, ran %d" n);
  check bool_ "not live anymore" true (not (List.mem p (Osvirt.live os)));
  match Osvirt.run_slice os p ~steps:10 with
  | `Halted -> ()
  | `Ran _ -> Alcotest.fail "halted process must stay halted"

let suite =
  [
    ("safety: clean MFI", `Quick, test_safety_clean_mfi);
    ("osvirt: run_slice halts", `Quick, test_osvirt_run_slice_halted);
    ("safety: unbound sequence", `Quick, test_safety_unbound_sequence);
    ("safety: empty sequence", `Quick, test_safety_empty_sequence);
    ("safety: params on transparent", `Quick, test_safety_params_on_transparent);
    ("safety: params on codeword ok", `Quick, test_safety_params_on_codeword_ok);
    ("safety: missing field", `Quick, test_safety_missing_field);
    ("safety: reserved registers", `Quick, test_safety_reserved_registers);
    ("safety: internal control range", `Quick,
     test_safety_internal_control_range);
    ("safety: halt policy", `Quick, test_safety_halt_policy);
    ("osvirt: two processes", `Quick, test_osvirt_runs_two_processes);
    ("osvirt: per-process ACFs isolated", `Quick,
     test_osvirt_per_process_acfs_isolated);
    ("osvirt: kernel ACF applies to all", `Quick,
     test_osvirt_kernel_acf_applies_to_all);
    ("osvirt: rejects unsafe user ACF", `Quick,
     test_osvirt_rejects_unsafe_user_acf);
    ("osvirt: kernel may own reserved", `Quick,
     test_osvirt_kernel_may_own_reserved);
    ("osvirt: switch invalidates RT", `Quick, test_osvirt_switch_invalidates_rt);
    ("osvirt: dedicated registers saved/restored", `Quick,
     test_osvirt_dregs_saved_restored);
  ]
