(* Tests for the functional emulator: memory, register file, plain
   execution, and DISE replacement-sequence semantics. *)

open Dise_isa
open Dise_machine

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- memory --------------------------------------------------------- *)

let test_memory_rw () =
  let m = Memory.create () in
  Memory.write_u32 m 0x1000 0xDEADBEEF;
  check int_ "word read" 0xDEADBEEF (Memory.read_u32 m 0x1000);
  check int_ "signed read" (Opcode.signed32 0xDEADBEEF)
    (Memory.read_s32 m 0x1000);
  check int_ "byte 0 (little endian)" 0xEF (Memory.read_u8 m 0x1000);
  check int_ "byte 3" 0xDE (Memory.read_u8 m 0x1003);
  Memory.write_u8 m 0x1001 0x42;
  check int_ "byte patch visible in word" 0xDEAD42EF (Memory.read_u32 m 0x1000);
  check int_ "untouched reads zero" 0 (Memory.read_u32 m 0x55000)

let test_memory_alignment () =
  let m = Memory.create () in
  (match Memory.read_u32 m 0x1002 with
  | exception Memory.Fault _ -> ()
  | _ -> Alcotest.fail "misaligned read not caught");
  match Memory.write_u32 m 0x1001 0 with
  | exception Memory.Fault _ -> ()
  | _ -> Alcotest.fail "misaligned write not caught"

let test_memory_sparse () =
  let m = Memory.create () in
  Memory.write_u32 m 0x0 1;
  Memory.write_u32 m 0x40000000 2;
  check int_ "two pages" 2 (Memory.touched_pages m);
  check int_ "far value" 2 (Memory.read_u32 m 0x40000000)

let test_memory_checksum () =
  let a = Memory.create () and b = Memory.create () in
  Memory.write_u32 a 0x100 7;
  Memory.write_u32 a 0x2000 9;
  (* Same state written in a different order. *)
  Memory.write_u32 b 0x2000 9;
  Memory.write_u32 b 0x100 7;
  check int_ "equal states, equal checksums" (Memory.checksum a)
    (Memory.checksum b);
  Memory.write_u32 b 0x100 8;
  check bool_ "different states differ" true
    (Memory.checksum a <> Memory.checksum b)

(* --- register file -------------------------------------------------- *)

let test_regfile () =
  let rf = Regfile.create () in
  Regfile.set rf (Reg.r 5) 42;
  check int_ "read back" 42 (Regfile.get rf (Reg.r 5));
  Regfile.set rf Reg.zero 99;
  check int_ "zero ignores writes" 0 (Regfile.get rf Reg.zero);
  Regfile.set rf (Reg.d 2) 17;
  check int_ "dedicated distinct from arch" 17 (Regfile.get rf (Reg.d 2));
  check int_ "arch r2 unaffected" 0 (Regfile.get rf (Reg.r 2));
  Regfile.set rf (Reg.r 6) 0xFFFFFFFF;
  check int_ "values normalized to signed32" (-1) (Regfile.get rf (Reg.r 6));
  let rf2 = Regfile.copy rf in
  check bool_ "copy arch-equal" true (Regfile.arch_equal rf rf2);
  Regfile.set rf2 (Reg.r 7) 1;
  check bool_ "divergence detected" false (Regfile.arch_equal rf rf2);
  Regfile.set rf2 (Reg.r 7) 0;
  Regfile.set rf2 (Reg.d 3) 123;
  check bool_ "dedicated ignored by arch_equal" true (Regfile.arch_equal rf rf2)

(* --- plain execution ------------------------------------------------ *)

let run_asm ?expander ?(entry = "main") src =
  let img = Program.layout (Asm.parse src) in
  let m = Machine.create ?expander ~entry img in
  ignore (Machine.run_raw ~max_steps:1_000_000 m ignore);
  m

let reg m n = Regfile.get (Machine.regs m) (Reg.r n)

let test_arith_program () =
  let m =
    run_asm
      {|
      main:
        add zero, #10, r1
        add zero, #3, r2
        mul r1, r2, r3      ; 30
        sub r3, r1, r4      ; 20
        srl r4, #2, r5      ; 5
        halt
      |}
  in
  check int_ "r3" 30 (reg m 3);
  check int_ "r4" 20 (reg m 4);
  check int_ "r5" 5 (reg m 5);
  check int_ "executed" 6 (Machine.executed m)

let test_loop_program () =
  (* Sum 1..10 with a countdown loop. *)
  let m =
    run_asm
      {|
      main:
        add zero, #10, r1
        add zero, #0, r2
      loop:
        add r2, r1, r2
        add r1, #-1, r1
        bgt r1, loop
        halt
      |}
  in
  check int_ "sum 1..10" 55 (reg m 2)

let test_memory_program () =
  let m =
    run_asm
      {|
      main:
        lui #1024, r1        ; r1 = 0x04000000 (data segment)
        add zero, #7, r2
        stq r2, 16(r1)
        ldq r3, 16(r1)
        stb r3, 3(r1)
        ldbu r4, 3(r1)
        halt
      |}
  in
  check int_ "store/load word" 7 (reg m 3);
  check int_ "store/load byte" 7 (reg m 4);
  check int_ "memory content" 7 (Memory.read_u32 (Machine.memory m) 0x04000010)

let test_call_program () =
  let m =
    run_asm
      {|
      main:
        add zero, #5, r1
        jal double
        add r1, #1, r1      ; 11
        halt
      double:
        add r1, r1, r1
        jr ra
      |}
  in
  check int_ "call/return" 11 (reg m 1)

let test_stack_program () =
  let m =
    run_asm
      {|
      main:
        add zero, #3, r1
        lda sp, -8(sp)
        stq r1, 0(sp)
        add zero, #0, r1
        ldq r1, 0(sp)
        lda sp, 8(sp)
        halt
      |}
  in
  check int_ "stack save/restore" 3 (reg m 1)

let test_jalr_dispatch () =
  (* An indirect call through a function-pointer table in memory. *)
  let m =
    run_asm
      {|
      main:
        lui #1024, r1
        lui #16, r3          ; 0x00100000 code base
        lda r3, 0x24(r3)     ; absolute address of double (10th insn)
        stq r3, 0(r1)        ; plant the function pointer
        ldq r4, 0(r1)
        add zero, #5, r5
        jalr r4, r6          ; indirect call, link in r6
        add r5, #1, r5       ; 11
        halt
      double:
        add r5, r5, r5
        jr r6
      |}
  in
  check int_ "indirect call worked" 11 (reg m 5)

let test_djmp_semantics () =
  (* A Djmp in a replacement sequence transfers DISEPC unconditionally;
     skipped instructions never execute. *)
  let expander : Machine.expander =
   fun ~pc:_ insn ->
    match insn with
    | Insn.Mem (Opcode.Stq, _, _, _) ->
      Some
        (Machine.expansion ~rsid:1
           [| Insn.Djmp 2; Insn.Ropi (Opcode.Add, Reg.zero, 9, Reg.r 9);
              insn |])
    | _ -> None
  in
  let img =
    Program.layout (Asm.parse "main:\n lui #1024, r1\n stq r1, 0(r1)\n halt\n")
  in
  let m = Machine.create ~expander img in
  ignore (Machine.run_raw m ignore);
  check int_ "djmp skipped the poison" 0 (reg m 9);
  check bool_ "store still ran" true
    (Memory.read_u32 (Machine.memory m) 0x04000000 <> 0)

let test_exit_code () =
  let m = run_asm "main:\n add zero, #42, r2\n halt\n" in
  check int_ "exit code from r2" 42 (Machine.exit_code m)

let test_pc_escape () =
  let img = Program.layout (Asm.parse "main:\n nop\n") in
  let m = Machine.create img in
  match Machine.run_raw m ignore with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "running off the text should be an error"

let test_max_steps () =
  let img = Program.layout (Asm.parse "main:\n jmp main\n") in
  let m = Machine.create img in
  match Machine.run_raw ~max_steps:1000 m ignore with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "infinite loop should exceed max_steps"

let test_max_steps_exact () =
  (* The bound is exact: a still-running machine stops having executed
     max_steps instructions, never max_steps + 1. *)
  let img = Program.layout (Asm.parse "main:\n jmp main\n") in
  let m = Machine.create img in
  (match Machine.run_raw ~max_steps:1000 m ignore with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected Runtime_error");
  check int_ "stopped at exactly max_steps" 1000 (Machine.executed m);
  (* A program whose halting instruction is exactly the max_steps-th
     completes normally. *)
  let img2 =
    Program.layout (Asm.parse "main:\n nop\n nop\n add zero, #7, r2\n halt\n")
  in
  let m2 = Machine.create img2 in
  check int_ "4-insn program under max_steps=4" 4 (Machine.run_raw ~max_steps:4 m2 ignore);
  check int_ "completed with its exit code" 7 (Machine.exit_code m2)

(* --- DISE expansion semantics --------------------------------------- *)

(* A hand-rolled expander (no engine yet): expands every store into
   [check-ish; store] like fault isolation would, using a dedicated
   register as scratch. *)
let expanding_stores ~seq_of : Machine.expander =
 fun ~pc:_ insn ->
  match insn with
  | Insn.Mem (Opcode.Stq, _, _, _) -> Some (Machine.expansion ~rsid:1 (seq_of insn))
  | _ -> None

let test_expansion_basic () =
  let seq_of insn =
    [| Insn.Ropi (Opcode.Add, Reg.d 0, 1, Reg.d 0); insn |]
  in
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1
           add zero, #7, r2
           stq r2, 0(r1)
           stq r2, 4(r1)
           halt
         |})
  in
  let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
  ignore (Machine.run_raw m ignore);
  check int_ "two expansions" 2 (Machine.expansions m);
  check int_ "dedicated counter incremented per store" 2
    (Regfile.get (Machine.regs m) (Reg.d 0));
  check int_ "stores still executed" 7
    (Memory.read_u32 (Machine.memory m) 0x04000004);
  (* 5 app instructions, plus one extra instruction per store. *)
  check int_ "executed counts replacements" 7 (Machine.executed m);
  check int_ "app fetches" 5 (Machine.app_fetched m)

let test_replacement_branch_aborts_sequence () =
  (* Replacement: bne $dr1, error; <poison>; T.INSN — when $dr1 is
     non-zero the rest of the sequence (poison and the store) must be
     squashed, like the paper's fault-isolation check. *)
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1
           add zero, #7, r2
           stq r2, 0(r1)
           add zero, #1, r3   ; should be skipped when check fails
           halt
         error:
           add zero, #99, r4
           halt
         |})
  in
  let error_addr =
    match Program.Image.symbol img "error" with Some a -> a | None -> 0
  in
  let seq_of insn =
    [|
      Insn.Br (Opcode.Bne, Reg.d 1, Insn.Abs error_addr);
      Insn.Ropi (Opcode.Add, Reg.zero, 1, Reg.d 3);
      insn;
    |]
  in
  let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
  Machine.set_dise_reg m 1 1;
  ignore (Machine.run_raw m ignore);
  check int_ "error handler ran" 99 (reg m 4);
  check int_ "store squashed" 0 (Memory.read_u32 (Machine.memory m) 0x04000000);
  check int_ "post-branch replacement squashed" 0
    (Regfile.get (Machine.regs m) (Reg.d 3));
  check int_ "fall-through app insn never ran" 0 (reg m 3)

let test_replacement_branch_falls_through () =
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1
           add zero, #7, r2
           stq r2, 0(r1)
           halt
         error:
           add zero, #99, r4
           halt
         |})
  in
  let error_addr =
    match Program.Image.symbol img "error" with Some a -> a | None -> 0
  in
  let seq_of insn =
    [| Insn.Br (Opcode.Bne, Reg.d 1, Insn.Abs error_addr); insn |]
  in
  let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
  (* $dr1 = 0: check passes, store proceeds. *)
  ignore (Machine.run_raw m ignore);
  check int_ "no error" 0 (reg m 4);
  check int_ "store performed" 7
    (Memory.read_u32 (Machine.memory m) 0x04000000)

let test_dise_internal_branch () =
  (* DISEPC-only control: a Dbr skipping over a poison instruction
     within the sequence. *)
  let seq_of insn =
    [|
      Insn.Dbr (Opcode.Beq, Reg.zero, 2);          (* always taken -> offset 2 *)
      Insn.Ropi (Opcode.Add, Reg.zero, 77, Reg.r 9);  (* skipped *)
      insn;
    |]
  in
  let img =
    Program.layout
      (Asm.parse
         "main:\n lui #1024, r1\n add zero, #7, r2\n stq r2, 0(r1)\n halt\n")
  in
  let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
  ignore (Machine.run_raw m ignore);
  check int_ "skipped instruction did not run" 0 (reg m 9);
  check int_ "store ran" 7 (Memory.read_u32 (Machine.memory m) 0x04000000)

let test_dise_branch_to_end_completes () =
  let seq_of insn =
    ignore insn;
    [| Insn.Dbr (Opcode.Beq, Reg.zero, 2); Insn.Ropi (Opcode.Add, Reg.zero, 1, Reg.r 9) |]
  in
  let img =
    Program.layout
      (Asm.parse "main:\n lui #1024, r1\n stq r1, 0(r1)\n add zero, #5, r8\n halt\n")
  in
  let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
  ignore (Machine.run_raw m ignore);
  check int_ "sequence end falls through to next app insn" 5 (reg m 8);
  check int_ "store replaced by nothing (deleted)" 0
    (Memory.read_u32 (Machine.memory m) 0x04000000)

let test_event_stream () =
  let seq_of insn = [| Insn.Nop; insn |] in
  let img =
    Program.layout
      (Asm.parse "main:\n lui #1024, r1\n stq r1, 0(r1)\n halt\n")
  in
  let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
  let events = ref [] in
  (* The record is overwritten by every step: keep copies. *)
  ignore
    (Machine.run_raw m (fun r ->
         events := { r with Machine.Raw.pc = r.Machine.Raw.pc } :: !events));
  let events = List.rev !events in
  check int_ "four events" 4 (List.length events);
  (match events with
  | [ e1; e2; e3; e4 ] ->
    let open Machine.Raw in
    check bool_ "e1 app" true (e1.rsid = -1);
    check bool_ "e1 fetches" true e1.fetched_new_pc;
    check bool_ "e2 is replacement offset 0" true
      (e2.rsid = 1 && e2.offset = 0 && e2.len = 2);
    check bool_ "e2 starts expansion" true e2.expansion_start;
    check bool_ "e2 fetches (trigger)" true e2.fetched_new_pc;
    check bool_ "e3 is replacement offset 1" true (e3.rsid >= 0 && e3.offset = 1);
    check bool_ "e3 does not fetch" false e3.fetched_new_pc;
    check bool_ "e3 has a memory address" true (e3.mem_addr <> no_mem);
    check bool_ "same pc for both replacement events" true (e2.pc = e3.pc);
    check bool_ "e4 is the halt" true (Machine.Raw.insn e4 = Insn.Halt)
  | _ -> Alcotest.fail "expected exactly four events");
  ()

let test_precise_interrupt_resume () =
  (* Interrupt in the middle of a replacement sequence, then resume at
     the saved PC:DISEPC: the final state must match an uninterrupted
     run — the paper's precise-state contract. *)
  let src =
    "main:\n lui #1024, r1\n add zero, #7, r2\n stq r2, 0(r1)\n\
    \ add zero, #3, r6\n halt\n"
  in
  let seq_of insn =
    [|
      Insn.Ropi (Opcode.Add, Reg.d 0, 10, Reg.d 0);
      Insn.Ropi (Opcode.Add, Reg.d 0, 100, Reg.d 0);
      insn;
    |]
  in
  let img = Program.layout (Asm.parse src) in
  let run ~interrupt_at =
    let m = Machine.create ~expander:(expanding_stores ~seq_of) img in
    let count = ref 0 in
    let rec go () =
      if Machine.step m then begin
        incr count;
        if !count = interrupt_at then begin
          (* take the interrupt; "handler" runs elsewhere; return *)
          let pc, disepc = Machine.interrupt m in
          check bool_ "interrupted inside a sequence" true (disepc > 0);
          Machine.resume m ~pc ~disepc
        end;
        go ()
      end
    in
    go ();
    m
  in
  (* Event 3 is the first replacement instruction; interrupting after
     it leaves DISEPC = 1. *)
  let interrupted = run ~interrupt_at:3 in
  let plain = Machine.create ~expander:(expanding_stores ~seq_of) img in
  ignore (Machine.run_raw plain ignore);
  check bool_ "same architectural state" true
    (Regfile.arch_equal (Machine.regs interrupted) (Machine.regs plain));
  check int_ "same dedicated accumulation" 110
    (Regfile.get (Machine.regs interrupted) (Reg.d 0));
  check int_ "store happened exactly once" 7
    (Memory.read_u32 (Machine.memory interrupted) 0x04000000);
  check int_ "clean completion" 3
    (Regfile.get (Machine.regs interrupted) (Reg.r 6))

let test_codeword_without_production_errors () =
  let img =
    Program.layout
      [ Program.Label "main";
        Program.Ins (Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:5);
        Program.Ins Insn.Halt ]
  in
  let m = Machine.create img in
  match Machine.run_raw m ignore with
  | exception Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unexpanded codeword should be a runtime error"

(* --- superblock JIT -------------------------------------------------- *)

module Engine = Dise_core.Engine

let mfi_set src =
  Dise_core.Prodset.resolve_labels
    (fun _ -> Some 0x9000)
    (Dise_core.Lang.parse src)

(* Store-checking productions in the style of the paper's memory fault
   isolation: an ACF prefix that computes 0 and never branches, so the
   run is transparent and every store expands. *)
let check_stores_set =
  mfi_set
    {|
    P1: T.OPCLASS == store -> R1
    R1: srl T.RS, #26, $dr1
        xor $dr1, $dr1, $dr1
        bne $dr1, __error
        T.INSN
    |}

let count_stores_set =
  mfi_set {|
    P1: T.OPCLASS == store -> R1
    R1: add $dr2, #1, $dr2
        T.INSN
    |}

(* A hot loop with stores and loads: the body compiles into one
   superblock (per expansion generation) that is re-entered every
   iteration. *)
let jit_image () =
  Program.layout
    (Asm.parse
       {|
       main:
         lui #1024, r1
         add zero, #12, r3
       loop:
         add r3, r3, r4
         xor r4, #5, r4
         stq r4, 0(r1)
         ldq r5, 0(r1)
         add r5, r6, r6
         add r1, #4, r1
         add r3, #-1, r3
         bgt r3, loop
         halt
       |})

let engine_machine ?jit_threshold prodset img =
  let eng = Engine.create ~image:img prodset in
  let m = Machine.create ~expander:(Engine.expander eng) img in
  (match jit_threshold with
  | Some threshold -> Engine.attach_jit ~threshold eng m
  | None -> ());
  (m, eng)

let same_arch_state label a b =
  check bool_ (label ^ ": same registers") true
    (Regfile.arch_equal (Machine.regs a) (Machine.regs b));
  check int_ (label ^ ": same memory")
    (Memory.checksum (Machine.memory a))
    (Memory.checksum (Machine.memory b));
  check int_ (label ^ ": same executed") (Machine.executed a)
    (Machine.executed b);
  check int_ (label ^ ": same fetches") (Machine.app_fetched a)
    (Machine.app_fetched b);
  check int_ (label ^ ": same expansions") (Machine.expansions a)
    (Machine.expansions b);
  check int_ (label ^ ": same exit") (Machine.exit_code a)
    (Machine.exit_code b)

let test_jit_run_equivalence () =
  let img = jit_image () in
  let interp, _ = engine_machine check_stores_set img in
  let jit, _ = engine_machine ~jit_threshold:2 check_stores_set img in
  ignore (Machine.run_raw interp ignore);
  ignore (Machine.run_raw jit ignore);
  same_arch_state "run" interp jit;
  check bool_ "traces compiled" true (Machine.jit_compiles jit > 0);
  check bool_ "traces reused" true (Machine.jit_hits jit > 0)

let test_jit_step_equivalence () =
  let img = jit_image () in
  let interp, _ = engine_machine check_stores_set img in
  let jit, _ = engine_machine ~jit_threshold:1 check_stores_set img in
  let rec go n =
    match (Machine.step interp, Machine.step jit) with
    | false, false -> n
    | true, true ->
      let open Machine.Raw in
      let a = Machine.raw interp and b = Machine.raw jit in
      check int_ (Printf.sprintf "event %d: pc" n) a.pc b.pc;
      check bool_ (Printf.sprintf "event %d: insn" n) true
        (Insn.equal (Machine.Raw.insn a) (Machine.Raw.insn b));
      check bool_ (Printf.sprintf "event %d: origin" n) true
        (a.rsid = b.rsid && a.offset = b.offset && a.len = b.len);
      check bool_ (Printf.sprintf "event %d: flags" n) true
        (a.expansion_start = b.expansion_start
        && a.mem_addr = b.mem_addr && a.branch = b.branch
        && (a.branch < 0 || a.target = b.target)
        && a.fetched_new_pc = b.fetched_new_pc);
      go (n + 1)
    | true, false -> Alcotest.failf "jit halted first at event %d" n
    | false, true -> Alcotest.failf "interpreter halted first at event %d" n
  in
  let n = go 0 in
  check bool_ "stream covers the loop" true (n > 50);
  same_arch_state "step" interp jit

(* The step ceiling holds inside compiled blocks too: for every
   budget the JIT must trap (or complete) on exactly the step the
   interpreter does. *)
let test_jit_max_steps_parity () =
  let img = jit_image () in
  let outcome m ~max_steps =
    match Machine.run_raw ~max_steps m ignore with
    | n -> Ok n
    | exception Machine.Runtime_error _ -> Error (Machine.executed m)
  in
  List.iter
    (fun budget ->
      let interp, _ = engine_machine check_stores_set img in
      let jit, _ = engine_machine ~jit_threshold:1 check_stores_set img in
      let a = outcome interp ~max_steps:budget in
      let b = outcome jit ~max_steps:budget in
      match (a, b) with
      | Ok n, Ok n' when n = n' -> ()
      | Error n, Error n' when n = n' -> ()
      | _ ->
        Alcotest.failf "budget %d: interpreter %s but jit %s" budget
          (match a with
          | Ok n -> Printf.sprintf "finished at %d" n
          | Error n -> Printf.sprintf "trapped at %d" n)
          (match b with
          | Ok n -> Printf.sprintf "finished at %d" n
          | Error n -> Printf.sprintf "trapped at %d" n))
    [ 1; 7; 30; 31; 32; 33; 61; 100; 1000 ]

(* An RT/PT write (Engine.invalidate) while the machine is mid-trace:
   the bump is observed at the next application-instruction boundary,
   compiled traces are retired, and the re-compiled stream must agree
   with the interpreter. *)
let test_jit_invalidate_mid_trace () =
  let img = jit_image () in
  let interp, _ = engine_machine check_stores_set img in
  let jit, eng = engine_machine ~jit_threshold:1 check_stores_set img in
  for _ = 1 to 15 do
    ignore (Machine.step jit)
  done;
  Engine.invalidate eng;
  let rec drain m = if Machine.step m then drain m in
  drain jit;
  ignore (Machine.run_raw interp ignore);
  same_arch_state "invalidate" interp jit;
  check bool_ "superblocks retired" true (Machine.jit_invalidations jit > 0);
  check bool_ "traces recompiled" true (Machine.jit_compiles jit > 1)

(* Swapping the production set between two runs over the same engine:
   the second machine must execute the new expansions, never a trace
   compiled under the old set. (Retiring traces mid-run is covered by
   "jit invalidate mid-trace".) *)
let test_jit_prodset_swap_between_runs () =
  let img = jit_image () in
  let m1, eng = engine_machine ~jit_threshold:1 check_stores_set img in
  ignore (Machine.run_raw m1 ignore);
  check bool_ "warm state compiled" true (Machine.jit_compiles m1 > 0);
  Engine.set_prodset eng count_stores_set;
  let m2 = Machine.create ~expander:(Engine.expander eng) img in
  Engine.attach_jit ~threshold:1 eng m2;
  ignore (Machine.run_raw m2 ignore);
  let ref_m, _ = engine_machine count_stores_set img in
  ignore (Machine.run_raw ref_m ignore);
  same_arch_state "swap" ref_m m2;
  check int_ "new productions executed: one count per store" 12
    (Regfile.get (Machine.regs m2) (Reg.d 2))

let suite =
  [
    ("memory read/write", `Quick, test_memory_rw);
    ("memory alignment", `Quick, test_memory_alignment);
    ("memory sparse", `Quick, test_memory_sparse);
    ("memory checksum", `Quick, test_memory_checksum);
    ("regfile", `Quick, test_regfile);
    ("arith program", `Quick, test_arith_program);
    ("loop program", `Quick, test_loop_program);
    ("memory program", `Quick, test_memory_program);
    ("call program", `Quick, test_call_program);
    ("stack program", `Quick, test_stack_program);
    ("jalr dispatch", `Quick, test_jalr_dispatch);
    ("djmp semantics", `Quick, test_djmp_semantics);
    ("exit code", `Quick, test_exit_code);
    ("pc escape detected", `Quick, test_pc_escape);
    ("max steps", `Quick, test_max_steps);
    ("max steps exact bound", `Quick, test_max_steps_exact);
    ("expansion basic", `Quick, test_expansion_basic);
    ("replacement branch aborts sequence", `Quick,
     test_replacement_branch_aborts_sequence);
    ("replacement branch falls through", `Quick,
     test_replacement_branch_falls_through);
    ("dise internal branch", `Quick, test_dise_internal_branch);
    ("dise branch to end completes", `Quick, test_dise_branch_to_end_completes);
    ("event stream", `Quick, test_event_stream);
    ("precise interrupt/resume", `Quick, test_precise_interrupt_resume);
    ("codeword without production", `Quick,
     test_codeword_without_production_errors);
    ("jit run equivalence", `Quick, test_jit_run_equivalence);
    ("jit step equivalence", `Quick, test_jit_step_equivalence);
    ("jit max-steps parity", `Quick, test_jit_max_steps_parity);
    ("jit invalidate mid-trace", `Quick, test_jit_invalidate_mid_trace);
    ("jit prodset swap between runs", `Quick,
     test_jit_prodset_swap_between_runs);
  ]
