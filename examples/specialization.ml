(* Dynamic code specialization via DISE (Section 3.2).

   A loop multiplies by a loop-invariant operand known only at run
   time. The multiply site is a DISE codeword; just before the loop is
   entered, the runtime examines the operand and installs the matching
   replacement sequence:

   - power of two            -> a single shift
   - sum of two powers of two -> two shifts and an add (the case the
     paper highlights: a software specializer would have to grow the
     code, retarget branches, and scavenge a register — with DISE it is
     exactly as easy as the first case)
   - anything else            -> the generic multiply

   The codeword carries the source and destination registers as
   parameters, so one dictionary entry serves any register assignment.

   Run with: dune exec examples/specialization.exe *)

open Dise_isa
module Machine = Dise_machine.Machine
module Core = Dise_core
module Config = Dise_uarch.Config
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats

let r = Reg.r

(* cw1 p1=src, p2=dst, tag 0: "dst := src * y" for the runtime y. *)
let program =
  [
    Program.Label "main";
    Program.Ins (Insn.Lui (1024, r 1));
    Program.Ins (Insn.Mem (Opcode.Ldq, r 1, 0, r 9));  (* y, seeded by host *)
    Program.Label "loop_setup";                         (* specialization point *)
    Program.Ins (Insn.Ropi (Opcode.Add, Reg.zero, 20_000, r 4));
    Program.Ins (Insn.Ropi (Opcode.Add, Reg.zero, 0, r 5));
    Program.Ins (Insn.Ropi (Opcode.Add, Reg.zero, 1, r 2));
    Program.Label "loop";
    (* The multiply is loop-carried (x := x*y + 1), so its latency sits
       on the critical path and the specialization is visible. *)
    Program.Ins (Insn.codeword ~op:1 ~p1:2 ~p2:3 ~p3:0 ~tag:0); (* r3 := r2*y *)
    Program.Ins (Insn.Ropi (Opcode.Add, r 3, 1, r 2));
    Program.Ins (Insn.Rop (Opcode.Xor, r 5, r 3, r 5)); (* digest *)
    Program.Ins (Insn.Ropi (Opcode.Add, r 4, -1, r 4));
    Program.Ins (Insn.Br (Opcode.Bgt, r 4, Insn.Lab "loop"));
    Program.Ins (Insn.Ropi (Opcode.Add, r 5, 0, r 2));
    Program.Ins Insn.Halt;
  ]

let log2_exact v =
  let rec go k = if 1 lsl k = v then Some k else if 1 lsl k > v then None else go (k + 1) in
  if v <= 0 then None else go 0

let two_powers v =
  let rec split j =
    if 1 lsl j >= v then None
    else
      match log2_exact (v - (1 lsl j)) with
      | Some k -> Some (j, k)
      | None -> split (j + 1)
  in
  split 0

(* The "static component": define the replacement for the observed y. *)
let specialize y =
  let open Core.Replacement in
  let src = Rparam 1 and dst = Rparam 2 in
  let scratch = Rlit (Reg.d 4) and scratch2 = Rlit (Reg.d 5) in
  let seq, kind =
    match log2_exact y with
    | Some k -> ([| Insn (Insn.Ropi (Opcode.Sll, src, Ilit k, dst)) |],
                 Printf.sprintf "single shift (y = 2^%d)" k)
    | None -> (
      match two_powers y with
      | Some (j, k) ->
        ([|
           Insn (Insn.Ropi (Opcode.Sll, src, Ilit j, scratch));
           Insn (Insn.Ropi (Opcode.Sll, src, Ilit k, scratch2));
           Insn (Insn.Rop (Opcode.Add, scratch, scratch2, dst));
         |],
         Printf.sprintf "two shifts and an add (y = 2^%d + 2^%d)" j k)
      | None ->
        ([|
           Insn (Insn.Ropi (Opcode.Add, Rlit Reg.zero, Ilit y, scratch));
           Insn (Insn.Rop (Opcode.Mul, src, scratch, dst));
         |],
         "generic multiply (no specialization)"))
  in
  let set =
    Core.Prodset.add_production
      (Core.Prodset.define_sequence Core.Prodset.empty 0 seq)
      (Core.Production.make ~name:"specialized" (Core.Pattern.codewords 1)
         Core.Production.From_tag)
  in
  (set, kind)

let run y =
  let img = Program.layout program in
  (* A mutable production set behind the expander: empty until the
     specialization point is reached. *)
  let engine = ref (Core.Engine.create ~image:img Core.Prodset.empty) in
  let expander ~pc insn = Core.Engine.expand !engine ~pc insn in
  let m = Machine.create ~expander img in
  Dise_machine.Memory.write_u32 (Machine.memory m) 0x04000000 y;
  let setup_pc = Option.get (Program.Image.symbol img "loop_setup") in
  let pipeline = Pipeline.create Config.default in
  let kind = ref "" in
  ignore
    (Machine.run_raw ~max_steps:2_000_000 m (fun raw ->
         Pipeline.consume_raw pipeline raw;
         (* The moment the operand load has executed, specialize. *)
         if raw.Machine.Raw.pc + 4 = setup_pc && !kind = "" then begin
           let observed =
             Dise_machine.Regfile.get (Machine.regs m) (r 9)
           in
           let set, k = specialize observed in
           engine := Core.Engine.create ~image:img set;
           kind := k
         end));
  let stats = Pipeline.finish pipeline in
  (Machine.exit_code m, stats, !kind)

let () =
  let reference y =
    (* x := x*y + 1 chained 20000 times, digesting each product *)
    let x = ref 1 and acc = ref 0 in
    for _ = 1 to 20_000 do
      let p = Opcode.signed32 (!x * y) in
      acc := Opcode.signed32 (!acc lxor p);
      x := Opcode.signed32 (p + 1)
    done;
    !acc
  in
  List.iter
    (fun y ->
      let result, stats, kind = run y in
      Format.printf "y = %-4d -> %-42s %8d cycles  result %s@." y kind
        stats.Stats.cycles
        (if result = reference y then "correct" else "WRONG");
      ignore stats)
    [ 8; 96; 2; 10; 7; 1536 ]
