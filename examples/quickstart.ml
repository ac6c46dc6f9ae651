(* Quickstart: define a production in the DSL, expand a fetched
   instruction, and run a program under the engine.

   This reproduces Figure 1 of the paper: the memory fault isolation
   production expanding a store.

   Run with: dune exec examples/quickstart.exe *)

open Dise_isa
module Machine = Dise_machine.Machine
module Core = Dise_core

let productions =
  {|
  ; memory fault isolation (Figure 1): expand loads and stores into a
  ; segment check followed by the original instruction
  P1: T.OPCLASS == store -> R1
  P2: T.OPCLASS == load -> R1
  R1: srl T.RS, #26, $dr1
      xor $dr1, $dr2, $dr1
      bne $dr1, __error
      T.INSN
  |}

let () =
  (* 1. Parse the production set. *)
  let set = Core.Lang.parse productions in
  Format.printf "Production set:@.%s@." (Core.Lang.to_string set);

  (* 2. Expand one fetched instruction, exactly as the engine would
     (binding the handler label to a placeholder address). *)
  let engine =
    Core.Engine.create
      (Core.Prodset.resolve_labels (fun _ -> Some 0x9000) set)
  in
  let store = Asm.parse_insn "stq r2, 16(r7)" in
  Format.printf "Fetch stream:       %s@." (Insn.to_string store);
  (match Core.Engine.expand engine ~pc:0x100 store with
  | Some { Machine.seq; _ } ->
    Format.printf "Execution stream:@.";
    Array.iter (fun i -> Format.printf "  %s@." (Insn.to_string i)) seq
  | None -> Format.printf "  (no expansion)@.");

  (* 3. Run a whole program under the engine: the out-of-segment store
     is caught before it executes. *)
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           lui #1024, r1      ; 0x04000000: segment 1 (legal data)
           lui #3072, r9      ; 0x0C000000: segment 3 (illegal)
           add zero, #42, r2
           stq r2, 0(r1)      ; fine
           stq r2, 0(r9)      ; trapped by the check
           halt
         __error:
           add zero, #77, r2
           halt
         |})
  in
  let set = Core.Prodset.resolve_labels (Program.Image.symbol img) set in
  let engine = Core.Engine.create ~image:img set in
  let m = Machine.create ~expander:(Core.Engine.expander engine) img in
  Machine.set_dise_reg m 2 1 (* $dr2 := legal data segment id *);
  ignore (Machine.run_raw m ignore);
  Format.printf "@.Program exit code: %d (77 = fault handler)@."
    (Machine.exit_code m);
  Format.printf "Dynamic instructions: %d (of which %d app-level)@."
    (Machine.executed m) (Machine.app_fetched m);
  Format.printf "Expansions performed: %d@." (Machine.expansions m)
