(* Fine-grain distributed shared memory via DISE (Section 3.1).

   Shasta-style software DSM instruments every memory operation with a
   state-table check; DISE inlines the check at decode, making the
   machine look like hardware-supported fine-grain DSM. This example
   shares a buffer between a "local" program and a host-side stand-in
   for the remote node: the program streams through the buffer; when it
   reaches a block the protocol has invalidated, the check fires and the
   handler runs before the access — at 64-byte granularity, far finer
   than a page.

   Run with: dune exec examples/dsm.exe *)

open Dise_isa
module Machine = Dise_machine.Machine
module A = Dise_acf

let data_base = 0x04000000
let shadow_base = 0x06000000

let program =
  Asm.parse
    {|
    main:
      lui #1024, r1        ; shared buffer base
      add zero, #64, r4    ; 64 words = 4 blocks of 64 bytes
    loop:
      ldq r3, 0(r1)        ; checked load
      add r3, #1, r3
      stq r3, 0(r1)        ; checked store
      lda r1, 4(r1)
      add r4, #-1, r4
      bgt r4, loop
      add zero, #0, r2
      halt
    __error:
      add zero, #77, r2    ; "DSM miss handler"
      halt
    |}

let run ~absent_block =
  let img = Program.layout program in
  let set = A.Dsm.productions_for img in
  let engine = Dise_core.Engine.create set in
  let m = Machine.create ~expander:(Dise_core.Engine.expander engine) img in
  A.Dsm.install m ~shadow_base ~data_base;
  (* The "coherence protocol": all four blocks present, then one pulled
     back by the remote node. *)
  A.Dsm.mark_present m ~shadow_base ~data_base ~addr:data_base ~len:256;
  (match absent_block with
  | Some b ->
    A.Dsm.mark_absent m ~shadow_base ~data_base
      ~addr:(data_base + (b * A.Dsm.block_bytes))
      ~len:A.Dsm.block_bytes
  | None -> ());
  ignore (Machine.run_raw ~max_steps:100_000 m ignore);
  m

let () =
  let ok = run ~absent_block:None in
  Format.printf "all blocks present:   exit %d after %d instructions (%d checks inlined)@."
    (Machine.exit_code ok) (Machine.executed ok) (Machine.expansions ok);
  List.iter
    (fun b ->
      let m = run ~absent_block:(Some b) in
      let touched =
        (* how many words were updated before the miss *)
        let mem = Machine.memory m in
        let rec count i =
          if i >= 64 then i
          else if Dise_machine.Memory.read_u32 mem (data_base + (4 * i)) = 1
          then count (i + 1)
          else i
        in
        count 0
      in
      Format.printf
        "block %d invalidated:  exit %d — miss handler fired at word %d \
         (block boundary %d)@."
        b (Machine.exit_code m) touched
        (b * A.Dsm.block_bytes / 4))
    [ 1; 3 ]
