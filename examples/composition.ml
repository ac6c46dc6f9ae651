(* ACF composition (Figure 5 and Section 3.3).

   Part 1 reproduces Figure 5: nested and non-nested composition of
   memory fault isolation with store-address tracing, shown at the
   production level.

   Part 2 composes fault isolation with decompression the way the
   paper's client/server story requires: the server ships a compressed,
   unmodified binary; the client inlines its transparent MFI
   productions into the decompression dictionary.

   Run with: dune exec examples/composition.exe *)


module Machine = Dise_machine.Machine
module Core = Dise_core
module A = Dise_acf
module W = Dise_workload

let mfi_src =
  {|
  P1: T.OPCLASS == store -> R1
  P2: T.OPCLASS == load -> R1
  R1: srl T.RS, #26, $dr1
      xor $dr1, $dr2, $dr1
      bne $dr1, __error
      T.INSN
  |}

let tracing_src =
  {|
  P3: T.OPCLASS == store -> R13
  R13: lda $dr4, #T.IMM(T.RS)
       stq $dr4, 0($dr5)
       lda $dr5, 4($dr5)
       T.INSN
  |}

let () =
  let mfi = Core.Prodset.resolve_labels (fun _ -> Some 0x9000) (Core.Lang.parse mfi_src) in
  let tracing = Core.Lang.parse tracing_src in

  Format.printf "=== Figure 5: nested composition (trace, then isolate) ===@.";
  let nested = Core.Compose.nest ~outer:mfi ~inner:tracing in
  Format.printf "%s@." (Core.Lang.to_string nested);

  Format.printf "=== Figure 5: non-nested merge (R4) ===@.";
  let r13 = Option.get (Core.Prodset.sequence tracing 13) in
  let r1 = Option.get (Core.Prodset.sequence mfi 1) in
  let merged = Core.Compose.merge_sequences r13 r1 in
  Format.printf "R4:@.%a@.@." Core.Replacement.pp merged;

  Format.printf "=== fault isolation over a compressed binary ===@.";
  let entry = W.Suite.get ~dyn_target:60_000 W.Profile.tiny in
  let r = A.Compress.compress ~scheme:A.Compress.full_dise entry.W.Suite.gen.W.Codegen.program in
  let composed = A.Acf_compose.for_compressed r in
  Format.printf "decompression entries: %d; after inlining MFI the RT working set grows %.2fx@."
    (List.length r.A.Compress.entries)
    (A.Acf_compose.rt_entry_growth ~plain:r.A.Compress.prodset ~composed);
  let engine = Core.Engine.create ~image:r.A.Compress.image composed in
  let m = Machine.create ~expander:(Core.Engine.expander engine) r.A.Compress.image in
  A.Mfi.install m ~data_seg:W.Codegen.data_segment_id
    ~code_seg:W.Codegen.code_segment_id;
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  Format.printf "composed run: exit %d, %d dynamic instructions, %d expansions@."
    (Machine.exit_code m) (Machine.executed m) (Machine.expansions m);

  (* Show one composed dictionary entry: decompression + inlined checks. *)
  let with_check =
    List.find_opt
      (fun (_, seq) ->
        Array.exists
          (function
            | Core.Replacement.Insn (Dise_isa.Insn.Br _) -> true
            | _ -> false)
          seq
        && Core.Replacement.length seq > 4)
      (Core.Prodset.sequences composed)
  in
  match with_check with
  | Some (tag, seq) ->
    Format.printf "@.composed dictionary entry R%d (decompression with inlined checks):@.%a@."
      tag Core.Replacement.pp seq
  | None -> ()
