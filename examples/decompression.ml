(* Dynamic code decompression (Figure 4): compress a program with the
   parameterized DISE scheme, inspect a dictionary entry and its
   codewords, and verify the decompressed execution matches.

   Run with: dune exec examples/decompression.exe *)

open Dise_isa
module Machine = Dise_machine.Machine
module Compress = Dise_acf.Compress
module W = Dise_workload
module R = Dise_core.Replacement

let () =
  let entry = W.Suite.get ~dyn_target:80_000 (Option.get (W.Profile.find "parser")) in
  let prog = entry.W.Suite.gen.W.Codegen.program in
  let r = Compress.compress ~scheme:Compress.full_dise prog in
  Format.printf "parser-like workload: %d instructions (%d bytes of text)@."
    (Program.size prog) r.Compress.orig_text_bytes;
  Format.printf "compressed text: %d bytes (%.1f%%), dictionary %d bytes, %d codewords@."
    r.Compress.text_bytes
    (100. *. Compress.compression_ratio r)
    r.Compress.dict_bytes r.Compress.codewords;

  (* Show the most-used parameterized dictionary entry. *)
  let best =
    List.fold_left
      (fun acc e ->
        match acc with
        | Some b when b.Compress.uses >= e.Compress.uses -> acc
        | _ -> if e.Compress.param_fields > 0 then Some e else acc)
      None r.Compress.entries
  in
  (match best with
  | Some e ->
    Format.printf "@.hottest parameterized entry (tag %d, %d codewords):@."
      e.Compress.tag e.Compress.uses;
    Array.iter
      (fun ri -> Format.printf "    %a@." R.pp_rinsn ri)
      e.Compress.spec;
    (* Find a codeword instance of it in the compressed image. *)
    let shown = ref false in
    Program.Image.iter
      (fun ~addr insn ->
        match insn with
        | Insn.Codeword { tag; _ } when tag = e.Compress.tag && not !shown ->
          shown := true;
          Format.printf "  a codeword for it:    %08x:  %s@." addr
            (Insn.to_string insn)
        | _ -> ())
      r.Compress.image
  | None -> Format.printf "(no parameterized entries chosen)@.");

  (* Prove losslessness: run both versions, compare data effects. *)
  let data_digest m =
    Dise_machine.Memory.checksum_range (Machine.memory m) ~lo:0x04000000
      ~hi:0x07F00000
  in
  let m0 = Machine.create entry.W.Suite.image in
  ignore (Machine.run_raw ~max_steps:5_000_000 m0 ignore);
  let engine = Dise_core.Engine.create r.Compress.prodset in
  let m1 =
    Machine.create ~expander:(Dise_core.Engine.expander engine) r.Compress.image
  in
  ignore (Machine.run_raw ~max_steps:5_000_000 m1 ignore);
  Format.printf "@.original:     exit %d, data digest %08x@."
    (Machine.exit_code m0) (data_digest m0 land 0xFFFFFFFF);
  Format.printf "decompressed: exit %d, data digest %08x  -> %s@."
    (Machine.exit_code m1)
    (data_digest m1 land 0xFFFFFFFF)
    (if data_digest m0 = data_digest m1 && Machine.exit_code m0 = Machine.exit_code m1
     then "identical" else "MISMATCH");
  Format.printf "expansions at runtime: %d@." (Machine.expansions m1)
