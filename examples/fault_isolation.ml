(* Memory fault isolation on a realistic workload: compare the DISE3,
   DISE4, and binary-rewriting implementations functionally and through
   the timing model (a miniature Figure 6).

   Run with: dune exec examples/fault_isolation.exe *)

module Machine = Dise_machine.Machine
module Config = Dise_uarch.Config
module Stats = Dise_uarch.Stats
module W = Dise_workload
module Request = Dise_service.Request
module Mfi = Dise_acf.Mfi

let () =
  let entry = W.Suite.get ~dyn_target:150_000 (Option.get (W.Profile.find "gzip")) in
  Format.printf "workload: gzip-like, %d static instructions (%d hot)@."
    entry.W.Suite.gen.W.Codegen.total_insns entry.W.Suite.gen.W.Codegen.hot_insns;

  let run acf =
    Request.run ~entry (Request.v ~dyn_target:150_000 ~acf "gzip")
  in
  let base = run Request.Baseline in
  Format.printf "baseline:        %8d cycles (IPC %.2f)@." base.Stats.cycles
    (Stats.ipc base);

  let show name stats =
    Format.printf "%-16s %8d cycles  (%.3fx, +%d checked ops, %d extra insns)@."
      name stats.Stats.cycles
      (Request.relative stats ~baseline:base)
      stats.Stats.expansions stats.Stats.rep_instrs
  in
  show "DISE3:" (run (Request.Mfi_dise Mfi.Dise3));
  show "DISE4:" (run (Request.Mfi_dise Mfi.Dise4));
  show "rewriting:" (run (Request.Mfi_rewrite Dise_acf.Rewrite.Segment_matching));

  (* The protection is real: corrupt a pointer and watch it trap. *)
  let img = entry.W.Suite.image in
  let set = Mfi.productions_for img in
  let engine = Dise_core.Engine.create ~image:img set in
  let m = Machine.create ~expander:(Dise_core.Engine.expander engine) img in
  (* Install a WRONG segment id so every access faults immediately. *)
  Mfi.install m ~data_seg:3 ~code_seg:0;
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  Format.printf "@.with a corrupted segment register, exit code = %d (77 = fault)@."
    (Machine.exit_code m)
