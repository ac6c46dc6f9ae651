(* Code assertions via DISE (Section 3.1): a full-speed memory
   watchpoint. Every store is expanded with an address check; hitting
   the watched address transfers control to a handler before the store
   executes. Unlike a debugger, nothing single-steps: the checks run
   inline, interleaved with the application in the superscalar core.

   Run with: dune exec examples/watchpoint.exe *)

open Dise_isa
module Machine = Dise_machine.Machine
module Config = Dise_uarch.Config
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats
module W = Dise_workload
module A = Dise_acf

let () =
  let entry = W.Suite.get ~dyn_target:80_000 W.Profile.tiny in
  let img = entry.W.Suite.image in
  let set = A.Watchpoint.productions_for img in
  let engine = Dise_core.Engine.create set in

  (* First, find an address the program actually writes. *)
  let first_store = ref None in
  let m0 = Machine.create img in
  ignore
    (Machine.run_raw ~max_steps:5_000_000 m0 (fun r ->
         if !first_store = None && Insn.writes_memory r.Machine.Raw.insn then
           first_store := Some r.Machine.Raw.mem_addr));
  let watched = Option.value ~default:0x04000000 !first_store in

  (* Armed: the watch fires. *)
  let m = Machine.create ~expander:(Dise_core.Engine.expander engine) img in
  A.Watchpoint.install m ~addr:watched;
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  Format.printf "watch on 0x%08x: exit %d after %d instructions (77 = assertion hit)@."
    watched (Machine.exit_code m) (Machine.executed m);

  (* Disarmed: full run, and the timing model shows the cost of the
     (inactive but still expanded) checks. *)
  let run ~expanded =
    let m =
      if expanded then begin
        let engine = Dise_core.Engine.create set in
        let m = Machine.create ~expander:(Dise_core.Engine.expander engine) img in
        A.Watchpoint.disarm m;
        m
      end
      else Machine.create img
    in
    Pipeline.run Config.default m
  in
  let plain = run ~expanded:false in
  let checked = run ~expanded:true in
  Format.printf "plain run:        %8d cycles@." plain.Stats.cycles;
  Format.printf "checked run:      %8d cycles (%.3fx with every store asserted)@."
    checked.Stats.cycles
    (float_of_int checked.Stats.cycles /. float_of_int plain.Stats.cycles);
  Format.printf
    "removing the production restores the plain cost exactly: inactive@ \
     assertions have zero overhead once unloaded.@."
