(* Branch profiling as a transparent ACF: productions on conditional
   branches record T.PC into a buffer; an offline pass aggregates the
   records into an execution profile — the structure of the paper's
   "bit tracing" path profiler at branch granularity.

   Run with: dune exec examples/profiling.exe *)

open Dise_isa
module Machine = Dise_machine.Machine
module W = Dise_workload
module A = Dise_acf

let () =
  let entry = W.Suite.get ~dyn_target:80_000 (Option.get (W.Profile.find "twolf")) in
  let img = entry.W.Suite.image in
  let set = A.Profiling.productions () in
  let engine = Dise_core.Engine.create ~image:img set in
  let m = Machine.create ~expander:(Dise_core.Engine.expander engine) img in
  let buffer = 0x06000000 in
  A.Profiling.install m ~buffer;
  ignore (Machine.run_raw ~max_steps:10_000_000 m ignore);
  Format.printf "twolf-like workload profiled: exit %d, %d dynamic instructions@."
    (Machine.exit_code m) (Machine.executed m);
  let counts = A.Profiling.counts m ~buffer in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  Format.printf "%d static branches executed %d times@." (List.length counts) total;
  Format.printf "@.hottest branches:@.";
  List.iter
    (fun (pc, n) ->
      Format.printf "  %08x  %7d  (%4.1f%%)  %s@." pc n
        (100. *. float_of_int n /. float_of_int total)
        (Disasm.insn_at img pc))
    (A.Profiling.hottest m ~buffer ~n:8);
  (* Profiling is an observation-only ACF: the run's architectural
     effect is unchanged. *)
  let m0 = Machine.create img in
  ignore (Machine.run_raw ~max_steps:10_000_000 m0 ignore);
  let digest mm =
    Dise_machine.Memory.checksum_range (Machine.memory mm) ~lo:0x04000000
      ~hi:0x05F00000
  in
  Format.printf "@.application data unchanged by profiling: %b@."
    (digest m0 = digest m)
