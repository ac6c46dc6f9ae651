(* Test runner: one alcotest suite per library area. *)

(* Re-exec dispatch: serve-tier workers re-execute this binary, so
   the hook must run before anything else — a worker never enters
   alcotest. *)
let () = Dise_service.Coordinator.worker_child_main ()

let () =
  Alcotest.run "dise"
    [
      ("isa", Test_isa.suite);
      ("machine", Test_machine.suite);
      ("core", Test_core_dise.suite);
      ("uarch", Test_uarch.suite);
      ("workload", Test_workload.suite);
      ("acf", Test_acf.suite);
      ("harness", Test_harness.suite);
      ("os", Test_os.suite);
      ("props", Test_props.suite);
      ("telemetry", Test_telemetry.suite);
      ("metrics", Test_metrics.suite);
      ("service", Test_service.suite);
      ("synthesize", Test_synthesize.suite);
      ("resilience", Test_resilience.suite);
      ("coordinator", Test_coordinator.suite);
      ("fuzz", Test_fuzz.suite);
    ]
