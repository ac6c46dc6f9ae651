(* Serve a JSONL stream through a real worker tier, as [disesim serve]
   does over stdin/stdout. The workers are re-executions of this test
   binary, dispatched by the Coordinator.worker_child_main hook at the
   top of test_main.ml. One newline-terminated line per element;
   returns the tier summary and the parsed responses. *)
let serve ?cfg ?stop ?manifest ?on_spawn ?chaos ?cache_dir lines =
  let summary, out =
    Dise_fuzz.Faults.serve_raw ?cfg ?stop ?manifest ?on_spawn ?chaos ?cache_dir
      (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  in
  (summary, List.map Dise_telemetry.Json.parse out)
