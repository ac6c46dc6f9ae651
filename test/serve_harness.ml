(* Drive a real worker tier from the tests. The workers are
   re-executions of this test binary, dispatched by the
   Coordinator.worker_child_main hook at the top of test_main.ml. *)

module Json = Dise_telemetry.Json
module Chaos = Dise_service.Chaos
module Coordinator = Dise_service.Coordinator
module Serve_config = Dise_service.Serve_config

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Serve the raw bytes [input] (one JSONL stream; a missing final
   newline is allowed) exactly as [disesim serve] does over
   stdin/stdout, with temp files standing in for the two pipes.
   Returns the tier summary and the non-blank response lines. [cfg]
   defaults to [Serve_config.default]; the other arguments are
   [Coordinator.run]'s. *)
let serve_raw ?cfg ?stop ?manifest ?on_spawn ?chaos ?cache_dir input =
  let inp = Filename.temp_file "dise-serve-in" ".jsonl" in
  let out = Filename.temp_file "dise-serve-out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove inp with Sys_error _ -> ());
      try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      write_file inp input;
      (* close-on-exec, or every worker would inherit the stream *)
      let ifd = Unix.openfile inp [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      let ofd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0 in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            Unix.close ifd;
            Unix.close ofd)
          (fun () ->
            let cfg = match cfg with Some c -> c | None -> Serve_config.default () in
            Coordinator.run ?stop ?manifest ?on_spawn ?chaos ?cache_dir cfg
              (Coordinator.Stdio { input = ifd; output = ofd }))
      in
      ( summary,
        String.split_on_char '\n' (read_file out)
        |> List.filter (fun l -> String.trim l <> "") ))

(* One newline-terminated line per element; returns the tier summary
   and the parsed responses. *)
let serve ?cfg ?stop ?manifest ?on_spawn ?chaos ?cache_dir lines =
  let summary, out =
    serve_raw ?cfg ?stop ?manifest ?on_spawn ?chaos ?cache_dir
      (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  in
  (summary, List.map Json.parse out)

(* Each response as "ID KIND" (KIND is "ok" or the error kind), in
   emission order: one string list states a stream's whole contract. *)
let outcomes rs =
  List.map
    (fun r ->
      let id = Option.value (Json.member "id" r) ~default:Json.Null in
      let kind =
        match Option.bind (Json.member "error" r) (Json.member "kind") with
        | _ when Json.member "ok" r = Some (Json.Bool true) -> "ok"
        | Some (Json.String k) -> k
        | _ -> "?"
      in
      Json.to_string id ^ " " ^ kind)
    rs

(* A chaos hook running the schedule whose events are the JSON text
   [events]. *)
let schedule ?(seed = 0) events =
  match
    Chaos.of_json
      (Json.parse (Printf.sprintf {|{"seed": %d, "events": %s}|} seed events))
  with
  | Ok s -> Chaos.fire s
  | Error d -> failwith (Dise_isa.Diag.to_string d)
