module Json = Dise_telemetry.Json
module Metrics = Dise_telemetry.Metrics
module Trajectory = Dise_telemetry.Trajectory
module Diag = Dise_isa.Diag
module Asm = Dise_isa.Asm
module Program = Dise_isa.Program
module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module Memory = Dise_machine.Memory
module Engine = Dise_core.Engine
module Lang = Dise_core.Lang
module Prodset = Dise_core.Prodset
module Rng = Dise_workload.Rng

type vector = {
  name : string;
  program : string;
  productions : string option;
  drs : (int * int) list;
  max_steps : int;
  signature : string;
}

type cell = {
  vector : string;
  backend : string;
  pass : bool;
  signature : string;
  expected : string;
  steps : int;
  expansions : int;
  wall_s : float;
  error : string option;
}

type report = {
  suite : string;
  cells : cell list;
  vectors : int;
  passed : int;
  wall_s : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  fuzz_cases : int;
  fuzz_failures : int;
}

let backends = [ "naive"; "engine-memo"; "engine-hash"; "engine-jit" ]
let default_dir = Filename.concat "test" "arch"

(* Registered once; per-run deltas give each report its own
   quantiles without resetting anyone else's view of the registry. *)
let h_run = Metrics.Histogram.make "conformance_run_ns"

let ( let* ) = Result.bind

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Diag.Cache msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

(* --- manifest ----------------------------------------------------------- *)

let manifest_file ~dir = Filename.concat dir "manifest.json"

let bad ~source msg = Error (Diag.Parse { source; line = 0; msg })

let vector_of_json ~source doc =
  let str k = match Json.member k doc with Some (Json.String s) -> Some s | _ -> None in
  let int k = match Json.member k doc with Some (Json.Int i) -> Some i | _ -> None in
  match (str "name", str "program") with
  | Some name, Some program ->
    let productions =
      match Json.member "productions" doc with
      | Some (Json.String s) -> Some s
      | _ -> None
    in
    let* drs =
      match Json.member "drs" doc with
      | None | Some (Json.List []) -> Ok []
      | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | Json.List [ Json.Int n; Json.Int v ] :: rest ->
            go ((n, v) :: acc) rest
          | _ -> bad ~source (Printf.sprintf "vector %S: malformed drs" name)
        in
        go [] l
      | Some _ -> bad ~source (Printf.sprintf "vector %S: malformed drs" name)
    in
    Ok
      {
        name;
        program;
        productions;
        drs;
        max_steps = Option.value ~default:1_000_000 (int "max_steps");
        signature = Option.value ~default:"" (str "signature");
      }
  | _ -> bad ~source "vector entry needs string members name and program"

let load_suite ~dir =
  let source = manifest_file ~dir in
  let* text = read_file source in
  let* doc =
    match Json.parse text with
    | doc -> Ok doc
    | exception Json.Parse_error msg -> bad ~source msg
  in
  match Json.member "vectors" doc with
  | Some (Json.List vs) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest ->
        let* vec = vector_of_json ~source v in
        go (vec :: acc) rest
    in
    go [] vs
  | _ -> bad ~source "manifest needs a vectors array"

let vector_to_json v =
  Json.Obj
    [
      ("name", Json.String v.name);
      ("program", Json.String v.program);
      ( "productions",
        match v.productions with Some s -> Json.String s | None -> Json.Null );
      ( "drs",
        Json.List
          (List.map (fun (n, x) -> Json.List [ Json.Int n; Json.Int x ]) v.drs)
      );
      ("max_steps", Json.Int v.max_steps);
      ("signature", Json.String v.signature);
    ]

let save_manifest ~dir vectors =
  let doc =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("vectors", Json.List (List.map vector_to_json vectors));
      ]
  in
  let oc = open_out_bin (manifest_file ~dir) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~indent:true doc ^ "\n"))

(* --- running one vector -------------------------------------------------- *)

let parse_sources ~dir v =
  let path = Filename.concat dir v.program in
  let* text = read_file path in
  let* program = Asm.parse_result ~source:path text in
  let img = Program.layout program in
  let* prodset =
    match v.productions with
    | None -> Ok None
    | Some file ->
      let path = Filename.concat dir file in
      let* text = read_file path in
      let* set = Lang.parse_result ~source:path text in
      Ok (Some (Prodset.resolve_labels (Program.Image.symbol img) set))
  in
  Ok (img, prodset)

(* Fresh machine per (vector, backend) cell: backends must not share
   expander state, and a vector must not see another's memory. *)
let machine_for ~img ~prodset ~drs backend =
  let m =
    match prodset with
    | None -> Machine.create img
    | Some set -> (
      match backend with
      | "naive" -> Machine.create ~expander:(Naive.expander set) img
      | "engine-hash" ->
        Machine.create ~expander:(Engine.expander (Engine.create set)) img
      | "engine-memo" ->
        Machine.create
          ~expander:(Engine.expander (Engine.create ~image:img set))
          img
      | "engine-jit" ->
        let eng = Engine.create ~image:img set in
        let m = Machine.create ~expander:(Engine.expander eng) img in
        Engine.attach_jit ~threshold:2 eng m;
        m
      | other -> invalid_arg ("Conformance: unknown backend " ^ other))
  in
  List.iter (fun (n, x) -> Machine.set_dise_reg m n x) drs;
  m

let signature_of m =
  Printf.sprintf "%d:%d:%08x:%08x" (Machine.exit_code m) (Machine.executed m)
    (Regfile.checksum_arch (Machine.regs m))
    (Memory.checksum (Machine.memory m))

let run_cell ~img ~prodset v backend =
  let t0 = Unix.gettimeofday () in
  let m = machine_for ~img ~prodset ~drs:v.drs backend in
  let outcome =
    match Machine.run_raw ~max_steps:v.max_steps m ignore with
    | _ -> Ok ()
    | exception Machine.Runtime_error msg -> Error ("runtime: " ^ msg)
    | exception Engine.Expansion_error msg -> Error ("expansion: " ^ msg)
    | exception Dise_core.Replacement.Instantiation_error msg ->
      Error ("instantiation: " ^ msg)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Metrics.Histogram.observe_s h_run wall_s;
  match outcome with
  | Ok () ->
    {
      vector = v.name;
      backend;
      pass = false (* settled against expected by the caller *);
      signature = signature_of m;
      expected = "";
      steps = Machine.executed m;
      expansions = Machine.expansions m;
      wall_s;
      error = None;
    }
  | Error msg ->
    {
      vector = v.name;
      backend;
      pass = false;
      signature = "";
      expected = "";
      steps = Machine.executed m;
      expansions = Machine.expansions m;
      wall_s;
      error = Some msg;
    }

let run_vector ~dir v =
  match parse_sources ~dir v with
  | Error d ->
    List.map
      (fun backend ->
        {
          vector = v.name;
          backend;
          pass = false;
          signature = "";
          expected = v.signature;
          steps = 0;
          expansions = 0;
          wall_s = 0.;
          error = Some (Diag.to_string d);
        })
      backends
  | Ok (img, prodset) ->
    let reference = run_cell ~img ~prodset v "naive" in
    let reference =
      {
        reference with
        expected = v.signature;
        pass =
          (reference.error = None
          && (v.signature = "" || reference.signature = v.signature));
      }
    in
    (* The optimized backends answer to the naive run of record: when
       naive itself failed or diverged from the manifest, they are
       judged against the manifest signature instead. *)
    let expected =
      if reference.pass && reference.signature <> "" then reference.signature
      else v.signature
    in
    reference
    :: List.map
         (fun backend ->
           let c = run_cell ~img ~prodset v backend in
           {
             c with
             expected;
             pass = c.error = None && expected <> "" && c.signature = expected;
           })
         (List.filter (fun b -> b <> "naive") backends)

(* --- the suite ----------------------------------------------------------- *)

let fuzz_seed = 0xD15E

let run_suite ?(fuzz = 0) ~dir vectors =
  let since = Metrics.Histogram.snapshot h_run in
  let t0 = Unix.gettimeofday () in
  let cells = List.concat_map (run_vector ~dir) vectors in
  let fuzz_failures = ref 0 in
  if fuzz > 0 then begin
    let rng = Rng.create fuzz_seed in
    for _ = 1 to fuzz do
      let case = Case.generate rng in
      match Oracle.check case with
      | Oracle.Pass _ -> ()
      | Oracle.Fail _ -> incr fuzz_failures
    done
  end;
  let wall_s = Unix.gettimeofday () -. t0 in
  let d = Metrics.Histogram.delta ~since (Metrics.Histogram.snapshot h_run) in
  {
    suite = (if fuzz > 0 then "full" else "quick");
    cells;
    vectors = List.length vectors;
    passed = List.length (List.filter (fun c -> c.pass) cells);
    wall_s;
    p50_ns = Metrics.Histogram.quantile d 0.50;
    p95_ns = Metrics.Histogram.quantile d 0.95;
    p99_ns = Metrics.Histogram.quantile d 0.99;
    fuzz_cases = fuzz;
    fuzz_failures = !fuzz_failures;
  }

let update_signatures ~dir vectors =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest ->
      let* img, prodset = parse_sources ~dir v in
      let c = run_cell ~img ~prodset v "naive" in
      (match c.error with
      | Some msg ->
        Error (Diag.Runtime (Printf.sprintf "vector %s: %s" v.name msg))
      | None -> go ({ v with signature = c.signature } :: acc) rest)
  in
  go [] vectors

(* --- rendering ----------------------------------------------------------- *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_of_report r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "vector,backend,pass,signature,expected,steps,expansions,wall_s,error\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%b,%s,%s,%d,%d,%.6f,%s\n" (csv_escape c.vector)
           c.backend c.pass c.signature c.expected c.steps c.expansions
           c.wall_s
           (csv_escape (Option.value ~default:"" c.error))))
    r.cells;
  Buffer.contents b

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let html_of_report r =
  let b = Buffer.create 4096 in
  let total = List.length r.cells in
  Buffer.add_string b
    "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n\
     <title>disesim conformance report</title>\n\
     <style>\n\
     body { font-family: sans-serif; margin: 2em; }\n\
     table { border-collapse: collapse; }\n\
     th, td { border: 1px solid #ccc; padding: 4px 10px; \
     font-family: monospace; font-size: 13px; }\n\
     th { background: #f0f0f0; }\n\
     tr.fail td { background: #fdd; }\n\
     tr.pass td { background: #efe; }\n\
     </style></head><body>\n";
  Buffer.add_string b
    (Printf.sprintf
       "<h1>disesim conformance: %s suite</h1>\n\
        <p>%d/%d cells passed (%d vectors &times; %d backends) in %.3f s; \
        per-cell run latency p50 %d ns, p95 %d ns, p99 %d ns.</p>\n"
       (html_escape r.suite) r.passed total r.vectors (List.length backends)
       r.wall_s r.p50_ns r.p95_ns r.p99_ns);
  if r.fuzz_cases > 0 then
    Buffer.add_string b
      (Printf.sprintf "<p>Differential fuzz: %d cases, %d failures.</p>\n"
         r.fuzz_cases r.fuzz_failures);
  Buffer.add_string b
    "<table>\n<tr><th>vector</th><th>backend</th><th>pass</th>\
     <th>signature</th><th>expected</th><th>steps</th><th>expansions</th>\
     <th>wall (s)</th><th>error</th></tr>\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf
           "<tr class=\"%s\"><td>%s</td><td>%s</td><td>%s</td><td>%s</td>\
            <td>%s</td><td>%d</td><td>%d</td><td>%.6f</td><td>%s</td></tr>\n"
           (if c.pass then "pass" else "fail")
           (html_escape c.vector) c.backend
           (if c.pass then "yes" else "NO")
           (html_escape c.signature) (html_escape c.expected) c.steps
           c.expansions c.wall_s
           (html_escape (Option.value ~default:"" c.error))))
    r.cells;
  Buffer.add_string b "</table>\n</body></html>\n";
  Buffer.contents b

let trajectory_record ~ts r =
  {
    Trajectory.tool = "conformance";
    suite = r.suite;
    ts;
    commit = Trajectory.commit_id ();
    cells = List.length r.cells;
    passed = r.passed;
    wall_s = r.wall_s;
    p50_ns = r.p50_ns;
    p95_ns = r.p95_ns;
    p99_ns = r.p99_ns;
    extra =
      [
        ("vectors", Json.Int r.vectors);
        ("fuzz_cases", Json.Int r.fuzz_cases);
        ("fuzz_failures", Json.Int r.fuzz_failures);
      ];
  }
