module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag
module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module Memory = Dise_machine.Memory
module Engine = Dise_core.Engine
module Lang = Dise_core.Lang

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
  error : string option;
}

type report = {
  cells : cell list;
  vectors : int;
  passed : int;
}

let backends = [ "naive"; "engine-memo"; "engine-jit" ]
let default_dir = Filename.concat "test" "arch"

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
  let source file =
    let path = Filename.concat dir file in
    Result.map (fun text -> (path, text)) (read_file path)
  in
  let* program = source v.program in
  let* productions =
    match v.productions with
    | None -> Ok None
    | Some file -> Result.map Option.some (source file)
  in
  Lang.load ~program ~productions

(* Fresh machine per (vector, backend) cell: backends must not share
   expander state, and a vector must not see another's memory. *)
let machine_for ~img ~prodset ~drs backend =
  let m =
    match prodset with
    | None -> Machine.create img
    | Some set -> (
      match backend with
      | "naive" -> Machine.create ~expander:(Naive.expander set) img
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
  let m = machine_for ~img ~prodset ~drs:v.drs backend in
  let outcome =
    match Machine.run_raw ~max_steps:v.max_steps m ignore with
    | _ -> Ok ()
    | exception Machine.Runtime_error msg -> Error ("runtime: " ^ msg)
    | exception Engine.Expansion_error msg -> Error ("expansion: " ^ msg)
    | exception Dise_core.Replacement.Instantiation_error msg ->
      Error ("instantiation: " ^ msg)
  in
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

let run_suite ~dir vectors =
  let cells = List.concat_map (run_vector ~dir) vectors in
  {
    cells;
    vectors = List.length vectors;
    passed = List.length (List.filter (fun c -> c.pass) cells);
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
    "vector,backend,pass,signature,expected,steps,expansions,error\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%b,%s,%s,%d,%d,%s\n" (csv_escape c.vector)
           c.backend c.pass c.signature c.expected c.steps c.expansions
           (csv_escape (Option.value ~default:"" c.error))))
    r.cells;
  Buffer.contents b
