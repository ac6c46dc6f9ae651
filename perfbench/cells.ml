(* Figure-cell shaped requests and the subtraction ladder.

   A cell is one [Request.t]. The ladder re-runs a cell's simulation
   three times from the public layer APIs, each rung adding one layer:

   1. [Machine.run_raw] with a no-op sink and no expander, over the
      image whose dynamic stream the cell executes (for decompression
      that is the uncompressed program: expansion restores it);
   2. the same over the cell's own image with its [Engine] expander;
   3. the full [Pipeline.run], which must reproduce the cell's stats.

   The differences are the functional machine, the expansion engine and
   the timing model; none of them is instrumented. *)

module R = Dise_service.Request
module W = Dise_workload
module A = Dise_acf
module C = Dise_core
module M = Dise_machine.Machine
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json

type kind = Baseline | Mfi_dise | Mfi_rewrite | Decompress | Composed

let kinds = [ Baseline; Mfi_dise; Mfi_rewrite; Decompress; Composed ]

let kind_name = function
  | Baseline -> "baseline"
  | Mfi_dise -> "mfi_dise"
  | Mfi_rewrite -> "mfi_rewrite"
  | Decompress -> "decompress"
  | Composed -> "composed"

(* Decompression cells run under the paper's default PT/RT controller;
   the others model DISE as free, as the figure panels do. *)
let request ?(machine = Dise_uarch.Config.default)
    ?(controller = C.Controller.default_config) ~dyn_target kind bench =
  let dec mfi = R.Decompress { scheme = A.Compress.full_dise; mfi; rewritten = false } in
  let acf, controller =
    match kind with
    | Baseline -> (R.Baseline, None)
    | Mfi_dise -> (R.Mfi_dise A.Mfi.Dise3, None)
    | Mfi_rewrite -> (R.Mfi_rewrite A.Rewrite.Segment_matching, None)
    | Decompress -> (dec `None, Some controller)
    | Composed -> (dec `Composed, Some controller)
  in
  R.v ~dyn_target ~machine ?controller ~acf bench

let entry (r : R.t) =
  match W.Profile.find r.R.bench with
  | Some p -> W.Suite.get ~dyn_target:r.R.dyn_target p
  | None -> invalid_arg ("unknown benchmark " ^ r.R.bench)

let stats_string s = Json.to_string (Stats.to_json s)

(* A request as one serve line, with the job id the protocol adds. *)
let request_line ~id (r : R.t) =
  match R.to_json r with
  | Json.Obj kvs -> Json.to_string (Json.Obj (("id", Json.Int id) :: kvs))
  | j -> Json.to_string j

(* --- the ladder --------------------------------------------------------- *)

type rungs = {
  exec_s : float;  (** rung 1 *)
  expand_s : float;  (** rung 2 - rung 1 *)
  pipeline_s : float;  (** rung 3 - rung 2 *)
  prep : (string * float) list;
      (** construction [run_ext] also does: rewrite, prodset, engine *)
  insns : int;  (** dynamic instructions of rung 1 *)
  jit_compiles : int;
  jit_hits : int;
  expansions : int;
  distinct_triggers : int;
  stats : Stats.t;  (** rung 3 *)
}

let max_steps = 100_000_000
let no_sink (_ : M.Raw.t) = ()

let check_clean m =
  if M.exit_code m <> 0 then failwith (Printf.sprintf "ladder: workload trapped (exit %d)" (M.exit_code m))

let ladder ~tag (r : R.t) (e : W.Suite.entry) =
  (* Construction work [run_ext] also does once per cell. *)
  (* Every rung at nominal host speed ({!Calib}), like the [run_ext]
     time it is compared with. *)
  let timed name f =
    let v, raw, k = Calib.segment (fun () -> Span.run ~tag name f) in
    (v, raw *. k)
  in
  let prep = ref [] in
  let prepare name f =
    let v, d = timed name f in
    prep := (name, d) :: !prep;
    v
  in
  let prog = e.W.Suite.gen.W.Codegen.program in
  let seg m = A.Mfi.install m ~data_seg:W.Codegen.data_segment_id ~code_seg:W.Codegen.code_segment_id in
  (* (plain image, Some (image, prodset, mfi) when the cell expands) *)
  let plain, expanding =
    match r.R.acf with
    | R.Baseline -> (e.W.Suite.image, None)
    | R.Mfi_rewrite variant ->
      let rewritten =
        prepare "Rewrite.rewrite" (fun () ->
            A.Rewrite.rewrite ~variant ~data_seg:W.Codegen.data_segment_id
              ~code_seg:W.Codegen.code_segment_id prog)
      in
      (Dise_isa.Program.layout ~base:W.Codegen.code_base rewritten, None)
    | R.Mfi_dise variant ->
      let ps =
        prepare "Prodset.build" (fun () -> A.Mfi.productions_for ~variant e.W.Suite.image)
      in
      (e.W.Suite.image, Some (e.W.Suite.image, ps, true))
    | R.Decompress { scheme; mfi; rewritten } ->
      let res = R.compress_result ~scheme ~rewritten e in
      let ps =
        prepare "Prodset.build" (fun () ->
            match mfi with
            | `None -> res.A.Compress.prodset
            | `Composed -> A.Acf_compose.for_compressed res)
      in
      (e.W.Suite.image, Some (res.A.Compress.image, ps, mfi = `Composed))
    | R.Synth _ -> invalid_arg "ladder: synthesis cells are not benchmarked"
  in
  let plain_machine image =
    let m = M.create image in
    if r.R.jit then M.enable_jit ~threshold:r.R.jit_threshold m;
    m
  in
  let expanding_machine ~create (image, ps, mfi) =
    let engine = create "Engine.create" (fun () -> C.Engine.create ~image ps) in
    let m = M.create ~expander:(C.Engine.expander engine) image in
    if r.R.jit then C.Engine.attach_jit ~threshold:r.R.jit_threshold engine m;
    if mfi then seg m;
    (m, engine)
  in
  let m1 = plain_machine plain in
  let insns, t1 = timed "ladder.functional" (fun () -> M.run_raw ~max_steps m1 no_sink) in
  check_clean m1;
  let t2, expansions, distinct, jit_compiles, jit_hits =
    match expanding with
    | None -> (t1, 0, 0, M.jit_compiles m1, M.jit_hits m1)
    | Some x ->
      let m2, engine = expanding_machine ~create:(fun n f -> fst (Span.run ~tag n f)) x in
      let _, t2 = timed "ladder.expand" (fun () -> M.run_raw ~max_steps m2 no_sink) in
      check_clean m2;
      ( t2,
        C.Engine.expansions_performed engine,
        C.Engine.distinct_triggers engine,
        M.jit_compiles m2,
        M.jit_hits m2 )
  in
  let m3, prodset =
    match expanding with
    | None -> (plain_machine plain, C.Prodset.empty)
    | Some ((_, ps, _) as x) -> (fst (expanding_machine ~create:prepare x), ps)
  in
  let controller = Option.map (fun cfg -> C.Controller.create cfg prodset) r.R.controller in
  let stats, t3 =
    timed "ladder.pipeline" (fun () ->
        Dise_uarch.Pipeline.run ~max_steps ?controller r.R.machine m3)
  in
  check_clean m3;
  {
    exec_s = t1;
    expand_s = t2 -. t1;
    pipeline_s = t3 -. t2;
    prep = !prep;
    insns;
    jit_compiles;
    jit_hits;
    expansions;
    distinct_triggers = distinct;
    stats;
  }
