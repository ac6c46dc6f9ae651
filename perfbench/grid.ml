(* Running cells the way every workload does: set-up (workload
   generation and compression, outside the measured phase), the timed
   [Request.run_ext] call, and the laddered re-run of a traced pass. *)

module R = Dise_service.Request
module W = Dise_workload
module Stats = Dise_uarch.Stats

(* Generate every input the requests need and pre-warm their
   compression memo, so a measured decompression cell never compresses.
   With [~record] the work lands in the ledger's workload/acf rows. *)
let prepare ?(record = false) (reqs : R.t list) =
  let uniq l = List.sort_uniq compare l in
  let inputs = uniq (List.map (fun (r : R.t) -> (r.R.bench, r.R.dyn_target)) reqs) in
  List.iter
    (fun (bench, dyn_target) ->
      let e, d =
        Span.run ~tag:bench "Suite.get" (fun () -> Cells.entry (R.v ~dyn_target bench))
      in
      if record then begin
        Ledger.add "workload.gen_s" d;
        Ledger.add "workload.programs" 1.0;
        Ledger.addi "workload.static_insns" (Dise_isa.Program.size e.W.Suite.gen.W.Codegen.program)
      end)
    inputs;
  let compressions =
    uniq
      (List.filter_map
         (fun (r : R.t) ->
           match r.R.acf with
           | R.Decompress { scheme; rewritten; _ } ->
             Some (r.R.bench, r.R.dyn_target, rewritten, scheme)
           | _ -> None)
         reqs)
  in
  List.iter
    (fun (bench, dyn_target, rewritten, scheme) ->
      let e = Cells.entry (R.v ~dyn_target bench) in
      let _, d =
        Span.run ~tag:bench "Compress.compress" (fun () -> R.compress_result ~scheme ~rewritten e)
      in
      if record then begin
        Ledger.add "acf.compress_s" d;
        Ledger.add "acf.compress_calls" 1.0;
        Ledger.addi "ladder.compressed_insns" (Dise_isa.Program.size e.W.Suite.gen.W.Codegen.program)
      end)
    compressions

type outcome = {
  req : R.t;
  raw : float;  (** host seconds of the [run_ext] call *)
  dur : float;  (** the same at nominal host speed ({!Calib}) *)
  hit : bool;
  result : (Stats.t, string) result;
}

let exec req =
  let e = Cells.entry req in
  let r, raw = Span.run "Request.run_ext" (fun () -> R.run_ext ~entry:e req) in
  match r with
  | Ok (stats, hit) -> { req; raw; dur = raw; hit; result = Ok stats }
  | Error d -> { req; raw; dur = raw; hit = false; result = Error (Dise_isa.Diag.to_string d) }

(* One cell as one calibrated segment. *)
let run_cell req =
  let o, _, k = Calib.segment (fun () -> let o = exec req in (o, o.raw)) in
  { o with dur = o.raw *. k }

(* [n] back-to-back calls of one request in batches of [hit_batch],
   each batch one segment: a memo hit takes microseconds, too short to
   time one call at a time. Returns the outcomes and each batch's mean
   call time at nominal speed. *)
let hit_batch = 100

let repeat n req =
  let batches =
    List.init (max 1 (n / hit_batch)) (fun _ ->
        let os, d, k = Calib.segment (fun () -> Util.time (fun () -> List.init hit_batch (fun _ -> exec req))) in
        (os, d *. k /. float_of_int hit_batch))
  in
  (List.concat_map fst batches, List.map snd batches)

(* Ladder one cold outcome into the ledger; false when rung 3 does not
   reproduce the statistics [run_ext] returned. *)
let ladder (o : outcome) =
  let tag = R.canonical o.req in
  let rungs = Cells.ladder ~tag o.req (Cells.entry o.req) in
  Ledger.add_rungs ~run_ext_s:o.dur rungs;
  match o.result with
  | Ok s -> Cells.stats_string s = Cells.stats_string rungs.Cells.stats
  | Error _ -> false
