module Compress = Dise_acf.Compress
module Controller = Dise_core.Controller
module Prodset = Dise_core.Prodset
module Request = Dise_service.Request
module Pool = Dise_service.Pool
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag

type outcome = {
  fits : bool;
  ratio : float;
  rel : float;
  fitness : float;
  fresh : bool;
}

let controller = Controller.default_config
let rel_budget = 1.05
let slow_penalty = 4.0

let fitness ~ratio ~rel =
  (1.0 -. ratio) -. (slow_penalty *. Float.max 0.0 (rel -. rel_budget))

let fits (r : Compress.result) =
  Prodset.fits ~entries_per_block:controller.Controller.rt_entries_per_block
    ~pt_entries:controller.Controller.pt_entries
    ~rt_entries:controller.Controller.rt_entries r.Compress.prodset

type t = {
  jobs : int;
  base : Request.t;
  entry : Dise_workload.Suite.entry;
  scheme : Compress.scheme;
  corpus : Compress.corpus;
  baseline_cycles : int;
}

let create ~jobs ~base ~entry ~scheme ~corpus ~baseline_cycles =
  { jobs; base; entry; scheme; corpus; baseline_cycles }

let seeds_json seeds =
  Json.List
    (List.map
       (fun (s : Compress.seed) ->
         Json.List
           [
             Json.Int s.Compress.s_blk;
             Json.Int s.Compress.s_start;
             Json.Int s.Compress.s_len;
           ])
       seeds)

let seeds_key seeds = Json.to_string (seeds_json seeds)

(* One candidate: the static half (ratio + capacity), then, if it fits,
   the timing half through the result-cached Request path.
   [compress_seeded] only reads the shared corpus, so candidates run
   unsynchronized on pool domains. *)
let eval t seeds () =
  let r = Compress.compress_seeded t.corpus ~seeds in
  let ratio = Compress.total_ratio r in
  if not (fits r) then
    { fits = false; ratio; rel = Float.nan; fitness = Float.neg_infinity;
      fresh = false }
  else
    let req =
      { t.base with Request.acf = Request.Synth { scheme = t.scheme; seeds } }
    in
    match Request.run_ext ~entry:t.entry req with
    | Ok (stats, cache_hit) ->
      let rel =
        float_of_int stats.Stats.cycles /. float_of_int t.baseline_cycles
      in
      { fits = true; ratio; rel; fitness = fitness ~ratio ~rel;
        fresh = not cache_hit }
    | Error d -> failwith ("synthesize: candidate run failed: " ^ Diag.to_string d)

let score_batch t (seedss : Compress.seed list array) =
  Pool.run ~jobs:t.jobs (Array.map (fun seeds -> eval t seeds) seedss)
