module Compress = Dise_acf.Compress
module Controller = Dise_core.Controller
module Prodset = Dise_core.Prodset
module Request = Dise_service.Request
module Pool = Dise_service.Pool
module Suite = Dise_workload.Suite
module Codegen = Dise_workload.Codegen
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag

type config = {
  bench : string;
  dyn_target : int;
  scheme : Compress.scheme;
  rng_seed : int;
  budget : int;
  jobs : int;
  progress : string -> unit;
}

(* Proposals scored per iteration: a constant, never the worker count,
   so --jobs (like figures --jobs) changes only the wall clock. *)
let batch = 8
let max_seeds = 1024
let patience = 4

let v ?(dyn_target = 300_000) ?(scheme = Compress.full_dise) ?(rng_seed = 1)
    ?(budget = 192) ?(jobs = Pool.default_jobs ()) ?(progress = fun _ -> ())
    bench =
  { bench; dyn_target; scheme; rng_seed; budget; jobs; progress }

type result = {
  seeds : Compress.seed list;
  outcome : Score.outcome;
  compress : Compress.result;
  footprint : Prodset.footprint;
  baseline_cycles : int;
  evaluations : int;
  simulated : int;
  candidates : int;
}

(* Score a batch through the in-run memo: known candidates answer
   from it, distinct unknowns are scored once. *)
let score_all scorer memo (proposals : Compress.seed list array) =
  let keys = Array.map Score.seeds_key proposals in
  let unknown = ref [] in
  Array.iteri
    (fun i key ->
      if not (Hashtbl.mem memo key || List.mem_assoc key !unknown) then
        unknown := (key, proposals.(i)) :: !unknown)
    keys;
  let unknown = List.rev !unknown in
  let outs = Score.score_batch scorer (Array.of_list (List.map snd unknown)) in
  List.iteri (fun k (key, _) -> Hashtbl.add memo key outs.(k)) unknown;
  Array.map (Hashtbl.find memo) keys

(* Weighted sampling over the mined pool (prefix sums + binary
   search); all randomness flows through the one [Random.State]. *)
let sampler (cands : Miner.candidate array) =
  let n = Array.length cands in
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i c ->
      total := !total +. c.Miner.weight;
      cum.(i) <- !total)
    cands;
  fun st ->
    let x = Random.State.float st !total in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) > x then bisect lo mid else bisect (mid + 1) hi
    in
    cands.(bisect 0 (n - 1))

let propose (cands : Miner.candidate array) sample st current =
  let n_cur = List.length current in
  let in_current s = List.mem s current in
  let add cur =
    let rec draw k =
      if k = 0 then
        (* deterministic fallback: the heaviest unused window *)
        Array.find_opt
          (fun c -> not (in_current c.Miner.window.Compress.w_seed))
          cands
        |> Option.map (fun c -> c.Miner.window.Compress.w_seed)
      else
        let s = (sample st).Miner.window.Compress.w_seed in
        if in_current s then draw (k - 1) else Some s
    in
    match draw 16 with Some s -> cur @ [ s ] | None -> cur
  in
  let drop cur =
    let i = Random.State.int st (List.length cur) in
    List.filteri (fun j _ -> j <> i) cur
  in
  if Array.length cands = 0 then current
  else if n_cur = 0 then add current
  else if n_cur >= max_seeds then
    if Random.State.int st 2 = 0 then drop current else add (drop current)
  else
    match Random.State.int st 4 with
    | 0 -> drop current
    | 1 -> add (drop current)
    | _ -> add current

let run cfg =
  let wprofile =
    match Dise_workload.Profile.find cfg.bench with
    | Some p -> p
    | None -> invalid_arg ("synthesize: unknown benchmark " ^ cfg.bench)
  in
  let entry = Suite.get ~dyn_target:cfg.dyn_target wprofile in
  let base =
    Request.v ~dyn_target:cfg.dyn_target ~controller:Score.controller
      cfg.bench
  in
  cfg.progress "measuring baseline";
  let baseline_cycles =
    match Request.run_ext ~entry base with
    | Ok (st, _) -> st.Stats.cycles
    | Error d -> failwith ("synthesize: baseline failed: " ^ Diag.to_string d)
  in
  cfg.progress "collecting fetch profile (sink run, uncached)";
  let tprofile = Dise_telemetry.Profile.create () in
  ignore (Request.run ~entry ~profile:tprofile base : Stats.t);
  let corpus =
    Compress.corpus ~scheme:cfg.scheme entry.Suite.gen.Codegen.program
  in
  let cands =
    Miner.mine ~scheme:cfg.scheme ~corpus ~image:entry.Suite.image
      ~profile:tprofile
  in
  cfg.progress (Printf.sprintf "%d candidate groups" (Array.length cands));
  let scorer =
    Score.create ~jobs:cfg.jobs ~base ~entry ~scheme:cfg.scheme ~corpus
      ~baseline_cycles
  in
  let memo = Hashtbl.create 256 in
  let st = Random.State.make [| cfg.rng_seed |] in
  let sample = sampler cands in
  let evals = ref 0 in
  let score_counted proposals =
    evals := !evals + Array.length proposals;
    score_all scorer memo proposals
  in
  (* Profile-guided warm start: the longest weight-ordered candidate
     prefix that fits the PT/RT. Hill climbing grows a dictionary one
     move at a time, far too slowly to reach the hundreds of entries
     capacity allows — so the climb starts from the miner's ranking
     (statically near-greedy) and spends its budget refining it
     against the timing model. Capacity cost is monotone in the
     prefix length, so the cut is a binary search over cheap static
     compressions; no simulations are spent here. *)
  let fits_static seeds =
    Score.fits (Compress.compress_seeded corpus ~seeds)
  in
  let warm_start =
    let seeds_of n =
      Array.to_list (Array.sub cands 0 n)
      |> List.map (fun c -> c.Miner.window.Compress.w_seed)
    in
    let n_max = min (Array.length cands) max_seeds in
    if n_max = 0 then []
    else if fits_static (seeds_of n_max) then seeds_of n_max
    else begin
      let rec cut lo hi =
        (* invariant: prefix [lo] fits, prefix [hi] does not *)
        if hi - lo <= 1 then lo
        else
          let mid = (lo + hi) / 2 in
          if fits_static (seeds_of mid) then cut mid hi else cut lo mid
      in
      seeds_of (cut 0 n_max)
    end
  in
  cfg.progress
    (Printf.sprintf "warm start: %d seeds" (List.length warm_start));
  let current = ref warm_start in
  let current_out = ref (score_counted [| warm_start |]).(0) in
  let stale = ref 0 in
  let iter = ref 0 in
  while !evals < cfg.budget && !stale < patience && Array.length cands > 0
  do
    incr iter;
    let width = min batch (cfg.budget - !evals) in
    let proposals =
      Array.init width (fun _ -> propose cands sample st !current)
    in
    let outs = score_counted proposals in
    let best = ref (-1) in
    Array.iteri
      (fun i (o : Score.outcome) ->
        if !best < 0 || o.Score.fitness > outs.(!best).Score.fitness then
          best := i)
      outs;
    let o = outs.(!best) in
    if o.Score.fitness > !current_out.Score.fitness +. 1e-9 then begin
      current := proposals.(!best);
      current_out := o;
      stale := 0
    end
    else incr stale;
    cfg.progress
      (Printf.sprintf
         "iter %d: %d/%d evals, dict %d entries, fitness %.4f (ratio %.3f, \
          rel %.3f)"
         !iter !evals cfg.budget
         (List.length !current)
         !current_out.Score.fitness !current_out.Score.ratio
         !current_out.Score.rel)
  done;
  let compress = Compress.compress_seeded corpus ~seeds:!current in
  let footprint =
    Prodset.footprint
      ~entries_per_block:Score.controller.Controller.rt_entries_per_block
      compress.Compress.prodset
  in
  {
    seeds = !current;
    outcome = !current_out;
    compress;
    footprint;
    baseline_cycles;
    evaluations = !evals;
    simulated =
      Hashtbl.fold
        (fun _ (o : Score.outcome) n -> if o.Score.fresh then n + 1 else n)
        memo 0;
    candidates = Array.length cands;
  }

let dictionary_json cfg r =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("bench", Json.String cfg.bench);
      ("dyn_target", Json.Int cfg.dyn_target);
      ("scheme", Json.String cfg.scheme.Compress.name);
      ( "search",
        Json.Obj
          [
            ("seed", Json.Int cfg.rng_seed);
            ("budget", Json.Int cfg.budget);
            ("evaluations", Json.Int r.evaluations);
            ("candidates", Json.Int r.candidates);
          ] );
      ("seeds", Score.seeds_json r.seeds);
      ("entries", Json.Int (List.length r.compress.Compress.entries));
      ("fitness", Json.Float r.outcome.Score.fitness);
      ("total_ratio", Json.Float r.outcome.Score.ratio);
      ("compression_ratio", Json.Float (Compress.compression_ratio r.compress));
      ("relative_time", Json.Float r.outcome.Score.rel);
      ("baseline_cycles", Json.Int r.baseline_cycles);
      ( "footprint",
        Json.Obj
          [
            ("pt_patterns", Json.Int r.footprint.Prodset.pt_patterns);
            ("rt_blocks", Json.Int r.footprint.Prodset.rt_blocks);
            ("rt_entries", Json.Int r.footprint.Prodset.rt_entries);
          ] );
      ("fits", Json.Bool r.outcome.Score.fits);
    ]

let write_dictionary ~path cfg r =
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:true (dictionary_json cfg r));
  output_char oc '\n';
  close_out oc
