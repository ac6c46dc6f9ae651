type config = {
  pt_entries : int;
  pt_perfect : bool;
  rt_entries : int;
  rt_assoc : int;
  rt_entries_per_block : int;
  rt_perfect : bool;
  miss_penalty : int;
  compose_penalty : int;
  composing : bool;
  context_switch_every : int;
}

let default_config =
  {
    pt_entries = 32;
    pt_perfect = false;
    rt_entries = 2048;
    rt_assoc = 2;
    rt_entries_per_block = 1;
    rt_perfect = false;
    miss_penalty = 30;
    compose_penalty = 150;
    composing = false;
    context_switch_every = 0;
  }

let perfect_config =
  { default_config with pt_perfect = true; rt_perfect = true }

type t = {
  cfg : config;
  pt : Pt.t;
  rt : Rt.t;
  mutable stall_cycles : int;
}

let create cfg prodset =
  let rt =
    if cfg.rt_perfect then Rt.perfect ()
    else
      Rt.create ~entries_per_block:cfg.rt_entries_per_block
        ~entries:cfg.rt_entries ~assoc:cfg.rt_assoc ()
  in
  { cfg; pt = Pt.create ~capacity:cfg.pt_entries prodset; rt; stall_cycles = 0 }

let config t = t.cfg

let on_fetch t ~key =
  if t.cfg.pt_perfect then 0
  else
    match Pt.access t.pt ~key with
    | `Hit -> 0
    | `Miss _ ->
      t.stall_cycles <- t.stall_cycles + t.cfg.miss_penalty;
      t.cfg.miss_penalty

let on_expansion t ~rsid ~len =
  match Rt.access t.rt ~rsid ~len with
  | `Hit -> 0
  | `Miss ->
    let penalty =
      if t.cfg.composing then t.cfg.compose_penalty else t.cfg.miss_penalty
    in
    t.stall_cycles <- t.stall_cycles + penalty;
    penalty

let context_switch t =
  Rt.invalidate t.rt;
  if not t.cfg.pt_perfect then Pt.invalidate t.pt

type stats = {
  pt_accesses : int;
  pt_misses : int;
  rt_accesses : int;
  rt_misses : int;
  stall_cycles : int;
}

let stats t =
  {
    pt_accesses = Pt.accesses t.pt;
    pt_misses = Pt.misses t.pt;
    rt_accesses = Rt.accesses t.rt;
    rt_misses = Rt.misses t.rt;
    stall_cycles = t.stall_cycles;
  }
