type entry = {
  mutable expansions : int;
  mutable rep_instrs : int;
  mutable rt_hits : int;
  mutable rt_misses : int;
}

type t = {
  by_rsid : (int, entry) Hashtbl.t;
  by_pc : (int, int ref) Hashtbl.t;
  by_fetch : (int, int ref) Hashtbl.t;
}

let create () =
  {
    by_rsid = Hashtbl.create 64;
    by_pc = Hashtbl.create 256;
    by_fetch = Hashtbl.create 1024;
  }

let entry_for t rsid =
  match Hashtbl.find_opt t.by_rsid rsid with
  | Some e -> e
  | None ->
    let e = { expansions = 0; rep_instrs = 0; rt_hits = 0; rt_misses = 0 } in
    Hashtbl.add t.by_rsid rsid e;
    e

let on_expansion t ~rsid ~pc =
  let e = entry_for t rsid in
  e.expansions <- e.expansions + 1;
  match Hashtbl.find_opt t.by_pc pc with
  | Some r -> incr r
  | None -> Hashtbl.add t.by_pc pc (ref 1)

let on_fetch t ~pc =
  match Hashtbl.find_opt t.by_fetch pc with
  | Some r -> incr r
  | None -> Hashtbl.add t.by_fetch pc (ref 1)

let on_rep_instr t ~rsid =
  let e = entry_for t rsid in
  e.rep_instrs <- e.rep_instrs + 1

let on_rt t ~rsid ~miss =
  let e = entry_for t rsid in
  if miss then e.rt_misses <- e.rt_misses + 1 else e.rt_hits <- e.rt_hits + 1

let total_expansions t =
  Hashtbl.fold (fun _ e acc -> acc + e.expansions) t.by_rsid 0

let productions t =
  let items = Hashtbl.fold (fun rsid e acc -> (rsid, e) :: acc) t.by_rsid [] in
  List.sort
    (fun (ra, a) (rb, b) ->
      match compare b.expansions a.expansions with
      | 0 -> compare ra rb
      | c -> c)
    items

let top_pcs ?(n = 10) t =
  let items = Hashtbl.fold (fun pc r acc -> (pc, !r) :: acc) t.by_pc [] in
  let sorted =
    List.sort
      (fun (pa, a) (pb, b) ->
        match compare b a with 0 -> compare pa pb | c -> c)
      items
  in
  List.filteri (fun i _ -> i < n) sorted

let total_fetches t =
  Hashtbl.fold (fun _ r acc -> acc + !r) t.by_fetch 0

let fetch_count t ~pc =
  match Hashtbl.find_opt t.by_fetch pc with Some r -> !r | None -> 0

let to_json ?(top = 10) t =
  Json.Obj
    [
      ( "productions",
        Json.List
          (List.map
             (fun (rsid, e) ->
               Json.Obj
                 [
                   ("rsid", Json.Int rsid);
                   ("expansions", Json.Int e.expansions);
                   ("rep_instrs", Json.Int e.rep_instrs);
                   ("rt_hits", Json.Int e.rt_hits);
                   ("rt_misses", Json.Int e.rt_misses);
                 ])
             (productions t)) );
      ( "hot_pcs",
        Json.List
          (List.map
             (fun (pc, count) ->
               Json.Obj [ ("pc", Json.Int pc); ("expansions", Json.Int count) ])
             (top_pcs ~n:top t)) );
    ]

let pp ppf t =
  Format.fprintf ppf "per-production profile:@.";
  Format.fprintf ppf "  %6s %12s %12s %10s %10s@." "rsid" "expansions"
    "rep-instrs" "rt-hits" "rt-misses";
  List.iter
    (fun (rsid, e) ->
      Format.fprintf ppf "  R%-5d %12d %12d %10d %10d@." rsid e.expansions
        e.rep_instrs e.rt_hits e.rt_misses)
    (productions t);
  match top_pcs t with
  | [] -> ()
  | pcs ->
    Format.fprintf ppf "hot expansion sites:@.";
    List.iter
      (fun (pc, count) ->
        Format.fprintf ppf "  0x%08x %12d@." pc count)
      pcs
