module IntMap = Map.Make (Int)

type t = {
  prods : Production.t list;  (* in precedence order *)
  seqs : Replacement.t IntMap.t;
}

let empty = { prods = []; seqs = IntMap.empty }

let add_production t p =
  { t with prods = List.stable_sort Production.compare_precedence (p :: t.prods) }

let remove_production t name =
  { t with
    prods = List.filter (fun p -> p.Production.name <> name) t.prods }

let define_sequence t id seq = { t with seqs = IntMap.add id seq t.seqs }

let add t p seq =
  match p.Production.rsid with
  | Production.Direct id -> add_production (define_sequence t id seq) p
  | Production.From_tag ->
    invalid_arg "Prodset.add: From_tag production needs per-tag sequences"

let union a b =
  let seqs =
    IntMap.union
      (fun id sa sb ->
        if Replacement.equal sa sb then Some sa
        else
          invalid_arg
            (Printf.sprintf "Prodset.union: conflicting sequence R%d" id))
      a.seqs b.seqs
  in
  {
    prods = List.stable_sort Production.compare_precedence (a.prods @ b.prods);
    seqs;
  }

let productions t = t.prods
let sequence t id = IntMap.find_opt id t.seqs
let sequences t = IntMap.bindings t.seqs
let num_productions t = List.length t.prods
let num_sequences t = IntMap.cardinal t.seqs

let max_rsid t =
  match IntMap.max_binding_opt t.seqs with
  | Some (id, _) -> id
  | None -> -1

let lookup t insn =
  let rec go = function
    | [] -> None
    | p :: rest ->
      if Pattern.matches p.Production.pattern insn then
        Some (p, Production.rsid_of p insn)
      else go rest
  in
  go t.prods

let patterns_for_key t key =
  List.filter (fun p -> Pattern.subsumes_key p.Production.pattern key) t.prods

let resolve_labels lookup_sym t =
  { t with seqs = IntMap.map (Replacement.resolve_labels lookup_sym) t.seqs }

let rename_dedicated f t =
  { t with seqs = IntMap.map (Replacement.rename_dedicated f) t.seqs }

type footprint = {
  pt_patterns : int;
  rt_blocks : int;
  rt_entries : int;
}

let footprint ?(entries_per_block = 1) t =
  let epb = max 1 entries_per_block in
  let rt_blocks =
    IntMap.fold
      (fun _ seq acc -> acc + ((Array.length seq + epb - 1) / epb))
      t.seqs 0
  in
  {
    pt_patterns = List.length t.prods;
    rt_blocks;
    rt_entries = rt_blocks * epb;
  }

let fits ?entries_per_block ~pt_entries ~rt_entries t =
  let epb = match entries_per_block with Some e -> max 1 e | None -> 1 in
  let f = footprint ~entries_per_block:epb t in
  f.pt_patterns <= pt_entries && f.rt_blocks * epb <= rt_entries
