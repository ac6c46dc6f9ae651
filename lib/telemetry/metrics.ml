(* Log-linear bucket layout, shared by histogram and snapshot code.
   Values 0..7 get unit buckets; [2^k, 2^(k+1)) is split into 8
   sub-buckets of width 2^(k-3), so consecutive bucket bounds differ
   by at most a factor of 9/8. OCaml ints are 63-bit, so the top
   octave is k = 61 and 480 buckets cover every non-negative int. *)
let sub_per_octave = 8
let n_buckets = 480

let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_index v =
  let v = if v < 0 then 0 else v in
  if v < sub_per_octave then v
  else
    let k = msb v in
    (* (v lsr (k-3)) is in [8, 16); its low 3 bits select the
       sub-bucket within octave k. *)
    sub_per_octave + ((k - 3) * sub_per_octave) + ((v lsr (k - 3)) land 7)

let bucket_bounds i =
  if i < sub_per_octave then (i, i + 1)
  else
    let k = 3 + ((i - sub_per_octave) / sub_per_octave) in
    let s = (i - sub_per_octave) mod sub_per_octave in
    let w = 1 lsl (k - 3) in
    let lo = (1 lsl k) + (s * w) in
    (lo, lo + w)

module Counter0 = struct
  type t = { name : string; cell : int Atomic.t }

  let unregistered name = { name; cell = Atomic.make 0 }
  let incr t = ignore (Atomic.fetch_and_add t.cell 1)
  let add t n = ignore (Atomic.fetch_and_add t.cell n)
  let get t = Atomic.get t.cell
  let name t = t.name
end

module Histogram0 = struct
  type t = {
    name : string;
    cells : int Atomic.t array;
    count : int Atomic.t;
    sum : int Atomic.t;
  }

  type snapshot = {
    count : int;
    sum : int;
    buckets : (int * int * int) array;
  }

  let unregistered name =
    {
      name;
      cells = Array.init n_buckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
    }

  let name t = t.name

  let observe t v =
    let v = if v < 0 then 0 else v in
    ignore (Atomic.fetch_and_add t.cells.(bucket_index v) 1);
    ignore (Atomic.fetch_and_add t.count 1);
    ignore (Atomic.fetch_and_add t.sum v)

  let observe_s t secs = observe t (int_of_float ((secs *. 1e9) +. 0.5))
  let count (t : t) = Atomic.get t.count
  let sum (t : t) = Atomic.get t.sum

  let snapshot (t : t) : snapshot =
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      let c = Atomic.get t.cells.(i) in
      if c > 0 then
        let lo, hi = bucket_bounds i in
        buckets := (lo, hi, c) :: !buckets
    done;
    { count = Atomic.get t.count; sum = Atomic.get t.sum;
      buckets = Array.of_list !buckets }

  let delta ~(since : snapshot) (later : snapshot) : snapshot =
    let old = Hashtbl.create 16 in
    Array.iter (fun (lo, _, c) -> Hashtbl.replace old lo c) since.buckets;
    let buckets =
      Array.to_list later.buckets
      |> List.filter_map (fun (lo, hi, c) ->
             let c = c - (try Hashtbl.find old lo with Not_found -> 0) in
             if c > 0 then Some (lo, hi, c) else None)
      |> Array.of_list
    in
    { count = later.count - since.count; sum = later.sum - since.sum; buckets }

  let quantile (s : snapshot) q =
    if s.count <= 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int s.count)) in
        if r < 1 then 1 else if r > s.count then s.count else r
      in
      let est = ref 0 and cum = ref 0 and found = ref false in
      Array.iter
        (fun (_, hi, c) ->
          if not !found then begin
            cum := !cum + c;
            if !cum >= rank then begin
              est := hi - 1;
              found := true
            end
          end)
        s.buckets;
      !est
    end

  let invariant (s : snapshot) =
    let total = Array.fold_left (fun a (_, _, c) -> a + c) 0 s.buckets in
    if total <> s.count then
      Error
        (Printf.sprintf "bucket counts sum to %d but count is %d" total s.count)
    else
      let lo_sum = Array.fold_left (fun a (lo, _, c) -> a + (lo * c)) 0 s.buckets
      and hi_sum =
        Array.fold_left (fun a (_, hi, c) -> a + ((hi - 1) * c)) 0 s.buckets
      in
      if s.sum < lo_sum || s.sum > hi_sum then
        Error
          (Printf.sprintf "sum %d outside bucket-implied bounds [%d, %d]"
             s.sum lo_sum hi_sum)
      else Ok ()

  let to_json (s : snapshot) =
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("sum", Json.Int s.sum);
        ("p50", Json.Int (quantile s 0.50));
        ("p95", Json.Int (quantile s 0.95));
        ("p99", Json.Int (quantile s 0.99));
        ( "buckets",
          Json.List
            (Array.to_list s.buckets
            |> List.map (fun (lo, hi, c) ->
                   Json.Obj
                     [
                       ("lo", Json.Int lo);
                       ("hi", Json.Int hi);
                       ("count", Json.Int c);
                     ])) );
      ]

  (* Inverse of [to_json] over the members a snapshot owns (the
     serialized quantiles are derived data and are recomputed, not
     read back). Tolerant of junk: a malformed document yields the
     empty snapshot rather than an exception — merging metrics from a
     crashed worker must never take the coordinator down. *)
  let of_json j =
    let geti name ~default j =
      match Json.member name j with Some (Json.Int i) -> i | _ -> default
    in
    let buckets =
      match Json.member "buckets" j with
      | Some (Json.List bs) ->
        List.filter_map
          (fun b ->
            match
              (Json.member "lo" b, Json.member "hi" b, Json.member "count" b)
            with
            | Some (Json.Int lo), Some (Json.Int hi), Some (Json.Int c)
              when c > 0 ->
              Some (lo, hi, c)
            | _ -> None)
          bs
      | _ -> []
    in
    let buckets =
      List.sort (fun (a, _, _) (b, _, _) -> compare a b) buckets
      |> Array.of_list
    in
    { count = geti "count" ~default:0 j; sum = geti "sum" ~default:0 j; buckets }

  (* Bucket-wise sum: both operands use the one global bucket layout,
     so merging is an association on [lo]. The result is a valid
     snapshot of the union of both observation streams — this is how
     the coordinator folds per-worker histograms into one quantile
     estimate without ever seeing the raw observations. *)
  let merge (a : snapshot) (b : snapshot) : snapshot =
    let tbl = Hashtbl.create 32 in
    let add (lo, hi, c) =
      match Hashtbl.find_opt tbl lo with
      | Some (h, c0) -> Hashtbl.replace tbl lo (h, c0 + c)
      | None -> Hashtbl.replace tbl lo (hi, c)
    in
    Array.iter add a.buckets;
    Array.iter add b.buckets;
    let buckets =
      Hashtbl.fold (fun lo (hi, c) acc -> (lo, hi, c) :: acc) tbl []
      |> List.sort (fun (x, _, _) (y, _, _) -> compare x y)
      |> Array.of_list
    in
    { count = a.count + b.count; sum = a.sum + b.sum; buckets }
end

(* Registry: creation is rare, so a mutex around an ordered list is
   plenty; the instruments themselves are lock-free. *)
type metric =
  | C of Counter0.t
  | H of Histogram0.t

let registry : (string * metric) list ref = ref []
let registry_mu = Mutex.create ()

let register name find build =
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      match List.assoc_opt name !registry with
      | Some m -> (
        match find m with
        | Some inst -> inst
        | None ->
          invalid_arg
            (Printf.sprintf
               "Metrics: %S already registered as a different kind" name))
      | None ->
        let inst, m = build () in
        registry := !registry @ [ (name, m) ];
        inst)

let counter_make name =
  register name
    (function C c -> Some c | _ -> None)
    (fun () ->
      let c = Counter0.unregistered name in
      (c, C c))

let histogram_make name =
  register name
    (function H h -> Some h | _ -> None)
    (fun () ->
      let h = Histogram0.unregistered name in
      (h, H h))

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram0.snapshot) list;
}

let snapshot () =
  Mutex.lock registry_mu;
  let metrics = !registry in
  Mutex.unlock registry_mu;
  let counters =
    List.filter_map
      (function n, C c -> Some (n, Counter0.get c) | _ -> None)
      metrics
  and histograms =
    List.filter_map
      (function n, H h -> Some (n, Histogram0.snapshot h) | _ -> None)
      metrics
  in
  { counters; histograms }

let delta ~(since : snapshot) (later : snapshot) =
  let sub tbl (n, v) =
    match List.assoc_opt n tbl with Some v0 -> (n, v - v0) | None -> (n, v)
  in
  {
    counters = List.map (sub since.counters) later.counters;
    histograms =
      List.map
        (fun (n, h) ->
          match List.assoc_opt n since.histograms with
          | Some h0 -> (n, Histogram0.delta ~since:h0 h)
          | None -> (n, h))
        later.histograms;
  }

let to_json (s : snapshot) =
  let ints kvs = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) kvs) in
  Json.Obj
    [
      ("counters", ints s.counters);
      ( "histograms",
        Json.Obj
          (List.map (fun (n, h) -> (n, Histogram0.to_json h)) s.histograms) );
    ]

(* Inverse of [to_json] (same tolerance policy as
   [Histogram0.of_json]): the coordinator rebuilds each worker's
   summary snapshot from its wire form to merge them. *)
let of_json j =
  let ints name =
    match Json.member name j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (function n, Json.Int v -> Some (n, v) | _ -> None)
        kvs
    | _ -> []
  in
  let histograms =
    match Json.member "histograms" j with
    | Some (Json.Obj hs) -> List.map (fun (n, h) -> (n, Histogram0.of_json h)) hs
    | _ -> []
  in
  { counters = ints "counters"; histograms }

(* Name-wise union. Counters and histograms are monotone streams, so
   summing them is exact. *)
let merge (a : snapshot) (b : snapshot) =
  let union add xs ys =
    let extra = List.filter (fun (n, _) -> not (List.mem_assoc n xs)) ys in
    List.map
      (fun (n, v) ->
        match List.assoc_opt n ys with
        | Some w -> (n, add v w)
        | None -> (n, v))
      xs
    @ extra
  in
  {
    counters = union ( + ) a.counters b.counters;
    histograms = union Histogram0.merge a.histograms b.histograms;
  }

let find_counter name =
  Mutex.lock registry_mu;
  let r = List.assoc_opt name !registry in
  Mutex.unlock registry_mu;
  match r with Some (C c) -> Some c | _ -> None

let reset_all () =
  Mutex.lock registry_mu;
  let metrics = !registry in
  Mutex.unlock registry_mu;
  List.iter
    (fun (_, m) ->
      match m with
      | C c -> Atomic.set c.Counter0.cell 0
      | H h ->
        Array.iter (fun cell -> Atomic.set cell 0) h.Histogram0.cells;
        Atomic.set h.Histogram0.count 0;
        Atomic.set h.Histogram0.sum 0)
    metrics

module Counter = struct
  include Counter0

  let make = counter_make
end

module Histogram = struct
  include Histogram0

  let make = histogram_make
  let bucket_index = bucket_index
  let bucket_bounds = bucket_bounds
end
