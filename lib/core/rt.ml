(* Way [w] of set [s] lives at flat index [s * assoc + w] of [tags]
   and [stamps]: no per-way record, so an access allocates nothing. *)
type t = {
  perfect : bool;
  n_sets : int;
  assoc : int;
  entries_per_block : int;
  index_mask : int;
      (* n_sets - 1 when n_sets is a power of two (the common case),
         letting [set_index] mask instead of divide; -1 selects the
         general modulus. Identical indices either way. *)
  blocks_for_len : int array;
      (* len -> ceil(len / entries_per_block), precomputed at
         construction for every length up to [max_precomputed_len] so
         the access path never divides. *)
  tags : int array;  (* (rsid lsl 12) lor block index; -1 = invalid *)
  stamps : int array;  (* LRU: clock of the last touch *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable resident : int;
}

let max_precomputed_len = 256

let precompute_blocks epb =
  Array.init (max_precomputed_len + 1) (fun len -> (len + epb - 1) / epb)

(* One factor at a time: a product of request values could overflow. *)
let check_geometry ~entries ~assoc ~entries_per_block =
  if entries <= 0 || assoc <= 0 || entries_per_block <= 0 then
    Error "entries, assoc and entries_per_block must be positive"
  else if entries > 1 lsl 20 then Error "more than 2^20 entries"
  else if entries mod entries_per_block <> 0 || entries / entries_per_block mod assoc <> 0
  then Error "entries not divisible by assoc * entries_per_block"
  else Ok ()

let create ?(entries_per_block = 1) ~entries ~assoc () =
  (match check_geometry ~entries ~assoc ~entries_per_block with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Rt.create: " ^ msg));
  let n_sets = entries / (assoc * entries_per_block) in
  {
    perfect = false;
    n_sets;
    assoc;
    entries_per_block;
    index_mask = (if n_sets land (n_sets - 1) = 0 then n_sets - 1 else -1);
    blocks_for_len = precompute_blocks entries_per_block;
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    resident = 0;
  }

let perfect () =
  {
    perfect = true;
    n_sets = 0;
    assoc = 0;
    entries_per_block = 1;
    index_mask = -1;
    blocks_for_len = [||];
    tags = [||];
    stamps = [||];
    clock = 0;
    accesses = 0;
    misses = 0;
    resident = 0;
  }

let block_tag ~rsid ~blk = (rsid lsl 12) lor blk

(* A multiplicative hash spreads sequence ids across sets. The index
   is taken from the product's high bits: [n_sets] is typically a power
   of two, and a low-bits modulus would discard the sequence-id part of
   the tag (which lives above bit 12). *)
let set_index t tag =
  let h = tag * 0x9E3779B1 land max_int in
  let h = h lsr 16 in
  if t.index_mask >= 0 then h land t.index_mask else h mod t.n_sets

(* Flat index of the way in [i, last) holding [tag], or -1. *)
let rec find_way (tags : int array) (tag : int) i last =
  if i = last then -1
  else if tags.(i) = tag then i
  else find_way tags tag (i + 1) last

let probe t tag =
  let base = set_index t tag * t.assoc in
  find_way t.tags tag base (base + t.assoc)

(* The first invalid way in [i, last), else the first least recently
   used one; [best] is the LRU candidate so far. *)
let rec victim (tags : int array) (stamps : int array) i last best =
  if i = last then best
  else if tags.(i) = -1 then i
  else
    victim tags stamps (i + 1) last
      (if stamps.(i) < stamps.(best) then i else best)

let fill t tag =
  let base = set_index t tag * t.assoc in
  let v = victim t.tags t.stamps base (base + t.assoc) base in
  if t.tags.(v) = -1 then t.resident <- t.resident + 1;
  t.tags.(v) <- tag;
  t.stamps.(v) <- t.clock

let blocks_of_len t len =
  if len <= max_precomputed_len && not t.perfect then
    Array.unsafe_get t.blocks_for_len len
  else (len + t.entries_per_block - 1) / t.entries_per_block

let access t ~rsid ~len =
  t.accesses <- t.accesses + 1;
  if t.perfect then `Hit
  else begin
    t.clock <- t.clock + 1;
    let blocks = blocks_of_len t (Int.max 1 len) in
    let all_hit = ref true in
    for blk = 0 to blocks - 1 do
      let w = probe t (block_tag ~rsid ~blk) in
      if w >= 0 then t.stamps.(w) <- t.clock else all_hit := false
    done;
    if !all_hit then `Hit
    else begin
      t.misses <- t.misses + 1;
      for blk = 0 to blocks - 1 do
        let tag = block_tag ~rsid ~blk in
        let w = probe t tag in
        if w >= 0 then t.stamps.(w) <- t.clock else fill t tag
      done;
      `Miss
    end
  end

let invalidate t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.resident <- 0

let accesses t = t.accesses
let misses t = t.misses
let occupancy t = t.resident
let capacity_blocks t = t.n_sets * t.assoc
