(* Way [w] of set [s] lives at flat index [s * assoc + w] of both
   arrays: no per-way record, so an access allocates nothing. *)
type t = {
  size_bytes : int;
  line_bytes : int;
  line_shift : int;
  set_mask : int;  (* n_sets - 1 *)
  assoc : int;
  tags : int array;  (* -1 = invalid *)
  stamps : int array;  (* LRU: clock of the last touch *)
  mutable clock : int;
  mutable last_tag : int;  (* line of the latest access, -1 = none *)
  mutable accesses : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

(* One factor at a time: a product of request values could overflow. *)
let check_geometry ~size_bytes ~assoc ~line_bytes =
  if size_bytes <= 0 || assoc <= 0 || line_bytes <= 0 then
    Error "size_bytes, assoc and line_bytes must be positive"
  else if line_bytes land (line_bytes - 1) <> 0 then
    Error "line size must be a power of two"
  else if size_bytes / line_bytes > 1 lsl 20 then Error "more than 2^20 lines"
  else if size_bytes mod line_bytes <> 0 || size_bytes / line_bytes mod assoc <> 0
  then Error "size not divisible by assoc * line"
  else
    let n_sets = size_bytes / line_bytes / assoc in
    if n_sets land (n_sets - 1) <> 0 then
      Error "set count must be a power of two"
    else Ok ()

let create ~size_bytes ~assoc ~line_bytes =
  (match check_geometry ~size_bytes ~assoc ~line_bytes with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cache.create: " ^ msg));
  let n_sets = size_bytes / (assoc * line_bytes) in
  {
    size_bytes;
    line_bytes;
    line_shift = log2 line_bytes;
    set_mask = n_sets - 1;
    assoc;
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    clock = 0;
    last_tag = -1;
    accesses = 0;
    misses = 0;
  }

(* Flat index of the way in [i, last) holding [tag], or -1. *)
let rec find_way (tags : int array) (tag : int) i last =
  if i = last then -1
  else if tags.(i) = tag then i
  else find_way tags tag (i + 1) last

(* The first invalid way in [i, last), else the first least recently
   used one; [best] is the LRU candidate so far. *)
let rec victim (tags : int array) (stamps : int array) i last best =
  if i = last then best
  else if tags.(i) = -1 then i
  else
    victim tags stamps (i + 1) last
      (if stamps.(i) < stamps.(best) then i else best)

(* The set walk: a hit re-stamps its way, a miss fills the victim. *)
let access_set t tag =
  t.last_tag <- tag;
  t.clock <- t.clock + 1;
  let base = (tag land t.set_mask) * t.assoc in
  let last = base + t.assoc in
  let w = find_way t.tags tag base last in
  if w >= 0 then begin
    t.stamps.(w) <- t.clock;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let v = victim t.tags t.stamps base last base in
    t.tags.(v) <- tag;
    t.stamps.(v) <- t.clock;
    `Miss
  end

(* A repeat touch of the line this cache touched last is a hit that
   needs no set walk: that line already carries the newest stamp in the
   whole cache, so re-stamping it would change no relative LRU order
   and no later victim. The fast path therefore leaves the stamp and
   the clock alone. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  let tag = addr lsr t.line_shift in
  if tag = t.last_tag then `Hit else access_set t tag

let probe t addr =
  let tag = addr lsr t.line_shift in
  let base = (tag land t.set_mask) * t.assoc in
  find_way t.tags tag base (base + t.assoc) >= 0

let line_bytes t = t.line_bytes
let line_of t addr = addr lsr t.line_shift
let size_bytes t = t.size_bytes
let accesses t = t.accesses
let misses t = t.misses

let invalidate t =
  t.last_tag <- -1;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0
