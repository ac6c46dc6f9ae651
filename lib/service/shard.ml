(* Consistent-hash ring over the request keyspace.

   Each worker owns [vnodes] points on a circle of md5 hashes; a key
   routes to the owner of the first point at or clockwise-after the
   key's own hash. Virtual nodes smooth the per-worker share (the
   standard deviation of shard sizes shrinks like 1/sqrt vnodes), and
   consistent hashing keeps re-sharding cheap: growing from N to N+1
   workers moves only ~1/(N+1) of the keyspace, so a restarted tier
   with one more worker still hits most of its disk cache. *)

type t = { points : (string * int) array }

(* Ring positions are md5 hex digests compared as strings: md5's hex
   form is fixed-width lowercase, so lexicographic order is the order
   of the underlying 128-bit values. *)
let position s = Digest.to_hex (Digest.string s)

let default_vnodes = 64

let ring ~workers ?(vnodes = default_vnodes) () =
  if workers < 1 then invalid_arg "Shard.ring: workers must be >= 1";
  if vnodes < 1 then invalid_arg "Shard.ring: vnodes must be >= 1";
  let points =
    Array.init (workers * vnodes) (fun i ->
        let w = i / vnodes and v = i mod vnodes in
        (position (Printf.sprintf "dise-shard-v1:%d:%d" w v), w))
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) points;
  { points }

let workers t =
  Array.fold_left (fun acc (_, w) -> max acc (w + 1)) 0 t.points

let alive t =
  Array.fold_left (fun acc (_, w) -> if List.mem w acc then acc else w :: acc)
    [] t.points
  |> List.sort compare

(* Shrink: drop every vnode the dead worker owned. Survivors' points
   are untouched, so a key either kept its owner or its owner was the
   removed worker — removal moves exactly the dead worker's keys,
   each to whichever survivor owns the next point clockwise. *)
let remove t dead =
  let points = Array.of_list
      (List.filter (fun (_, w) -> w <> dead) (Array.to_list t.points))
  in
  if Array.length points = 0 then
    invalid_arg "Shard.remove: cannot remove the last worker";
  { points }

(* The owner of the first point at or after the key's position,
   wrapping to the start of the ring: binary search for the leftmost
   point >= h. *)
let route t key =
  let h = position key in
  let n = Array.length t.points in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst t.points.(mid) < h then search (mid + 1) hi else search lo mid
  in
  let i = search 0 n in
  snd t.points.(if i = n then 0 else i)
