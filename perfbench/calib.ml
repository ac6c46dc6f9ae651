(* Host-speed calibration.

   The machines this benchmark runs on are shared: a neighbour's load
   slows every instruction by up to a half for tens of seconds at a
   time, far more than the changes the benchmark must resolve. So the
   measured phase is cut into segments (a cell, a panel, a second of
   serving) and fixed-work kernels that no change to the simulator
   touches are timed after each one. A segment's time is reported at
   nominal speed: scaled by the mean of the host speeds (nominal kernel
   time over measured) either side of it. The raw wall-clock times stay
   in the run record. *)

(* Two allocation-free kernels, so neither pays for the major-GC work a
   segment's garbage leaves behind:

   - [chase] walks a 256 KiB permutation (L2-resident) with integer
     arithmetic and branches; it slows with the core (frequency, a
     neighbour on the same core) and tracks the pipeline model;
   - [table] reads and rewrites a 64 Ki-entry hashtable of ints (a few
     MiB, partly in the shared last-level cache); it also slows with
     a neighbour's cache and memory traffic, which is what slows short,
     cold cells.

   On the shared 2-vCPU hosts this was tuned on, neither alone follows
   both the compression panels and the short timing cells, so a
   sample's speed is the geometric mean of the two. *)
let permutation n =
  let a = Array.init n Fun.id in
  let st = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let perm = lazy (permutation (1 lsl 15))

let table =
  lazy
    (let h = Hashtbl.create (1 lsl 16) in
     Array.iteri (fun i k -> Hashtbl.replace h k i) (permutation (1 lsl 16));
     h)

let chase () =
  let perm = Lazy.force perm in
  let acc = ref 0 and p = ref 0 in
  for i = 1 to 300_000 do
    p := perm.(!p);
    acc := (!acc * 31) + (!p lxor i);
    if !acc land 7 = 3 then acc := !acc lsr 1
  done;
  !acc

(* [Hashtbl.replace] of a bound key updates its cell in place. *)
let table_walk () =
  let h = Lazy.force table in
  let acc = ref 0 in
  for i = 1 to 30_000 do
    let k = (i * 40503) land 0xFFFF in
    let v = Hashtbl.find h k in
    acc := !acc + v;
    Hashtbl.replace h k (v lxor 1)
  done;
  !acc

(* Each kernel's time in one sample is the median of [reps] runs after
   one that brings its data back into cache: a single short run reads a
   segment's cache misses and the odd preemption as host speed. *)
let reps = 3

(* The median kernel times on a quiet 2.1 GHz Xeon (the host the bounds
   in BENCHMARK.json were set on). *)
let kernels = [ ("chase", chase, 0.00164); ("table", table_walk, 0.0020) ]

(* Per sample: its wall time (warm-up runs included), its median time
   per kernel, and the host speed. *)
let samples : float list ref = ref []
let times : (string * float) list list ref = ref []
let speeds : float list ref = ref []
let last = ref Float.nan
let spent () = Util.sum !samples

(* Host speed relative to nominal: the geometric mean over the kernels. *)
let sample () =
  let t0 = Util.now () in
  let med f =
    ignore (Sys.opaque_identity (f ()));
    Util.median (List.init reps (fun _ -> snd (Util.time (fun () -> Sys.opaque_identity (f ())))))
  in
  let ts = List.map (fun (name, f, _) -> (name, med f)) kernels in
  let log_speed = List.fold_left2 (fun acc (_, _, nominal) (_, t) -> acc +. log (nominal /. t)) 0.0 kernels ts in
  let speed = exp (log_speed /. float_of_int (List.length kernels)) in
  samples := (Util.now () -. t0) :: !samples;
  times := ts :: !times;
  speeds := speed :: !speeds;
  last := speed;
  speed

(* Run [f] (which times itself, returning its value and duration) as
   one segment. Returns the value, the raw duration and the factor that
   scales raw host time in the segment to nominal speed. *)
let segment f =
  let before = if Float.is_nan !last then sample () else !last in
  let v, d = f () in
  let after = sample () in
  (v, d, (before +. after) /. 2.0)

(* [segment] for a function that does not time itself. *)
let timed f =
  let v, d, k = segment (fun () -> Util.time f) in
  (v, d *. k)

let summary () =
  let module J = Dise_telemetry.Json in
  let stat f l = J.Float (f l) in
  let lo = List.fold_left Float.min Float.infinity and hi = List.fold_left Float.max 0.0 in
  J.Obj
    ([ ("samples", J.Int (List.length !speeds));
       ("speed_median", stat Util.median !speeds);
       ("speed_min", stat lo !speeds);
       ("speed_max", stat hi !speeds) ]
    @ List.map
        (fun (name, _, nominal) ->
          let ts = List.map (List.assoc name) !times in
          ( name,
            J.Obj [ ("nominal_s", J.Float nominal); ("median_s", stat Util.median ts); ("min_s", stat lo ts) ] ))
        kernels)
