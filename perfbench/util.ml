(* Small measurement helpers shared by the workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ln Gamma(x) for x > 0 (Lanczos, g = 5). *)
let log_gamma x =
  let c = [| 76.18009172947146; -86.50532032941677; 24.01409824083091; -1.231739572450155;
             0.1208650973866179e-2; -0.5395239384953e-5 |] in
  let tmp = x +. 5.5 in
  let tmp = tmp -. ((x +. 0.5) *. log tmp) in
  let ser = ref 1.000000000190015 and y = ref x in
  Array.iter (fun c -> y := !y +. 1.0; ser := !ser +. (c /. !y)) c;
  -.tmp +. log (2.5066282746310005 *. !ser /. x)

(* The regularized incomplete beta function I_x(a, b), by its continued
   fraction (modified Lentz). *)
let incomplete_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let cf a b x =
      let tiny = 1e-300 in
      let clamp d = if Float.abs d < tiny then tiny else d in
      let c = ref 1.0 and d = ref (1.0 /. clamp (1.0 -. ((a +. b) *. x /. (a +. 1.0)))) in
      let h = ref !d and m = ref 1 and fin = ref false in
      while (not !fin) && !m < 100_000 do
        let mf = float_of_int !m in
        let step num =
          d := 1.0 /. clamp (1.0 +. (num *. !d));
          c := clamp (1.0 +. (num /. !c));
          let del = !d *. !c in
          h := !h *. del;
          del
        in
        ignore (step (mf *. (b -. mf) *. x /. ((a +. (2.0 *. mf) -. 1.0) *. (a +. (2.0 *. mf)))));
        let del = step (-.(a +. mf) *. (a +. b +. mf) *. x /. ((a +. (2.0 *. mf)) *. (a +. (2.0 *. mf) +. 1.0))) in
        if Float.abs (del -. 1.0) < 1e-14 then fin := true;
        incr m
      done;
      !h
    in
    let front =
      exp (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. log (1.0 -. x)))
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. cf a b x /. a
    else 1.0 -. (front *. cf b a (1.0 -. x) /. b)

(* The Harrell-Davis quantile: a Beta-weighted mean of every order
   statistic, centred on the [q] rank. A tail quantile of a few hundred
   samples then rests on the ten or so slowest instead of on one. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = float_of_int (Array.length a) in
    let alpha = q *. (n +. 1.0) and beta = (1.0 -. q) *. (n +. 1.0) in
    let cdf i = incomplete_beta alpha beta (float_of_int i /. n) in
    let acc = ref 0.0 and prev = ref 0.0 in
    Array.iteri
      (fun i x ->
        let c = cdf (i + 1) in
        acc := !acc +. ((c -. !prev) *. x);
        prev := c)
      a;
    !acc

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let sum_int = List.fold_left ( + ) 0

(* High-water resident set of a process, in MiB, from /proc; 0 when the
   process is gone or the field is missing. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
