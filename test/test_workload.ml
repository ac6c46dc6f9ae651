(* Tests for the synthetic workload generator: determinism, validity
   (programs assemble, run, and halt cleanly), memory safety (all
   accesses inside the data segment), profile knobs having the
   intended large-scale effects, and the single-flight memo. *)

open Dise_isa
open Dise_workload
module Machine = Dise_machine.Machine

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int_ "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 43 in
  check bool_ "different seed differs" true (Rng.next a <> Rng.next c)

let test_rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    let w = Rng.range r (-5) 5 in
    if w < -5 || w > 5 then Alcotest.failf "range out of range: %d" w;
    let f = Rng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_rng_weighted () =
  let r = Rng.create 11 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.weighted r [ (1.0, `A); (3.0, `B) ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts `A) in
  let b = Option.value ~default:0 (Hashtbl.find_opt counts `B) in
  check bool_ "weighting respected (roughly 1:3)" true
    (b > 2 * a && a > 1000)

let test_profiles_complete () =
  check int_ "twelve benchmarks" 12 (List.length Profile.spec2000);
  check bool_ "names unique" true
    (List.length (List.sort_uniq compare Profile.names) = 12);
  check bool_ "find works" true (Profile.find "mcf" <> None);
  check bool_ "find fails gracefully" true (Profile.find "nope" = None)

let test_generate_deterministic () =
  let a = Codegen.generate ~dyn_target:50_000 Profile.tiny in
  let b = Codegen.generate ~dyn_target:50_000 Profile.tiny in
  check bool_ "same program for same profile" true (a.Codegen.program = b.Codegen.program)

let test_generated_program_runs () =
  let g = Codegen.generate ~dyn_target:50_000 Profile.tiny in
  let img = Codegen.layout g in
  check bool_ "error label present" true
    (Program.Image.symbol img Codegen.error_label <> None);
  let m = Machine.create img in
  let steps = Machine.run_raw ~max_steps:2_000_000 m ignore in
  check bool_ "halted" true (Machine.halted m);
  check int_ "clean exit" 0 (Machine.exit_code m);
  (* Dynamic length should be in the ballpark of the target. *)
  check bool_ "dynamic length near target" true
    (steps > 25_000 && steps < 150_000)

let test_memory_safety () =
  (* Every load/store address must fall in the data segment. *)
  let g = Codegen.generate ~dyn_target:30_000 Profile.tiny in
  let img = Codegen.layout g in
  let m = Machine.create img in
  let bad = ref 0 in
  ignore
    (Machine.run_raw ~max_steps:2_000_000 m (fun r ->
         let a = r.Machine.Raw.mem_addr in
         if a <> Machine.Raw.no_mem && a lsr 26 <> Codegen.data_segment_id then
           incr bad));
  check int_ "no out-of-segment accesses" 0 !bad

let test_reserved_registers_untouched () =
  (* r23..r25 are reserved for rewriter scavenging; generated code must
     not define them. *)
  let g = Codegen.generate ~dyn_target:30_000 (List.nth Profile.spec2000 0) in
  List.iter
    (fun insn ->
      List.iter
        (fun r ->
          match r with
          | Reg.R n when n >= 23 && n <= 25 ->
            Alcotest.failf "reserved register r%d written by %s" n
              (Insn.to_string insn)
          | _ -> ())
        (Insn.defs insn))
    (Program.insns g.Codegen.program)

let test_static_sizes_track_profile () =
  let small = Codegen.generate ~dyn_target:20_000 Profile.tiny in
  let big =
    match Profile.find "crafty" with
    | Some p -> Codegen.generate ~dyn_target:20_000 p
    | None -> Alcotest.fail "crafty missing"
  in
  check bool_ "hot text tracks hot_kb" true
    (big.Codegen.hot_insns > 8 * small.Codegen.hot_insns);
  (* Hot size should be within 50% of the request. *)
  let requested = 48 * 256 in
  let got = big.Codegen.hot_insns in
  check bool_ "crafty hot size in range" true
    (got > requested / 2 && got < requested * 2)

let test_instruction_mix () =
  let g = Codegen.generate ~dyn_target:60_000 (Option.get (Profile.find "gzip")) in
  let img = Codegen.layout g in
  let m = Machine.create img in
  let loads = ref 0 and stores = ref 0 and total = ref 0 in
  ignore
    (Machine.run_raw ~max_steps:2_000_000 m (fun r ->
         incr total;
         if Insn.reads_memory (Machine.Raw.insn r) then incr loads;
         if Insn.writes_memory (Machine.Raw.insn r) then incr stores));
  let lf = float_of_int !loads /. float_of_int !total in
  let sf = float_of_int !stores /. float_of_int !total in
  (* The paper's fault isolation expands ~30% of instructions
     (loads+stores); the generator should land in a plausible band. *)
  check bool_ "load fraction plausible" true (lf > 0.08 && lf < 0.35);
  check bool_ "store fraction plausible" true (sf > 0.03 && sf < 0.20)

let test_suite_cache () =
  Suite.clear_cache ();
  let a = Suite.get ~dyn_target:20_000 Profile.tiny in
  let b = Suite.get ~dyn_target:20_000 Profile.tiny in
  check bool_ "cached entry reused" true (a == b);
  let c = Suite.get ~dyn_target:30_000 Profile.tiny in
  check bool_ "different target regenerates" true (a != c)

(* Single flight: four domains asking for one key share one
   computation, and a computation that raises leaves no claim behind. *)
let test_memo_single_flight () =
  let m = Memo.create 4 in
  let runs = Atomic.make 0 in
  let compute () =
    Atomic.incr runs;
    Unix.sleepf 0.02;
    ref 7
  in
  let got =
    List.map Domain.join
      (List.init 4 (fun _ -> Domain.spawn (fun () -> Memo.find_or_compute m "k" compute)))
  in
  check int_ "one computation" 1 (Atomic.get runs);
  check bool_ "one shared value" true (List.for_all (fun v -> v == List.hd got) got);
  (match Memo.find_or_compute m "bad" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "the failure was swallowed"
  | exception Failure _ -> ());
  check int_ "a failed claim is dropped" 8 !(Memo.find_or_compute m "bad" (fun () -> ref 8))

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng ranges", `Quick, test_rng_ranges);
    ("rng weighted", `Quick, test_rng_weighted);
    ("profiles complete", `Quick, test_profiles_complete);
    ("generate deterministic", `Quick, test_generate_deterministic);
    ("generated program runs", `Quick, test_generated_program_runs);
    ("memory safety", `Quick, test_memory_safety);
    ("reserved registers untouched", `Quick, test_reserved_registers_untouched);
    ("static sizes track profile", `Quick, test_static_sizes_track_profile);
    ("instruction mix", `Quick, test_instruction_mix);
    ("suite cache", `Quick, test_suite_cache);
    ("memo single flight", `Quick, test_memo_single_flight);
  ]
