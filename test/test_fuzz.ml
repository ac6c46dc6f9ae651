(* Tests for the differential fuzzing subsystem, and regression tests
   for the latent bugs it was built to catch: branch and codeword
   encoding at the 16-bit boundaries and expansion-memo staleness
   across re-laid-out images. *)

open Dise_isa
module Engine = Dise_core.Engine
module Prodset = Dise_core.Prodset
module Production = Dise_core.Production
module Pattern = Dise_core.Pattern
module Replacement = Dise_core.Replacement
module Machine = Dise_machine.Machine
module Rng = Dise_workload.Rng
module F = Dise_fuzz

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- encode boundaries ----------------------------------------------- *)

let beq target = Insn.Br (Opcode.Beq, Reg.r 1, Insn.Abs target)

let test_branch_boundary_roundtrip () =
  let pc = 0x100000 in
  let round target =
    let i = beq target in
    check bool_
      (Printf.sprintf "branch to 0x%x round-trips" target)
      true
      (Insn.equal i (Encode.decode ~pc (Encode.encode ~pc i)))
  in
  round (pc + 4 + (2 * 32767));  (* offset +32767: last reachable forward *)
  round (pc + 4 - 65536);        (* offset -32768: the 0x8000 sign boundary *)
  round (pc + 4);                (* offset 0: branch to fall-through *)
  round (pc + 4 + 2)             (* halfword-aligned, not word-aligned *)

let expect_parse_error name result =
  match result with
  | Error d -> check int_ (name ^ " is exit-class parse") 2 (Diag.exit_code d)
  | Ok w -> Alcotest.failf "%s: silently encoded as 0x%x" name w

let test_branch_out_of_range () =
  let pc = 0x100000 in
  let enc target = Encode.encode_result ~pc (beq target) in
  expect_parse_error "one past forward reach" (enc (pc + 4 + 65536));
  expect_parse_error "one past backward reach" (enc (pc + 4 - 65538));
  expect_parse_error "odd target" (enc (pc + 7));
  match Encode.encode ~pc (beq (pc + 4 + 65536)) with
  | exception Encode.Error _ -> ()
  | w -> Alcotest.failf "expected Encode.Error, got 0x%x" w

let test_codeword_field_validation () =
  let cw ?(op = 0) ?(p1 = 0) ?(p2 = 0) ?(p3 = 0) ?(tag = 0) () =
    Insn.Codeword { op; p1; p2; p3; tag }
  in
  let enc i = Encode.encode_result ~pc:0 i in
  expect_parse_error "cw_op overflow" (enc (cw ~op:4 ()));
  expect_parse_error "p1 overflow" (enc (cw ~p1:32 ()));
  expect_parse_error "p2 overflow" (enc (cw ~p2:32 ()));
  expect_parse_error "p3 negative" (enc (cw ~p3:(-1) ()));
  expect_parse_error "tag overflow" (enc (cw ~tag:0x800 ()));
  let max = cw ~op:3 ~p1:31 ~p2:31 ~p3:31 ~tag:0x7FF () in
  check bool_ "max-field codeword round-trips" true
    (Insn.equal max (Encode.decode ~pc:0 (Encode.encode ~pc:0 max)))

(* --- memo staleness over re-laid-out codeword images -------------------- *)

(* One From_tag production over codewords, with a distinct sequence per
   tag: a memo that keys on pc alone (the fixed staleness bug)
   would serve tag 1's sequence when a re-laid-out image puts tag 2 at
   the same address. *)
let tagged_prodset tags =
  let dr0 = Replacement.Rlit (Reg.d 0) in
  let seq t =
    [| Replacement.Insn (Insn.Ropi (Opcode.Add, dr0, Replacement.Ilit t, dr0)) |]
  in
  let ps =
    Prodset.add_production Prodset.empty
      (Production.make ~name:"cw" (Pattern.codewords 0) Production.From_tag)
  in
  List.fold_left (fun ps t -> Prodset.define_sequence ps t (seq t)) ps tags

let exp_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Machine.expansion), Some (y : Machine.expansion) ->
    x.Machine.rsid = y.Machine.rsid
    && Array.length x.Machine.seq = Array.length y.Machine.seq
    && Array.for_all2 Insn.equal x.Machine.seq y.Machine.seq
  | _ -> false

let test_dense_memo_relayout () =
  let tags = [ 1; 2; 3 ] in
  let ps = tagged_prodset tags in
  let slots = 8 in
  let image_of tag =
    Program.layout ~base:0x100000
      (List.init slots (fun _ ->
           Program.Ins (Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag)))
  in
  let memo = Engine.expander (Engine.create ~image:(image_of 1) ps) in
  let imageless = Engine.expander (Engine.create ps) in
  let naive = F.Naive.expander ps in
  let rng = Rng.create 77 in
  (* prime the memo on tag 1, then "re-lay-out": present other tags
     (and re-present tag 1) at the same addresses, in random order,
     and demand agreement with the unmemoized sides *)
  for round = 0 to 40 do
    let tag = if round = 0 then 1 else Rng.pick rng [| 1; 2; 3 |] in
    let ix = Rng.int rng slots in
    let pc = 0x100000 + (4 * ix) in
    let insn = Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag in
    let m = memo ~pc insn and i = imageless ~pc insn and n = naive ~pc insn in
    if not (exp_eq m n) then
      Alcotest.failf "round %d: memo stale for tag %d at 0x%x" round tag pc;
    if not (exp_eq i n) then
      Alcotest.failf "round %d: image-less engine wrong for tag %d at 0x%x"
        round tag pc;
    (match n with
    | Some e -> check int_ "rsid is the tag" tag e.Machine.rsid
    | None -> Alcotest.fail "codeword production did not match")
  done;
  let insn = Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:2 in
  let a = memo ~pc:0x100000 insn in
  let b = memo ~pc:0x100000 insn in
  check bool_ "re-hit shares the memoized expansion" true (a == b)

(* The compressed twin of the test above: 2-byte codewords, so the
   memo's slots sit at halfword strides and are found through the
   image's halfword table. Probes also land past the end of the image,
   where no slot exists and the expansion is computed afresh. A hit
   must notice a changed trigger while still sharing the memoized
   expansion on a true re-hit. *)
let test_sparse_memo_relayout () =
  let tags = [ 1; 2; 3 ] in
  let ps = tagged_prodset tags in
  let slots = 8 in
  let image =
    Program.layout ~base:0x100000 ~size_of:(fun _ -> 2)
      (List.init slots (fun _ ->
           Program.Ins (Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:1)))
  in
  let sparse = Engine.expander (Engine.create ~image ps) in
  let naive = F.Naive.expander ps in
  let rng = Rng.create 99 in
  for round = 0 to 60 do
    let tag = if round = 0 then 1 else Rng.pick rng [| 1; 2; 3 |] in
    (* offsets 0..2*slots-1 halfwords: the first half are image slots,
       the rest lie past the end of the image *)
    let pc = 0x100000 + (2 * Rng.int rng (2 * slots)) in
    let insn = Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag in
    let s = sparse ~pc insn and n = naive ~pc insn in
    if not (exp_eq s n) then
      Alcotest.failf "round %d: compressed-image memo stale for tag %d at 0x%x"
        round tag pc
  done;
  let insn = Insn.codeword ~op:0 ~p1:0 ~p2:0 ~p3:0 ~tag:2 in
  let a = sparse ~pc:0x100002 insn in
  let b = sparse ~pc:0x100002 insn in
  check bool_ "re-hit shares the memoized expansion" true (a == b)

(* --- the fuzzer itself ------------------------------------------------ *)

let test_case_json_roundtrip () =
  let rng = Rng.create 9 in
  for _ = 1 to 25 do
    let c = F.Case.generate rng in
    match F.Case.of_json (F.Case.to_json c) with
    | Ok c' -> check bool_ "case survives JSON" true (c = c')
    | Error d -> Alcotest.failf "case JSON round-trip: %s" (Diag.to_string d)
  done

let small_case =
  {
    F.Case.seed = 5;
    dyn_target = 2_000;
    hot_kb = 1;
    cold_kb = 0;
    data_kb = 1;
    idiom_pool = 2;
    boundary_imms = true;
    n_prods = 3;
    mode = F.Case.Plain;
  }

let test_oracle_passes_and_detects_mutation () =
  (match F.Oracle.check small_case with
  | F.Oracle.Pass { expansions; _ } ->
    check bool_ "case actually expands" true (expansions > 0)
  | F.Oracle.Fail f ->
    Alcotest.failf "clean case failed: [%s] %s" f.F.Oracle.check
      f.F.Oracle.detail);
  match F.Oracle.check ~mutation:(F.Oracle.Nop_trigger_every 2) small_case with
  | F.Oracle.Fail _ -> ()
  | F.Oracle.Pass _ -> Alcotest.fail "lost-trigger mutation went undetected"

let test_fuzz_clean () =
  match F.Driver.fuzz ~iterations:10 ~seed:42 () with
  | F.Driver.Clean { iterations } -> check int_ "ran every iteration" 10 iterations
  | F.Driver.Found f ->
    Alcotest.failf "unexpected divergence at iteration %d: [%s] %s"
      f.F.Driver.iteration f.F.Driver.failure.F.Oracle.check
      f.F.Driver.failure.F.Oracle.detail

let test_self_test_and_replay () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-fuzz-selftest-%d" (Unix.getpid ()))
  in
  let replay_ok () =
    match F.Driver.replay dir with
    | Ok reproduced -> reproduced
    | Error d -> Alcotest.failf "replay load failed: %s" (Diag.to_string d)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () ->
      match F.Driver.self_test ~out:dir ~seed:1 () with
      | Error msg -> Alcotest.fail msg
      | Ok f ->
        check bool_ "detected within budget" true
          (f.F.Driver.iteration < F.Driver.self_test_iterations);
        (match f.F.Driver.artifact with
        | None -> Alcotest.fail "no artifact written"
        | Some _ -> ());
        check bool_ "replay reproduces" true (replay_ok ());
        (* deterministic: a second replay agrees with the first *)
        check bool_ "second replay agrees" true (replay_ok ()))

let suite =
  [
    ("branch boundary round-trips", `Quick, test_branch_boundary_roundtrip);
    ("branch out of range", `Quick, test_branch_out_of_range);
    ("codeword field validation", `Quick, test_codeword_field_validation);
    ("dense memo re-layout", `Quick, test_dense_memo_relayout);
    ("sparse memo re-layout", `Quick, test_sparse_memo_relayout);
    ("case JSON round-trip", `Quick, test_case_json_roundtrip);
    ("oracle pass + mutation detection", `Quick,
     test_oracle_passes_and_detects_mutation);
    ("fuzz clean run", `Quick, test_fuzz_clean);
    ("self-test + replay", `Quick, test_self_test_and_replay);
  ]
