(* Tests for the ACF layer: fault isolation (DISE and rewriting),
   compression (losslessness, scheme feature effects), the auxiliary
   transparent ACFs, and MFI/decompression composition. *)

open Dise_isa
open Dise_acf
module Machine = Dise_machine.Machine
module Memory = Dise_machine.Memory
module Regfile = Dise_machine.Regfile
module Engine = Dise_core.Engine
module Prodset = Dise_core.Prodset
module W = Dise_workload

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let data_lo = 0x04000000
let data_hi = 0x07F00000 (* excludes the stack (holds code addresses) *)

let data_checksum m =
  Memory.checksum_range (Machine.memory m) ~lo:data_lo ~hi:data_hi

(* A program with one deliberate out-of-segment store, guarded by a
   flag in r10: harmless when r10=0. *)
let victim_src =
  {|
  main:
    lui #1024, r1       ; legal data pointer
    lui #3072, r9       ; segment-3 pointer: illegal
    add zero, #5, r2
    stq r2, 0(r1)
    beq r10, skip
    stq r2, 0(r9)       ; the bad store
  skip:
    ldq r3, 0(r1)
    add zero, #0, r2
    halt
  __error:
    add zero, #77, r2
    halt
  |}

let victim_image () = Program.layout ~base:0x100000 (Asm.parse victim_src)

(* --- MFI (DISE) ------------------------------------------------------ *)

let run_mfi ?variant ~bad () =
  let img = victim_image () in
  let set = Mfi.productions_for ?variant img in
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Mfi.install m ~data_seg:1 ~code_seg:0;
  if bad then Machine.set_reg m (Reg.r 10) 1;
  ignore (Machine.run_raw m ignore);
  m

let test_mfi_passes_legal () =
  let m = run_mfi ~bad:false () in
  check int_ "clean exit" 0 (Machine.exit_code m);
  check int_ "legal store done" 5 (Memory.read_u32 (Machine.memory m) data_lo)

let test_mfi_catches_illegal () =
  let m = run_mfi ~bad:true () in
  check int_ "trapped" 77 (Machine.exit_code m);
  check int_ "bad store suppressed" 0
    (Memory.read_u32 (Machine.memory m) 0x0C000000)

let test_mfi_dise4_equivalent () =
  let m = run_mfi ~variant:Mfi.Dise4 ~bad:true () in
  check int_ "DISE4 also traps" 77 (Machine.exit_code m);
  let m2 = run_mfi ~variant:Mfi.Dise4 ~bad:false () in
  check int_ "DISE4 passes legal" 0 (Machine.exit_code m2)

let test_mfi_check_lengths () =
  check int_ "DISE3 adds 3" 3 (Mfi.check_length Mfi.Dise3);
  check int_ "DISE4 adds 4" 4 (Mfi.check_length Mfi.Dise4);
  let img = victim_image () in
  let set3 = Mfi.productions_for ~variant:Mfi.Dise3 img in
  let st = Insn.Mem (Opcode.Stq, Reg.r 1, 0, Reg.r 2) in
  match Engine.expand (Engine.create set3) ~pc:0x100000 st with
  | Some e -> check int_ "DISE3 sequence = 4 insns incl. trigger" 4
                (Array.length e.Machine.seq)
  | None -> Alcotest.fail "store should expand"

let test_mfi_jump_checks () =
  let img = victim_image () in
  let set = Mfi.productions_for ~check_jumps:true img in
  let jr = Insn.Jr Reg.ra in
  check bool_ "jr expands under check_jumps" true
    (Engine.expand (Engine.create set) ~pc:0x100000 jr <> None);
  let set' = Mfi.productions_for img in
  check bool_ "jr not expanded by default" true
    (Engine.expand (Engine.create set') ~pc:0x100000 jr = None)

let test_mfi_dise_sandboxing () =
  (* The DISE sandboxing flavour: the bad store is silently redirected
     into the legal segment; nothing traps. *)
  let img = victim_image () in
  let set = Mfi.sandbox_productions () in
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Mfi.install_sandbox m ~data_seg:1;
  Machine.set_reg m (Reg.r 10) 1 (* enable the bad store *);
  ignore (Machine.run_raw m ignore);
  check int_ "no trap" 0 (Machine.exit_code m);
  check int_ "store redirected into legal segment" 5
    (Memory.read_u32 (Machine.memory m) data_lo);
  check int_ "illegal segment untouched" 0
    (Memory.read_u32 (Machine.memory m) 0x0C000000);
  (* Loads are rebuilt too: r3 must still read back the legal value. *)
  check int_ "rebuilt load works" 5 (Regfile.get (Machine.regs m) (Reg.r 3))

(* --- MFI (binary rewriting) ------------------------------------------ *)

let run_rewritten ?variant ~bad () =
  let prog = Asm.parse victim_src in
  let rw = Rewrite.rewrite ?variant ~data_seg:1 ~code_seg:0 prog in
  let img = Program.layout ~base:0x100000 rw in
  let m = Machine.create img in
  if bad then Machine.set_reg m (Reg.r 10) 1;
  ignore (Machine.run_raw m ignore);
  (m, prog, rw)

let test_rewrite_passes_legal () =
  let m, _, _ = run_rewritten ~bad:false () in
  check int_ "clean exit" 0 (Machine.exit_code m);
  check int_ "store done" 5 (Memory.read_u32 (Machine.memory m) data_lo)

let test_rewrite_catches_illegal () =
  let m, _, _ = run_rewritten ~bad:true () in
  check int_ "trapped" 77 (Machine.exit_code m);
  check int_ "bad store suppressed" 0
    (Memory.read_u32 (Machine.memory m) 0x0C000000)

let test_rewrite_static_growth () =
  let _, prog, rw = run_rewritten ~bad:false () in
  (* 3 memory ops -> +12 instructions, plus 2 init instructions. *)
  check int_ "inserted instructions" (Program.size prog + 14) (Program.size rw);
  check bool_ "growth ratio computed" true
    (Rewrite.static_growth prog rw > 1.5)

let test_rewrite_rejects_scavenged () =
  let prog = Asm.parse (victim_src ^ "  add zero, #1, r24\n") in
  List.iter
    (fun variant ->
      match Rewrite.rewrite ~variant ~data_seg:1 ~code_seg:0 prog with
      | _ -> Alcotest.fail "a program writing r24 was rewritten"
      | exception Invalid_argument msg ->
        let has sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
          in
          go 0
        in
        check bool_ (Printf.sprintf "names the register (%S)" msg) true
          (has "r24");
        check bool_ (Printf.sprintf "names the instruction (%S)" msg) true
          (has "add"))
    [ Rewrite.Segment_matching; Rewrite.Sandboxing ]

let test_sandboxing_redirects () =
  (* Sandboxing forces the bad store into the legal segment instead of
     trapping. *)
  let m, _, _ = run_rewritten ~variant:Rewrite.Sandboxing ~bad:true () in
  check int_ "no trap" 0 (Machine.exit_code m);
  check int_ "store redirected into legal segment" 5
    (Memory.read_u32 (Machine.memory m) data_lo);
  check int_ "illegal segment untouched" 0
    (Memory.read_u32 (Machine.memory m) 0x0C000000)

let test_rewrite_on_workload () =
  let e = W.Suite.get ~dyn_target:30_000 W.Profile.tiny in
  let rw =
    Rewrite.rewrite ~data_seg:W.Codegen.data_segment_id
      ~code_seg:W.Codegen.code_segment_id e.W.Suite.gen.W.Codegen.program
  in
  let img = Program.layout ~base:W.Codegen.code_base rw in
  let m = Machine.create img in
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  check int_ "rewritten workload runs clean" 0 (Machine.exit_code m);
  (* Same data-segment effects as the original. *)
  let m0 = Machine.create e.W.Suite.image in
  ignore (Machine.run_raw ~max_steps:5_000_000 m0 ignore);
  check int_ "identical data effects" (data_checksum m0) (data_checksum m)

(* --- compression ------------------------------------------------------ *)

let reference_run (e : W.Suite.entry) =
  let m = Machine.create e.W.Suite.image in
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  (Machine.exit_code m, data_checksum m)

let compressed_run (r : Compress.result) =
  let m =
    Machine.create
      ~expander:(Engine.expander (Engine.create r.Compress.prodset))
      r.Compress.image
  in
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  (Machine.exit_code m, data_checksum m)

let tiny_entry () = W.Suite.get ~dyn_target:30_000 W.Profile.tiny

let test_compression_lossless_all_schemes () =
  let e = tiny_entry () in
  let refr = reference_run e in
  List.iter
    (fun scheme ->
      let r = Compress.compress ~scheme e.W.Suite.gen.W.Codegen.program in
      let got = compressed_run r in
      if got <> refr then
        Alcotest.failf "scheme %s is not lossless" scheme.Compress.name)
    Compress.fig7_schemes

let test_compression_shrinks () =
  let e = tiny_entry () in
  List.iter
    (fun scheme ->
      let r = Compress.compress ~scheme e.W.Suite.gen.W.Codegen.program in
      let ratio = Compress.compression_ratio r in
      if not (ratio > 0.15 && ratio < 1.0) then
        Alcotest.failf "scheme %s ratio implausible: %.3f"
          scheme.Compress.name ratio;
      check bool_ "dict accounted" true (r.Compress.dict_bytes > 0))
    Compress.fig7_schemes

let test_scheme_feature_ordering () =
  let e = tiny_entry () in
  let total scheme =
    Compress.total_ratio (Compress.compress ~scheme e.W.Suite.gen.W.Codegen.program)
  in
  let ded = total Compress.dedicated in
  let m1 = total Compress.minus_1insn in
  let m2 = total Compress.minus_2byte_cw in
  let de8 = total Compress.plus_8byte_de in
  let par = total Compress.plus_3param in
  let dise = total Compress.full_dise in
  check bool_ "removing 1-insn entries hurts" true (m1 > ded);
  check bool_ "removing 2-byte codewords hurts" true (m2 > m1);
  check bool_ "8-byte entries hurt" true (de8 >= m2);
  check bool_ "parameterization recovers" true (par < de8);
  check bool_ "branch compression helps further" true (dise < par)

let test_dedicated_single_insn_entries () =
  let e = tiny_entry () in
  let r = Compress.compress ~scheme:Compress.dedicated e.W.Suite.gen.W.Codegen.program in
  check bool_ "has single-instruction entries" true
    (List.exists (fun en -> en.Compress.len = 1) r.Compress.entries);
  let r2 =
    Compress.compress ~scheme:Compress.minus_1insn e.W.Suite.gen.W.Codegen.program
  in
  check bool_ "min_len respected" true
    (List.for_all (fun en -> en.Compress.len >= 2) r2.Compress.entries)

let test_entry_invariants () =
  let e = tiny_entry () in
  List.iter
    (fun scheme ->
      let r = Compress.compress ~scheme e.W.Suite.gen.W.Codegen.program in
      List.iter
        (fun en ->
          if en.Compress.tag < 0 || en.Compress.tag > 2047 then
            Alcotest.failf "tag out of range: %d" en.Compress.tag;
          if en.Compress.param_fields > scheme.Compress.max_params then
            Alcotest.failf "too many params in %s" scheme.Compress.name;
          if en.Compress.len > scheme.Compress.max_len then
            Alcotest.failf "entry too long";
          if en.Compress.uses <= 0 then
            Alcotest.failf "dead entry retained")
        r.Compress.entries)
    [ Compress.dedicated; Compress.plus_3param; Compress.full_dise ]

let test_unparameterized_entries_are_static () =
  let e = tiny_entry () in
  let r =
    Compress.compress ~scheme:Compress.minus_2byte_cw
      e.W.Suite.gen.W.Codegen.program
  in
  List.iter
    (fun en ->
      check int_ "no params" 0 en.Compress.param_fields;
      check bool_ "spec is static" true
        (Dise_core.Replacement.is_static en.Compress.spec))
    r.Compress.entries

let test_dedicated_codewords_halfword () =
  let e = tiny_entry () in
  let r = Compress.compress ~scheme:Compress.dedicated e.W.Suite.gen.W.Codegen.program in
  (* Compressed image must contain 2-byte-aligned codewords. *)
  let img = r.Compress.image in
  let found = ref false in
  Program.Image.iter
    (fun ~addr insn ->
      match insn with
      | Insn.Codeword _ ->
        found := true;
        if addr land 1 <> 0 then Alcotest.fail "codeword misaligned"
      | _ -> ())
    img;
  check bool_ "codewords planted" true !found;
  check bool_ "text smaller than 4*insns" true
    (Program.Image.text_bytes img < 4 * Program.Image.length img)

let test_branch_compression_only_full_dise () =
  let e = tiny_entry () in
  let has_branch_entry r =
    List.exists
      (fun en ->
        Array.exists
          (function Dise_core.Replacement.Br _ -> true | _ -> false)
          en.Compress.spec)
      r.Compress.entries
  in
  let r_par =
    Compress.compress ~scheme:Compress.plus_3param e.W.Suite.gen.W.Codegen.program
  in
  let r_dise =
    Compress.compress ~scheme:Compress.full_dise e.W.Suite.gen.W.Codegen.program
  in
  check bool_ "+3param has no branch entries" false (has_branch_entry r_par);
  check bool_ "DISE compresses branches" true (has_branch_entry r_dise)

(* --- compressor golden pin ------------------------------------------- *)

(* Every dictionary the quick figure suite builds, pinned byte for byte:
   the six Figure 7 schemes and the parameter-budget and length-cap
   ablations (defined here exactly as [Ablate] defines them), on the
   four quick-suite benchmarks and four seeds of the tiny profile; the
   dedicated and DISE dictionaries of each benchmark's rewritten (MFI)
   binary; and digests of the candidate windows of three corpora. The
   expected text is golden/compress.txt; a mismatch writes
   compress.actual ([Golden_file.check]). *)
let pin_schemes =
  let params k =
    { Compress.plus_8byte_de with
      Compress.name = Printf.sprintf "p%d" k;
      max_params = k;
      compress_branches = k >= 2;
    }
  in
  let max_len n =
    { Compress.full_dise with Compress.name = Printf.sprintf "len%d" n; max_len = n }
  in
  Compress.fig7_schemes
  @ List.map params [ 0; 1; 2; 3 ]
  @ List.map max_len [ 2; 4; 8; 16 ]

let pin_line label (scheme : Compress.scheme) (r : Compress.result) =
  let b = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "%a@." Program.pp r.Compress.program;
  List.iter
    (fun (en : Compress.entry) ->
      Format.fprintf ppf "entry %d uses %d@.%a@." en.Compress.tag en.Compress.uses
        Dise_core.Replacement.pp en.Compress.spec)
    r.Compress.entries;
  Format.pp_print_flush ppf ();
  Printf.sprintf "%s %s text=%d dict=%d codewords=%d entries=%d md5=%s" label
    scheme.Compress.name r.Compress.text_bytes r.Compress.dict_bytes
    r.Compress.codewords
    (List.length r.Compress.entries)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* One line per scheme. The output does not depend on a scheme's name,
   so schemes that differ only in it (p0 is +8byteDE; p3 and len8 are
   DISE) are compressed once. *)
let pin_lines label schemes prog =
  let done_ = Hashtbl.create 16 in
  List.map
    (fun (s : Compress.scheme) ->
      let key = { s with Compress.name = "" } in
      let r =
        match Hashtbl.find_opt done_ key with
        | Some r -> r
        | None ->
          let r = Compress.compress ~scheme:s prog in
          Hashtbl.add done_ key r;
          r
      in
      pin_line label s r)
    schemes

let windows_line label (scheme : Compress.scheme) prog =
  let ws = Compress.windows (Compress.corpus ~scheme prog) in
  let b = Buffer.create 65536 in
  List.iter
    (fun (w : Compress.window) ->
      let s = w.Compress.w_seed in
      Printf.bprintf b "%d %d %d %d %d:" s.Compress.s_blk s.Compress.s_start
        s.Compress.s_len w.Compress.w_len w.Compress.w_count;
      List.iter
        (fun (blk, start, idx) -> Printf.bprintf b " %d/%d/%d" blk start idx)
        w.Compress.w_sites;
      Buffer.add_char b '\n')
    ws;
  Printf.sprintf "%s %s windows=%d md5=%s" label scheme.Compress.name
    (List.length ws)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let quick_bench name =
  let p = Option.get (W.Profile.find name) in
  (name, (W.Suite.get ~dyn_target:120_000 p).W.Suite.gen.W.Codegen.program)

let compress_pin_lines () =
  let tiny seed =
    ( Printf.sprintf "tiny/s%d" seed,
      (W.Codegen.generate ~dyn_target:30_000 { W.Profile.tiny with W.Profile.seed })
        .W.Codegen.program )
  in
  let quick = List.map quick_bench [ "mcf"; "bzip2"; "gzip"; "parser" ] in
  let progs = quick @ [ tiny 1; tiny 2; tiny 3; tiny 4 ] in
  let rewritten (label, prog) =
    pin_lines (label ^ "/rewritten")
      [ Compress.dedicated; Compress.full_dise ]
      (Rewrite.rewrite ~data_seg:W.Codegen.data_segment_id
         ~code_seg:W.Codegen.code_segment_id prog)
  in
  List.concat_map (fun (label, prog) -> pin_lines label pin_schemes prog) progs
  @ List.concat_map rewritten quick
  @ [ windows_line "tiny/s1" Compress.full_dise (List.assoc "tiny/s1" progs);
      windows_line "mcf" Compress.dedicated (List.assoc "mcf" progs);
      windows_line "mcf" Compress.full_dise (List.assoc "mcf" progs) ]

let test_compress_golden_pin () =
  Golden_file.check ~golden:"golden/compress.txt" ~actual:"compress.actual"
    ~what:"compressor output" (compress_pin_lines ())

(* [Compress] keeps nothing between calls: two domains compressing at
   once, one in reverse scheme order, print the sequential run's lines.
   A scratch buffer or cache kept at module level would break this. *)
let test_compress_reentrant () =
  let progs = List.map quick_bench [ "mcf"; "gzip" ] in
  let run schemes () =
    List.concat_map
      (fun (label, prog) ->
        List.map
          (fun s -> pin_line label s (Compress.compress ~scheme:s prog))
          schemes)
      progs
  in
  let sequential =
    List.concat_map (fun (label, prog) -> pin_lines label pin_schemes prog) progs
  in
  let forward = Domain.spawn (run pin_schemes) in
  let reversed = Domain.spawn (run (List.rev pin_schemes)) in
  let lines = Alcotest.(list string) in
  let sorted = List.sort String.compare in
  check lines "forward order" sequential (Domain.join forward);
  check lines "reverse order" (sorted sequential) (sorted (Domain.join reversed))

let test_incompressible_program () =
  (* A program with no repeated sequences: compression must degrade
     gracefully to (near) identity and still run. *)
  let b = Buffer.create 512 in
  Buffer.add_string b "main:\n";
  for i = 1 to 40 do
    Buffer.add_string b
      (Printf.sprintf "  add r%d, #%d, r%d\n" (1 + (i mod 7)) (i * 37)
         (1 + ((i + 3) mod 7)))
  done;
  Buffer.add_string b "  add zero, #0, r2\n  halt\n";
  let prog = Asm.parse (Buffer.contents b) in
  let r = Compress.compress ~scheme:Compress.full_dise prog in
  check bool_ "ratio near 1" true (Compress.compression_ratio r > 0.85);
  let m =
    Machine.create
      ~expander:(Engine.expander (Engine.create r.Compress.prodset))
      r.Compress.image
  in
  ignore (Machine.run_raw m ignore);
  check int_ "still runs" 0 (Machine.exit_code m)

(* --- tracing / profiling / watchpoints -------------------------------- *)

let test_tracing () =
  let img = victim_image () in
  let set = Tracing.productions () in
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Tracing.install m ~buffer:0x04100000;
  ignore (Machine.run_raw m ignore);
  check int_ "clean run" 0 (Machine.exit_code m);
  (match Tracing.trace m ~buffer:0x04100000 with
  | [ a ] -> check int_ "store address traced" data_lo a
  | l -> Alcotest.failf "expected one trace entry, got %d" (List.length l))

let test_profiling () =
  let e = W.Suite.get ~dyn_target:20_000 W.Profile.tiny in
  let set = Profiling.productions () in
  let m =
    Machine.create ~expander:(Engine.expander (Engine.create set))
      e.W.Suite.image
  in
  Profiling.install m ~buffer:0x06000000;
  ignore (Machine.run_raw ~max_steps:5_000_000 m ignore);
  check int_ "clean run" 0 (Machine.exit_code m);
  let counts = Profiling.counts m ~buffer:0x06000000 in
  check bool_ "branches profiled" true (List.length counts > 5);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  check bool_ "counts match executed branches" true (total > 500);
  match Profiling.hottest m ~buffer:0x06000000 ~n:3 with
  | (_, hot) :: _ -> check bool_ "hottest is hot" true (hot * 10 >= total / 10)
  | [] -> Alcotest.fail "no hot branches"

let test_path_profiling () =
  (* A function with a deterministic 4-iteration loop: the branch
     outcome sequence is TTNTTTNN (alternating data branch interleaved
     with the loop bound), recorded at the return. *)
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           jal work
           add zero, #0, r2
           halt
         work:
           add zero, #4, r4
         loop:
           and r4, #1, r5
           beq r5, even
           add r6, #1, r6
         even:
           add r4, #-1, r4
           bgt r4, loop
           jr ra
         |})
  in
  let set = Path_profiling.productions () in
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Path_profiling.install m ~buffer:0x06000000;
  ignore (Machine.run_raw ~max_steps:100_000 m ignore);
  check int_ "clean run" 0 (Machine.exit_code m);
  match Path_profiling.paths m ~buffer:0x06000000 with
  | [ p ] ->
    check int_ "one distinct path" 1 p.Path_profiling.count;
    check int_ "eight outcomes" 8 p.Path_profiling.length;
    let rendered = Format.asprintf "%a" Path_profiling.pp_path p in
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    check bool_ "outcome bits TTNTTTNN" true (contains rendered "TTNTTTNN")
  | l -> Alcotest.failf "expected one path, got %d" (List.length l)

let test_path_profiling_truncation () =
  (* A long loop overflows the history; the tag restarts instead of
     corrupting (lossy, as the paper permits). *)
  let img =
    Program.layout
      (Asm.parse
         {|
         main:
           jal work
           add zero, #0, r2
           halt
         work:
           add zero, #100, r4
         loop:
           add r4, #-1, r4
           bgt r4, loop
           jr ra
         |})
  in
  let set = Path_profiling.productions () in
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Path_profiling.install m ~buffer:0x06000000;
  ignore (Machine.run_raw ~max_steps:100_000 m ignore);
  check int_ "clean run" 0 (Machine.exit_code m);
  match Path_profiling.paths m ~buffer:0x06000000 with
  | [ p ] ->
    check bool_ "length capped" true
      (p.Path_profiling.length <= Path_profiling.history_bits)
  | l -> Alcotest.failf "expected one path, got %d" (List.length l)

let test_watchpoint () =
  let img = victim_image () in
  let set = Watchpoint.productions_for img in
  let run addr =
    let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
    Watchpoint.install m ~addr;
    ignore (Machine.run_raw m ignore);
    m
  in
  let hit = run data_lo in
  check int_ "watched store traps" 77 (Machine.exit_code hit);
  let miss = run 0x04000100 in
  check int_ "other stores pass" 0 (Machine.exit_code miss);
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Watchpoint.disarm m;
  ignore (Machine.run_raw m ignore);
  check int_ "disarmed watch never fires" 0 (Machine.exit_code m)

(* --- fine-grain DSM ---------------------------------------------------- *)

let test_dsm_access_control () =
  let img = victim_image () in
  let set = Dsm.productions_for img in
  let shadow = 0x06000000 in
  let run ~present =
    let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
    Dsm.install m ~shadow_base:shadow ~data_base:data_lo;
    (* Mark the whole data region present, then optionally pull the
       first block. *)
    Dsm.mark_present m ~shadow_base:shadow ~data_base:data_lo ~addr:data_lo
      ~len:4096;
    (* The shadow table itself is accessed by replacement loads; those
       loads are themselves expanded (no recursion: the expansion
       happens on application instructions only). Mark it too so the
       region check in this test stays simple. *)
    if not present then
      Dsm.mark_absent m ~shadow_base:shadow ~data_base:data_lo ~addr:data_lo
        ~len:Dsm.block_bytes;
    ignore (Machine.run_raw m ignore);
    m
  in
  let ok = run ~present:true in
  check int_ "present blocks pass" 0 (Machine.exit_code ok);
  check int_ "store performed" 5 (Memory.read_u32 (Machine.memory ok) data_lo);
  let miss = run ~present:false in
  check int_ "absent block traps" 77 (Machine.exit_code miss);
  check int_ "store suppressed" 0
    (Memory.read_u32 (Machine.memory miss) data_lo)

let test_dsm_block_granularity () =
  let img = victim_image () in
  let set = Dsm.productions_for img in
  let shadow = 0x06000000 in
  let m = Machine.create ~expander:(Engine.expander (Engine.create set)) img in
  Dsm.install m ~shadow_base:shadow ~data_base:data_lo;
  (* Present everywhere except one block 256 bytes in; the victim only
     touches offset 0, so it must run clean. *)
  Dsm.mark_present m ~shadow_base:shadow ~data_base:data_lo ~addr:data_lo
    ~len:4096;
  Dsm.mark_absent m ~shadow_base:shadow ~data_base:data_lo
    ~addr:(data_lo + 256) ~len:1;
  ignore (Machine.run_raw m ignore);
  check int_ "untouched absent block is harmless" 0 (Machine.exit_code m)

(* --- composition ------------------------------------------------------- *)

let test_composed_decompression_runs () =
  let e = tiny_entry () in
  let refr = reference_run e in
  let r = Compress.compress ~scheme:Compress.full_dise e.W.Suite.gen.W.Codegen.program in
  let composed = Acf_compose.for_compressed r in
  let m =
    Machine.create ~expander:(Engine.expander (Engine.create composed))
      r.Compress.image
  in
  Mfi.install m ~data_seg:W.Codegen.data_segment_id
    ~code_seg:W.Codegen.code_segment_id;
  ignore (Machine.run_raw ~max_steps:8_000_000 m ignore);
  check int_ "composed run clean" 0 (Machine.exit_code m);
  check int_ "same data effects as original"
    (snd refr) (data_checksum m)

let test_composed_catches_bad_store () =
  (* Compress the victim program, compose MFI over it, and check the
     decompressed bad store still traps. *)
  let prog = Asm.parse victim_src in
  let r = Compress.compress ~scheme:Compress.full_dise prog in
  let composed = Acf_compose.for_compressed r in
  let m =
    Machine.create ~expander:(Engine.expander (Engine.create composed))
      r.Compress.image
  in
  Mfi.install m ~data_seg:1 ~code_seg:0;
  Machine.set_reg m (Reg.r 10) 1;
  ignore (Machine.run_raw m ignore);
  check int_ "bad store trapped through composition" 77 (Machine.exit_code m)

let test_composition_grows_rt_working_set () =
  let e = tiny_entry () in
  let r = Compress.compress ~scheme:Compress.full_dise e.W.Suite.gen.W.Codegen.program in
  let composed = Acf_compose.for_compressed r in
  let growth =
    Acf_compose.rt_entry_growth ~plain:r.Compress.prodset ~composed
  in
  check bool_ "composition inflates sequences" true (growth > 1.05)

(* --- the production language prints what it reads ------------------- *)

module Lang = Dise_core.Lang
module Production = Dise_core.Production

(* [Lang.parse (Lang.to_string s)] must keep every production (name,
   pattern, priority, right-hand side) and every sequence of every set
   the system builds. *)
let check_reparses label set =
  let prods s =
    List.sort compare
      (List.map
         (fun p ->
           ( p.Production.name,
             p.Production.pattern,
             p.Production.priority,
             p.Production.rsid ))
         (Prodset.productions s))
  in
  match Lang.parse (Lang.to_string set) with
  | set' ->
    if prods set' <> prods set then Alcotest.failf "%s: productions differ" label;
    if Prodset.sequences set' <> Prodset.sequences set then
      Alcotest.failf "%s: sequences differ" label
  | exception Lang.Parse_error (line, msg) ->
    Alcotest.failf "%s: line %d: %s" label line msg

let test_lang_roundtrips_every_set () =
  let error = 0x9000 in
  List.iter
    (fun (label, set) -> check_reparses label set)
    [
      ("mfi dise3", Mfi.productions ~variant:Mfi.Dise3 ~error ());
      ("mfi dise4", Mfi.productions ~variant:Mfi.Dise4 ~check_jumps:true ~error ());
      ("sandbox", Mfi.sandbox_productions ());
      ("tracing", Tracing.productions ());
      ("profiling", Profiling.productions ());
      ("path profiling", Path_profiling.productions ());
      ("dsm", Dsm.productions ~handler:error ());
      ("watchpoint", Watchpoint.productions ~handler:error ());
    ];
  let quick = Dise_harness.Figures.quick_opts in
  List.iter
    (fun bench ->
      let e =
        W.Suite.get ~dyn_target:quick.Dise_harness.Figures.dyn_target
          (Option.get (W.Profile.find bench))
      in
      List.iter
        (fun scheme ->
          let r = Compress.compress ~scheme e.W.Suite.gen.W.Codegen.program in
          let label = bench ^ "/" ^ scheme.Compress.name in
          check_reparses label r.Compress.prodset;
          if scheme == Compress.full_dise then
            check_reparses (label ^ " composed") (Acf_compose.for_compressed r))
        Compress.fig7_schemes)
    quick.Dise_harness.Figures.benchmarks;
  let rng = W.Rng.create 1 in
  for i = 1 to 20 do
    let case = { (Dise_fuzz.Case.generate rng) with mode = Dise_fuzz.Case.Plain } in
    check_reparses
      (Printf.sprintf "fuzz plain %d" i)
      (Dise_fuzz.Case.build case).Dise_fuzz.Case.prodset
  done

let suite =
  [
    ("MFI passes legal", `Quick, test_mfi_passes_legal);
    ("MFI catches illegal", `Quick, test_mfi_catches_illegal);
    ("MFI DISE4 equivalent", `Quick, test_mfi_dise4_equivalent);
    ("MFI check lengths", `Quick, test_mfi_check_lengths);
    ("MFI jump checks", `Quick, test_mfi_jump_checks);
    ("MFI DISE sandboxing", `Quick, test_mfi_dise_sandboxing);
    ("rewrite passes legal", `Quick, test_rewrite_passes_legal);
    ("rewrite catches illegal", `Quick, test_rewrite_catches_illegal);
    ("rewrite static growth", `Quick, test_rewrite_static_growth);
    ("rewrite rejects scavenged registers", `Quick,
     test_rewrite_rejects_scavenged);
    ("sandboxing redirects", `Quick, test_sandboxing_redirects);
    ("rewrite on workload", `Quick, test_rewrite_on_workload);
    ("compression lossless (all schemes)", `Quick,
     test_compression_lossless_all_schemes);
    ("compression shrinks", `Quick, test_compression_shrinks);
    ("scheme feature ordering", `Quick, test_scheme_feature_ordering);
    ("dedicated single-insn entries", `Quick, test_dedicated_single_insn_entries);
    ("entry invariants", `Quick, test_entry_invariants);
    ("unparameterized entries static", `Quick,
     test_unparameterized_entries_are_static);
    ("dedicated codewords halfword", `Quick, test_dedicated_codewords_halfword);
    ("branch compression only in full DISE", `Quick,
     test_branch_compression_only_full_dise);
    ("dsm access control", `Quick, test_dsm_access_control);
    ("dsm block granularity", `Quick, test_dsm_block_granularity);
    ("incompressible program", `Quick, test_incompressible_program);
    ("compressor golden pin", `Quick, test_compress_golden_pin);
    ("compressor re-entrant", `Quick, test_compress_reentrant);
    ("tracing", `Quick, test_tracing);
    ("profiling", `Quick, test_profiling);
    ("path profiling", `Quick, test_path_profiling);
    ("path profiling truncation", `Quick, test_path_profiling_truncation);
    ("watchpoint", `Quick, test_watchpoint);
    ("composed decompression runs", `Quick, test_composed_decompression_runs);
    ("composed catches bad store", `Quick, test_composed_catches_bad_store);
    ("composition grows RT working set", `Quick,
     test_composition_grows_rt_working_set);
    ("lang round-trips every set", `Quick, test_lang_roundtrips_every_set);
  ]
