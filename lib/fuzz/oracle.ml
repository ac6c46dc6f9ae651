module I = Dise_isa.Insn
module Image = Dise_isa.Program.Image
module Encode = Dise_isa.Encode
module Diag = Dise_isa.Diag
module Machine = Dise_machine.Machine
module Regfile = Dise_machine.Regfile
module Memory = Dise_machine.Memory
module Engine = Dise_core.Engine
module Pipeline = Dise_uarch.Pipeline
module Config = Dise_uarch.Config
module Cpi_stack = Dise_telemetry.Cpi_stack
module Json = Dise_telemetry.Json
module Diffexec = Dise_harness.Diffexec

type mutation = Nop_trigger_every of int

let mutation_to_json (Nop_trigger_every k) =
  Json.Obj [ ("kind", Json.String "nop_trigger_every"); ("k", Json.Int k) ]

let mutation_of_json doc =
  match (Json.member "kind" doc, Json.member "k" doc) with
  | Some (Json.String "nop_trigger_every"), Some (Json.Int k) when k > 0 ->
    Ok (Nop_trigger_every k)
  | _ ->
    Error
      (Diag.Parse
         { source = "fuzz-case"; line = 0; msg = "unknown mutation object" })

(* Corrupt an expander the way a lost-trigger engine bug would: the
   ACF prefix still runs, the application instruction silently
   disappears. Copies the sequence — the engine memoizes and shares
   its arrays, and a mutation that scribbled on them would corrupt
   unrelated expansions, muddying what the fuzzer is being tested
   on. *)
let mutate mutation inner =
  match mutation with
  | None -> inner
  | Some (Nop_trigger_every k) ->
    let count = ref 0 in
    fun ~pc insn ->
      match inner ~pc insn with
      | None -> None
      | Some e ->
        incr count;
        if !count mod k = 0 && Array.length e.Machine.seq > 0 then begin
          let seq = Array.copy e.Machine.seq in
          seq.(Array.length seq - 1) <- I.Nop;
          Some { e with Machine.seq }
        end
        else Some e

type failure = { check : string; detail : string }

type verdict = Pass of { steps : int; expansions : int } | Fail of failure

let fail check fmt = Printf.ksprintf (fun detail -> Error { check; detail }) fmt

(* --- encode roundtrip --------------------------------------------------- *)

let encode_roundtrip image =
  if not (Image.is_dense image) then Ok ()
  else
    match Encode.encode_image_result image with
    | Error d -> fail "encode" "generated image does not encode: %s" (Diag.to_string d)
    | Ok words ->
      let back = Encode.decode_image ~base:(Image.base image) words in
      let insns = Image.raw_insns image in
      let n = Array.length insns in
      let rec go i =
        if i >= n then Ok ()
        else if I.equal insns.(i) back.(i) then go (i + 1)
        else
          fail "encode" "roundtrip mismatch at index %d (0x%x): %s became %s" i
            (Image.addr_of_index image i)
            (I.to_string insns.(i))
            (I.to_string back.(i))
      in
      go 0

(* --- lockstep ----------------------------------------------------------- *)

let origin_str (r : Machine.Raw.t) =
  if r.rsid < 0 then "app" else Printf.sprintf "R%d[%d/%d]" r.rsid r.offset r.len

let event_str (r : Machine.Raw.t) =
  Printf.sprintf "pc=0x%x %s (%s)" r.pc (I.to_string r.insn) (origin_str r)

(* A branch target is only meaningful when there is a branch. *)
let event_eq (a : Machine.Raw.t) (b : Machine.Raw.t) =
  a.pc = b.pc && I.equal a.insn b.insn
  && a.rsid = b.rsid && a.offset = b.offset && a.len = b.len
  && a.expansion_start = b.expansion_start
  && a.mem_addr = b.mem_addr && a.branch = b.branch
  && (a.branch < 0 || a.target = b.target)
  && a.fetched_new_pc = b.fetched_new_pc

let step_budget (c : Case.t) = (c.dyn_target * 50) + 500_000

(* Step the three sides one dynamic instruction at a time, comparing
   the event streams as they happen — a divergence is reported at the
   exact step it first becomes observable, which is what makes the
   shrunk repro readable. *)
let lockstep ~budget (sides : (string * Machine.t) array) =
  let n = Array.length sides in
  let stepped = Array.make n false in
  let raw i = Machine.raw (snd sides.(i)) in
  let checksum i = Regfile.checksum_arch (Machine.regs (snd sides.(i))) in
  let rec go steps =
    if steps >= budget then Ok steps (* bounded run: all sides agree so far *)
    else begin
      let bad = ref None in
      for i = 0 to n - 1 do
        let name, m = sides.(i) in
        match Machine.step m with
        | s -> stepped.(i) <- s
        | exception ex ->
          stepped.(i) <- false;
          if !bad = None then
            bad := Some (name, Printexc.to_string ex)
      done;
      match !bad with
      | Some (name, ex) ->
        fail "crash" "side %s raised at step %d: %s" name steps ex
      | None -> (
        let first = stepped.(0) in
        let rec cmp i =
          if i >= n then Ok ()
          else
            match (first, stepped.(i)) with
            | false, false -> cmp (i + 1)
            | true, true when event_eq (raw 0) (raw i) -> cmp (i + 1)
            | true, true ->
              fail "lockstep" "step %d: %s says %s but %s says %s" steps
                (fst sides.(0)) (event_str (raw 0))
                (fst sides.(i))
                (event_str (raw i))
            | true, false ->
              fail "lockstep" "step %d: %s halted while %s executes %s" steps
                (fst sides.(i))
                (fst sides.(0)) (event_str (raw 0))
            | false, true ->
              fail "lockstep" "step %d: %s halted while %s executes %s" steps
                (fst sides.(0))
                (fst sides.(i))
                (event_str (raw i))
        in
        match cmp 1 with
        | Error f -> Error f
        | Ok () ->
          if not first then
            (* all halted together: compare final architectural state *)
            let rec final i =
              if i >= n then Ok steps
              else begin
                let m0 = snd sides.(0) and mi = snd sides.(i) in
                if Machine.exit_code m0 <> Machine.exit_code mi then
                  fail "exit" "%s exits %d but %s exits %d" (fst sides.(0))
                    (Machine.exit_code m0)
                    (fst sides.(i))
                    (Machine.exit_code mi)
                else if
                  Memory.checksum (Machine.memory m0)
                  <> Memory.checksum (Machine.memory mi)
                then
                  fail "state" "final memory differs between %s and %s"
                    (fst sides.(0))
                    (fst sides.(i))
                else final (i + 1)
              end
            in
            final 1
          else if steps land 4095 = 0 then begin
            let c0 = checksum 0 in
            let rec regs i =
              if i >= n then Ok ()
              else if checksum i <> c0 then
                fail "state"
                  "architectural registers diverge between %s and %s by \
                   step %d"
                  (fst sides.(0))
                  (fst sides.(i))
                  steps
              else regs (i + 1)
            in
            match regs 1 with Error f -> Error f | Ok () -> go (steps + 1)
          end
          else go (steps + 1))
    end
  in
  go 0

(* --- the full check ----------------------------------------------------- *)

let ( let* ) = Result.bind

let run_checks ?mutation (b : Case.built) =
  let* () = encode_roundtrip b.Case.image in
  let* () = encode_roundtrip b.Case.reference in
  let prodset = b.Case.prodset in
  let machine expander =
    let m = Machine.create ~expander b.Case.image in
    b.Case.init m;
    m
  in
  let dense_engine () = Engine.create ~image:b.Case.image prodset in
  let budget = step_budget b.Case.case in
  let m_naive = machine (Naive.expander prodset) in
  let m_dense = machine (mutate mutation (Engine.expander (dense_engine ()))) in
  let m_hash = machine (Engine.expander (Engine.create prodset)) in
  (* Fourth side: the superblock JIT over an unmutated engine, with a
     threshold low enough that hot traces compile within the budget —
     every fuzz iteration proves the compiled path produces the same
     event stream, instruction for instruction. (Mutated expanders are
     stateful — the mutation counts calls — and the JIT's compile-ahead
     would perturb the count sequence, so the JIT side is never
     mutated; the mutated dense side still diverges from naive, which
     is what mutation detection relies on.) *)
  let m_jit =
    let eng = dense_engine () in
    let m = machine (Engine.expander eng) in
    Engine.attach_jit ~threshold:2 eng m;
    m
  in
  let* steps =
    lockstep ~budget
      [|
        ("naive", m_naive);
        ("engine-memo", m_dense);
        ("engine-hash", m_hash);
        ("engine-jit", m_jit);
      |]
  in
  let expansions = Machine.expansions m_dense in
  let* () =
    (* Transparent modes drop ACF-inserted instructions and keep the
       trigger (app_semantics); decompression instead reconstructs the
       whole original stream, so every event is kept. *)
    let keep =
      match b.Case.case.Case.mode with
      | Case.Compressed _ -> fun (_ : Machine.Raw.t) -> true
      | Case.Plain | Case.Mfi _ -> Diffexec.app_semantics
    in
    match
      Diffexec.run ~max_steps:budget ~keep
        ~left:(Diffexec.side b.Case.reference)
        ~right:
          (Diffexec.side
             ~expander:(mutate mutation (Engine.expander (dense_engine ())))
             ~init:b.Case.init b.Case.image)
        ()
    with
    | Diffexec.Equivalent _ -> Ok ()
    | Diffexec.Diverged _ as o ->
      fail "transparency" "%s" (Format.asprintf "%a" Diffexec.pp_outcome o)
    | exception ex ->
      fail "crash" "transparency run raised: %s" (Printexc.to_string ex)
  in
  let* () =
    let m = machine (mutate mutation (Engine.expander (dense_engine ()))) in
    match Pipeline.run ~max_steps:budget Config.default m with
    | stats ->
      if stats.Dise_uarch.Stats.retired <> Machine.executed m then
        fail "stats" "pipeline retired %d instructions, machine executed %d"
          stats.Dise_uarch.Stats.retired (Machine.executed m)
      else if stats.Dise_uarch.Stats.expansions <> Machine.expansions m then
        fail "stats" "pipeline counted %d expansions, machine performed %d"
          stats.Dise_uarch.Stats.expansions (Machine.expansions m)
      else (
        match
          Cpi_stack.check stats.Dise_uarch.Stats.cpi
            ~cycles:stats.Dise_uarch.Stats.cycles
        with
        | () -> Ok ()
        | exception Failure msg -> fail "stats" "CPI-stack invariant: %s" msg)
    | exception ex ->
      fail "crash" "pipeline run raised: %s" (Printexc.to_string ex)
  in
  Ok (steps, expansions)

let check ?mutation case =
  match Case.build case with
  | exception ex ->
    Fail
      {
        check = "crash";
        detail = "case derivation raised: " ^ Printexc.to_string ex;
      }
  | built -> (
    match run_checks ?mutation built with
    | Ok (steps, expansions) -> Pass { steps; expansions }
    | Error f -> Fail f
    | exception ex ->
      Fail { check = "crash"; detail = "oracle raised: " ^ Printexc.to_string ex })

let pp_verdict ppf = function
  | Pass { steps; expansions } ->
    Format.fprintf ppf "pass (%d lockstep steps, %d expansions)" steps
      expansions
  | Fail { check; detail } -> Format.fprintf ppf "FAIL [%s] %s" check detail
