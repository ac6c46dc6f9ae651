module I = Dise_isa.Insn
module Image = Dise_isa.Program.Image
module Machine = Dise_machine.Machine

exception Expansion_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Expansion_error s)) fmt

(* The expansion memo: one slot per static instruction of the image,
   indexed through [Image.find_index], so the per-fetch lookup is a few
   array reads. [known] marks computed slots; [slots] stores the shared
   option, so cache hits allocate nothing. [triggers] remembers the
   instruction each slot was computed for: PC alone is not a sound key
   — an image can be re-laid-out (or a direct caller can probe with a
   different instruction) so that the same address carries a different
   trigger, and a PC-only memo would return the stale expansion. A hit
   therefore requires the trigger to match (physical equality first:
   the machine feeds back the very predecoded instruction, so the
   structural comparison almost never runs). *)
type t = {
  mutable prodset : Prodset.t;
  mutable dispatch : Production.t list array;
      (* by opcode key, precedence order *)
  image : Image.t;
  known : Bytes.t;
  triggers : I.t array;
  slots : Machine.expansion option array;
  generation : int ref;
      (* Bumped by [set_prodset] and [invalidate]; machines attached
         via [attach_jit] share this ref and retire their superblocks
         when it moves. *)
  mutable performed : int;
}

let build_dispatch prodset =
  Array.init I.num_keys (fun key -> Prodset.patterns_for_key prodset key)

(* No instruction starts in an empty image, so an engine created
   without an image memoizes nothing. *)
let no_image = Dise_isa.Program.layout []

let create ?(image = no_image) prodset =
  let n = Image.length image in
  {
    prodset;
    dispatch = build_dispatch prodset;
    image;
    known = Bytes.make n '\000';
    triggers = Array.make n I.Halt;
    slots = Array.make n None;
    generation = ref 0;
    performed = 0;
  }

let prodset t = t.prodset
let generation t = !(t.generation)

let invalidate t =
  Bytes.fill t.known 0 (Bytes.length t.known) '\000';
  Array.fill t.slots 0 (Array.length t.slots) None;
  incr t.generation

let set_prodset t prodset =
  t.prodset <- prodset;
  t.dispatch <- build_dispatch prodset;
  invalidate t

let attach_jit ?threshold t m =
  Machine.enable_jit ?threshold ~generation:t.generation m

let compute t ~pc insn =
  let rec first = function
    | [] -> None
    | p :: rest ->
      if Pattern.matches p.Production.pattern insn then Some p else first rest
  in
  match first t.dispatch.(I.key insn) with
  | None -> None
  | Some p -> (
    let rsid = Production.rsid_of p insn in
    match Prodset.sequence t.prodset rsid with
    | None ->
      fail "production %s names unbound sequence R%d"
        (if p.Production.name = "" then "<anon>" else p.Production.name)
        rsid
    | Some spec -> (
      match Replacement.instantiate spec ~trigger:insn ~pc with
      | seq -> Some (Machine.expansion ~rsid seq)
      | exception Replacement.Instantiation_error msg ->
        fail "instantiating R%d for trigger at 0x%x: %s" rsid pc msg))

let expand t ~pc insn =
  let idx = Image.find_index t.image pc in
  let result =
    if idx < 0 then (* no instruction of the image starts at [pc] *)
      compute t ~pc insn
    else if
      Bytes.unsafe_get t.known idx = '\001'
      && (let t0 = Array.unsafe_get t.triggers idx in
          t0 == insn || I.equal t0 insn)
    then Array.unsafe_get t.slots idx
    else begin
      let r = compute t ~pc insn in
      t.slots.(idx) <- r;
      t.triggers.(idx) <- insn;
      Bytes.set t.known idx '\001';
      r
    end
  in
  (match result with Some _ -> t.performed <- t.performed + 1 | None -> ());
  result

let expander t ~pc insn = expand t ~pc insn
let expansions_performed t = t.performed

let distinct_triggers t =
  Array.fold_left
    (fun acc v -> match v with Some _ -> acc + 1 | None -> acc)
    0 t.slots
