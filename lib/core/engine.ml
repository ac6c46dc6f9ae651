module I = Dise_isa.Insn
module Image = Dise_isa.Program.Image
module Machine = Dise_machine.Machine

exception Expansion_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Expansion_error s)) fmt

(* Expansion memo for a dense image: one slot per static instruction,
   indexed by (pc - base) / 4, so the per-fetch lookup is a few array
   reads instead of a hashtable probe. [known] marks computed slots;
   [slots] stores the shared option, so cache hits allocate nothing.
   [triggers] remembers the instruction each slot was computed for:
   PC alone is not a sound key — an image can be re-laid-out (or a
   direct caller can probe with a different instruction) so that the
   same address carries a different trigger, and a PC-only memo would
   return the stale expansion. A hit therefore requires the trigger to
   match (physical equality first: the machine feeds back the very
   predecoded instruction, so the structural comparison almost never
   runs). *)
type dense = {
  dense_base : int;
  known : Bytes.t;
  triggers : I.t array;
  slots : Machine.expansion option array;
}

type t = {
  mutable prodset : Prodset.t;
  mutable dispatch : Production.t list array;
      (* by opcode key, precedence order *)
  dense : dense option;
  cache : (int, I.t * Machine.expansion option) Hashtbl.t;
      (* Sparse fallback, keyed by PC with the memoized trigger stored
         alongside the result — the same staleness discipline as the
         dense memo: a hit requires the stored trigger to match the
         probe (physical equality first), because a re-laid-out image
         can put a different instruction at the same address. Keying
         by the bare int also avoids allocating a (pc, insn) tuple and
         deep-hashing the instruction on every probe. *)
  generation : int ref;
      (* Bumped by [set_prodset] and [invalidate]; machines attached
         via [attach_jit] share this ref and retire their superblocks
         when it moves. *)
  mutable performed : int;
}

let build_dispatch prodset =
  Array.init I.num_keys (fun key -> Prodset.patterns_for_key prodset key)

let create ?image prodset =
  let dense =
    match image with
    | Some img when Image.is_dense img ->
      let n = Image.length img in
      Some
        {
          dense_base = Image.base img;
          known = Bytes.make n '\000';
          triggers = Array.make n I.Halt;
          slots = Array.make n None;
        }
    | Some _ | None -> None
  in
  {
    prodset;
    dispatch = build_dispatch prodset;
    dense;
    cache = Hashtbl.create 4096;
    generation = ref 0;
    performed = 0;
  }

let prodset t = t.prodset
let generation t = !(t.generation)

let clear_memos t =
  (match t.dense with
  | Some d ->
    Bytes.fill d.known 0 (Bytes.length d.known) '\000';
    Array.fill d.slots 0 (Array.length d.slots) None
  | None -> ());
  Hashtbl.reset t.cache

let invalidate t =
  clear_memos t;
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
      | seq -> Some { Machine.rsid; seq }
      | exception Replacement.Instantiation_error msg ->
        fail "instantiating R%d for trigger at 0x%x: %s" rsid pc msg))

let sparse_lookup t ~pc insn =
  match Hashtbl.find_opt t.cache pc with
  | Some (t0, r) when t0 == insn || I.equal t0 insn -> r
  | Some _ | None ->
    let r = compute t ~pc insn in
    Hashtbl.replace t.cache pc (insn, r);
    r

let expand t ~pc insn =
  let result =
    match t.dense with
    | Some d ->
      let off = pc - d.dense_base in
      let idx = off lsr 2 in
      if off >= 0 && off land 3 = 0 && idx < Array.length d.slots then begin
        if
          Bytes.unsafe_get d.known idx = '\001'
          && (let t0 = Array.unsafe_get d.triggers idx in
              t0 == insn || I.equal t0 insn)
        then Array.unsafe_get d.slots idx
        else begin
          let r = compute t ~pc insn in
          d.slots.(idx) <- r;
          d.triggers.(idx) <- insn;
          Bytes.set d.known idx '\001';
          r
        end
      end
      else
        (* Off-image PC (e.g. a hand-built machine probing the engine
           directly): fall back to the sparse memo. *)
        sparse_lookup t ~pc insn
    | None -> sparse_lookup t ~pc insn
  in
  (match result with Some _ -> t.performed <- t.performed + 1 | None -> ());
  result

let expand_result t ~pc insn =
  match expand t ~pc insn with
  | r -> Ok r
  | exception Expansion_error msg -> Error (Dise_isa.Diag.Expansion msg)

let expander t ~pc insn = expand t ~pc insn
let expansions_performed t = t.performed

let distinct_triggers t =
  let sparse =
    Hashtbl.fold
      (fun _ (_, v) acc -> match v with Some _ -> acc + 1 | None -> acc)
      t.cache 0
  in
  match t.dense with
  | None -> sparse
  | Some d ->
    Array.fold_left
      (fun acc v -> match v with Some _ -> acc + 1 | None -> acc)
      sparse d.slots
