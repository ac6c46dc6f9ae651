module I = Dise_isa.Insn
module Reg = Dise_isa.Reg
module R = Replacement

exception Composition_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Composition_error s)) fmt

type tri = Yes | No | Unknown

let tri_and a b =
  match a, b with
  | No, _ | _, No -> No
  | Unknown, _ | _, Unknown -> Unknown
  | Yes, Yes -> Yes

(* A branch template's T.IMM is its target, as a concrete branch's is
   ({!Dise_isa.Insn.imm}); a label or a parameter offset is not known
   statically. *)
let branch_imm x = function
  | R.Tabs a -> Some (R.Ilit a)
  | R.Tlab _ | R.Trel_param _ | R.Trel_param2 _ ->
    fail "cannot statically decide T.IMM of template [%s]"
      (Format.asprintf "%a" R.pp_rinsn x)

let tri_reg want got =
  match want with
  | None -> Yes
  | Some w -> (
    match got with
    | None -> No
    | Some (R.Rlit g) -> if Reg.equal w g then Yes else No
    | Some (R.Rrs | R.Rrt | R.Rrd | R.Rparam _) -> Unknown)

let tri_imm pred got =
  match got with
  | None -> No
  | Some (R.Ilit v) -> if Pattern.imm_matches pred v then Yes else No
  | Some (R.Iimm | R.Ipc | R.Iparam _ | R.Iparam2 _) -> Unknown

(* Does pattern [p] match the concrete instructions template [x], the
   form [i], can instantiate to? Its immediate is read last, and only
   when the rest does not already rule the match out. *)
let match3_template (p : Pattern.t) x i =
  let known want got =
    match want with None -> Yes | Some w -> if w = got then Yes else No
  in
  let rest =
    tri_and (known p.opcode_key (I.key i))
      (tri_and (known p.opclass (I.cls i))
         (tri_and (tri_reg p.rs (I.rs i))
            (tri_and (tri_reg p.rt (I.rt i))
               (tri_reg p.rd (I.rd ~link:(R.Rlit Reg.ra) i)))))
  in
  match p.imm, rest with
  | None, _ | _, No -> rest
  | Some pred, _ -> tri_and rest (tri_imm pred (I.imm ~target:(branch_imm x) i))

(* Does the outer pattern [po] match triggers described by the inner
   pattern [pi]? *)
let match3_pattern (po : Pattern.t) (pi : Pattern.t) =
  let opcode_ok =
    match po.opcode_key with
    | None -> Yes
    | Some k -> (
      match pi.opcode_key with
      | Some k' -> if k = k' then Yes else No
      | None -> (
        match pi.opclass with
        | Some c -> if Dise_isa.Desc.cls_of_key k = c then Unknown else No
        | None -> Unknown))
  in
  let class_ok =
    match po.opclass with
    | None -> Yes
    | Some c -> (
      match pi.opclass with
      | Some c' -> if c = c' then Yes else No
      | None -> (
        match pi.opcode_key with
        | Some k -> if Dise_isa.Desc.cls_of_key k = c then Yes else No
        | None -> Unknown))
  in
  let reg_ok want got =
    match want with
    | None -> Yes
    | Some w -> (
      match got with
      | Some g -> if Reg.equal w g then Yes else No
      | None -> Unknown)
  in
  let imm_ok =
    match po.imm with
    | None -> Yes
    | Some pred -> (
      match pi.imm with
      | Some (Pattern.Imm_eq v) ->
        if Pattern.imm_matches pred v then Yes else No
      | Some Pattern.Imm_neg -> (
        match pred with
        | Pattern.Imm_neg -> Yes
        | Pattern.Imm_nonneg -> No
        | Pattern.Imm_eq v -> if v >= 0 then No else Unknown)
      | Some Pattern.Imm_nonneg -> (
        match pred with
        | Pattern.Imm_nonneg -> Yes
        | Pattern.Imm_neg -> No
        | Pattern.Imm_eq v -> if v < 0 then No else Unknown)
      | None -> Unknown)
  in
  tri_and opcode_ok
    (tri_and class_ok
       (tri_and (reg_ok po.rs pi.rs)
          (tri_and (reg_ok po.rt pi.rt)
             (tri_and (reg_ok po.rd pi.rd) imm_ok))))

(* Pick the outer production that statically matches template [x]
   (or the trigger described by [trigger_pattern] when [x] is
   [Trigger]). Ambiguity is an error: composition is an offline
   software step and must not guess. *)
let decide ~outer ?trigger_pattern (x : R.rinsn) =
  let tri_of p =
    match x with
    | R.Trigger -> (
      match trigger_pattern with
      | Some pi -> match3_pattern p.Production.pattern pi
      | None -> Unknown)
    | R.Insn i -> match3_template p.Production.pattern x i
  in
  let rec scan = function
    | [] -> None
    | p :: rest -> (
      match tri_of p with
      | Yes -> Some p
      | No -> scan rest
      | Unknown ->
        fail
          "cannot statically decide whether pattern [%s] matches template \
           [%s] during inlining"
          (Format.asprintf "%a" Pattern.pp p.Production.pattern)
          (Format.asprintf "%a" R.pp_rinsn x))
  in
  scan (Prodset.productions outer)

let outer_sequence_of outer p =
  match p.Production.rsid with
  | Production.Direct id -> (
    match Prodset.sequence outer id with
    | Some s -> s
    | None -> fail "outer production names unbound sequence R%d" id)
  | Production.From_tag ->
    fail "cannot statically inline a tag-indexed (aware) outer production"

(* [x] with its DISE-internal control target mapped by [f]. *)
let relocate f x =
  match x with
  | R.Insn (I.Dbr (op, r, t)) -> R.Insn (I.Dbr (op, r, f t))
  | R.Insn (I.Djmp t) -> R.Insn (I.Djmp (f t))
  | R.Trigger | R.Insn _ -> x

(* Substitute the outer sequence's trigger-directives with template
   [x]'s field specifications; [base] offsets the outer sequence's
   internal control, [remap] relocates [x]'s own internal control. For
   a [Trigger] element the composite trigger IS the inner trigger, so
   the trigger-field directives pass through unchanged. *)
let subst_outer ~outer_seq ~x ~base ~remap =
  let field directive ~trigger get what =
    match x with
    | R.Trigger -> trigger
    | R.Insn i -> (
      match get i with
      | Some f -> f
      | None -> fail "%s directive: template has no %s field" directive what)
  in
  let params () =
    fail "outer production reads codeword parameters; cannot inline"
  in
  let reg = function
    | R.Rlit r -> R.Rlit r
    | R.Rrs -> field "T.RS" ~trigger:R.Rrs I.rs "rs"
    | R.Rrt -> field "T.RT" ~trigger:R.Rrt I.rt "rt"
    | R.Rrd -> field "T.RD" ~trigger:R.Rrd (I.rd ~link:(R.Rlit Reg.ra)) "rd"
    | R.Rparam _ -> params ()
  in
  let imm = function
    | R.Ilit v -> R.Ilit v
    | R.Iimm ->
      field "T.IMM" ~trigger:R.Iimm (I.imm ~target:(branch_imm x)) "immediate"
    | R.Ipc -> R.Ipc
    | R.Iparam _ | R.Iparam2 _ -> params ()
  in
  let target = function
    | (R.Tabs _ | R.Tlab _) as t -> t
    | R.Trel_param _ | R.Trel_param2 _ -> params ()
  in
  Array.map
    (function
      | R.Trigger -> relocate remap x
      | R.Insn i ->
        relocate (( + ) base) (R.Insn (I.map ~reg ~imm ~target ~cw:Fun.id i)))
    outer_seq

let inline_seq ~outer ?trigger_pattern (seq : R.t) : R.t =
  let n = Array.length seq in
  let decisions =
    Array.map
      (fun x ->
        match decide ~outer ?trigger_pattern x with
        | None -> None
        | Some p -> Some (outer_sequence_of outer p))
      seq
  in
  let lengths =
    Array.map
      (fun d -> match d with Some s -> Array.length s | None -> 1)
      decisions
  in
  (* positions.(j) = new offset of old instruction j; positions.(n) =
     new total length, the fall-off-the-end target. *)
  let positions = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    positions.(j + 1) <- positions.(j) + lengths.(j)
  done;
  let remap t =
    if t < 0 || t > n then fail "DISE transfer to offset %d out of range" t
    else positions.(t)
  in
  let blocks =
    Array.mapi
      (fun j x ->
        match decisions.(j) with
        | Some outer_seq ->
          subst_outer ~outer_seq ~x ~base:positions.(j) ~remap
        | None -> [| relocate remap x |])
      seq
  in
  Array.concat (Array.to_list blocks)

let dedicated_of_set set =
  List.concat_map (fun (_, s) -> R.dedicated_used s) (Prodset.sequences set)
  |> List.sort_uniq compare

let nest ~outer ~inner =
  (* Sequence-id spaces must be disjoint. *)
  let outer_ids = List.map fst (Prodset.sequences outer) in
  let inner_ids = List.map fst (Prodset.sequences inner) in
  List.iter
    (fun id ->
      if List.mem id outer_ids then
        fail "sequence id R%d bound by both production sets" id)
    inner_ids;
  (* Resolve dedicated-register conflicts by renaming the inner set. *)
  let outer_ded = dedicated_of_set outer in
  let inner_ded = dedicated_of_set inner in
  let conflicts = List.filter (fun d -> List.mem d outer_ded) inner_ded in
  let inner =
    if conflicts = [] then inner
    else begin
      let used = ref (outer_ded @ inner_ded) in
      let fresh () =
        let rec go i =
          if i >= Reg.num_dedicated then
            fail "dedicated registers exhausted during composition renaming"
          else if List.mem i !used then go (i + 1)
          else begin
            used := i :: !used;
            i
          end
        in
        go 0
      in
      let map = List.map (fun d -> (d, fresh ())) conflicts in
      Prodset.rename_dedicated
        (fun d -> match List.assoc_opt d map with Some d' -> d' | None -> d)
        inner
    end
  in
  let has_from_tag =
    List.exists
      (fun p -> p.Production.rsid = Production.From_tag)
      (Prodset.productions inner)
  in
  let has_direct =
    List.exists
      (fun p ->
        match p.Production.rsid with
        | Production.Direct _ -> true
        | Production.From_tag -> false)
      (Prodset.productions inner)
  in
  if has_from_tag && has_direct then
    fail "inner set mixes tagged and direct productions; compose separately";
  let prio_bump =
    1
    + List.fold_left
        (fun m p -> max m p.Production.priority)
        0
        (Prodset.productions outer)
  in
  let next_id =
    ref (1 + max (Prodset.max_rsid outer) (Prodset.max_rsid inner))
  in
  let result = ref outer in
  if has_from_tag then begin
    (* Aware inner: every bound sequence is a tag target and keeps its
       id; inline each under the codeword pattern's trigger info. *)
    List.iter
      (fun p ->
        let pat = p.Production.pattern in
        List.iter
          (fun (id, seq) ->
            let inl = inline_seq ~outer ~trigger_pattern:pat seq in
            result := Prodset.define_sequence !result id inl)
          (Prodset.sequences inner);
        result :=
          Prodset.add_production !result
            { p with Production.priority = p.Production.priority + prio_bump })
      (Prodset.productions inner)
  end
  else begin
    (* Transparent inner: inline per production; identical inlinings of
       a shared sequence are deduplicated, diverging ones re-bound. *)
    let memo : (int, (R.t * int) list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun p ->
        match p.Production.rsid with
        | Production.From_tag -> assert false
        | Production.Direct id ->
          let seq =
            match Prodset.sequence inner id with
            | Some s -> s
            | None -> fail "inner production names unbound sequence R%d" id
          in
          let inl =
            inline_seq ~outer ~trigger_pattern:p.Production.pattern seq
          in
          let variants =
            match Hashtbl.find_opt memo id with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace memo id l;
              l
          in
          let new_id =
            match
              List.find_opt (fun (s, _) -> R.equal s inl) !variants
            with
            | Some (_, existing) -> existing
            | None ->
              (* a sequence's first inlining keeps its id *)
              let fresh =
                if !variants = [] then id
                else begin
                  incr next_id;
                  !next_id - 1
                end
              in
              variants := (inl, fresh) :: !variants;
              fresh
          in
          result := Prodset.define_sequence !result new_id inl;
          result :=
            Prodset.add_production !result
              {
                p with
                Production.rsid = Production.Direct new_id;
                priority = p.Production.priority + prio_bump;
              })
      (Prodset.productions inner)
  end;
  !result

let count_triggers seq =
  Array.fold_left
    (fun n x -> match x with R.Trigger -> n + 1 | _ -> n)
    0 seq

let merge_sequences (a : R.t) (b : R.t) : R.t =
  let n = Array.length a in
  if n = 0 || a.(n - 1) <> R.Trigger then
    fail "merge: first sequence must end with its trigger";
  if count_triggers a <> 1 then
    fail "merge: first sequence must contain exactly one trigger";
  if count_triggers b <> 1 then
    fail "merge: second sequence must contain exactly one trigger";
  let prefix = Array.sub a 0 (n - 1) in
  Array.iter
    (function
      | R.Insn (I.Dbr (_, _, t) | I.Djmp t) ->
        if t >= n - 1 then
          fail "merge: first sequence's internal control reaches its trigger"
      | _ -> ())
    prefix;
  let shift = n - 1 in
  Array.append prefix (Array.map (relocate (( + ) shift)) b)

let shift_direct_rsids off set =
  List.iter
    (fun p ->
      if p.Production.rsid = Production.From_tag then
        fail "shift_direct_rsids: set contains tag-indexed productions")
    (Prodset.productions set);
  let shifted = ref Prodset.empty in
  List.iter
    (fun (id, seq) ->
      shifted := Prodset.define_sequence !shifted (id + off) seq)
    (Prodset.sequences set);
  List.iter
    (fun p ->
      let rsid =
        match p.Production.rsid with
        | Production.Direct id -> Production.Direct (id + off)
        | Production.From_tag -> assert false
      in
      shifted := Prodset.add_production !shifted { p with Production.rsid })
    (Prodset.productions set);
  !shifted
