type entry = {
  profile : Profile.t;
  dyn_target : int;
  gen : Codegen.t;
  image : Dise_isa.Program.Image.t;
}

(* Generated workloads are cached per (name, dyn_target). The harness
   may call [get] from several domains (parallel cell evaluation), so
   the table is mutex-protected. A key is claimed as [Pending] before
   the (deterministic but expensive) generation runs outside the lock,
   and concurrent callers block on the condition until the claimant
   stores the result — exactly one generation per key, and every
   caller shares the same physical entry. *)
type slot = Pending | Ready of entry

let cache : (string * int, slot) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()
let cache_cond = Condition.create ()

let get ?(dyn_target = 300_000) profile =
  let key = (profile.Profile.name, dyn_target) in
  Mutex.lock cache_mutex;
  let rec claim () =
    match Hashtbl.find_opt cache key with
    | Some (Ready e) ->
      Mutex.unlock cache_mutex;
      `Hit e
    | Some Pending ->
      Condition.wait cache_cond cache_mutex;
      claim ()
    | None ->
      Hashtbl.replace cache key Pending;
      Mutex.unlock cache_mutex;
      `Compute
  in
  match claim () with
  | `Hit e -> e
  | `Compute -> (
    match
      let gen = Codegen.generate ~dyn_target profile in
      { profile; dyn_target; gen; image = Codegen.layout gen }
    with
    | e ->
      Mutex.lock cache_mutex;
      Hashtbl.replace cache key (Ready e);
      Condition.broadcast cache_cond;
      Mutex.unlock cache_mutex;
      e
    | exception exn ->
      (* Release the claim so a later caller can retry. *)
      Mutex.lock cache_mutex;
      Hashtbl.remove cache key;
      Condition.broadcast cache_cond;
      Mutex.unlock cache_mutex;
      raise exn)

let all ?dyn_target () = List.map (get ?dyn_target) Profile.spec2000

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex
