type entry = {
  profile : Profile.t;
  dyn_target : int;
  gen : Codegen.t;
  image : Dise_isa.Program.Image.t;
}

(* Generated workloads are cached per (name, dyn_target), one
   generation per key however many domains ask, and every caller
   shares the same physical entry. *)
let cache : (string * int, entry) Memo.t = Memo.create 16

let get ?(dyn_target = 300_000) profile =
  Memo.find_or_compute cache (profile.Profile.name, dyn_target) (fun () ->
      let gen = Codegen.generate ~dyn_target profile in
      { profile; dyn_target; gen; image = Codegen.layout gen })

let all ?dyn_target () = List.map (get ?dyn_target) Profile.spec2000

let clear_cache () = Memo.clear cache
