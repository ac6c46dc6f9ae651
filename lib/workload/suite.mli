(** The benchmark suite: generated workloads, cached per (profile,
    dynamic-target) so the many experiment configurations of one bench
    run reuse identical programs. *)

type entry = {
  profile : Profile.t;
  dyn_target : int;
      (** The length [gen] was generated for. With [profile] it pins
          the program; only [main]'s outer-loop count depends on it, so
          two lengths usually share a static size. *)
  gen : Codegen.t;
  image : Dise_isa.Program.Image.t;
}

val get : ?dyn_target:int -> Profile.t -> entry
(** Generate (or fetch from cache) the workload for a profile. *)

val all : ?dyn_target:int -> unit -> entry list
(** All twelve SPEC2000-named workloads. *)

val clear_cache : unit -> unit
