(** Machine configurations for the timing model.

    The default mirrors the paper's simulated machine: a MIPS
    R10000-like 4-way superscalar, 12-stage pipeline, 128-entry
    reorder buffer, 32KB 2-way instruction and data caches, and a
    unified 1MB 8-way L2. The DISE decode option selects between the
    three engine placements of Section 2.2 / Figure 6: a free
    implementation, a one-cycle stall per expansion (PT/RT in
    parallel), or an extra decode stage (PT/RT in series, +1 cycle of
    misprediction penalty for everything). *)

type cache_cfg = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
}

type dise_decode =
  | Free              (** no cost per expansion *)
  | Stall_per_expansion  (** +1 cycle on every expansion start *)
  | Extra_stage       (** +1 pipeline stage: larger mispredict penalty *)

type t = {
  width : int;              (** fetch/issue/retire width *)
  depth : int;              (** front-end depth: mispredict redirect penalty *)
  rob_size : int;
  icache : cache_cfg option;    (** [None] = perfect *)
  dcache : cache_cfg option;
  l2 : cache_cfg option;
  l1_latency : int;         (** load-to-use on a D-cache hit *)
  l2_latency : int;         (** additional cycles on an L1 miss, L2 hit *)
  mem_latency : int;        (** additional cycles on an L2 miss *)
  mul_latency : int;
  dise_decode : dise_decode;
  perfect_branch_pred : bool;
}

val default : t
(** The paper's baseline machine. *)

val with_icache_kb : int option -> t -> t
(** Resize the I-cache ([None] = perfect), keeping 2-way/64B lines —
    the Figure 6/7 cache sweeps. *)

val with_width : int -> t -> t
val with_dise_decode : dise_decode -> t -> t

val check_width : int -> (unit, string) result
(** [width]'s range check, 1 to 2{^20}, the one {!of_json} applies:
    the pipeline's rings hold [max rob_size width] slots. For front
    ends that take the value from elsewhere to prefix with their own
    option name. *)

val to_json : t -> Dise_telemetry.Json.t
(** Canonical JSON encoding: fixed member order, caches as nested
    objects ([null] = perfect), [dise_decode] as
    ["free"]/["stall_per_expansion"]/["extra_stage"]. Part of the
    serializable run-request encoding (see doc/service.md) — member
    order is load-bearing there, because cache keys hash the printed
    form. *)

val of_json : Dise_telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}; member order is free on input, every field
    required. [width], [depth] and [rob_size] must be >= 1, [width]
    and [rob_size] at most 2{^20} ({!check_width}), the latencies >= 0
    and each cache a geometry {!Cache.check_geometry} accepts; an
    error names the offending field. *)

val pp : Format.formatter -> t -> unit
