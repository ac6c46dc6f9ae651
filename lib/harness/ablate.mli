(** Ablations of the design choices DESIGN.md calls out — extra bench
    targets beyond the paper's own panels.

    Each returns a {!Figures.figure} so the report machinery is
    shared. *)

val params : Figures.opts -> Figures.figure
(** Dictionary parameterization budget: total compressed size with
    0..3 codeword parameter fields (the paper fixes 3; this shows the
    marginal value of each field). *)

val max_len : Figures.opts -> Figures.figure
(** Dictionary entry length cap (2/4/8/16 instructions) under the full
    DISE scheme. *)

val decode : Figures.opts -> Figures.figure
(** DISE decode option (free / stall-per-expansion / extra stage) as a
    function of expansion frequency: store-only tracing (~8% of
    instructions), MFI loads+stores (~25%), and MFI plus branch
    profiling (~35%). The paper argues the choice hinges on expansion
    frequency versus branch misprediction rate; this sweeps it. *)

val rt_block : Figures.opts -> Figures.figure
(** RT block coalescing (1/2/4 entries per block) for a 512-entry RT
    running decompression: fewer read ports versus internal
    fragmentation. *)

val context_switch : Figures.opts -> Figures.figure
(** Context-switch frequency (none / every 50K / every 10K dynamic
    instructions, replacement instructions counted) for decompression
    on a 2K RT: the cost of demand-reloading the RT after each switch,
    the OS-virtualization overhead of Section 2.3. *)

val all : (string * (Figures.opts -> Figures.figure)) list
val by_id : string -> (Figures.opts -> Figures.figure) option
