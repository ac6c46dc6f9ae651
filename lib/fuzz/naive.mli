(** The reference expander: the production-set semantics with nothing
    between it and the specification.

    No compiled dispatch table, no memoization — every fetch goes
    through {!Dise_core.Prodset.lookup} and a fresh
    {!Dise_core.Replacement.instantiate}. Slow on purpose: the
    differential fuzzer runs it in lockstep with the optimized
    {!Dise_core.Engine}, so any divergence pins the bug on an
    optimization rather than on the semantics. *)

val expander : Dise_core.Prodset.t -> Dise_machine.Machine.expander
(** Raises {!Dise_core.Engine.Expansion_error} in the same situations
    the engine does (unbound sequence id, instantiation failure), so
    the two sides fail identically on defective production sets. *)
