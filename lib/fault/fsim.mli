(** Stuck-at fault simulation for synchronous sequential circuits.

    Semantics, matching the paper: both the fault-free and every faulty
    machine start each sequence in the all-unspecified state; a fault is
    detected at time unit [u] when some primary output carries a binary
    value in the fault-free machine and the opposite binary value in the
    faulty machine at time [u].

    The engine packs the fault-free machine into lane 0 of a 63-lane
    packed word and up to 62 faulty machines into lanes 1..62, so one
    pass over the sequence simulates a group of 62 faults. Every path
    here runs on the one kernel, the event-driven {!Bist_sim.Ppsfp}
    (shared fault-free trace, fault dropping, quiescent levels
    skipped). *)

type outcome = {
  universe : Universe.t;
  det_time : int array;
      (** [det_time.(i)] is the first detection time of fault [i], or [-1]
          when undetected (or not a target). *)
  detected : Bist_util.Bitset.t;  (** Fault ids detected at least once. *)
}

val run :
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?tune:Bist_parallel.Tune.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?targets:Bist_util.Bitset.t ->
  Universe.t ->
  Bist_logic.Tseq.t ->
  outcome
(** Simulate every target fault (default: all faults of the universe)
    under the sequence. A detected fault is dropped at once, and a
    62-fault group stops as soon as all its faults are detected.

    With [pool] (default: {!Bist_parallel.Pool.from_env}, i.e.
    sequential unless [BIST_JOBS >= 2] is exported) the target faults are
    sharded over the pool's domains, one independent simulator per shard;
    the outcome is bit-identical to the sequential one for every pool
    width ({!Bist_parallel.Shard}).

    [obs] (default {!Bist_obs.Obs.null}, a no-op) records one
    ["fsim.shard"] span per shard, tagged with the executing domain's id
    and the shard's fault count.

    [ctl] (default: none) is polled between 62-fault groups inside every
    shard — including on worker domains — and raises
    {!Bist_resilience.Ctl.Preempted} at that safe point. The caller that
    owns resumable state (engine round, compaction trial) catches it and
    re-raises its own snapshot-carrying [Interrupted]; nothing in this
    module is left partially mutated. *)

(** {2 Prefix checkpoints}

    A sequence that shares its first [s] vectors with one already
    simulated reaches the same fault-free and faulty flip-flop states at
    [s], because every machine starts from the same all-X state and sees
    the same vectors. Block-omission compaction tries sequences that
    differ from the current one only from the omission point on: a
    {!pass} saves the states once at the points it will try, and
    {!resume} simulates only from there. *)

type pass
(** A current sequence with its fault-free trace, and the states of the
    targets still undetected entering each checkpointed position. *)

val capture :
  ?ctl:Bist_resilience.Ctl.t ->
  Universe.t ->
  Bist_logic.Tseq.t ->
  targets:int array ->
  at:int array ->
  pass * int
(** [capture universe seq ~targets ~at] simulates [targets] (62 to a
    group, in the given order: grouping faults of similar detection
    time lets groups end together) over the prefix of [seq], saving a
    checkpoint at every position of [at]; also returns the group-steps
    simulated. Positions must lie inside [seq] ([Invalid_argument]
    otherwise). Sequential; [ctl] is polled between groups. *)

val live_targets : pass -> at:int -> int array
(** Ascending ids of the targets undetected before position [at]: the
    faults whose state was saved there. Raises [Invalid_argument]
    without a checkpoint at [at]. *)

val resume :
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?tune:Bist_parallel.Tune.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  pass ->
  at:int ->
  omit:int ->
  targets:int array ->
  outcome * int
(** [resume pass ~at ~omit ~targets] simulates the candidate that omits
    [omit] vectors from [at] on in the pass's current sequence: each
    target (a subset of [live_targets pass ~at]) continues from its
    state at [at]. The fault-free machine is simulated only until it
    re-converges with the current one ({!Bist_sim.Ppsfp.splice}). The
    targets are regrouped densely, 62 to a group, and sharded exactly
    as {!run} shards; detection times are positions in the candidate.
    Also returns the group-steps simulated.

    It answers whether {e every} target is detected, the question
    block-omission compaction asks: a shard stops at the first group
    that ends with a target undetected, and the targets after it report
    [-1]. The answer, and every time when the answer is yes, is exact at
    any pool width; ordering the likeliest misses first makes a "no"
    cheap. *)

val omit : pass -> at:int -> omit:int -> unit
(** Make the candidate of [resume pass ~at ~omit] the pass's current
    sequence. Checkpoints at or before [at] stay valid (their prefix is
    unchanged); later ones are dropped. *)

val coverage : outcome -> float
(** Detected targets / universe size. *)

(** {2 Single-fault fast path}

    Procedure 2 simulates one fault under many candidate sequences; this
    path installs the fault in lane 1 once and reuses the compiled
    simulator and one fault-free trace buffer across calls. *)

type single

val single : Bist_circuit.Netlist.t -> Fault.t -> single

val single_detects : single -> Bist_logic.Tseq.t -> bool
(** Early-exits at the first detection. *)

val single_detection_time : single -> Bist_logic.Tseq.t -> int option

val detects : Bist_circuit.Netlist.t -> Fault.t -> Bist_logic.Tseq.t -> bool
(** One-shot convenience wrapper around {!single}. *)
