(** PPSFP: parallel-pattern single-fault-propagation packed fault kernel,
    the library's only fault simulator.

    Each of the 63 lanes of a packed word is an independent copy of the
    circuit receiving the {e same} input vectors. Lane 0 is the fault-free
    machine; lanes 1..62 are faulty machines that differ from it only
    through forces: an {e output force} pins a node's value as every
    consumer and primary output sees it, a {e pin force} pins the value
    one fanin pin of one gate sees (a fanout-branch stuck-at). Values are
    two planes (ones, zeros) per node, X being neither. The kernel is
    built for throughput when many 62-fault groups are simulated over the
    same sequence:

    - the {e good machine} is simulated once per sequence into a shared
      {!trace}; every group pass reads good values out of the trace
      instead of recomputing them;
    - gates are evaluated {e event-driven} over a levelized flat-array
      program: a gate runs only when a fanin's packed word actually
      differs from the fault-free broadcast, so quiescent levels cost
      nothing;
    - when measured activity says most of the circuit is live anyway, the
      step switches to a {e compiled} full sweep and back once activity
      decays — the hybrid is self-tuning per group;
    - {!drop_lanes} retires detected faults mid-sequence: their forces
      are masked out and their flip-flop lanes snap back to the good
      machine, so a detected fault stops generating events.

    The independent oracle is the scalar {!Seq_sim} run on a netlist
    with the fault compiled into its structure; the differential suite
    checks the kernel's detection times against it, and the trace
    against {!Seq_sim}'s fault-free values. *)

type t

val create : Bist_circuit.Netlist.t -> t
(** Compile the levelized program. All lanes reset, no forces. *)

val circuit : t -> Bist_circuit.Netlist.t

type trace
(** Fault-free machine values for every node at every simulated time
    step, grown lazily as steps are requested. Immutable once a step is
    materialized, so a trace may be shared by many simulator instances
    over the same circuit — but only within one domain: growth is not
    synchronized. *)

val trace : ?reuse:trace -> ?state:Bytes.t -> t -> Bist_logic.Tseq.t -> trace
(** A fresh (empty) trace of [seq] for this simulator's circuit. Step 0
    starts from the fault-free flip-flop state [state] (default: all X;
    a state is coded as in {!trace_state}); a group stepping such a
    trace starts from {!reset} [~state]. [reuse] offers the storage of a
    trace that is not read again (it is used when large enough). *)

val trace_length : trace -> int
(** Steps materialized so far. *)

val trace_sequence : trace -> Bist_logic.Tseq.t
(** The sequence the trace simulates. *)

val trace_state : trace -> int -> Bytes.t
(** [trace_state tr u] is the fault-free flip-flop state entering time
    step [u] (materializing the trace that far). Raises
    [Invalid_argument] if [u] is beyond the sequence. Flip-flop states
    are one byte per flip-flop in [Netlist.dffs] order, coded 0 = X,
    1 = One, 2 = Zero. *)

val trace_value : trace -> int -> Bist_circuit.Netlist.node -> Bist_logic.Ternary.t
(** [trace_value tr u node] is the fault-free value of [node] during
    time step [u] (materializing the trace that far); a flip-flop node
    reports its present state. Raises [Invalid_argument] if [u] is
    beyond the sequence. *)

val splice : ?reuse:trace -> trace -> at:int -> omit:int -> trace
(** [splice tr ~at ~omit] is the fully materialized trace of [tr]'s
    sequence with the [omit] vectors from [at] on removed (as many as
    there are). Steps before [at] are copied; from [at] the machine is
    simulated only until its state equals [tr]'s at the matching step,
    after which every step is copied. [tr] is materialized in full
    first. A materialized trace is never written again, so it may be
    read by several domains. [reuse] offers the storage of a trace that
    is not read again (it is used when large enough). Raises
    [Invalid_argument] unless [0 <= at < length] and [omit >= 1]. *)

val add_output_force :
  t -> Bist_circuit.Netlist.node -> mask:int -> Bist_logic.Ternary.t -> unit

val add_pin_force :
  t ->
  gate:Bist_circuit.Netlist.node ->
  pin:int ->
  mask:int ->
  Bist_logic.Ternary.t ->
  unit

val clear_forces : t -> unit

val reset : ?state:Bytes.t -> t -> unit
(** Every flip-flop of every lane to [state] (default: all X); re-arms
    event mode. Forces stay installed. Steps then continue from the time
    step whose entering fault-free state is [state] (the first one
    after an all-X reset): a group resumed at step [u] resets to
    [trace_state tr u] and steps [u], [u + 1], .... A state of the
    wrong width or with a code other than 0..2 raises
    [Invalid_argument]. *)

val lane_state : t -> lane:int -> Bytes.t
(** The present flip-flop state of one lane (0..62; lane 0 is the
    fault-free machine): the state the next {!step} reads. *)

val load_lane : t -> lane:int -> Bytes.t -> unit
(** Overwrite one faulty lane's (1..62) flip-flop state, e.g. with a
    {!lane_state} saved from another group at the same time step, and
    re-arm event mode as {!reset} does. The lane's forces are not
    touched; install its fault as usual. *)

val step : t -> trace -> int -> unit
(** [step t trace u] applies time step [u] of the trace's sequence to all
    lanes and advances the flip-flop state. Steps must be applied in
    order from 0 after a {!reset} (from [u] after a [reset ~state]).
    Raises [Invalid_argument] if the trace belongs to a different
    circuit or [u] is out of range. *)

val po_diff_lanes : t -> int
(** Detection mask of the most recent {!step}: lanes (other than 0) where
    some primary output carried the binary complement of the fault-free
    binary value. *)

val drop_lanes : t -> int -> unit
(** Retire the given lanes (a mask, lane 0 ignored): all their forces are
    removed and their flip-flop state is overwritten with the fault-free
    machine's, so the lanes become quiescent copies of lane 0 from the
    next step on. Detection times already read are unaffected; the
    remaining lanes are bit-for-bit unaffected (lanes are independent). *)

val evaluations : t -> int
(** Cumulative gate evaluations — the activity measure benchmarks and
    tests use to see the event core actually skipping work. *)

val full_steps : t -> int
(** Steps executed in compiled full-sweep mode since creation. *)

val event_steps : t -> int
(** Steps executed in event-driven mode since creation. *)
