(* Differential-oracle suite for the PPSFP fault-simulation core.

   Three independent implementations must produce the same fault table:

   - {!Bist_sim.Ppsfp} (the default kernel: shared fault-free trace,
     event-driven levelized evaluation, fault dropping);
   - {!Bist_sim.Packed_sim} (the original full-sweep packed kernel,
     selected with BIST_FSIM=packed);
   - {!Bist_sim.Event_sim} on a mutated netlist: each fault is compiled
     into the circuit structurally (stem stuck-at becomes a constant
     driver, a fanout-branch stuck-at rewires one consumer pin to a
     constant node) and the scalar simulator's primary outputs are
     compared against the fault-free run.

   The first two run over the whole universe at several pool widths and
   on both sides of the sharding crossover; the third is scalar and
   per-fault, so it covers s27 and a band of small synthetics. *)

module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module Rng = Bist_util.Rng
module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate
module Builder = Bist_circuit.Builder
module Universe = Bist_fault.Universe
module Fault = Bist_fault.Fault
module Fsim = Bist_fault.Fsim
module Pool = Bist_parallel.Pool
module Tune = Bist_parallel.Tune
module Ppsfp = Bist_sim.Ppsfp

let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()

(* Force every call through the requested kernel regardless of the
   environment the suite runs under. *)
let with_fsim impl f =
  let old = Sys.getenv_opt "BIST_FSIM" in
  Unix.putenv "BIST_FSIM" impl;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "BIST_FSIM" (Option.value old ~default:""))
    f

(* Sharding forced into [jobs] chunks / suppressed entirely — the two
   sides of the crossover, pinned independently of this host's cores. *)
let tune_shard () = Tune.create ~min_units:1 ()
let tune_seq () = Tune.create ~min_units:max_int ()

let det_times ?pool ?tune impl universe seq =
  with_fsim impl (fun () ->
      let outcome = Fsim.run ?pool ?tune universe seq in
      outcome.Fsim.det_time)

let seq_for circuit ~seed ~len =
  let rng = Rng.create seed in
  Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:len

(* PPSFP vs Packed_sim on the 25 seeded synthetics, at widths 1/2/4 and
   across the crossover boundary. *)
let test_synthetics_ppsfp_vs_packed () =
  for seed = 0 to 24 do
    let circuit = Testutil.small_circuit (17 * seed) in
    let universe = Universe.collapsed circuit in
    let seq = seq_for circuit ~seed:(seed + 1) ~len:(10 + (seed mod 25)) in
    let reference = det_times "packed" universe seq in
    let label variant = Printf.sprintf "seed %d: %s == packed" seed variant in
    Alcotest.(check (array int))
      (label "ppsfp sequential")
      reference
      (det_times ~tune:(tune_seq ()) "ppsfp" universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=2 sharded")
      reference
      (det_times ~pool:pool2 ~tune:(tune_shard ()) "ppsfp" universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4 sharded")
      reference
      (det_times ~pool:pool4 ~tune:(tune_shard ()) "ppsfp" universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4 below crossover")
      reference
      (det_times ~pool:pool4 ~tune:(tune_seq ()) "ppsfp" universe seq);
    Alcotest.(check (array int))
      (label "packed jobs=4 sharded")
      reference
      (det_times ~pool:pool4 ~tune:(tune_shard ()) "packed" universe seq)
  done

(* Same cross-check on every registry circuit. *)
let test_registry_ppsfp_vs_packed () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let circuit = entry.circuit () in
      let universe = Universe.collapsed circuit in
      let seq = seq_for circuit ~seed:23 ~len:24 in
      let reference = det_times "packed" universe seq in
      Alcotest.(check (array int))
        (entry.name ^ ": ppsfp == packed")
        reference
        (det_times ~tune:(tune_seq ()) "ppsfp" universe seq);
      Alcotest.(check (array int))
        (entry.name ^ ": ppsfp jobs=2 == packed")
        reference
        (det_times ~pool:pool2 ~tune:(tune_shard ()) "ppsfp" universe seq))
    (Bist_bench.Registry.all ())

(* The qcheck property: any synthetic circuit, any binary sequence, any
   width/crossover side — same table. *)
let ppsfp_differential_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"ppsfp == packed (random circuit/seq/width)"
       ~count:40 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seq = seq_for circuit ~seed:sseed ~len in
         let reference = det_times "packed" universe seq in
         let pool, tune =
           match (cseed + sseed + len) mod 3 with
           | 0 -> (None, tune_seq ())
           | 1 -> (Some pool2, tune_shard ())
           | _ -> (Some pool4, tune_shard ())
         in
         reference = det_times ?pool ~tune "ppsfp" universe seq))

(* --- structural fault compilation for the Event_sim oracle ---------- *)

let const_name = "__sa_const"
let orig_prefix = "__sa_orig_"

(* Rebuild [circuit] with [fault] baked into the structure. *)
let mutant circuit (fault : Fault.t) =
  let b = Builder.create ~name:(Netlist.circuit_name circuit ^ "_mutant") in
  let stuck_kind =
    match fault.stuck with
    | T.One -> Gate.Const1
    | T.Zero -> Gate.Const0
    | T.X -> invalid_arg "mutant: stuck-at-X"
  in
  Builder.add_gate b ~output:const_name stuck_kind [];
  let stem =
    match fault.site with Fault.Output n -> Some n | Fault.Pin _ -> None
  in
  Array.iter
    (fun node ->
      match stem with
      | Some n when n = node ->
        (* The faulty input keeps its declaration (sequence width and
           input order must not change) under a fresh unused name; the
           original name becomes the constant. *)
        Builder.add_input b (orig_prefix ^ Netlist.name circuit node)
      | _ -> Builder.add_input b (Netlist.name circuit node))
    (Netlist.inputs circuit);
  for node = 0 to Netlist.size circuit - 1 do
    let kind = Netlist.kind circuit node in
    if kind <> Gate.Input then begin
      let fanin_names =
        Array.to_list
          (Array.mapi
             (fun pin d ->
               match fault.site with
               | Fault.Pin { gate; pin = p } when gate = node && p = pin ->
                 const_name
               | _ -> Netlist.name circuit d)
             (Netlist.fanins circuit node))
      in
      match stem with
      | Some n when n = node ->
        (* Stem fault on a gate or flip-flop output: the original gate
           survives under a fresh name (its value is simply unobserved),
           the original name becomes the constant every consumer and
           primary output reads. *)
        Builder.add_gate b ~output:(orig_prefix ^ Netlist.name circuit node)
          kind fanin_names;
        Builder.add_gate b ~output:(Netlist.name circuit node) stuck_kind []
      | _ -> Builder.add_gate b ~output:(Netlist.name circuit node) kind fanin_names
    end
    else if stem = Some node then
      Builder.add_gate b ~output:(Netlist.name circuit node) stuck_kind []
  done;
  Array.iter
    (fun po -> Builder.add_output b (Netlist.name circuit po))
    (Netlist.outputs circuit);
  Builder.finalize b

(* First time unit where some primary output is binary in the fault-free
   run and the opposite binary value in the faulty run — the paper's
   detection condition, evaluated on scalar simulations. *)
let scalar_det_time good bad =
  let len = Array.length good in
  let npo = if len = 0 then 0 else Vector.width good.(0) in
  let rec go u =
    if u >= len then -1
    else begin
      let differs = ref false in
      for i = 0 to npo - 1 do
        match (Vector.get good.(u) i, Vector.get bad.(u) i) with
        | T.One, T.Zero | T.Zero, T.One -> differs := true
        | _ -> ()
      done;
      if !differs then u else go (u + 1)
    end
  in
  go 0

let check_event_sim_oracle circuit ~seed ~len =
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed ~len in
  let good = Bist_sim.Event_sim.run circuit seq in
  let table = det_times "ppsfp" universe seq in
  Universe.iter
    (fun id fault ->
      let bad = Bist_sim.Event_sim.run (mutant circuit fault) seq in
      Alcotest.(check int)
        (Printf.sprintf "%s fault %s" (Netlist.circuit_name circuit)
           (Fault.name circuit fault))
        (scalar_det_time good bad) table.(id))
    universe

let test_event_sim_oracle_s27 () =
  check_event_sim_oracle (Bist_bench.S27.circuit ()) ~seed:3 ~len:32

let test_event_sim_oracle_synthetics () =
  List.iter
    (fun cseed ->
      check_event_sim_oracle (Testutil.small_circuit cseed) ~seed:(cseed + 5)
        ~len:20)
    [ 1; 2; 3; 4; 5 ]

(* --- kernel-level properties ---------------------------------------- *)

(* The event core must actually skip quiescent work: a single fault at
   the very end of the topological order disturbs almost nothing, so the
   evaluation count stays far below gates × steps. *)
let test_event_core_skips_quiescent_levels () =
  let circuit = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  let len = 64 in
  let seq = seq_for circuit ~seed:9 ~len in
  let sim = Ppsfp.create circuit in
  let tr = Ppsfp.trace sim seq in
  let topo = Netlist.topo_order circuit in
  let last = topo.(Array.length topo - 1) in
  Ppsfp.add_output_force sim last ~mask:2 T.One;
  Ppsfp.reset sim;
  for u = 0 to len - 1 do
    Ppsfp.step sim tr u
  done;
  let budget = Netlist.num_gates circuit * len / 4 in
  Alcotest.(check bool)
    (Printf.sprintf "evaluations %d < %d" (Ppsfp.evaluations sim) budget)
    true
    (Ppsfp.evaluations sim < budget);
  Alcotest.(check int) "trace fully materialized" len (Ppsfp.trace_length tr);
  Alcotest.(check int) "all steps event-driven" len (Ppsfp.event_steps sim)

(* Dropping a detected lane must leave the other lanes bit-for-bit
   untouched: simulate two faults together, drop one mid-sequence, and
   the survivor's detection behaviour must match a solo run. *)
let test_drop_lanes_preserves_other_lanes () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed:12 ~len:24 in
  let reference = det_times "packed" universe seq in
  (* The production path drops on detection; equality with the packed
     kernel (which never drops) is exactly the preservation property,
     fault by fault. *)
  Alcotest.(check (array int)) "dropping == never dropping" reference
    (det_times "ppsfp" universe seq)

let test_lane0_reserved_and_validation () =
  let circuit = Bist_bench.S27.circuit () in
  let sim = Ppsfp.create circuit in
  Alcotest.check_raises "lane 0 reserved"
    (Invalid_argument "Ppsfp: lane 0 is reserved for the fault-free machine")
    (fun () -> Ppsfp.add_output_force sim 0 ~mask:1 T.One);
  let seq = seq_for circuit ~seed:1 ~len:4 in
  let tr = Ppsfp.trace sim seq in
  Alcotest.check_raises "step beyond the sequence"
    (Invalid_argument "Ppsfp.step: time step beyond the sequence") (fun () ->
      Ppsfp.step sim tr 4);
  let other_circuit = Testutil.small_circuit 0 in
  let other = Ppsfp.create other_circuit in
  let seq2 = seq_for other_circuit ~seed:2 ~len:4 in
  let tr2 = Ppsfp.trace other seq2 in
  Alcotest.check_raises "trace/circuit mismatch"
    (Invalid_argument "Ppsfp.step: trace belongs to a different circuit")
    (fun () -> Ppsfp.step sim tr2 0)

(* Lane states saved mid-sequence and restored into other lanes of a
   fresh group must continue exactly where they left off: run a group to
   step [u], save every faulty lane, load the states into a new group
   with the lanes reversed after resetting it to the fault-free state at
   [u], step on from [u], and the detection times must equal an
   uninterrupted run and the scalar Seq_sim oracle on structural
   mutants. *)
let check_save_restore circuit ~seed ~len ~u =
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed ~len in
  let reference = det_times "ppsfp" universe seq in
  let good = Bist_sim.Seq_sim.run circuit seq in
  let n_faults = Universe.size universe in
  let install sim id ~lane =
    match (Universe.get universe id : Fault.t) with
    | { site = Fault.Output n; stuck } ->
      Ppsfp.add_output_force sim n ~mask:(1 lsl lane) stuck
    | { site = Fault.Pin { gate; pin }; stuck } ->
      Ppsfp.add_pin_force sim ~gate ~pin ~mask:(1 lsl lane) stuck
  in
  let base = ref 0 in
  while !base < n_faults do
    let size = min 62 (n_faults - !base) in
    let id j = !base + j in
    (* First leg: lanes 1..size, steps 0..u-1, no dropping. *)
    let first = Ppsfp.create circuit in
    let tr = Ppsfp.trace first seq in
    for j = 0 to size - 1 do
      install first (id j) ~lane:(j + 1)
    done;
    Ppsfp.reset first;
    let det = Array.make size (-1) in
    for step = 0 to u - 1 do
      Ppsfp.step first tr step;
      let diff = Ppsfp.po_diff_lanes first in
      for j = 0 to size - 1 do
        if det.(j) < 0 && diff land (1 lsl (j + 1)) <> 0 then det.(j) <- step
      done
    done;
    let saved = Array.init size (fun j -> Ppsfp.lane_state first ~lane:(j + 1)) in
    let good_state = Ppsfp.trace_state tr u in
    Alcotest.(check bytes) "lane 0 is the traced machine" good_state
      (Ppsfp.lane_state first ~lane:0);
    (* Second leg: a fresh group, fault j in lane [size - j]. *)
    let second = Ppsfp.create circuit in
    for j = 0 to size - 1 do
      install second (id j) ~lane:(size - j)
    done;
    Ppsfp.reset ~state:good_state second;
    Array.iteri (fun j st -> Ppsfp.load_lane second ~lane:(size - j) st) saved;
    for step = u to len - 1 do
      Ppsfp.step second tr step;
      let diff = Ppsfp.po_diff_lanes second in
      for j = 0 to size - 1 do
        if det.(j) < 0 && diff land (1 lsl (size - j)) <> 0 then det.(j) <- step
      done
    done;
    for j = 0 to size - 1 do
      let fault = Universe.get universe (id j) in
      let label =
        Printf.sprintf "%s fault %s resumed at %d" (Netlist.circuit_name circuit)
          (Fault.name circuit fault) u
      in
      Alcotest.(check int) (label ^ " == uninterrupted") reference.(id j) det.(j);
      let bad = Bist_sim.Seq_sim.run (mutant circuit fault) seq in
      Alcotest.(check int) (label ^ " == Seq_sim mutant") (scalar_det_time good bad)
        det.(j)
    done;
    base := !base + size
  done

let test_save_restore_lanes () =
  check_save_restore (Bist_bench.S27.circuit ()) ~seed:5 ~len:30 ~u:11;
  List.iter
    (fun cseed ->
      check_save_restore (Testutil.small_circuit cseed) ~seed:(cseed + 2) ~len:24
        ~u:(3 + (cseed mod 9)))
    [ 2; 9; 14; 33; 71 ];
  let x298 = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  check_save_restore x298 ~seed:8 ~len:40 ~u:17

(* A spliced trace is the trace of the sequence with the block omitted,
   whether the omission lands before, inside or at the end of the
   window where the machine re-converges. *)
let test_splice_equals_fresh_trace () =
  List.iter
    (fun (circuit, seed, len) ->
      let seq = seq_for circuit ~seed ~len in
      let sim = Ppsfp.create circuit in
      let tr = Ppsfp.trace sim seq in
      List.iter
        (fun (at, omit) ->
          let sp = Ppsfp.splice tr ~at ~omit in
          let fresh = Ppsfp.trace sim (Tseq.omit ~len:omit seq at) in
          let len' = len - min omit (len - at) in
          Alcotest.(check int) "spliced length" len'
            (Tseq.length (Ppsfp.trace_sequence sp));
          Alcotest.(check int) "fully materialized" len' (Ppsfp.trace_length sp);
          for u = 0 to len' - 1 do
            Alcotest.(check bytes)
              (Printf.sprintf "%s at=%d omit=%d: state at %d"
                 (Netlist.circuit_name circuit) at omit u)
              (Ppsfp.trace_state fresh u) (Ppsfp.trace_state sp u)
          done)
        [ (0, 1); (3, 2); (7, 5); (len - 4, 2); (len - 3, 10); (len - 1, 1) ])
    [ (Bist_bench.S27.circuit (), 6, 24);
      (Testutil.small_circuit 41, 3, 30);
      ((Option.get (Bist_bench.Registry.find "x298")).circuit (), 4, 40) ]

let test_state_validation () =
  let circuit = Bist_bench.S27.circuit () in
  let sim = Ppsfp.create circuit in
  let width = Netlist.num_dffs circuit in
  Alcotest.check_raises "state width"
    (Invalid_argument "Ppsfp: state width differs from the flip-flop count")
    (fun () -> Ppsfp.reset ~state:(Bytes.make (width + 1) '\000') sim);
  Alcotest.check_raises "state code" (Invalid_argument "Ppsfp: bad state code")
    (fun () -> Ppsfp.load_lane sim ~lane:1 (Bytes.make width '\003'));
  Alcotest.check_raises "lane 0 is not loadable"
    (Invalid_argument "Ppsfp: lane out of range 1..62") (fun () ->
      Ppsfp.load_lane sim ~lane:0 (Bytes.make width '\000'))

(* BIST_FSIM validation: unknown values warn and fall back to ppsfp. *)
let test_bist_fsim_fallback () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed:4 ~len:12 in
  let reference = det_times "ppsfp" universe seq in
  Alcotest.(check (array int)) "unknown BIST_FSIM falls back to ppsfp"
    reference
    (det_times "no-such-kernel" universe seq)

let suite =
  [
    Alcotest.test_case "synthetics: ppsfp == packed at widths 1/2/4" `Slow
      test_synthetics_ppsfp_vs_packed;
    Alcotest.test_case "registry: ppsfp == packed" `Slow
      test_registry_ppsfp_vs_packed;
    ppsfp_differential_property;
    Alcotest.test_case "event-sim oracle on s27 (structural mutants)" `Quick
      test_event_sim_oracle_s27;
    Alcotest.test_case "event-sim oracle on synthetics" `Slow
      test_event_sim_oracle_synthetics;
    Alcotest.test_case "event core skips quiescent levels" `Quick
      test_event_core_skips_quiescent_levels;
    Alcotest.test_case "fault dropping preserves other lanes" `Quick
      test_drop_lanes_preserves_other_lanes;
    Alcotest.test_case "ppsfp argument validation" `Quick
      test_lane0_reserved_and_validation;
    Alcotest.test_case "BIST_FSIM fallback" `Quick test_bist_fsim_fallback;
    Alcotest.test_case "lane states save/restore across groups" `Quick
      test_save_restore_lanes;
    Alcotest.test_case "spliced trace == fresh trace" `Quick
      test_splice_equals_fresh_trace;
    Alcotest.test_case "state argument validation" `Quick test_state_validation;
  ]
