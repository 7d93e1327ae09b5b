(* Differential-oracle suite for the PPSFP fault-simulation kernel.

   {!Bist_sim.Ppsfp} (shared fault-free trace, event-driven levelized
   evaluation, fault dropping) is the library's only fault simulator. Its
   fault tables are checked against an independent scalar oracle:
   {!Bist_sim.Seq_sim} on a mutated netlist, where each fault is compiled
   into the circuit structurally (stem stuck-at becomes a constant
   driver, a fanout-branch stuck-at rewires one consumer pin to a
   constant node) and the primary outputs are compared against the
   fault-free run ({!Testutil.mutant_det_times}).

   The oracle is scalar and per-fault, so it covers s27, the seeded
   synthetics and random circuits over the whole universe, and a
   deterministic stride of every registry circuit. The registry's whole
   tables are pinned by CRC-32, recorded when the suite still asserted
   them equal to a second, full-sweep packed kernel. Every table is
   checked at several pool widths and on both sides of the sharding
   crossover. *)

module Tseq = Bist_logic.Tseq
module T = Bist_logic.Ternary
module Rng = Bist_util.Rng
module Netlist = Bist_circuit.Netlist
module Universe = Bist_fault.Universe
module Fault = Bist_fault.Fault
module Fsim = Bist_fault.Fsim
module Pool = Bist_parallel.Pool
module Tune = Bist_parallel.Tune
module Ppsfp = Bist_sim.Ppsfp

let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()

(* Sharding forced into [jobs] chunks / suppressed entirely — the two
   sides of the crossover, pinned independently of this host's cores. *)
let tune_shard () = Tune.create ~min_units:1 ()
let tune_seq () = Tune.create ~min_units:max_int ()

let det_times ?pool ?tune universe seq = (Fsim.run ?pool ?tune universe seq).Fsim.det_time

let seq_for circuit ~seed ~len =
  let rng = Rng.create seed in
  Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:len

(* PPSFP vs the mutant oracle on the 25 seeded synthetics, at widths
   1/2/4 and across the crossover boundary. *)
let test_synthetics_ppsfp_vs_oracle () =
  for seed = 0 to 24 do
    let circuit = Testutil.small_circuit (17 * seed) in
    let universe = Universe.collapsed circuit in
    let seq = seq_for circuit ~seed:(seed + 1) ~len:(10 + (seed mod 25)) in
    let reference = Testutil.mutant_det_times universe seq in
    let label variant = Printf.sprintf "seed %d: %s == Seq_sim mutants" seed variant in
    Alcotest.(check (array int))
      (label "ppsfp sequential")
      reference
      (det_times ~tune:(tune_seq ()) universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=2 sharded")
      reference
      (det_times ~pool:pool2 ~tune:(tune_shard ()) universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4 sharded")
      reference
      (det_times ~pool:pool4 ~tune:(tune_shard ()) universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4 below crossover")
      reference
      (det_times ~pool:pool4 ~tune:(tune_seq ()) universe seq)
  done

(* CRC-32 of each registry circuit's whole fault table (seed 23, 24
   vectors), as computed by the full-sweep packed kernel that the tree
   carried beside PPSFP and that this suite held PPSFP equal to. *)
let registry_pins =
  [ ("s27", 0x2cc25d97l); ("x298", 0xa031f873l); ("x344", 0x1d907b7bl);
    ("x382", 0xb955212fl); ("x400", 0xa5f5588dl); ("x526", 0xfaff0852l);
    ("x641", 0x30b4f1bdl); ("x820", 0x7daf4d4fl); ("x1196", 0x81ddac32l);
    ("x1423", 0x2e436cafl); ("x1488", 0x0f312e3cl); ("x5378", 0xe2925ec6l);
    ("x35932", 0x646c3fbbl) ]

let table_crc det =
  Bist_resilience.Crc32.string
    (String.concat "," (Array.to_list (Array.map string_of_int det)))

let registry_case (entry : Bist_bench.Registry.entry) =
  let universe = Universe.collapsed (entry.circuit ()) in
  (universe, seq_for (Universe.circuit universe) ~seed:23 ~len:24)

let test_registry_pinned_tables () =
  let crc = Alcotest.testable (fun fmt c -> Format.fprintf fmt "%08lx" c) Int32.equal in
  Alcotest.(check (list string)) "every registry circuit is pinned"
    (List.map fst registry_pins)
    (List.map (fun (e : Bist_bench.Registry.entry) -> e.name) (Bist_bench.Registry.all ()));
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let universe, seq = registry_case entry in
      let pin = List.assoc entry.name registry_pins in
      let check variant det =
        Alcotest.check crc (Printf.sprintf "%s: %s table" entry.name variant) pin
          (table_crc det)
      in
      check "ppsfp" (det_times ~tune:(tune_seq ()) universe seq);
      check "ppsfp jobs=2 sharded" (det_times ~pool:pool2 ~tune:(tune_shard ()) universe seq);
      check "ppsfp jobs=2 below crossover"
        (det_times ~pool:pool2 ~tune:(tune_seq ()) universe seq))
    (Bist_bench.Registry.all ())

(* The scalar oracle over a whole registry universe costs about a minute
   on x5378, so each circuit is checked on a deterministic stride of at
   most 64 faults. *)
let test_registry_mutant_stride () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let universe, seq = registry_case entry in
      let size = Universe.size universe in
      let ids = List.sort_uniq compare (List.init (min 64 size) (fun i -> i * size / min 64 size)) in
      let table = det_times universe seq in
      let oracle = Testutil.mutant_det_times ~ids universe seq in
      List.iter
        (fun id ->
          Alcotest.(check int)
            (Printf.sprintf "%s fault %s" entry.name
               (Fault.name (Universe.circuit universe) (Universe.get universe id)))
            oracle.(id) table.(id))
        ids)
    (Bist_bench.Registry.all ())

(* The qcheck property: any synthetic circuit, any binary sequence, any
   width/crossover side — the oracle's table. *)
let ppsfp_differential_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"ppsfp == Seq_sim mutants (random)"
       ~count:40 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seq = seq_for circuit ~seed:sseed ~len in
         let pool, tune =
           match (cseed + sseed + len) mod 3 with
           | 0 -> (None, tune_seq ())
           | 1 -> (Some pool2, tune_shard ())
           | _ -> (Some pool4, tune_shard ())
         in
         Testutil.mutant_det_times universe seq = det_times ?pool ~tune universe seq))

let check_mutant_oracle circuit ~seed ~len =
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed ~len in
  let reference = Testutil.mutant_det_times universe seq in
  let table = det_times universe seq in
  Universe.iter
    (fun id fault ->
      Alcotest.(check int)
        (Printf.sprintf "%s fault %s" (Netlist.circuit_name circuit)
           (Fault.name circuit fault))
        reference.(id) table.(id))
    universe

let test_mutant_oracle_s27 () =
  check_mutant_oracle (Bist_bench.S27.circuit ()) ~seed:3 ~len:32

let test_mutant_oracle_synthetics () =
  List.iter
    (fun cseed ->
      check_mutant_oracle (Testutil.small_circuit cseed) ~seed:(cseed + 5) ~len:20)
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
  let reference = Testutil.mutant_det_times universe seq in
  (* The production path drops on detection; equality with the scalar
     oracle (one machine per fault, nothing to drop) is exactly the
     preservation property, fault by fault. *)
  Alcotest.(check (array int)) "dropping == one machine per fault" reference
    (det_times universe seq)

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
  let reference = det_times universe seq in
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
      let bad = Bist_sim.Seq_sim.run (Testutil.mutant circuit fault) seq in
      Alcotest.(check int) (label ^ " == Seq_sim mutant") (Testutil.scalar_det_time good bad)
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

(* A trace started from a state is the tail of the trace of the whole
   sequence, node for node, whether or not it is built in reused
   storage; and every node of a trace is Seq_sim's fault-free value. *)
let test_trace_state_and_reuse () =
  List.iter
    (fun (circuit, seed, len, at) ->
      let seq = seq_for circuit ~seed ~len in
      let sim = Ppsfp.create circuit in
      let whole = Ppsfp.trace sim seq in
      let scalar = Bist_sim.Seq_sim.create circuit in
      let name = Netlist.circuit_name circuit in
      for u = 0 to len - 1 do
        ignore (Bist_sim.Seq_sim.step scalar (Tseq.get seq u));
        for node = 0 to Netlist.size circuit - 1 do
          Alcotest.check Testutil.ternary_testable
            (Printf.sprintf "%s step %d node %s" name u (Netlist.name circuit node))
            (Bist_sim.Seq_sim.node_value scalar node)
            (Ppsfp.trace_value whole u node)
        done
      done;
      let tail = Tseq.sub seq ~lo:at ~hi:(len - 1) in
      let state = Ppsfp.trace_state whole at in
      let spent = Ppsfp.trace sim (seq_for circuit ~seed:(seed + 1) ~len) in
      ignore (Ppsfp.trace_state spent (len - 1));
      let small = Ppsfp.trace sim (seq_for circuit ~seed ~len:1) in
      List.iter
        (fun (variant, tr) ->
          for u = 0 to len - at - 1 do
            let label = Printf.sprintf "%s %s: step %d" name variant u in
            Alcotest.(check bytes) (label ^ " state") (Ppsfp.trace_state whole (at + u))
              (Ppsfp.trace_state tr u);
            for node = 0 to Netlist.size circuit - 1 do
              Alcotest.check Testutil.ternary_testable label
                (Ppsfp.trace_value whole (at + u) node)
                (Ppsfp.trace_value tr u node)
            done
          done)
        [ ("fresh", Ppsfp.trace ~state sim tail);
          ("reused", Ppsfp.trace ~reuse:spent ~state sim tail);
          ("outgrown", Ppsfp.trace ~reuse:small ~state sim tail) ])
    [ (Bist_bench.S27.circuit (), 2, 20, 7);
      (Testutil.small_circuit 41, 3, 30, 11);
      ((Option.get (Bist_bench.Registry.find "x298")).circuit (), 4, 40, 13) ]

let test_state_validation () =
  let circuit = Bist_bench.S27.circuit () in
  let sim = Ppsfp.create circuit in
  let width = Netlist.num_dffs circuit in
  Alcotest.check_raises "state width"
    (Invalid_argument "Ppsfp: state width differs from the flip-flop count")
    (fun () -> Ppsfp.reset ~state:(Bytes.make (width + 1) '\000') sim);
  Alcotest.check_raises "trace state width"
    (Invalid_argument "Ppsfp: state width differs from the flip-flop count")
    (fun () ->
      ignore (Ppsfp.trace ~state:(Bytes.make (width - 1) '\000') sim (seq_for circuit ~seed:1 ~len:2)));
  Alcotest.check_raises "state code" (Invalid_argument "Ppsfp: bad state code")
    (fun () -> Ppsfp.load_lane sim ~lane:1 (Bytes.make width '\003'));
  Alcotest.check_raises "lane 0 is not loadable"
    (Invalid_argument "Ppsfp: lane out of range 1..62") (fun () ->
      Ppsfp.load_lane sim ~lane:0 (Bytes.make width '\000'))

let suite =
  [
    Alcotest.test_case "synthetics: ppsfp == Seq_sim mutants" `Slow
      test_synthetics_ppsfp_vs_oracle;
    Alcotest.test_case "registry: ppsfp == packed" `Slow
      test_registry_pinned_tables;
    Alcotest.test_case "registry: mutants on a stride" `Slow
      test_registry_mutant_stride;
    ppsfp_differential_property;
    Alcotest.test_case "seq-sim oracle on s27 (mutants)" `Quick
      test_mutant_oracle_s27;
    Alcotest.test_case "seq-sim oracle on synthetics" `Slow
      test_mutant_oracle_synthetics;
    Alcotest.test_case "event core skips quiescent levels" `Quick
      test_event_core_skips_quiescent_levels;
    Alcotest.test_case "fault dropping preserves other lanes" `Quick
      test_drop_lanes_preserves_other_lanes;
    Alcotest.test_case "ppsfp argument validation" `Quick
      test_lane0_reserved_and_validation;
    Alcotest.test_case "lane states save/restore across groups" `Quick
      test_save_restore_lanes;
    Alcotest.test_case "spliced trace == fresh trace" `Quick
      test_splice_equals_fresh_trace;
    Alcotest.test_case "trace from a state, reused storage" `Quick
      test_trace_state_and_reuse;
    Alcotest.test_case "state argument validation" `Quick test_state_validation;
  ]
