(* Suites for Bist_tgen: the T0 engine and its static compaction, plus
   the synthetic benchmark generator and registry they run against. *)

module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Engine = Bist_tgen.Engine
module Compaction = Bist_tgen.Compaction

let counter_universe () = Universe.collapsed (Bist_bench.Teaching.counter3 ())

let test_engine_detects_something () =
  let universe = counter_universe () in
  let rng = Bist_util.Rng.create 11 in
  let t0, stats = Engine.generate ~rng universe in
  Alcotest.(check bool) "nonempty" true (Tseq.length t0 > 0);
  Alcotest.(check bool) "detects most counter faults" true
    (float_of_int stats.Engine.detected
     >= 0.7 *. float_of_int stats.total_faults);
  (* stats must agree with an independent fault simulation *)
  let check = Fsim.run universe t0 in
  Alcotest.(check int) "stats consistent"
    (Bitset.cardinal check.Fsim.detected)
    stats.detected

let test_engine_deterministic () =
  let universe = counter_universe () in
  let gen () =
    let rng = Bist_util.Rng.create 11 in
    fst (Engine.generate ~rng universe)
  in
  Testutil.check_seq "same seed, same T0" (gen ()) (gen ())

let test_engine_respects_max_length () =
  let universe = counter_universe () in
  let circuit = Bist_bench.Teaching.counter3 () in
  let config = { (Engine.default_config circuit) with Engine.max_length = 40 } in
  let rng = Bist_util.Rng.create 11 in
  let t0, _ = Engine.generate ~config ~rng universe in
  (* one segment may straddle the cap *)
  Alcotest.(check bool) "capped" true
    (Tseq.length t0 <= 40 + config.Engine.segment_length)

let test_compaction_preserves_coverage () =
  let universe = counter_universe () in
  let rng = Bist_util.Rng.create 11 in
  let t0, _ = Engine.generate ~rng universe in
  let before = (Fsim.run universe t0).Fsim.detected in
  let t0', stats = Compaction.compact universe t0 in
  let after = (Fsim.run universe t0').Fsim.detected in
  Alcotest.(check bool) "coverage superset" true (Bitset.subset before after);
  Alcotest.(check bool) "not longer" true (Tseq.length t0' <= Tseq.length t0);
  Alcotest.(check int) "stats lengths" (Tseq.length t0) stats.Compaction.initial_length;
  Alcotest.(check int) "stats final" (Tseq.length t0') stats.final_length

let test_compaction_budget () =
  let universe = counter_universe () in
  let rng = Bist_util.Rng.create 11 in
  let t0, _ = Engine.generate ~rng universe in
  let _, stats = Compaction.compact ~max_trials:5 universe t0 in
  Alcotest.(check bool) "trial budget respected" true (stats.Compaction.trials <= 5)

let test_compaction_idempotent_coverage =
  Testutil.qcheck
    (QCheck.Test.make ~name:"compaction sound on random circuits" ~count:10
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let t0 =
           Tseq.random_binary rng
             ~width:(Bist_circuit.Netlist.num_inputs circuit)
             ~length:(len + 5)
         in
         let before = (Fsim.run universe t0).Fsim.detected in
         let t0', _ = Compaction.compact universe t0 in
         Bitset.subset before (Fsim.run universe t0').Fsim.detected))

(* --- incremental compaction vs the from-zero oracle ------------------ *)

(* The accept/reject predicate as it was before prefix checkpoints: the
   whole candidate re-simulated from the all-X state over every
   must-detect fault. *)
let keeps_coverage universe must_detect candidate =
  Bitset.subset must_detect
    (Fsim.run ~targets:must_detect universe candidate)
      .Fsim.detected

(* The block-omission scan driven by [keeps_coverage]: same block
   schedule, same back-to-front order, same trial accounting. *)
let oracle_compact ?initial_block ?(max_trials = max_int) universe seq =
  let must_detect = (Fsim.run universe seq).Fsim.detected in
  let current = ref seq and trials = ref 0 and accepted = ref 0 in
  let block =
    ref
      (match initial_block with
      | Some b -> max 1 b
      | None -> max 1 (Tseq.length seq / 8))
  in
  let start = ref (Tseq.length seq - !block) in
  while !block >= 1 && !trials < max_trials do
    while !start >= 0 && !trials < max_trials do
      incr trials;
      let v = Tseq.to_array !current in
      let n = Array.length v in
      let stop = min n (!start + !block) in
      let kept = Array.append (Array.sub v 0 !start) (Array.sub v stop (n - stop)) in
      if Array.length kept > 0 then begin
        let candidate = Tseq.of_vectors kept in
        if keeps_coverage universe must_detect candidate then begin
          incr accepted;
          current := candidate
        end
      end;
      start := !start - !block
    done;
    block := if !block = 1 then 0 else !block / 2;
    if !block >= 1 then start := Tseq.length !current - !block
  done;
  (!current, !trials, !accepted)

let pool2 = Bist_parallel.Pool.create ~jobs:2 ()

(* One oracle run; the incremental scan must match it at pool widths 1
   and 2. *)
let check_against_oracle ~label ?initial_block ?max_trials universe seq =
  let expected, trials, accepted =
    oracle_compact ?initial_block ?max_trials universe seq
  in
  List.iter
    (fun (width, pool) ->
      let label =
        Printf.sprintf "%s, block %s, jobs %d" label
          (match initial_block with Some b -> string_of_int b | None -> "auto")
          width
      in
      let got, stats =
        Compaction.compact ?initial_block ?max_trials ?pool universe seq
      in
      Testutil.check_seq (label ^ ": sequence") expected got;
      Alcotest.(check int) (label ^ ": trials") trials stats.Compaction.trials;
      Alcotest.(check int) (label ^ ": accepted") accepted stats.accepted)
    [ (1, None); (2, Some pool2) ]

let random_seq circuit ~seed ~len =
  Tseq.random_binary (Bist_util.Rng.create seed)
    ~width:(Bist_circuit.Netlist.num_inputs circuit)
    ~length:len

let test_compaction_matches_oracle_synthetics () =
  for seed = 0 to 24 do
    let circuit = Testutil.small_circuit (17 * seed) in
    let universe = Universe.collapsed circuit in
    let seq = random_seq circuit ~seed:(seed + 1) ~len:(12 + (seed mod 30)) in
    List.iter
      (fun initial_block ->
        check_against_oracle ~label:(Printf.sprintf "synthetic %d" seed)
          ?initial_block universe seq)
      [ None; Some 1; Some 3; Some 6 ]
  done

let test_compaction_matches_oracle_registry () =
  let rec upto_x1488 = function
    | [] -> []
    | (e : Bist_bench.Registry.entry) :: rest ->
      e :: (if e.name = "x1488" then [] else upto_x1488 rest)
  in
  List.iteri
    (fun i (e : Bist_bench.Registry.entry) ->
      let circuit = e.circuit () in
      let universe = Universe.collapsed circuit in
      let seq = random_seq circuit ~seed:31 ~len:48 in
      let initial_block = if i mod 2 = 0 then None else Some 5 in
      check_against_oracle ~label:e.name ?initial_block ~max_trials:30 universe
        seq)
    (upto_x1488 (Bist_bench.Registry.all ()))

(* Synth / registry *)

let test_synth_matches_profile () =
  let p =
    { Bist_bench.Synth.name = "prof"; num_inputs = 5; num_outputs = 4;
      num_ffs = 6; num_gates = 60; sync_fraction = 0.8; seed = 77;
      style = Bist_bench.Synth.Random }
  in
  let c = Bist_bench.Synth.generate p in
  Alcotest.(check int) "PIs exact" 5 (Bist_circuit.Netlist.num_inputs c);
  Alcotest.(check int) "POs exact" 4 (Bist_circuit.Netlist.num_outputs c);
  Alcotest.(check int) "FFs exact" 6 (Bist_circuit.Netlist.num_dffs c);
  let gates = Bist_circuit.Netlist.num_gates c in
  Alcotest.(check bool) "gate count near target" true
    (gates >= 40 && gates <= 90)

let test_synth_deterministic () =
  let p = Testutil.small_profile 5 in
  let a = Bist_bench.Synth.generate p and b = Bist_bench.Synth.generate p in
  Alcotest.(check string) "same netlist"
    (Bist_circuit.Bench_writer.to_string a)
    (Bist_circuit.Bench_writer.to_string b)

let test_synth_everything_observable () =
  (* No dangling combinational gate: every non-PO node drives something. *)
  let c = Testutil.small_circuit 9 in
  for n = 0 to Bist_circuit.Netlist.size c - 1 do
    if Bist_circuit.Netlist.kind c n <> Bist_circuit.Gate.Input then
      Alcotest.(check bool)
        (Printf.sprintf "node %s observable" (Bist_circuit.Netlist.name c n))
        true
        (Bist_circuit.Netlist.fanout_count c n > 0)
  done

let test_synth_roundtrips_through_bench =
  Testutil.qcheck
    (QCheck.Test.make ~name:"synthetic circuits roundtrip through .bench" ~count:20
       QCheck.(int_range 0 200)
       (fun seed ->
         let c = Testutil.small_circuit seed in
         let text = Bist_circuit.Bench_writer.to_string c in
         let c2 =
           Bist_circuit.Bench_parser.parse_string
             ~name:(Bist_circuit.Netlist.circuit_name c)
             text
         in
         Bist_circuit.Bench_writer.to_string c2 = text))

let test_registry () =
  Alcotest.(check int) "suite size" 12
    (List.length (Bist_bench.Registry.evaluation_suite ()));
  Alcotest.(check bool) "find by paper name" true
    (Option.is_some (Bist_bench.Registry.find "s298"));
  Alcotest.(check bool) "find by our name" true
    (Option.is_some (Bist_bench.Registry.find "x298"));
  Alcotest.(check bool) "unknown" true (Bist_bench.Registry.find "zzz" = None);
  (* every registry circuit builds and validates *)
  List.iter
    (fun (e : Bist_bench.Registry.entry) ->
      if not e.scaled then begin
        let c = e.circuit () in
        Alcotest.(check bool) (e.name ^ " nonempty") true
          (Bist_circuit.Netlist.num_gates c > 0)
      end)
    (List.filteri (fun i _ -> i < 6) (Bist_bench.Registry.evaluation_suite ()))

let suite =
  [
    Alcotest.test_case "engine detects" `Quick test_engine_detects_something;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine max length" `Quick test_engine_respects_max_length;
    Alcotest.test_case "compaction preserves coverage" `Quick
      test_compaction_preserves_coverage;
    Alcotest.test_case "compaction budget" `Quick test_compaction_budget;
    test_compaction_idempotent_coverage;
    Alcotest.test_case "compaction == from-zero oracle (synthetics)" `Quick
      test_compaction_matches_oracle_synthetics;
    Alcotest.test_case "compaction == from-zero oracle (registry to x1488)"
      `Slow test_compaction_matches_oracle_registry;
    Alcotest.test_case "synth matches profile" `Quick test_synth_matches_profile;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth observable" `Quick test_synth_everything_observable;
    test_synth_roundtrips_through_bench;
    Alcotest.test_case "registry" `Quick test_registry;
  ]
