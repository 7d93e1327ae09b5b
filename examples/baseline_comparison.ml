(* Scenario: the paper's Section-1 comparison, measured.

   On one circuit, contrast the four ways of generating at-speed tests:
   pure LFSR BIST, LFSR with the hold option [3] (no guarantee of
   coverage), partitioning T0 into separately-loaded blocks, storing all
   of T0, and the paper's subsequence-expansion scheme (both guarantee
   T0's coverage). *)

let () =
  let entry = Option.get (Bist_bench.Registry.find "x298") in
  let circuit = entry.circuit () in
  let universe = Bist_fault.Universe.collapsed circuit in
  let total = Bist_fault.Universe.size universe in

  let rng = Bist_util.Rng.create 99 in
  let t0_raw, _ = Bist_tgen.Engine.generate ~rng universe in
  let t0, _ = Bist_tgen.Compaction.compact ~max_trials:200 universe t0_raw in
  let t0_len = Bist_logic.Tseq.length t0 in
  let t0_detected =
    (Bist_fault.Fsim.run universe t0)
      .Bist_fault.Fsim.detected
    |> Bist_util.Bitset.cardinal
  in
  Format.printf "%s: %d faults; T0 has %d vectors and detects %d@.@."
    entry.name total t0_len t0_detected;

  let pct d = 100.0 *. float_of_int d /. float_of_int total in

  (* LFSR baselines at the same at-speed budget the scheme will use. *)
  let run = Bist_core.Scheme.best_n ~seed:5 ~t0 universe in
  let budget = max run.Bist_core.Scheme.expanded_total_length (8 * t0_len) in
  List.iter
    (fun hold ->
      let r = Bist_baselines.Lfsr_bist.evaluate universe ~cycles:budget ~hold in
      Format.printf
        "LFSR BIST%-12s: %6d at-speed cycles, no loading, detects %4d (%.1f%%)@."
        (if hold = 1 then "" else Printf.sprintf " (hold=%d)" hold)
        budget r.Bist_baselines.Lfsr_bist.detected
        (pct r.detected))
    [ 1; 2; 4 ];

  (* Full load of T0. *)
  let fl = Bist_baselines.Full_load.evaluate universe ~t0 in
  Format.printf
    "full load of T0      : %6d at-speed cycles, load %d, memory %d words, detects %4d (%.1f%%)@."
    fl.Bist_baselines.Full_load.at_speed_cycles fl.load_cycles fl.memory_words
    fl.detected (pct fl.detected);

  (* Partitioned loading. *)
  List.iter
    (fun block ->
      let p = Bist_baselines.Partition.evaluate universe ~t0 ~block in
      Format.printf
        "partition (B=%3d)    : load %d (>=|T0|), max block %d, coverage preserved: %b@."
        block p.Bist_baselines.Partition.total_loaded p.max_block_length
        p.coverage_preserved)
    [ 16; 32 ];

  (* Encoded storage of T0 ([5]): smaller memory, but the decoder cannot
     sustain one vector per functional clock. *)
  let _, enc = Bist_baselines.Encoding.encode t0 in
  Format.printf
    "encoded T0 storage   : %d bits vs %d raw (%.0f%%), ~%.1f decode cycles/vector (not at-speed)@."
    enc.Bist_baselines.Encoding.encoded_bits enc.raw_bits
    (100.0 *. enc.compression_ratio)
    enc.decode_cycles_per_vector;

  (* The paper's scheme. *)
  Format.printf
    "subsequence expansion: %6d at-speed cycles, load %d (%.0f%% of |T0|), \
     memory %d words (%.0f%%), coverage preserved: %b@."
    run.expanded_total_length run.after.total_length
    (100.0 *. Bist_core.Scheme.ratio_total run)
    run.after.max_length
    (100.0 *. Bist_core.Scheme.ratio_max run)
    run.coverage_verified
