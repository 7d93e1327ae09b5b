module Tseq = Bist_logic.Tseq

type report = {
  applied_cycles : int;
  detected : int;
  coverage : float;
}

let lfsr_sequence ~seed ~width ~cycles ~hold =
  let reg_width = max 2 (min 32 (width + 3)) in
  let lfsr = Bist_hw.Lfsr.create ~width:reg_width ~seed () in
  let distinct = (cycles + hold - 1) / hold in
  let vectors = Array.init distinct (fun _ -> Bist_hw.Lfsr.next_vector lfsr width) in
  Tseq.of_vectors (Array.init cycles (fun i -> vectors.(i / hold)))

let evaluate ?(seed = 0x2A) universe ~cycles ~hold =
  if cycles < 1 || hold < 1 then invalid_arg "Lfsr_bist.evaluate";
  let width = Bist_circuit.Netlist.num_inputs (Bist_fault.Universe.circuit universe) in
  let seq = lfsr_sequence ~seed ~width ~cycles ~hold in
  let outcome = Bist_fault.Fsim.run universe seq in
  let detected = Bist_util.Bitset.cardinal outcome.Bist_fault.Fsim.detected in
  {
    applied_cycles = cycles;
    detected;
    coverage = float_of_int detected /. float_of_int (Bist_fault.Universe.size universe);
  }

let coverage_curve ?(seed = 0x2A) universe ~checkpoints ~hold =
  let width = Bist_circuit.Netlist.num_inputs (Bist_fault.Universe.circuit universe) in
  let checkpoints = List.sort_uniq Int.compare checkpoints in
  let total = List.fold_left max 0 checkpoints in
  if total < 1 then invalid_arg "Lfsr_bist.coverage_curve";
  let seq = lfsr_sequence ~seed ~width ~cycles:total ~hold in
  let outcome = Bist_fault.Fsim.run universe seq in
  (* det_time gives the first detection cycle of every fault; a prefix of
     the run detects exactly the faults with det_time below its length. *)
  List.map
    (fun cp ->
      let count = ref 0 in
      Array.iter (fun dt -> if dt >= 0 && dt < cp then incr count) outcome.Bist_fault.Fsim.det_time;
      (cp, !count))
    checkpoints
