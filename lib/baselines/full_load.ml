type report = {
  memory_words : int;
  memory_bits : int;
  load_cycles : int;
  at_speed_cycles : int;
  detected : int;
  coverage : float;
}

let evaluate universe ~t0 =
  let outcome = Bist_fault.Fsim.run universe t0 in
  let len = Bist_logic.Tseq.length t0 in
  let width = Bist_logic.Tseq.width t0 in
  let detected = Bist_util.Bitset.cardinal outcome.Bist_fault.Fsim.detected in
  {
    memory_words = len;
    memory_bits = len * width;
    load_cycles = len;
    at_speed_cycles = len;
    detected;
    coverage = float_of_int detected /. float_of_int (Bist_fault.Universe.size universe);
  }
