(* Shared generators and helpers for the test suites. *)

module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary

let qcheck = QCheck_alcotest.to_alcotest

(* QCheck generators *)

let ternary_gen = QCheck.Gen.oneofl [ T.Zero; T.One; T.X ]

let binary_gen = QCheck.Gen.oneofl [ T.Zero; T.One ]

let ternary = QCheck.make ~print:(fun t -> String.make 1 (T.to_char t)) ternary_gen

let vector_gen ~width =
  QCheck.Gen.map
    (fun cells -> Vector.init width (fun i -> List.nth cells i))
    (QCheck.Gen.list_size (QCheck.Gen.return width) ternary_gen)

let seq_gen ~width ~max_len =
  QCheck.Gen.(
    int_range 1 max_len >>= fun len ->
    map
      (fun vecs -> Tseq.of_vectors (Array.of_list vecs))
      (list_size (return len) (vector_gen ~width)))

let seq ~width ~max_len =
  QCheck.make
    ~print:(fun s -> String.concat "," (Tseq.to_strings s))
    (seq_gen ~width ~max_len)

let binary_seq_gen ~width ~max_len =
  QCheck.Gen.(
    int_range 1 max_len >>= fun len ->
    map
      (fun seed ->
        let rng = Bist_util.Rng.create seed in
        Tseq.random_binary rng ~width ~length:len)
      (int_range 0 1_000_000))

let binary_seq ~width ~max_len =
  QCheck.make
    ~print:(fun s -> String.concat "," (Tseq.to_strings s))
    (binary_seq_gen ~width ~max_len)

(* Small random circuits for differential testing. *)
let small_profile seed =
  {
    Bist_bench.Synth.name = Printf.sprintf "rand%d" seed;
    num_inputs = 3 + (seed mod 4);
    num_outputs = 2 + (seed mod 3);
    num_ffs = 2 + (seed mod 5);
    num_gates = 20 + (seed mod 30);
    sync_fraction = 0.8;
    seed;
    style = Bist_bench.Synth.Random;
  }

let small_circuit seed = Bist_bench.Synth.generate (small_profile seed)

let circuit_and_seq_gen =
  QCheck.Gen.(
    int_range 0 500 >>= fun cseed ->
    int_range 0 1_000_000 >>= fun sseed ->
    int_range 2 40 >>= fun len ->
    return (cseed, sseed, len))

let circuit_and_seq =
  QCheck.make
    ~print:(fun (c, s, l) -> Printf.sprintf "circuit seed %d, seq seed %d, len %d" c s l)
    circuit_and_seq_gen

(* Alcotest testables *)

let tseq_testable =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (String.concat "," (Tseq.to_strings s)))
    Tseq.equal

let vector_testable =
  Alcotest.testable Vector.pp Vector.equal

let ternary_testable = Alcotest.testable T.pp T.equal

let check_seq = Alcotest.check tseq_testable
let check_vec = Alcotest.check vector_testable

(* --- the independent oracle: structural fault mutants on Seq_sim ---- *)

module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate
module Fault = Bist_fault.Fault
module Universe = Bist_fault.Universe

let const_name = "__sa_const"
let orig_prefix = "__sa_orig_"

(* Rebuild [circuit] with [fault] baked into the structure: a stem
   stuck-at becomes a constant driver, a fanout-branch stuck-at rewires
   one consumer pin to a constant node. *)
let mutant circuit (fault : Fault.t) =
  let module Builder = Bist_circuit.Builder in
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

(* The oracle's fault table: [det.(id)] for every fault of [ids]
   (default: the whole universe), [-1] for the others. *)
let mutant_det_times ?ids universe seq =
  let circuit = Universe.circuit universe in
  let good = Bist_sim.Seq_sim.run circuit seq in
  let ids =
    match ids with Some ids -> ids | None -> List.init (Universe.size universe) Fun.id
  in
  let det = Array.make (Universe.size universe) (-1) in
  List.iter
    (fun id ->
      let bad = Bist_sim.Seq_sim.run (mutant circuit (Universe.get universe id)) seq in
      det.(id) <- scalar_det_time good bad)
    ids;
  det
