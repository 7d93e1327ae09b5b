module Bitset = Bist_util.Bitset

type t = {
  universe : Universe.t;
  num_sequences : int;
  syndromes : int array; (* bit k set = sequence k detects the fault *)
}

let build universe sequences =
  let n = Universe.size universe in
  if List.length sequences > 62 then
    invalid_arg "Dictionary.build: at most 62 sequences";
  let syndromes = Array.make n 0 in
  List.iteri
    (fun k seq ->
      let outcome = Fsim.run universe seq in
      Bitset.iter
        (fun id -> syndromes.(id) <- syndromes.(id) lor (1 lsl k))
        outcome.Fsim.detected)
    sequences;
  { universe; num_sequences = List.length sequences; syndromes }

let num_sequences t = t.num_sequences

let syndrome t id =
  List.init t.num_sequences (fun k -> t.syndromes.(id) land (1 lsl k) <> 0)

let candidates t ~observed =
  if List.length observed <> t.num_sequences then
    invalid_arg "Dictionary.candidates: syndrome length mismatch";
  let target =
    List.fold_left
      (fun (acc, k) fail -> ((if fail then acc lor (1 lsl k) else acc), k + 1))
      (0, 0) observed
    |> fst
  in
  let out = ref [] in
  for id = Universe.size t.universe - 1 downto 0 do
    if t.syndromes.(id) = target then out := id :: !out
  done;
  !out

let distinguishable_classes t =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun id syn ->
      if syn <> 0 then
        Hashtbl.replace groups syn
          (id :: Option.value ~default:[] (Hashtbl.find_opt groups syn)))
    t.syndromes;
  Hashtbl.fold (fun _ ids acc -> List.rev ids :: acc) groups []
  |> List.sort compare

let resolution t =
  let detected =
    Array.fold_left (fun acc syn -> if syn <> 0 then acc + 1 else acc) 0 t.syndromes
  in
  if detected = 0 then 0.0
  else float_of_int (List.length (distinguishable_classes t)) /. float_of_int detected
