module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim

type pass =
  | Increasing_length
  | Decreasing_length
  | Reverse_generation
  | Decreasing_prev_detections

let pass_name = function
  | Increasing_length -> "increasing_length"
  | Decreasing_length -> "decreasing_length"
  | Reverse_generation -> "reverse_generation"
  | Decreasing_prev_detections -> "decreasing_prev_detections"

let default_passes =
  [ Increasing_length; Decreasing_length; Reverse_generation; Decreasing_prev_detections ]

type item = {
  seq : Tseq.t;
  gen_index : int;
  mutable active : bool;
  mutable prev_detections : int;
}

type outcome = {
  kept : Tseq.t list;
  dropped : int;
  simulated_time_units : int;
}

(* All orderings are stable with generation order as the tiebreak, so a
   fixed input yields a fixed result. *)
let order_for pass items =
  let active = List.filter (fun it -> it.active) items in
  let by key =
    List.stable_sort
      (fun a b ->
        let c = Int.compare (key a) (key b) in
        if c <> 0 then c else Int.compare a.gen_index b.gen_index)
      active
  in
  match pass with
  | Increasing_length -> by (fun it -> Tseq.length it.seq)
  | Decreasing_length -> by (fun it -> -Tseq.length it.seq)
  | Reverse_generation -> by (fun it -> -it.gen_index)
  | Decreasing_prev_detections -> by (fun it -> -it.prev_detections)

let run ?(passes = default_passes) ?(operators = Ops.all_operators)
    ?(obs = Bist_obs.Obs.null) ~n ~targets universe seqs =
  let items = List.mapi (fun i seq -> { seq; gen_index = i; active = true; prev_detections = 0 }) seqs in
  let time_units = ref 0 in
  let run_pass pass =
    let remaining = Bitset.copy targets in
    let simulate it =
      let exp = Ops.expand_with ~operators ~n it.seq in
      time_units :=
        !time_units + (Tseq.length exp * ((Bitset.cardinal remaining + 61) / 62));
      let outcome =
        Fsim.run ~obs ~targets:remaining universe exp
      in
      let detected = outcome.Fsim.detected in
      let count = Bitset.cardinal detected in
      if count = 0 then it.active <- false
      else begin
        Bitset.diff_into remaining detected;
        it.prev_detections <- count
      end
    in
    Bist_obs.Obs.span obs ~cat:"compaction" "postprocess.pass"
      ~args:(fun () ->
        [ ("order", pass_name pass);
          ("active",
           string_of_int
             (List.length (List.filter (fun it -> it.active) items))) ])
      (fun () -> List.iter simulate (order_for pass items))
  in
  List.iter run_pass passes;
  let kept =
    List.filter_map (fun it -> if it.active then Some it.seq else None) items
  in
  {
    kept;
    dropped = List.length seqs - List.length kept;
    simulated_time_units = !time_units;
  }
