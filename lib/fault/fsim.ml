module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Ppsfp = Bist_sim.Ppsfp
module Obs = Bist_obs.Obs

type outcome = {
  universe : Universe.t;
  det_time : int array;
  detected : Bitset.t;
}

let faults_per_pass = 62 (* 63 lanes minus the fault-free lane 0 *)

let install sim fault ~lane =
  let mask = 1 lsl lane in
  match (fault : Fault.t) with
  | { site = Fault.Output n; stuck } -> Ppsfp.add_output_force sim n ~mask stuck
  | { site = Fault.Pin { gate; pin }; stuck } ->
    Ppsfp.add_pin_force sim ~gate ~pin ~mask stuck

(* Load the next group: faults [ids.(base)..], up to 62, into lanes
   1.. of [sim], every lane starting from [state] (default all-X) and
   then [load sim ~lane id] for each fault's own lane. Returns the group
   size and its live-lane mask. *)
let start_group ?state ?(load = fun _ ~lane:_ _ -> ()) sim universe ids base =
  let size = min faults_per_pass (Array.length ids - base) in
  Ppsfp.clear_forces sim;
  Ppsfp.reset ?state sim;
  for j = 0 to size - 1 do
    install sim (Universe.get universe ids.(base + j)) ~lane:(j + 1);
    load sim ~lane:(j + 1) ids.(base + j)
  done;
  (size, ((1 lsl size) - 1) lsl 1)

(* One pass over a slice of the universe, from reset or resumed at step
   [from] of a materialized [trace] from saved states, writing detection
   times positionally ([det_local.(i)] belongs to fault [ids.(i)]). The
   simulator is created here, inside the worker, so parallel shards
   never share mutable simulation state; a fault's detection time does
   not depend on which other faults share its group, so any slicing of
   the canonical id order yields the same times. The fault-free machine
   comes from a per-worker trace, a detected fault's lanes are dropped
   on the spot (its detection time is already fixed, and lanes are
   independent bitwise, so the remaining lanes are unaffected), and a
   group ends as soon as all its lanes have been detected. With
   [stop_on_miss], the first group ending with a live lane ends the
   pass. Returns the times and the group-steps simulated. *)
let ppsfp_groups ?ctl ?trace ?(from = 0) ?load ?(stop_on_miss = false) universe seq
    ids =
  let k = Array.length ids in
  let det_local = Array.make k (-1) in
  let sim = Ppsfp.create (Universe.circuit universe) in
  let tr = match trace with Some tr -> tr | None -> Ppsfp.trace sim seq in
  let len = Tseq.length seq in
  let state = if from = 0 || from >= len then None else Some (Ppsfp.trace_state tr from) in
  let steps = ref 0 and missed = ref false and base = ref 0 in
  while !base < k && not !missed do
    (* Safe point between groups: nothing partial is committed, a
       preempted shard just raises out through the pool. *)
    Bist_resilience.Ctl.poll ctl;
    let group_size, live0 = start_group ?state ?load sim universe ids !base in
    let live = ref live0 and u = ref from in
    while !u < len && !live <> 0 do
      Ppsfp.step sim tr !u;
      let newly = Ppsfp.po_diff_lanes sim land !live in
      if newly <> 0 then begin
        for j = 0 to group_size - 1 do
          if newly land (1 lsl (j + 1)) <> 0 then det_local.(!base + j) <- !u
        done;
        live := !live land lnot newly;
        Ppsfp.drop_lanes sim newly
      end;
      incr u
    done;
    steps := !steps + !u - from;
    missed := stop_on_miss && !live <> 0;
    base := !base + group_size
  done;
  (det_local, !steps)

(* Shard [target_ids] over the pool ([BIST_JOBS] by default) with one
   ["fsim.shard"] span per shard. The shard closure runs on the pool's
   worker domains, so each span lands on its own trace track (tid =
   domain id): parallel shard utilisation is readable straight off the
   timeline. *)
let sharded ~obs ?pool ?tune universe seq target_ids sim_ids =
  let pool =
    match pool with Some _ -> pool | None -> Bist_parallel.Pool.from_env ()
  in
  let f ids =
    Obs.span obs ~cat:"fsim" "fsim.shard"
      ~args:(fun () ->
        [ ("faults", string_of_int (Array.length ids));
          ("seq_len", string_of_int (Tseq.length seq)) ])
      (fun () -> sim_ids ids)
  in
  let det_time, detected =
    Bist_parallel.Shard.detections ?pool ?tune
      ~units:(Array.length target_ids * max 1 (Tseq.length seq))
      ~size:(Universe.size universe) ~f target_ids
  in
  { universe; det_time; detected }

let run ?(obs = Obs.null) ?pool ?tune ?ctl ?targets universe seq =
  let target_ids =
    match targets with
    | None -> Array.init (Universe.size universe) (fun i -> i)
    | Some set -> Array.of_list (Bitset.elements set)
  in
  sharded ~obs ?pool ?tune universe seq target_ids (fun ids ->
      fst (ppsfp_groups ?ctl universe seq ids))

(* --- prefix checkpoints ------------------------------------------- *)

type pass = {
  p_universe : Universe.t;
  mutable good : Ppsfp.trace;  (* the current sequence *)
  mutable spare : Ppsfp.trace option;  (* storage for the next candidate *)
  faulty : (int, (int, Bytes.t) Hashtbl.t) Hashtbl.t;
      (* position -> fault id -> state entering it *)
}

let faulty_at pass at =
  match Hashtbl.find_opt pass.faulty at with
  | Some states -> states
  | None -> invalid_arg "Fsim: no checkpoint at this position"

let live_targets pass ~at =
  let ids = Array.of_seq (Hashtbl.to_seq_keys (faulty_at pass at)) in
  Array.sort compare ids;
  ids

(* One pass over the prefix, 62 targets to a group in the given order,
   saving every still-undetected lane's state as the scan reaches each
   position; a group stops at the last position or when all its lanes
   are detected. *)
let capture ?ctl universe seq ~targets ~at =
  let at = Array.of_list (List.sort_uniq compare (Array.to_list at)) in
  let m = Array.length at in
  if m > 0 && (at.(0) < 0 || at.(m - 1) >= Tseq.length seq) then
    invalid_arg "Fsim.capture: position beyond the sequence";
  let sim = Ppsfp.create (Universe.circuit universe) in
  let tr = Ppsfp.trace sim seq in
  let tables = Array.map (fun _ -> Hashtbl.create 64) at in
  let steps = ref 0 and base = ref 0 in
  let k = if m = 0 then 0 else Array.length targets in
  while !base < k do
    Bist_resilience.Ctl.poll ctl;
    let group_size, live0 = start_group sim universe targets !base in
    let live = ref live0 and next = ref 0 and u = ref 0 in
    while !next < m && !live <> 0 do
      if !u = at.(!next) then begin
        for j = 0 to group_size - 1 do
          if !live land (1 lsl (j + 1)) <> 0 then
            Hashtbl.replace tables.(!next) targets.(!base + j)
              (Ppsfp.lane_state sim ~lane:(j + 1))
        done;
        incr next
      end;
      if !next < m then begin
        Ppsfp.step sim tr !u;
        let newly = Ppsfp.po_diff_lanes sim land !live in
        live := !live land lnot newly;
        Ppsfp.drop_lanes sim newly;
        incr u
      end
    done;
    steps := !steps + !u;
    base := !base + group_size
  done;
  let faulty = Hashtbl.create (max 1 m) in
  Array.iteri (fun i p -> Hashtbl.replace faulty p tables.(i)) at;
  ({ p_universe = universe; good = tr; spare = None; faulty }, !steps)

(* The candidate's fault-free trace, built in the storage of the last
   one: two trace buffers serve the whole pass. *)
let candidate pass ~at ~omit =
  let tr = Ppsfp.splice ?reuse:pass.spare pass.good ~at ~omit in
  pass.spare <- Some tr;
  tr

let resume ?(obs = Obs.null) ?pool ?tune ?ctl pass ~at ~omit ~targets =
  let states = faulty_at pass at in
  let trace = candidate pass ~at ~omit in
  let seq = Ppsfp.trace_sequence trace in
  let load sim ~lane id = Ppsfp.load_lane sim ~lane (Hashtbl.find states id) in
  let steps = Atomic.make 0 in
  let outcome =
    sharded ~obs ?pool ?tune pass.p_universe seq targets (fun ids ->
        let det, n =
          ppsfp_groups ?ctl ~trace ~from:at ~load ~stop_on_miss:true
            pass.p_universe seq ids
        in
        ignore (Atomic.fetch_and_add steps n);
        det)
  in
  (outcome, Atomic.get steps)

let omit pass ~at ~omit =
  let tr = candidate pass ~at ~omit in
  pass.spare <- Some pass.good;
  pass.good <- tr;
  Hashtbl.filter_map_inplace (fun p states -> if p <= at then Some states else None)
    pass.faulty

let coverage outcome =
  float_of_int (Bitset.cardinal outcome.detected)
  /. float_of_int (Universe.size outcome.universe)

type single = { s_sim : Ppsfp.t; mutable s_trace : Ppsfp.trace option }

let single circuit fault =
  let s_sim = Ppsfp.create circuit in
  install s_sim fault ~lane:1;
  { s_sim; s_trace = None }

(* Each sequence's trace is built in the storage of the previous one,
   so one buffer serves every call. *)
let single_detection_time s seq =
  let tr = Ppsfp.trace ?reuse:s.s_trace s.s_sim seq in
  s.s_trace <- Some tr;
  Ppsfp.reset s.s_sim;
  let len = Tseq.length seq in
  let rec go u =
    if u >= len then None
    else begin
      Ppsfp.step s.s_sim tr u;
      if Ppsfp.po_diff_lanes s.s_sim <> 0 then Some u else go (u + 1)
    end
  in
  go 0

let single_detects s seq = Option.is_some (single_detection_time s seq)

let detects circuit fault seq = single_detects (single circuit fault) seq
