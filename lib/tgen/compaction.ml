module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim
module Obs = Bist_obs.Obs
module Ctl = Bist_resilience.Ctl
module Checkpoint = Bist_resilience.Checkpoint

type stats = {
  trials : int;
  accepted : int;
  initial_length : int;
  final_length : int;
}

type snapshot = {
  seq : Tseq.t;
  must_detect : Bitset.t option;
  block : int;
  start : int;
  trials : int;
  accepted : int;
  initial_length : int;
}

exception Interrupted of snapshot

let () =
  Printexc.register_printer (function
    | Interrupted s ->
      Some
        (Printf.sprintf
           "Compaction.Interrupted (%d of %d vectors, %d trials)"
           (Tseq.length s.seq) s.initial_length s.trials)
    | _ -> None)

(* The trial starts a pass still has ahead of it: [start], [start -
   block], ... down to 0, at most [budget] of them. *)
let pass_starts ~start ~block ~budget =
  let rec go s n acc = if s < 0 || n = 0 then acc else go (s - block) (n - 1) (s :: acc) in
  Array.of_list (go start budget [])

let compact ?initial_block ?(max_trials = max_int) ?(obs = Obs.null) ?pool ?ctl
    ?resume universe seq =
  let initial_length, current, trials, accepted =
    match resume with
    | Some s -> (s.initial_length, ref s.seq, ref s.trials, ref s.accepted)
    | None -> (Tseq.length seq, ref seq, ref 0, ref 0)
  in
  let committed () =
    match ctl with None -> () | Some c -> Ctl.note_progress c
  in
  (* Before the baseline simulation has committed, the snapshot is just
     the input sequence ([must_detect = None]); block and cursor are
     recomputed on resume exactly as on a fresh start. *)
  let pre_baseline_snapshot () =
    {
      seq = !current;
      must_detect = None;
      block = 0;
      start = 0;
      trials = !trials;
      accepted = !accepted;
      initial_length;
    }
  in
  let baseline ?targets () =
    Obs.span obs ~cat:"compaction" "compaction.baseline" (fun () ->
        Fsim.run ~obs ?pool ?ctl ?targets universe !current)
  in
  (* [det] holds the current sequence's detection time of every
     must-detect fault. It is derived data: a resumed run recomputes it
     from the snapshot's sequence. *)
  let must_detect, det =
    match resume with
    | Some { must_detect = Some md; _ } -> (
      let md = Bitset.copy md in
      match baseline ~targets:md () with
      | o -> (md, o.Fsim.det_time)
      | exception Ctl.Preempted _ -> raise (Interrupted (Option.get resume)))
    | _ -> (
      (match ctl with
      | Some c when Ctl.stop_reason c <> None ->
        raise (Interrupted (pre_baseline_snapshot ()))
      | _ -> ());
      match baseline () with
      | o ->
        committed ();
        (o.Fsim.detected, o.Fsim.det_time)
      | exception Ctl.Preempted _ ->
        raise (Interrupted (pre_baseline_snapshot ())))
  in
  let block = ref 0 and start = ref 0 in
  (match resume with
  | Some ({ must_detect = Some _; _ } as s) ->
    block := s.block;
    start := s.start
  | _ ->
    block :=
      (match initial_block with
      | Some b -> max 1 b
      | None -> max 1 (initial_length / 8));
    start := Tseq.length !current - !block);
  let trial_snapshot () =
    {
      seq = !current;
      must_detect = Some (Bitset.copy must_detect);
      block = !block;
      start = !start;
      trials = !trials;
      accepted = !accepted;
      initial_length;
    }
  in
  let group_steps = ref 0 and live_faults = ref 0 in
  let by_detection ids = Array.stable_sort (fun a b -> compare det.(a) det.(b)) ids in
  (* Checkpoints of the current sequence at the pass's remaining trial
     starts, captured once per pass (leg): an accepted omission at [s]
     changes nothing before [s], and every later trial of the pass
     starts before [s]. Only faults detected at or after the earliest
     start are captured, grouped by detection time so that groups end
     together. *)
  let capture_pass () =
    let at =
      pass_starts ~start:!start ~block:!block ~budget:(max_trials - !trials)
    in
    let targets =
      Array.of_list
        (List.filter (fun id -> det.(id) >= at.(0)) (Bitset.elements must_detect))
    in
    by_detection targets;
    let pass, steps = Fsim.capture ?ctl universe !current ~targets ~at in
    group_steps := !group_steps + steps;
    pass
  in
  (* The accept/reject predicate of omitting [block] vectors at [s]:
     every must-detect fault stays detected. A fault detected before [s]
     is detected at the same time by the candidate, whose prefix is the
     same; the others are resumed from their checkpointed state under
     the vectors that follow the omission. They run in order of their
     current detection time, so the faults the omitted block detected —
     the likeliest to be lost — go first, and the first group that ends
     with a fault undetected rejects the candidate without simulating
     the rest. Returns the resumed faults' new detection times on
     success. *)
  let keeps_coverage pass s =
    let targets = Fsim.live_targets pass ~at:s in
    by_detection targets;
    live_faults := !live_faults + Array.length targets;
    if Array.length targets = 0 then Some [||]
    else begin
      let o, steps =
        Fsim.resume ~obs ?pool ?ctl pass ~at:s ~omit:!block ~targets
      in
      group_steps := !group_steps + steps;
      if Array.for_all (fun id -> o.Fsim.det_time.(id) >= 0) targets then
        Some (Array.map (fun id -> (id, o.Fsim.det_time.(id))) targets)
      else None
    end
  in
  while !block >= 1 && !trials < max_trials do
    (* Back-to-front scan at the current granularity: one span per pass,
       whose args report what the pass achieved (evaluated at exit). *)
    let pass_block = !block in
    let pass_trials = !trials and pass_accepted = !accepted in
    let pass_steps = !group_steps and pass_live = !live_faults in
    Obs.span obs ~cat:"compaction" "compaction.pass"
      ~args:(fun () ->
        [ ("block", string_of_int pass_block);
          ("trials", string_of_int (!trials - pass_trials));
          ("accepted", string_of_int (!accepted - pass_accepted));
          ("length", string_of_int (Tseq.length !current));
          ("group_steps", string_of_int (!group_steps - pass_steps));
          ("live_faults", string_of_int (!live_faults - pass_live)) ])
      (fun () ->
        let pass = lazy (capture_pass ()) in
        while !start >= 0 && !trials < max_trials do
          (match ctl with
          | Some c when Ctl.stop_reason c <> None ->
            raise (Interrupted (trial_snapshot ()))
          | _ -> ());
          (* A trial mutates [current] and [det] only after its
             simulations, so a [Preempted] escaping mid-trial rewinds to
             the trial entry by restoring the counter. *)
          let trials_entry = !trials in
          (try
             let p = Lazy.force pass in
             incr trials;
             (* An omission that would leave nothing is never kept. *)
             if Tseq.length !current > !block || !start > 0 then
               match keeps_coverage p !start with
               | Some times ->
                 incr accepted;
                 current := Tseq.omit ~len:!block !current !start;
                 Fsim.omit p ~at:!start ~omit:!block;
                 Array.iter (fun (id, t) -> det.(id) <- t) times
               | None -> ()
           with Ctl.Preempted _ ->
             trials := trials_entry;
             raise (Interrupted (trial_snapshot ())));
          committed ();
          start := !start - !block
        done);
    Obs.count obs ~by:(!group_steps - pass_steps) "compaction.group_steps";
    Obs.count obs ~by:(!live_faults - pass_live) "compaction.live_faults";
    block := (if !block = 1 then 0 else !block / 2);
    if !block >= 1 then start := Tseq.length !current - !block
  done;
  Obs.count obs ~by:!trials "compaction.trials";
  Obs.count obs ~by:!accepted "compaction.accepted";
  ( !current,
    {
      trials = !trials;
      accepted = !accepted;
      initial_length;
      final_length = Tseq.length !current;
    } )

(* Snapshot codec — the compaction section of a ["tgen"] checkpoint. *)

module Io = Checkpoint.Io

let encode_snapshot w s =
  Checkpoint.tseq w s.seq;
  Io.option w Checkpoint.bitset s.must_detect;
  Io.u32 w s.block;
  Io.u32 w s.start;
  Io.u32 w s.trials;
  Io.u32 w s.accepted;
  Io.u32 w s.initial_length

let decode_snapshot r =
  let seq = Checkpoint.r_tseq r in
  let must_detect = Io.r_option r Checkpoint.r_bitset in
  let block = Io.r_u32 r in
  let start = Io.r_u32 r in
  let trials = Io.r_u32 r in
  let accepted = Io.r_u32 r in
  let initial_length = Io.r_u32 r in
  { seq; must_detect; block; start; trials; accepted; initial_length }

let snapshot_equal a b =
  Tseq.equal a.seq b.seq
  && (match (a.must_detect, b.must_detect) with
     | None, None -> true
     | Some x, Some y -> Bitset.equal x y
     | _ -> false)
  && a.block = b.block && a.start = b.start && a.trials = b.trials
  && a.accepted = b.accepted && a.initial_length = b.initial_length
