(* The repository benchmark: three closed-loop workloads over the
   library's public functions.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   One caller runs one batch job at a time and waits for it to finish
   before starting the next. An untraced run (--trace 0) makes about
   S seconds of jobs and reports the end-to-end metrics. A traced run
   (--trace 1) makes an untraced job, the same job with spans recorded
   here around every call into a layer's public functions, and a second
   untraced job, and reports the per-layer metrics. Every job's outputs
   are checked, outside the timed region.

   Standard output ends with two JSON lines: the run record (host
   fingerprint, per-job figures, digests, every check) and the result
   object {correct, attempted, failed, metrics}. README.md in this
   directory says why each workload exists and what is left unmeasured. *)

module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Rng = Bist_util.Rng
module Universe = Bist_fault.Universe
module Fault_table = Bist_fault.Fault_table
module Fsim = Bist_fault.Fsim
module Pool = Bist_parallel.Pool
module Engine = Bist_tgen.Engine
module Compaction = Bist_tgen.Compaction
module Scheme = Bist_core.Scheme
module Session = Bist_hw.Session
module Untestable = Bist_analyze.Untestable
module Obs = Bist_obs.Obs
module Crc32 = Bist_resilience.Crc32

let now = Unix.gettimeofday

(* bistgen's default seed, at which the pinned digests below were
   recorded. Pins that depend on the workload seed are checked only
   there; every other check runs at every seed. *)
let default_seed = 2026

(* Environment variables that change the code path being measured. *)
let path_env = [ "BIST_JOBS"; "BIST_FSIM"; "BIST_SHARD_MIN" ]

let nproc = max 1 (min (Domain.recommended_domain_count ()) Pool.max_jobs)

(* {1 Spans}

   Recorded only in the traced job, on the calling domain, around calls
   into the library. Spans nest; each remembers how much of its interval
   its direct children covered, so self time = duration - child time. *)

type span = { name : string; dur : float; child : float }

let tracing = ref false
let spans : span list ref = ref []
let open_spans : float ref list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let child = ref 0.0 in
    open_spans := child :: !open_spans;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let dur = now () -. start in
        open_spans := List.tl !open_spans;
        (match !open_spans with p :: _ -> p := !p +. dur | [] -> ());
        spans := { name; dur; child = !child } :: !spans)
  end

let span_sum f name =
  List.fold_left (fun a s -> if s.name = name then a +. f s else a) 0.0 !spans

let span_s = span_sum (fun s -> s.dur)
let self_s = span_sum (fun s -> s.dur -. s.child)

let timed f =
  let start = now () in
  let r = f () in
  (r, now () -. start)

(* {1 Digests} *)

let crc_hex s = Printf.sprintf "%08lx" (Crc32.string s)
let seq_text seq = String.concat "\n" (Tseq.to_strings seq)
let ids_text b = String.concat "," (List.map string_of_int (Bitset.elements b))

(* {1 Workloads}

   A workload applied to a seed and a fault universe generates its
   inputs (part of set-up) and returns the job. A job applied to a sink
   runs the timed work and returns the untimed part, which digests and
   checks the outputs. *)

type outcome = {
  digests : (string * string) list;
      (** Deterministic outputs: equal across the jobs of one seed. *)
  volatile : string list;
      (** Digest keys allowed to differ between jobs (the pipeline's
          wall-time tie-break, below). *)
  named : (string * string * float) list;
      (** Figures under the names README.md uses: name, unit, value. *)
  coverage : float;
  counters : (string * float) list;  (** Work counts for the traced run. *)
  checks : (string * bool) list;
  verify : unit -> (string * bool) list;
      (** Independent re-checks, made once per run. *)
  traced_extra : unit -> (string * bool) list;
      (** Work only the traced run does, after its job: timings that
          need a second pass over the same input, with their checks. *)
}

type job = obs:Obs.t -> unit -> outcome

type workload = {
  name : string;
  circuit : string;
  jobs : int;  (** Domains a job uses. *)
  nominal_s : float;
      (** One job's wall time on an idle 2-core x86-64 host. An untraced
          run makes [seconds / nominal_s] jobs, rounded down, at least
          one: a count fixed in advance, so a slow host stretches the run
          instead of changing which jobs the median is taken over. *)
  prepare : seed:int -> Universe.t -> job;
}

let pinned pins digests =
  List.map (fun (key, want) -> ("pinned." ^ key, List.assoc key digests = want)) pins

(* {2 pipeline_x1423: tgen -> select -> session, on one domain} *)

let ns = [ 2; 4; 8; 16 ]
let compaction_trials = 150

(* T0 is always generated at the default seed, which varied the job's
   cost by up to 20% across seeds; the workload seed drives selection.
   So T0's pins hold at every seed. [t0_crc] is also the CRC-32 of the
   file `bistgen tgen x1423 --jobs 1` writes. *)
let t0_pins =
  [ ("t0_len", "682"); ("t0_detected", "2194/2742"); ("t0_crc", "4308e6c4") ]

let selection_pins = [ ("selection", "0f9c44e7") ]

let run_text (r : Scheme.run) =
  let s (x : Scheme.summary) =
    Printf.sprintf "%d/%d/%d" x.count x.total_length x.max_length
  in
  Printf.sprintf "n=%d t0=%d det=%d before=%s after=%s exp=%d ok=%b\n%s" r.n
    r.t0_length r.detected_by_t0 (s r.before) (s r.after)
    r.expanded_total_length r.coverage_verified
    (String.concat "\n--\n" (List.map seq_text r.sequences))

(* [Scheme.better] breaks a tie on (max, total) stored length by wall
   time, so the winning n, and the session run at it, can depend on host
   speed. The selection digest covers every per-n result instead (each
   is deterministic); a tie is reported and exempts the winner from the
   cross-job comparison. *)
let tied (runs : Scheme.run list) =
  let key (r : Scheme.run) = (r.after.max_length, r.after.total_length) in
  let best = List.fold_left (fun acc r -> min acc (key r)) (max_int, max_int) runs in
  List.length (List.filter (fun r -> key r = best) runs) > 1

let pipeline ~seed universe ~obs =
  let circuit = Universe.circuit universe in
  let pool = Pool.create ~jobs:1 () in
  let (t0, estats, cstats, raw_len), tgen_s =
    timed (fun () ->
        span "tgen" (fun () ->
            let raw, estats =
              span "tgen.engine" (fun () ->
                  Engine.generate ~obs ~pool ~rng:(Rng.create default_seed)
                    universe)
            in
            let t0, cstats =
              span "tgen.compaction" (fun () ->
                  Compaction.compact ~max_trials:compaction_trials ~obs ~pool
                    universe raw)
            in
            (t0, estats, cstats, Tseq.length raw)))
  in
  let runs, select_s =
    timed (fun () ->
        span "select" (fun () ->
            List.map
              (fun n ->
                span "core.execute" (fun () ->
                    Scheme.execute ~obs ~seed ~n ~t0 universe))
              ns))
  in
  let best = List.fold_left Scheme.better (List.hd runs) (List.tl runs) in
  let report, session_s =
    timed (fun () ->
        span "bist_hw.session" (fun () ->
            Session.run_exn ~n:best.n circuit best.sequences))
  in
  fun () ->
    let tie = tied runs in
    let total = Universe.size universe in
    let t0_detected = Fault_table.detected (Fault_table.compute universe t0) in
    let det = Bitset.cardinal t0_detected in
    let coverage = float_of_int det /. float_of_int total in
    let session_text =
      Printf.sprintf "n=%d cycles=%d load=%d complete=%b sigs=%s" report.n
        report.total_at_speed_cycles report.total_load_cycles report.complete
        (String.concat ","
           (List.map
              (fun (s : Session.sequence_report) ->
                Printf.sprintf "%d:%d:%x" s.stored_length s.applied_length
                  s.signature)
              report.per_sequence))
    in
    let digests =
      [
        ("t0_len", string_of_int (Tseq.length t0));
        ("t0_detected", Printf.sprintf "%d/%d" det total);
        ("t0_crc", crc_hex (seq_text t0 ^ "\n"));
        ("selection", crc_hex (String.concat "\n==\n" (List.map run_text runs)));
        ("winner_n", string_of_int best.n);
        ("session", crc_hex session_text);
      ]
    in
    let stored f = List.fold_left (fun a r -> a + f r) 0 runs in
    let before = stored (fun r -> r.Scheme.before.count) in
    let after = stored (fun r -> r.Scheme.after.count) in
    {
      digests;
      volatile = (if tie then [ "winner_n"; "session" ] else []);
      named =
        [
          ("tgen_s", "s", tgen_s);
          ("select_s", "s", select_s);
          ("session_s", "s", session_s);
          ("pipeline_s", "s", tgen_s +. select_s +. session_s);
          ("t0_len", "vectors", float_of_int (Tseq.length t0));
          ("t0_coverage", "ratio", coverage);
          ("tot_len_ratio", "ratio", Scheme.ratio_total best);
          ("max_len_ratio", "ratio", Scheme.ratio_max best);
          ("winner_n", "n", float_of_int best.n);
          ("n_tie", "bool", if tie then 1.0 else 0.0);
        ];
      coverage;
      counters =
        [
          ("tgen.engine.rounds", float_of_int estats.rounds);
          ("tgen.raw_len", float_of_int raw_len);
          ("tgen.compaction.trials", float_of_int cstats.trials);
          ("tgen.compaction.accepted", float_of_int cstats.accepted);
          ("core.proc1.sequences", float_of_int before);
          ("core.postprocess.dropped", float_of_int (before - after));
          ("bist_hw.applied_vectors", float_of_int report.total_at_speed_cycles);
        ];
      checks =
        [
          ( "pipeline.compaction_keeps_engine_detections",
            det >= estats.Engine.detected );
          ( "pipeline.scheme_targets_t0_detected",
            List.for_all (fun (r : Scheme.run) -> r.detected_by_t0 = det) runs );
          ( "pipeline.scheme_coverage_verified",
            List.for_all (fun (r : Scheme.run) -> r.coverage_verified) runs );
          ("pipeline.session_complete", report.complete);
          ( "pipeline.session_applies_expansion",
            report.total_at_speed_cycles = best.expanded_total_length );
        ]
        @ pinned t0_pins digests
        @ if seed = default_seed then pinned selection_pins digests else [];
      (* Fault-simulate each expanded selected sequence over the whole
         universe: the union must contain every fault T0 detects. *)
      verify =
        (fun () ->
          let union = Bitset.create total in
          List.iter
            (fun seq ->
              Bitset.union_into union
                (Fault_table.detected
                   (Fault_table.compute universe
                      (Bist_core.Ops.expand ~n:best.n seq))))
            best.sequences;
          [ ("pipeline.expanded_set_covers_t0", Bitset.subset t0_detected union) ]);
      traced_extra = (fun () -> []);
    }

(* {2 faultsim_x5378: one fault table of a long random sequence} *)

let faultsim_length = 4096
let faultsim_pins = [ ("fault_table", "adf7ba10") ]

(* Every fault's first detection time: the whole content of a table. *)
let table_digest t =
  let u = Fault_table.universe t in
  crc_hex
    (String.concat ","
       (List.init (Universe.size u) (fun id ->
            match Fault_table.udet t id with
            | Some time -> string_of_int time
            | None -> "-")))

(* One pool for the whole run: set-up is repeated, and idle worker
   domains would still join every stop-the-world minor collection. *)
let nproc_pool = lazy (Pool.create ~jobs:nproc ())

let faultsim ~seed universe =
  let circuit = Universe.circuit universe in
  let seq =
    Tseq.random_binary (Rng.create seed)
      ~width:(Bist_circuit.Netlist.num_inputs circuit)
      ~length:faultsim_length
  in
  let pool = Lazy.force nproc_pool in
  fun ~obs ->
    let table =
      span "fault.fault_table" (fun () ->
          Fault_table.compute ~obs ~pool universe seq)
    in
    fun () ->
      let total = Universe.size universe in
      let det = Fault_table.num_detected table in
      let digests = [ ("fault_table", table_digest table) ] in
      {
        digests;
        volatile = [];
        named = [ ("fault_coverage", "ratio", Fault_table.coverage table) ];
        coverage = float_of_int det /. float_of_int total;
        counters = [ ("fault.detected", float_of_int det) ];
        checks = (if seed = default_seed then pinned faultsim_pins digests else []);
        (* Sampled faults, re-simulated one at a time on the single-fault
           path, must agree with the table's detection times. *)
        verify =
          (fun () ->
            let rng = Rng.create (seed + 1) in
            let agrees _ =
              let id = Rng.int rng total in
              let single = Fsim.single circuit (Universe.get universe id) in
              Fsim.single_detection_time single seq = Fault_table.udet table id
            in
            [ ( "faultsim.sampled_faults_match_single_fault_path",
                List.for_all agrees (List.init 16 Fun.id) ) ]);
        (* The same table on one domain, for the pool's speedup. Without
           the sink, so the library's spans stay those of the job. *)
        traced_extra =
          (fun () ->
            let one =
              span "fault.fault_table_seq" (fun () ->
                  Fault_table.compute ~pool:(Pool.create ~jobs:1 ()) universe seq)
            in
            [ ("faultsim.one_domain_table_equal", table_digest one = table_digest table) ]);
      }

(* {2 sat_x298: the exact (SAT-backed) untestability prescreen}

   The default exact config with a frame bound of 6 and no cap on SAT
   queries: what `lint x298 --sat --sat-frames 6` runs. The input is
   the circuit alone, so the seed does not change it. *)

let sat_pins =
  [ ("split", "139/351/0"); ("proved", "29cec236"); ("refuted", "8cb460e3") ]

let sat ~seed:_ universe =
  let circuit = Universe.circuit universe in
  let config = { Untestable.default_exact_config with frames = 6; sat_cap = -1 } in
  fun ~obs ->
    let r =
      span "analyze.exact_prescreen" (fun () ->
          Untestable.exact_prescreen ~obs ~config universe)
    in
    fun () ->
      let total = Universe.size universe in
      let proved = Bitset.cardinal r.proved in
      let refuted = Bitset.cardinal r.refuted in
      let unknown = Bitset.cardinal r.unknown in
      let digests =
        [
          ("split", Printf.sprintf "%d/%d/%d" proved refuted unknown);
          ("proved", crc_hex (ids_text r.proved));
          ("refuted", crc_hex (ids_text r.refuted));
        ]
      in
      let union = Bitset.copy r.proved in
      Bitset.union_into union r.refuted;
      Bitset.union_into union r.unknown;
      let overlap = Bitset.copy r.proved in
      Bitset.inter_into overlap r.refuted;
      {
        digests;
        volatile = [];
        named =
          [
            ("sat_unknown", "faults", float_of_int unknown);
            ("sat_proved", "faults", float_of_int proved);
            ("sat_refuted", "faults", float_of_int refuted);
          ];
        coverage = float_of_int (proved + refuted) /. float_of_int total;
        counters =
          [
            ("sat.attempted", float_of_int r.sat_attempted);
            ("sat.proved", float_of_int (proved - Untestable.total r.structural));
            ("sat.tests", float_of_int (List.length r.sat_tests));
          ];
        checks =
          [
            ( "sat.partition",
              Bitset.cardinal union = total && Bitset.is_empty overlap );
            ("sat.no_unknown", unknown = 0);
            ( "sat.structural_proofs_kept",
              Bitset.subset r.structural.untestable r.proved );
          ]
          @ pinned sat_pins digests;
        (* Every SAT-derived test must detect its fault on the
           single-fault simulation path. *)
        verify =
          (fun () ->
            [ ( "sat.tests_detect_their_faults",
                List.for_all
                  (fun (id, seq) ->
                    Fsim.detects circuit (Universe.get universe id) seq)
                  r.sat_tests ) ]);
        (* The structural prover alone, for the per-query SAT cost. *)
        traced_extra =
          (fun () ->
            let s =
              span "analyze.structural" (fun () ->
                  Untestable.prescreen_universe universe)
            in
            [ ( "sat.structural_matches_prescreen",
                Bitset.equal s.untestable r.structural.untestable ) ]);
      }

let workloads =
  [
    { name = "pipeline_x1423"; circuit = "x1423"; jobs = 1; nominal_s = 18.0;
      prepare = pipeline };
    { name = "faultsim_x5378"; circuit = "x5378"; jobs = nproc; nominal_s = 4.4;
      prepare = faultsim };
    { name = "sat_x298"; circuit = "x298"; jobs = 1; nominal_s = 20.0;
      prepare = sat };
  ]

(* {1 Set-up}

   Circuit synthesis, fault-universe collapse and input generation,
   repeated to report a median. The traced run adds one traced set-up
   for the per-layer split. *)

let setup_repeats = 15

let setup w ~seed =
  span "setup" (fun () ->
      let entry = Option.get (Bist_bench.Registry.find w.circuit) in
      let circuit = span "bench_data.synth" entry.circuit in
      let universe = span "fault.collapse" (fun () -> Universe.collapsed circuit) in
      let job = span "setup.inputs" (fun () -> w.prepare ~seed universe) in
      (universe, job))

(* {1 Per-layer metrics}

   One fixed list for every workload. A layer the workload never enters
   reads 0 (no span, no count): that is how the traced runs show, for
   example, that only sat_x298 reaches lib/sat. Times from the library's
   own spans ([lib]) are summed over domains: [fsim.shard] runs on the
   pool's workers, so it is domain-seconds, not a share of wall time. *)

let per_layer ~obs ~universe ~(outcome : outcome) ~warm:(wall_s, cpu_s) ~overhead =
  let lib name = Option.value ~default:0.0 (List.assoc_opt name (Obs.span_seconds obs)) in
  let count name = Option.value ~default:0.0 (List.assoc_opt name outcome.counters) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let sim_t0 = lib "scheme.simulate_t0" and proc1 = lib "scheme.proc1" in
  let post = lib "scheme.compaction" and verify = lib "scheme.verify" in
  let par = span_s "fault.fault_table" and one = span_s "fault.fault_table_seq" in
  let speedup = ratio one par in
  let structural = span_s "analyze.structural" in
  let exact = span_s "analyze.exact_prescreen" in
  [
    ("bench_data.synth_s", "s", span_s "bench_data.synth");
    ("fault.collapse_s", "s", span_s "fault.collapse");
    ("fault.universe_size", "faults", float_of_int (Universe.size universe));
    ("setup.inputs_s", "s", span_s "setup.inputs");
    ("setup.self_s", "s", self_s "setup");
    ("job.wall_s", "s", wall_s);
    ("job.cpu_s", "s", cpu_s);
    ("job.self_s", "s", self_s "job");
    ("tgen.engine_s", "s", span_s "tgen.engine");
    ("tgen.engine.rounds", "count", count "tgen.engine.rounds");
    ("tgen.raw_len", "vectors", count "tgen.raw_len");
    ("tgen.compaction_s", "s", span_s "tgen.compaction");
    ("tgen.compaction.pass_s", "s", lib "compaction.pass");
    ("tgen.compaction.trials", "count", count "tgen.compaction.trials");
    ("tgen.compaction.accepted", "count", count "tgen.compaction.accepted");
    ( "tgen.compaction.accept_ratio", "ratio",
      ratio (count "tgen.compaction.accepted") (count "tgen.compaction.trials") );
    ("tgen.self_s", "s", self_s "tgen");
    ("core.simulate_t0_s", "s", sim_t0);
    ("core.proc1_s", "s", proc1);
    ("core.proc1.sequences", "count", count "core.proc1.sequences");
    ("core.proc2.omit_s", "s", lib "proc2.omit");
    ("core.proc2.widen_s", "s", lib "proc2.widen");
    ("core.postprocess_s", "s", post);
    ("core.postprocess.dropped", "count", count "core.postprocess.dropped");
    ("core.verify_s", "s", verify);
    ("core.table4_ratio", "ratio", ratio (proc1 +. post) sim_t0);
    ("core.execute.self_s", "s", span_s "core.execute" -. sim_t0 -. proc1 -. post -. verify);
    ("select.self_s", "s", self_s "select");
    ("bist_hw.session_s", "s", span_s "bist_hw.session");
    ("bist_hw.applied_vectors", "vectors", count "bist_hw.applied_vectors");
    ("fault.fault_table_s", "s", par);
    ("fault.fault_table_seq_s", "s", one);
    ("fault.detected", "faults", count "fault.detected");
    ("fsim.shard_domain_s", "domain-s", lib "fsim.shard");
    ("parallel.speedup", "x", speedup);
    ("parallel.efficiency", "ratio", speedup /. float_of_int nproc);
    ("analyze.structural_s", "s", structural);
    ("analyze.exact_prescreen_s", "s", exact);
    ("analyze.sim_refute_s", "s", lib "untestable.sim_refute");
    ("sat.attempted", "queries", count "sat.attempted");
    ("sat.proved", "faults", count "sat.proved");
    ("sat.tests", "tests", count "sat.tests");
    ("sat.s_per_query", "s", ratio (exact -. structural) (count "sat.attempted"));
    ("sat.fault_s", "s", lib "sat.fault");
    ("trace.overhead_s", "s", overhead);
  ]

(* {1 Output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number f =
  if Float.is_integer f then Printf.sprintf "%.1f" f else Printf.sprintf "%.17g" f

let json_bool b = if b then "true" else "false"
let json_list xs = "[" ^ String.concat ", " xs ^ "]"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_metrics ms =
  json_object
    (List.map
       (fun (name, unit_, value) ->
         (name, json_object [ ("value", json_number value); ("unit", json_string unit_) ]))
       ms)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process (Linux VmHWM). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* {1 Driver} *)

let usage () =
  prerr_endline
    "usage: main.exe --workload pipeline_x1423|faultsim_x5378|sat_x298 \
     [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let rec pairs = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      (String.sub key 2 (String.length key - 2), value) :: pairs rest
    | [] -> []
    | _ -> usage ()
  in
  let args = pairs (List.tl (Array.to_list Sys.argv)) in
  if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) args
  then usage ();
  let int key default =
    match List.assoc_opt key args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let workload =
    match List.assoc_opt "workload" args with
    | Some name when List.exists (fun w -> w.name = name) workloads ->
      List.find (fun w -> w.name = name) workloads
    | _ -> usage ()
  in
  let trace = int "trace" 0 in
  let seconds = int "seconds" 10 in
  if (trace <> 0 && trace <> 1) || seconds < 1 then usage ();
  (workload, int "seed" default_seed, float_of_int seconds, trace = 1)

type run = { outcome : outcome; wall_s : float; cpu_s : float }

(* CPU seconds of this process, all domains (getrusage, microseconds). *)
let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let cpu_timed f =
  let start = cpu () in
  let r = f () in
  (r, cpu () -. start)

(* One job: the timed work (wall and CPU seconds, all domains), then its
   untimed digests and checks. *)
let run_job (job : job) ~obs =
  let cpu0 = cpu () in
  let finish, wall_s = timed (fun () -> span "job" (fun () -> job ~obs)) in
  let cpu_s = cpu () -. cpu0 in
  { outcome = finish (); wall_s; cpu_s }

(* A job's own checks, and its digests against the first job's. *)
let job_checks first (o : outcome) =
  o.checks
  @ List.filter_map
      (fun (key, value) ->
        if List.mem key o.volatile || List.mem key first.volatile then None
        else Some ("same_digest." ^ key, List.assoc_opt key first.digests = Some value))
      o.digests

let () =
  let w, seed, seconds, trace = parse_args () in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) path_env with
  | [] -> ()
  | set ->
    Printf.eprintf "error: %s set; it changes the code path being measured\n"
      (String.concat ", " set);
    exit 2);
  let setups = List.init setup_repeats (fun _ -> cpu_timed (fun () -> setup w ~seed)) in
  let universe, job = fst (List.hd (List.rev setups)) in
  let count = max 1 (Float.to_int (seconds /. w.nominal_s)) in
  Printf.eprintf "perfbench: %s seed %d: %s on %d domain(s)\n%!" w.name seed
    (if trace then "untraced, traced, untraced job" else Printf.sprintf "%d job(s)" count)
    w.jobs;
  let obs = if trace then Obs.create () else Obs.null in
  (* The peak resident set of a process that set up and ran one job, as
     a CLI run does; later jobs only add heap growth between jobs. *)
  let cold = run_job job ~obs:Obs.null in
  let peak_rss_mb = peak_rss_mb () in
  let jobs, extra_checks, traced =
    if not trace then (cold :: List.init (count - 1) (fun _ -> run_job job ~obs:Obs.null), [], None)
    else begin
      (* The untraced jobs bracket the traced one; the overhead compares
         it with the second, so both ran after the first (cold) job. *)
      tracing := true;
      ignore (setup w ~seed);
      let t = run_job job ~obs in
      let extra = t.outcome.traced_extra () in
      tracing := false;
      let warm = run_job job ~obs:Obs.null in
      ([ cold; t; warm ], extra, Some (t, warm))
    end
  in
  let first = (List.hd jobs).outcome in
  let checks =
    List.mapi
      (fun i j ->
        (if i = 0 then first.verify () @ extra_checks else []) @ job_checks first j.outcome)
      jobs
  in
  let failed = List.length (List.filter (List.exists (fun (_, ok) -> not ok)) checks) in
  let attempted = List.length jobs in
  let error_rate = float_of_int failed /. float_of_int attempted in
  let metrics =
    match traced with
    | Some (t, warm) ->
      per_layer ~obs ~universe ~outcome:t.outcome ~warm:(warm.wall_s, warm.cpu_s)
        ~overhead:(t.wall_s -. warm.wall_s)
    | None ->
      [
        ("job_cpu_s", "s", median (List.map (fun j -> j.cpu_s) jobs));
        ("setup_s", "s", median (List.map snd setups));
        ("peak_rss_mb", "MB", peak_rss_mb);
        ("coverage", "ratio", first.coverage);
        ("success_rate", "ratio", 1.0 -. error_rate);
      ]
  in
  let job_json j =
    json_metrics (("wall_s", "s", j.wall_s) :: ("cpu_s", "s", j.cpu_s) :: j.outcome.named)
  in
  let all_checks = List.concat checks in
  print_endline
    (json_object
       [
         ("record", json_string "perfbench/1");
         ("workload", json_string w.name);
         ("seed", string_of_int seed);
         ("trace", json_bool trace);
         ( "fingerprint",
           json_object
             ([
                ("nproc", string_of_int nproc);
                ("ocaml", json_string Sys.ocaml_version);
                ( "jobs",
                  json_object (List.map (fun w -> (w.name, string_of_int w.jobs)) workloads) );
              ]
             @ List.map (fun v -> (v, "null")) path_env) );
         ("setup_cpu_s", json_list (List.map (fun (_, s) -> json_number s) setups));
         ("jobs", json_list (List.map job_json jobs));
         ("error_rate", json_number error_rate);
         ("digests", json_object (List.map (fun (k, v) -> (k, json_string v)) first.digests));
         ( "checks",
           json_object
             (List.map
                (fun name ->
                  (name, json_bool (List.for_all (fun (k, ok) -> k <> name || ok) all_checks)))
                (List.sort_uniq compare (List.map fst all_checks))) );
         ( "library_spans",
           json_object (List.map (fun (k, s) -> (k, json_number s)) (Obs.span_seconds obs)) );
       ]);
  List.iter
    (fun (k, ok) -> if not ok then Printf.eprintf "perfbench: check failed: %s\n" k)
    all_checks;
  if Lazy.is_val nproc_pool then Pool.shutdown (Lazy.force nproc_pool);
  print_endline
    (json_object
       [
         ("correct", json_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_metrics metrics);
       ])
