(* perfbench: the in-process half of the repository benchmark.

   run.py builds this executable next to bin/faultmc.exe and calls it once
   per workload run. Every mode prints one JSON object on stdout.

     bench.exe ci --program write|read [--prune] --seed S --seconds T
         Set up, then run the CI95 campaign on each sub-seed of S, cycling
         until T seconds have passed and every sub-seed has run (the first
         one twice): end-to-end numbers and output checks.
     bench.exe ci-trace --program write|read [--prune] --seed S --out DIR
         One untraced campaign, the same campaign re-driven from here with
         a span around every public call, then the layer replays on its
         own samples: per-layer numbers, DIR/trace.json, DIR/layers.tsv.
     bench.exe fleet-ref --program P --model M --seed S --samples N --shard-size K
         The single-process Campaign.estimate_sharded report (JSON line)
         that the loopback fleet must reproduce byte for byte.
     bench.exe fleet-layers --seed S --samples N --shard-size K --ckpt F --out DIR
         The in-process layers of the fleet workload: seu-burst shard and
         sample replays, plus the codec / digest / checkpoint / merge paths
         over the shard results in the coordinator checkpoint F.

   Spans are recorded from this file only, around calls into the
   libraries' public functions; the program itself is not modified. *)

module Rng = Fmc_prelude.Rng
module N = Fmc_netlist.Netlist
module Transient = Fmc_gatesim.Transient
module Cycle_sim = Fmc_gatesim.Cycle_sim
module Netsys = Fmc_cpu.Netsys
module System = Fmc_cpu.System
module Circuit = Fmc_cpu.Circuit
module Programs = Fmc_isa.Programs
module Engine = Fmc.Engine
module Sampler = Fmc.Sampler
module Golden = Fmc.Golden
module Ssf = Fmc.Ssf
module Campaign = Fmc.Campaign
module Pruner = Fmc_sva.Pruner

(* ---- workload constants ------------------------------------------------ *)

(* Each CI campaign is one [estimate_until] pass of [first_pass] samples:
   its stop target [half_width] sits above every probed seed's half-width
   there, so the work per campaign does not jump between doubling steps
   from seed to seed (NOTES.md). [samples_to_ci] is projected from those
   passes to the tighter [target_half_width]: the samples a campaign needs
   to reach it at the per-sample variance pooled over [sub_seeds] passes,
   each on its own seed derived from the workload seed. *)
let half_width = 0.0033
let first_pass = 8000
let target_half_width = 0.0015
let sub_seeds = 10
let sub_seed ~seed r = (seed * 1000) + r
let z = 1.96

(* Samples replayed layer by layer in a traced run, and shards re-run in
   process for the shard/codec/digest layers. *)
let replay_samples = 3000

(* Set-ups timed per CI run (their median is setup_s). *)
let setup_reps = 3
let probe_shards_ci = 4
let probe_shards_fleet = 50

(* ---- small helpers ----------------------------------------------------- *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an unsorted array. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let mean_of total count = if count = 0 then 0. else total /. float_of_int count

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let report_json = Fmc.Export.report_json
let digest s = Digest.to_hex (Digest.string s)

let half_width_of report =
  let lo, hi = Ssf.confidence_interval report ~z in
  (hi -. lo) /. 2.

(* Sample counts of estimate_until's passes up to [final] (it restarts
   from scratch on every pass). *)
let simulated_until ~batch final =
  let rec go n acc = if n >= final then acc + n else go (max (n + batch) (2 * n)) (acc + n) in
  go batch 0

(* ---- JSON output ------------------------------------------------------- *)

type json = F of float | I of int | B of bool | S of string | O of (string * json) list

let rec json_to_buf b = function
  | F f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | F _ -> Buffer.add_string b "null"
  | I i -> Buffer.add_string b (string_of_int i)
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | S s -> Buffer.add_string b ("\"" ^ Fmc.Export.json_escape s ^ "\"")
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          json_to_buf b (S k);
          Buffer.add_char b ':';
          json_to_buf b v)
        kvs;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  json_to_buf b j;
  print_endline (Buffer.contents b)

(* Output checks: each one counts as an attempt, and a failure fails the
   run. *)
let checks : (string * bool) list ref = ref []
let check name ok = checks := (name, ok) :: !checks

let result_json ~metrics ~attempted ~failed ~extra =
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) !checks) in
  O
    ([
       ("metrics", O (List.map (fun (k, v) -> (k, F v)) metrics));
       ("checks", O (List.rev_map (fun (k, ok) -> (k, B ok)) !checks));
       ("attempted", I (attempted + List.length !checks));
       ("failed", I (failed + failed_checks));
     ]
    @ extra)

(* ---- span recorder ----------------------------------------------------- *)

(* Spans are kept in memory while the traced run lasts and written out at
   the end. [sid] ties together the spans of one sample; [parent] indexes
   the enclosing span, so self time and self allocation can be derived. *)
type span = {
  name : string;
  sid : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
  mutable words : float;  (* minor-heap words allocated while open *)
}

let tracing = ref false
let spans : span array ref = ref [||]
let nspans = ref 0
let open_stack : int list ref = ref []

let push s =
  if !nspans = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !nspans)) s in
    Array.blit !spans 0 bigger 0 !nspans;
    spans := bigger
  end;
  !spans.(!nspans) <- s;
  incr nspans;
  !nspans - 1

let span ?(sid = -1) name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let w0 = Gc.minor_words () in
    let idx = push { name; sid; parent; t0 = now (); t1 = 0.; words = 0. } in
    open_stack := idx :: !open_stack;
    let finish () =
      let s = !spans.(idx) in
      s.t1 <- now ();
      s.words <- Gc.minor_words () -. w0;
      open_stack := List.tl !open_stack
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

type layer = {
  mutable count : int;
  mutable total : float;  (* us *)
  mutable self : float;  (* us *)
  mutable alloc : float;  (* words, including children *)
  mutable self_alloc : float;
}

let layers () =
  let tbl = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some l -> l
    | None ->
        let l = { count = 0; total = 0.; self = 0.; alloc = 0.; self_alloc = 0. } in
        Hashtbl.replace tbl name l;
        l
  in
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    let d = (s.t1 -. s.t0) *. 1e6 in
    let l = get s.name in
    l.count <- l.count + 1;
    l.total <- l.total +. d;
    l.self <- l.self +. d;
    l.alloc <- l.alloc +. s.words;
    l.self_alloc <- l.self_alloc +. s.words;
    if s.parent >= 0 then begin
      let p = get !spans.(s.parent).name in
      p.self <- p.self -. d;
      p.self_alloc <- p.self_alloc -. s.words
    end
  done;
  tbl

let durations name =
  let acc = ref [] in
  for i = !nspans - 1 downto 0 do
    let s = !spans.(i) in
    if s.name = name then acc := ((s.t1 -. s.t0) *. 1e6) :: !acc
  done;
  Array.of_list !acc

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Chrome trace_event JSON (Perfetto / chrome://tracing). *)
let write_chrome_trace path =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let origin = if !nspans > 0 then !spans.(0).t0 else 0. in
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"sample\":%d,\"alloc_words\":%.0f}}"
         s.name ((s.t0 -. origin) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.sid s.words)
  done;
  Buffer.add_string b "]}";
  write_file path (Buffer.contents b)

let write_layer_table path tbl =
  let rows = Hashtbl.fold (fun name l acc -> (name, l) :: acc) tbl [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.total a.total) rows in
  let b = Buffer.create 4096 in
  Buffer.add_string b "layer\tcount\ttotal_us\tself_us\talloc_words\tself_alloc_words\n";
  List.iter
    (fun (name, l) ->
      Buffer.add_string b
        (Printf.sprintf "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n" name l.count l.total l.self l.alloc
           l.self_alloc))
    rows;
  write_file path (Buffer.contents b)

(* ---- set-up ------------------------------------------------------------ *)

type setup = {
  program : Programs.t;
  engine : Engine.t;
  prep : Sampler.prepared;
  pruner : Pruner.t option;
}

(* What [faultmc evaluate] builds before its first sample: context and
   pre-characterization, engine, prepared mixed sampler, and the pruner
   when the workload prunes. *)
let build ~program ~prune =
  let ctx = Fmc.Experiments.context () in
  let engine = Fmc.Experiments.engine_for ctx program in
  let prep =
    Sampler.prepare
      ~static_vuln:(Engine.static_vulnerable engine)
      Sampler.default_mixed
      (Fmc.Experiments.default_attack ctx)
      (Fmc.Experiments.precharac ctx)
      ~placement:(Engine.placement engine)
  in
  { program; engine; prep; pruner = (if prune then Some (Pruner.create engine) else None) }

let prune_fn s = Option.map (fun p sample -> Pruner.check p sample) s.pruner

let seu_burst () =
  match (Fmc_fault.Registry.parse_exn "seu-burst").Fmc_fault.Model.inject with
  | Some inj -> inj
  | None -> failwith "seu-burst has no injector"

(* seu-burst's default [bits]: the struck flip-flops its injector flips. *)
let seu_bits = 2

let campaign s ~seed =
  Ssf.estimate_until ?prune:(prune_fn s) ~batch:first_pass s.engine s.prep ~half_width ~z ~seed

(* ---- ci: end-to-end ---------------------------------------------------- *)

let run_ci ~program ~prune ~seed ~seconds =
  let t_begin = now () in
  (* Set up [setup_reps] times from scratch; the campaigns run on the last
     one, from a compacted heap. *)
  let setups = ref [] and setup_cpus = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    Gc.compact ();
    let c0 = cpu () in
    let s, dt = timed (fun () -> build ~program ~prune) in
    setups := dt :: !setups;
    setup_cpus := (cpu () -. c0) :: !setup_cpus;
    last := Some s
  done;
  let s = Option.get !last in
  Gc.compact ();
  (* Cycle through the sub-seeds until [seconds] have passed and every
     sub-seed has run, the first one twice. Each campaign starts with a
     fresh pruner, whose certificate memo a user's run also builds from
     cold. *)
  let runs = ref [] in
  while List.length !runs <= sub_seeds || now () -. t_begin < seconds do
    let r = List.length !runs mod sub_seeds in
    let s = { s with pruner = Option.map (fun _ -> Pruner.create s.engine) s.pruner } in
    let c0 = cpu () in
    let report, wall = timed (fun () -> campaign s ~seed:(sub_seed ~seed r)) in
    runs := (r, report, wall, cpu () -. c0) :: !runs
  done;
  let runs = List.rev !runs in
  let first r = List.find (fun (r', _, _, _) -> r' = r) runs in
  let report_of (_, report, _, _) = report in
  let reports = List.map report_of runs in
  check "ci_half_width_met" (List.for_all (fun r -> half_width_of r <= half_width) reports);
  check "report_digest_stable"
    (List.for_all
       (fun (r, report, _, _) ->
         String.equal (digest (report_json report)) (digest (report_json (report_of (first r)))))
       runs);
  if prune then begin
    (* The pruned report against the unpruned one at the same n, outside
       timing. *)
    let final = report_of (first 0) in
    let unpruned = Ssf.estimate s.engine s.prep ~samples:final.Ssf.n ~seed:(sub_seed ~seed 0) in
    check "pruned_equals_unpruned" (String.equal (report_json unpruned) (report_json final))
  end;
  (* Per-sample variance pooled over the sub-seeds (one report each), as
     the CI95 half-width it gives at one sample: the projected campaign
     size at the target is that over the target, squared. *)
  let distinct = List.init sub_seeds (fun r -> report_of (first r)) in
  let unit_hw2 =
    List.fold_left
      (fun acc r -> acc +. (float_of_int r.Ssf.n *. (half_width_of r ** 2.)))
      0. distinct
    /. float_of_int sub_seeds
  in
  let samples_to_ci = unit_hw2 /. (target_half_width ** 2.) in
  let simulated = List.map (fun (_, r, _, _) -> simulated_until ~batch:first_pass r.Ssf.n) runs in
  let rate = median (List.map2 (fun n (_, _, wall, _) -> float_of_int n /. wall) simulated runs) in
  let ttc = median (List.map (fun (_, _, w, _) -> w) runs) and setup = median !setups in
  let metrics =
    [
      ("time_to_ci_s", ttc);
      ("campaign_s", setup +. ttc);
      ("cpu_s", median !setup_cpus +. median (List.map (fun (_, _, _, c) -> c) runs));
      ("samples_to_ci", samples_to_ci);
      ("samples_per_s", rate);
      ("setup_s", setup);
      ("peak_heap_mb", peak_heap_mb ());
    ]
  in
  let floats xs = S (String.concat " " (List.map (Printf.sprintf "%.3f") xs)) in
  print_json
    (result_json ~metrics
       ~attempted:(List.fold_left ( + ) 0 simulated)
       ~failed:0
       ~extra:
         [
           ("campaigns", I (List.length runs));
           ("campaign_walls", floats (List.map (fun (_, _, w, _) -> w) runs));
           ("setup_walls", floats (List.rev !setups));
           ("half_widths", floats (List.map (fun r -> half_width_of r *. 1e3) distinct));
           ("digest", S (digest (report_json (report_of (first 0)))));
         ])

(* ---- traced re-drive of the campaign ----------------------------------- *)

(* A sample kept for the layer replays, with the campaign's own verdict
   ([None] when the pruner certified it and the simulation was skipped). *)
type kept = { idx : int; sample : Sampler.sample; result : Engine.run_result option }

let sva_checked = ref 0
let sva_covered = ref 0

let checked_prune p ~sid sample =
  let covered = span ~sid "sva.check" (fun () -> Pruner.check p sample) in
  incr sva_checked;
  if covered then incr sva_covered;
  covered

(* The loop of [Ssf.estimate] (draw, prune check, run_sample, causal
   attribution, tally) driven from here, one span per call. *)
let traced_pass s ~samples ~seed =
  let rng = Rng.create seed in
  let tally = Ssf.Tally.create s.prep ~total:samples in
  let kept = ref [] in
  for i = 1 to samples do
    span ~sid:i "ssf.sample" (fun () ->
        let sample = span ~sid:i "sampler.draw" (fun () -> Sampler.draw s.prep rng) in
        let covered =
          match s.pruner with Some p -> checked_prune p ~sid:i sample | None -> false
        in
        let result =
          if covered then begin
            span ~sid:i "ssf.tally_record" (fun () ->
                Ssf.Tally.record tally sample (Ssf.pruned_result s.engine sample) ~attributed:[]);
            None
          end
          else begin
            let r = span ~sid:i "engine.run_sample" (fun () -> Engine.run_sample s.engine rng sample) in
            let attributed =
              if r.Engine.success then
                span ~sid:i "engine.causal" (fun () -> Engine.causal_flips s.engine r)
              else r.Engine.flips
            in
            span ~sid:i "ssf.tally_record" (fun () -> Ssf.Tally.record tally sample r ~attributed);
            Some r
          end
        in
        if i <= replay_samples then kept := { idx = i; sample; result } :: !kept)
  done;
  (Ssf.Tally.report tally ~strategy:(Sampler.name s.prep), List.rev !kept)

(* estimate_until's passes, re-driven: returns the final report, the
   final pass's kept samples and the samples simulated over all passes. *)
let traced_until s ~seed =
  let rec go n simulated =
    let report, kept = traced_pass s ~samples:n ~seed in
    let simulated = simulated + n in
    if half_width_of report <= half_width || n >= 200_000 then (report, kept, simulated)
    else go (min 200_000 (max (n + first_pass) (2 * n))) simulated
  in
  go first_pass 0

(* ---- layer replays ----------------------------------------------------- *)

let rtl_cycles = ref 0
let replayed = ref 0
let replay_ok = ref true
let kernel_ok = ref true

let te_of s (sample : Sampler.sample) = Golden.target_cycle (Engine.golden s.engine) - sample.Sampler.t

(* The gate-level injection cycle, split at the kernel's public calls on
   the benchmark's own netlist simulator, then evaluated by the engine.
   [sys] stands at the injection cycle with direct flips applied; it is
   advanced one cycle. The replayed latched set must equal the engine's
   and [Engine.gate_flips_only]'s. *)
let gate_cycle_replay s ~netsys ~sid sys (sample : Sampler.sample) gates =
  let circuit = Engine.circuit s.engine in
  let tconfig = Engine.transient_config s.engine in
  let sim = Netsys.sim netsys in
  let dmem = Netsys.dmem netsys in
  Array.blit (System.dmem sys) 0 dmem 0 (Array.length dmem);
  span ~sid "netsys.settle" (fun () ->
      Netsys.load_arch netsys (System.state sys);
      Netsys.settle netsys);
  let strikes =
    List.map
      (fun g ->
        {
          Transient.node = g;
          time = sample.Sampler.time_frac *. tconfig.Transient.clock_period;
          width = sample.Sampler.width;
        })
      gates
  in
  let watch =
    Array.concat [ [| circuit.Circuit.dmem_we |]; circuit.Circuit.dmem_addr; circuit.Circuit.dmem_wdata ]
  in
  let res = span ~sid "transient.inject" (fun () -> Transient.inject ~watch sim tconfig ~strikes) in
  span ~sid "cycle_sim.latch" (fun () -> Cycle_sim.latch sim);
  let latched =
    span ~sid "engine.gate_cycle" (fun () -> Engine.gate_level_cycle s.engine sys sample gates)
  in
  let only, _ = Engine.gate_flips_only s.engine (Rng.create 0) sample in
  if not (res.Transient.latched = only && latched = only) then kernel_ok := false;
  latched

(* Exact error set just past [at] and whether memory stayed clean, as the
   engine's masking phase computes them. *)
let masking s ~sid ~on_step sys at =
  span ~sid "engine.masking" (fun () ->
      let g = Golden.restore_at ~on_step (Engine.golden s.engine) at in
      ( Engine.state_bit_diffs (System.state sys) (System.state g),
        System.dmem sys = System.dmem g ))

let resume s ~sid sys =
  span ~sid "engine.rtl_resume" (fun () ->
      let budget = s.program.Programs.max_cycles + 100 in
      ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
      Engine.observables_differ s.engine sys)

(* [Engine.run_sample]'s phases for one disc-transient sample, each timed
   around its public call; the outcome must match the campaign's. *)
let replay_disc s ~netsys (k : kept) (r : Engine.run_result) =
  let sid = k.idx and sample = k.sample in
  let te = te_of s sample in
  if te >= 1 then
    span ~sid "replay.sample" (fun () ->
        incr replayed;
        let on_step () = incr rtl_cycles in
        let net = (Engine.circuit s.engine).Circuit.net in
        let sys =
          span ~sid "golden.restore" (fun () -> Golden.restore_at ~on_step (Engine.golden s.engine) te)
        in
        let dffs, gates, _ =
          Engine.partition_disc s.engine sample.Sampler.center sample.Sampler.radius
        in
        List.iter (Engine.apply_flip sys net) dffs;
        let latched = gate_cycle_replay s ~netsys ~sid sys sample gates in
        Array.iter (Engine.apply_flip sys net) latched;
        let flips, mem_clean = masking s ~sid ~on_step sys (te + 1) in
        let flip_nodes = List.map (fun (g, b) -> (N.register_group net g).(b)) flips in
        let outcome =
          if flips = [] && mem_clean then Engine.Masked
          else if
            flips <> [] && mem_clean
            && List.for_all (Fmc.Precharac.memory_type (Engine.precharac s.engine)) flip_nodes
          then
            Engine.Analytical
              (span ~sid "engine.analytical" (fun () ->
                   Fmc.Analytical.evaluate ~program:s.program ~corrupted:(System.state sys)))
          else Engine.Resumed (resume s ~sid sys)
        in
        if not (outcome = r.Engine.outcome && flips = r.Engine.flips) then replay_ok := false)

(* The seu-burst model's phases (restore, direct flips, masking, resume)
   for one sample; the outcome must match the injector's. *)
let replay_seu s (k : kept) (r : Engine.run_result) =
  let sid = k.idx and sample = k.sample in
  let te = te_of s sample in
  let dffs, _, _ = Engine.partition_disc s.engine sample.Sampler.center sample.Sampler.radius in
  let direct = List.filteri (fun i _ -> i < seu_bits) dffs in
  if te >= 1 && direct <> [] then
    span ~sid "replay.sample" (fun () ->
        incr replayed;
        let on_step () = incr rtl_cycles in
        let net = (Engine.circuit s.engine).Circuit.net in
        let sys =
          span ~sid "golden.restore" (fun () -> Golden.restore_at ~on_step (Engine.golden s.engine) te)
        in
        List.iter (Engine.apply_flip sys net) direct;
        let flips, mem_clean = masking s ~sid ~on_step sys te in
        let outcome =
          if flips = [] && mem_clean then Engine.Masked else Engine.Resumed (resume s ~sid sys)
        in
        if not (outcome = r.Engine.outcome && flips = r.Engine.flips) then replay_ok := false)

(* The kernel split alone, for samples whose campaign ran another fault
   model (the fleet's seu-burst): restore untimed, then the gate cycle. *)
let replay_kernel s ~netsys (k : kept) =
  let sample = k.sample in
  let te = te_of s sample in
  if te >= 1 then begin
    let net = (Engine.circuit s.engine).Circuit.net in
    let sys = Golden.restore_at (Engine.golden s.engine) te in
    let dffs, gates, _ = Engine.partition_disc s.engine sample.Sampler.center sample.Sampler.radius in
    List.iter (Engine.apply_flip sys net) dffs;
    ignore (gate_cycle_replay s ~netsys ~sid:k.idx sys sample gates)
  end

(* What the pruner's skip is worth: the simulation a certified sample
   would have cost. *)
let covered_run s (k : kept) =
  ignore
    (span ~sid:k.idx "sva.covered_run_sample" (fun () ->
         Engine.run_sample s.engine (Rng.create 0) k.sample))

(* Shard results through the fleet's codec, digest, merge and checkpoint
   paths. *)
let plumbing ~out ~strategy (state : Fmc_dist.Ckpt.state) =
  List.iter
    (fun (shard, blob) ->
      span "dist.frame_codec" (fun () ->
          let tag, payload =
            Fmc_dist.Protocol.encode_client
              (Fmc_dist.Protocol.Shard_done { shard; epoch = 1; tally = blob; quarantined = [] })
          in
          match Fmc_dist.Protocol.decode_client tag payload with
          | Ok (Fmc_dist.Protocol.Shard_done { tally; _ }) when String.equal tally blob -> ()
          | _ -> check "frame_codec_roundtrip" false);
      ignore (span "audit.digest" (fun () -> Ssf.Tally.digest_hex blob)))
    state.Fmc_dist.Ckpt.st_shards;
  let merged = ref None in
  for _ = 1 to 3 do
    merged :=
      Some
        (span "merge.report" (fun () ->
             Fmc_dist.Merge.report_of_blobs ~strategy state.Fmc_dist.Ckpt.st_shards))
  done;
  let path = Filename.concat out "ckpt-probe.txt" in
  for _ = 1 to 3 do
    span "ckpt.write" (fun () -> Fmc_dist.Ckpt.save ~path state)
  done;
  check "ckpt_reload_equal" (Fmc_dist.Ckpt.load ~path = Ok state);
  match !merged with
  | Some (Ok report) -> report
  | _ ->
      check "merge_ok" false;
      failwith "merge failed"

(* ---- per-layer metrics ------------------------------------------------- *)

(* Writes the recorded spans out (trace.json, layers.tsv) and derives the
   per-layer metrics from them. *)
let layer_metrics ~out =
  let tbl = layers () in
  write_layer_table (Filename.concat out "layers.tsv") tbl;
  write_chrome_trace (Filename.concat out "trace.json");
  let get name = Hashtbl.find_opt tbl name in
  let mean name = match get name with Some l -> mean_of l.total l.count | None -> 0. in
  let total name = match get name with Some l -> l.total | None -> 0. in
  let words name = match get name with Some l -> l.alloc | None -> 0. in
  let count name = match get name with Some l -> l.count | None -> 0 in
  let run = durations "engine.run_sample" in
  let ratio = mean_of (float_of_int !sva_covered) !sva_checked in
  [
    ("netsys.settle_us", mean "netsys.settle");
    ("transient.inject_us", mean "transient.inject");
    ("transient.alloc_words", mean_of (words "transient.inject") (count "transient.inject"));
    ("cycle_sim.latch_us", mean "cycle_sim.latch");
    ("engine.gate_cycle_us", mean "engine.gate_cycle");
    ("engine.causal_us", mean "engine.causal");
    ( "engine.causal_share",
      total "engine.causal" /. (total "engine.run_sample" +. total "engine.causal") );
    ("engine.masking_us", mean "engine.masking");
    ("engine.sample_us.p50", percentile run 0.5);
    ("engine.sample_us.p99", percentile run 0.99);
    ( "engine.alloc_words_per_sample",
      mean_of (words "engine.run_sample" +. words "engine.causal") (count "engine.run_sample") );
    ("sva.check_us", mean "sva.check");
    ("sva.prune_ratio", ratio);
    ("sva.net_saving_us", (ratio *. mean "sva.covered_run_sample") -. mean "sva.check");
    ("sampler.draw_us", mean "sampler.draw");
    ("golden.restore_us", mean "golden.restore");
    ("engine.rtl_resume_us", mean "engine.rtl_resume");
    ("system.rtl_cycles_per_sample", mean_of (float_of_int !rtl_cycles) !replayed);
    ("fault.seu_run_us", mean "fault.seu_run");
    ("campaign.run_shard_us", mean "campaign.run_shard");
    ("dist.frame_codec_us", mean "dist.frame_codec");
    ("audit.digest_us", mean "audit.digest");
    ("ckpt.write_us", mean "ckpt.write");
    ("merge.report_us", mean "merge.report");
  ]

let replay_checks () =
  check "replay_outcomes_match" !replay_ok;
  check "kernel_latched_equals_gate_flips_only" !kernel_ok

(* Shard results of [probe_shards] shards run in process through
   [Campaign.run_shard], each under a span. *)
let probe_shards s ?prune ?inject ~seed ~shard_size ~shards () =
  let plan = Ssf.shard_plan ~samples:(shards * shard_size) ~shard_size in
  Array.to_list
    (Array.mapi
       (fun shard (start, len) ->
         let r =
           span "campaign.run_shard" (fun () ->
               Campaign.run_shard ?prune ?inject s.engine s.prep ~seed ~shard ~start ~len)
         in
         (shard, Ssf.Tally.to_string r.Campaign.sh_snapshot))
       plan)

(* ---- ci: traced run ---------------------------------------------------- *)

let run_ci_trace ~program ~prune ~seed ~out =
  (* Untraced and traced campaigns each on a fresh set-up, so neither
     inherits the other's warm caches. *)
  let s = build ~program ~prune in
  let untraced, wall_u = timed (fun () -> campaign s ~seed) in
  Gc.compact ();
  let s = build ~program ~prune in
  tracing := true;
  let (traced, kept, simulated), wall_t = timed (fun () -> traced_until s ~seed) in
  check "traced_report_equal" (String.equal (report_json traced) (report_json untraced));
  let netsys = Netsys.create (Engine.circuit s.engine) s.program in
  List.iter
    (fun k -> match k.result with Some r -> replay_disc s ~netsys k r | None -> covered_run s k)
    kept;
  (* The pruner on a workload that does not prune: what it would cover
     and what that would save. *)
  if s.pruner = None then begin
    let p = Pruner.create s.engine in
    List.iter (fun k -> if checked_prune p ~sid:k.idx k.sample then covered_run s k) kept
  end;
  let inj = seu_burst () in
  List.iter
    (fun k -> ignore (span ~sid:k.idx "fault.seu_run" (fun () -> inj.Ssf.inj_run s.engine (Rng.create 0) k.sample)))
    kept;
  let blobs = probe_shards s ?prune:(prune_fn s) ~seed ~shard_size:200 ~shards:probe_shards_ci () in
  ignore
    (plumbing ~out ~strategy:(Sampler.name s.prep)
       { Fmc_dist.Ckpt.st_fingerprint = "perfbench"; st_shards = blobs; st_quarantined = []; st_audit = None });
  tracing := false;
  replay_checks ();
  let metrics =
    [
      ("ssf.samples_evaluated", float_of_int simulated);
      ("ssf.useful_frac", float_of_int traced.Ssf.n /. float_of_int simulated);
      ("ssf.half_width", half_width_of traced);
      ("trace_overhead_frac", (wall_t /. wall_u) -. 1.);
    ]
    @ layer_metrics ~out
  in
  print_json (result_json ~metrics ~attempted:(2 * simulated) ~failed:0 ~extra:[])

(* ---- fleet ------------------------------------------------------------- *)

let fleet_program = Programs.illegal_write

(* What [faultmc evaluate --shard-size] computes for the same campaign. *)
let run_fleet_ref ~program ~model ~seed ~samples ~shard_size =
  let s = build ~program ~prune:false in
  let inject = (Fmc_fault.Registry.parse_exn model).Fmc_fault.Model.inject in
  let r = Campaign.estimate_sharded ?inject s.engine s.prep ~samples ~seed ~shard_size in
  print_endline (report_json r.Campaign.report)

(* [Campaign.run_shard]'s loop for the seu-burst model, driven from here
   with one span per call. *)
let traced_shard s inj ~seed ~shard ~start ~len ~kept =
  let rng = Rng.substream ~seed:(Int64.of_int seed) ~shard in
  let tally = Ssf.Tally.create s.prep ~total:len in
  for i = 1 to len do
    let sid = start + i in
    span ~sid "ssf.sample" (fun () ->
        let sample = span ~sid "sampler.draw" (fun () -> Sampler.draw s.prep rng) in
        let r = span ~sid "fault.seu_run" (fun () -> inj.Ssf.inj_run s.engine rng sample) in
        let attributed = if r.Engine.success then inj.Ssf.inj_causal s.engine r else r.Engine.flips in
        span ~sid "ssf.tally_record" (fun () -> Ssf.Tally.record tally sample r ~attributed);
        if List.length !kept < replay_samples then kept := { idx = sid; sample; result = Some r } :: !kept)
  done;
  Ssf.Tally.to_string (Ssf.Tally.snapshot tally)

let run_fleet_layers ~seed ~samples ~shard_size ~ckpt ~out =
  let s = build ~program:fleet_program ~prune:false in
  let inj = seu_burst () in
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let probe = Array.to_list (Array.mapi (fun i p -> (i, p)) (Array.sub plan 0 (min probe_shards_fleet (Array.length plan)))) in
  let untraced, wall_u =
    timed (fun () ->
        List.map
          (fun (shard, (start, len)) ->
            Ssf.Tally.to_string
              (Campaign.run_shard ~inject:inj s.engine s.prep ~seed ~shard ~start ~len).Campaign.sh_snapshot)
          probe)
  in
  tracing := true;
  let kept = ref [] in
  let traced, wall_t =
    timed (fun () ->
        List.map (fun (shard, (start, len)) -> traced_shard s inj ~seed ~shard ~start ~len ~kept) probe)
  in
  check "traced_shards_equal" (List.for_all2 String.equal traced untraced);
  let kept = List.rev !kept in
  let netsys = Netsys.create (Engine.circuit s.engine) s.program in
  let p = Pruner.create s.engine in
  List.iter
    (fun k ->
      (match k.result with Some r -> replay_seu s k r | None -> ());
      (* The native disc-transient engine on the same samples: sample
         latency, causal replay and the kernel split. *)
      let r = span ~sid:k.idx "engine.run_sample" (fun () -> Engine.run_sample s.engine (Rng.create 0) k.sample) in
      if r.Engine.success then ignore (span ~sid:k.idx "engine.causal" (fun () -> Engine.causal_flips s.engine r));
      replay_kernel s ~netsys k;
      if checked_prune p ~sid:k.idx k.sample then covered_run s k)
    kept;
  ignore (probe_shards s ~inject:inj ~seed ~shard_size ~shards:(List.length probe) ());
  let report =
    match Fmc_dist.Ckpt.load ~path:ckpt with
    | Ok state -> plumbing ~out ~strategy:(Sampler.name s.prep) state
    | Error msg -> failwith ("coordinator checkpoint: " ^ msg)
  in
  tracing := false;
  replay_checks ();
  let metrics =
    [ ("ssf.half_width", half_width_of report); ("trace_overhead_frac", (wall_t /. wall_u) -. 1.) ]
    @ layer_metrics ~out
  in
  print_json (result_json ~metrics ~attempted:(2 * List.length probe * shard_size) ~failed:0 ~extra:[])

(* ---- command line ------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: r -> (m, r) | [] -> ("", []) in
  let rec opts acc = function
    | "--prune" :: r -> opts (("prune", "1") :: acc) r
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) r
    | [] -> acc
    | k :: _ -> failwith ("unexpected argument " ^ k)
  in
  let o = opts [] rest in
  let get k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
  let int k = int_of_string (get k) in
  let program () =
    match get "program" with
    | "write" -> Programs.illegal_write
    | "read" -> Programs.illegal_read
    | p -> failwith ("unknown program " ^ p)
  in
  let prune = List.mem_assoc "prune" o in
  match mode with
  | "ci" -> run_ci ~program:(program ()) ~prune ~seed:(int "seed") ~seconds:(float_of_string (get "seconds"))
  | "ci-trace" -> run_ci_trace ~program:(program ()) ~prune ~seed:(int "seed") ~out:(get "out")
  | "fleet-ref" ->
      run_fleet_ref ~program:(program ()) ~model:(get "model") ~seed:(int "seed")
        ~samples:(int "samples") ~shard_size:(int "shard-size")
  | "fleet-layers" ->
      run_fleet_layers ~seed:(int "seed") ~samples:(int "samples") ~shard_size:(int "shard-size")
        ~ckpt:(get "ckpt") ~out:(get "out")
  | m ->
      prerr_endline ("usage: bench.exe ci|ci-trace|fleet-ref|fleet-layers ... (got " ^ m ^ ")");
      exit 2
