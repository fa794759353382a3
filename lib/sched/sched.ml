(* The fleet server's core (DESIGN.md §12): campaigns keyed by
   fingerprint, one lease table per campaign, round-robin shard dispatch
   across every active campaign, result auditing, per-worker circuit
   breakers, and report caching.

   Durability depends on the store:

     Queue dir    [faultmc sched]: the queue itself lives in a WAL
                  (<dir>/wal/seg-*.wal: submitted, finished, parked,
                  cancelled, quarantined — idempotent records, replayed
                  and compacted at startup) and each campaign's progress
                  in <dir>/campaigns/<md5>.ckpt (Fmc_dist.Ckpt);
     Campaign     [faultmc serve]: one campaign fixed by the command
                  line, so there is no queue to log; its progress (and
                  any quarantined workers) go to the optional checkpoint
                  file alone.

   kill -9 recovery is therefore: replay the WAL to rebuild the queue in
   submission order, then reattach each campaign's checkpoint to seed
   its lease table's Done set. A campaign whose checkpoint holds every
   shard is finished even if the crash beat the "finished" WAL record;
   a campaign whose WAL says finished but whose checkpoint is missing
   shards is quietly re-queued — shard results depend only on
   (seed, shard), so re-running them reproduces the identical report.

   Nothing here reads the wall clock or takes locks: every operation is
   given [now], and the service feeds connection events in and
   serializes calls under its own mutex. *)

open Fmc
module Protocol = Fmc_dist.Protocol
module Lease = Fmc_dist.Lease
module Ckpt = Fmc_dist.Ckpt
module Breaker = Fmc_dist.Breaker
module Audit = Fmc_audit.Audit
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Rate = Fmc_obs.Rate
module Clock = Fmc_obs.Clock

type config = {
  queue_depth : int;  (* max campaigns queued or running; 0 = unbounded *)
  ttl_s : float;  (* shard lease lifetime without a heartbeat *)
  wall_budget_s : float;  (* running wall clock before a campaign is parked; 0 = off *)
  retry_after_s : float;  (* resubmission hint in admission rejections *)
  rate_halflife_s : float;  (* pool throughput EWMA window *)
  audit_rate : float;  (* fraction of accepted shards re-executed (DESIGN.md §16); 0 = off *)
  breaker : Breaker.config;  (* per-worker circuit breaker *)
  require_workers : int;  (* pause leasing below this many healthy workers; 0 = off *)
  linger_s : float;  (* Campaign store: keep serving this long after the report is final *)
  max_idle_s : float;  (* idle exit (Queue) or abandonment (Campaign); 0 = never *)
}

let default_config =
  {
    queue_depth = 16;
    ttl_s = 30.;
    wall_budget_s = 0.;
    retry_after_s = 5.;
    rate_halflife_s = 30.;
    audit_rate = 0.;
    breaker = Breaker.default_config;
    require_workers = 0;
    linger_s = 5.;
    max_idle_s = 0.;
  }

type store = Queue of string | Campaign of { spec : Protocol.spec; checkpoint : string option }

type stop_reason = Drained | Idle | Finished

type phase = Active | Done | Parked of string | Cancelled

type entry = {
  spec : Protocol.spec;
  fp : string;
  ckpt : string option;  (* progress file, rewritten after every accepted shard *)
  plan : (int * int) array;
  lease : Lease.t;
  blobs : (int, string) Hashtbl.t;
  quarantines : (int, Campaign.quarantine_entry list) Hashtbl.t;  (* by producing shard *)
  mutable audit : Audit.t;  (* replaced wholesale on checkpoint reattach *)
  assigned_at : (int, float) Hashtbl.t;  (* shard -> primary lease time *)
  mutable phase : phase;
  mutable started_at : float option;
  mutable done_samples : int;
  mutable elapsed_s : float;  (* start-to-finish wall clock, once Done *)
}

(* Everything the server knows about one worker name. Entries live for
   the whole run: a worker's bad reputation survives its reconnects. *)
type worker = {
  breaker : Breaker.t;
  mutable conns : int;  (* live post-Hello connections *)
  mutable strikes : int;  (* digest mismatches; three quarantine *)
  mutable beat : (float * int * int * int) option;  (* last heartbeat: now, shard, epoch, samples *)
  mutable rate : float;  (* samples/s between the last two heartbeats *)
}

type mx = {
  submissions : Metrics.counter option;
  rejected : Metrics.counter option;
  cache_hits : Metrics.counter option;
  recoveries : Metrics.counter option;
  finished : Metrics.counter option;
  parked : Metrics.counter option;
  cancelled : Metrics.counter option;
  wal_records : Metrics.counter option;
  wal_torn : Metrics.counter option;
  q_depth : Metrics.gauge option;
  running : Metrics.gauge option;
  in_flight : Metrics.gauge option;
  wal_fsync : Metrics.histogram option;
  leases_issued : Metrics.counter option;
  leases_expired : Metrics.counter option;
  stale_results : Metrics.counter option;
  shards_completed : Metrics.counter option;
  heartbeats : Metrics.counter option;
  frames_corrupt : Metrics.counter option;
  breaker_trips : Metrics.counter option;
  circuit_open : Metrics.gauge option;
  leasing_paused : Metrics.gauge option;
  roundtrip : Metrics.histogram option;
  audits : Metrics.counter option;
  audit_mismatches : Metrics.counter option;
  audit_disputes : Metrics.counter option;
  audit_invalidated : Metrics.counter option;
  audit_quarantined : Metrics.gauge option;
}

let mx_create (obs : Obs.t) =
  let reg = obs.Obs.metrics in
  let c help name = Option.map (fun r -> Metrics.counter r ~help name) reg in
  let g help name = Option.map (fun r -> Metrics.gauge r ~help name) reg in
  let h help buckets name = Option.map (fun r -> Metrics.histogram r ~help ~buckets name) reg in
  {
    submissions = c "campaign submissions accepted" "fmc_sched_submissions_total";
    rejected = c "submissions refused by admission control" "fmc_sched_rejected_total";
    cache_hits = c "submissions answered from the report cache" "fmc_sched_cache_hits_total";
    recoveries = c "campaigns recovered from WAL + checkpoints" "fmc_sched_recoveries_total";
    finished = c "campaigns run to completion" "fmc_sched_campaigns_finished_total";
    parked = c "campaigns parked by quarantine policy" "fmc_sched_parked_total";
    cancelled = c "campaigns cancelled by request" "fmc_sched_cancelled_total";
    wal_records = c "intact WAL records replayed at startup" "fmc_sched_wal_records_total";
    wal_torn = c "torn WAL tails detected at startup" "fmc_sched_wal_torn_records_total";
    q_depth = g "campaigns queued or running" "fmc_sched_queue_depth";
    running = g "campaigns with completed or in-flight shards" "fmc_sched_campaigns_running";
    in_flight = g "shard leases currently live across campaigns" "fmc_sched_shards_in_flight";
    wal_fsync =
      h "durable WAL append latency (write + fsync)"
        [| 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1. |]
        "fmc_sched_wal_fsync_seconds";
    leases_issued = c "shard leases handed out" "fmc_dist_leases_issued_total";
    leases_expired = c "leases lost to missed heartbeats" "fmc_dist_leases_expired_total";
    stale_results = c "shard results rejected by epoch fencing" "fmc_dist_stale_results_total";
    shards_completed = c "shard results accepted into the merge" "fmc_dist_shards_completed_total";
    heartbeats = c "heartbeats received" "fmc_dist_heartbeats_total";
    frames_corrupt =
      c "frames dropped for CRC or framing violations" "fmc_dist_frames_corrupt_total";
    breaker_trips = c "circuit-breaker open transitions" "fmc_dist_breaker_opened_total";
    circuit_open = g "workers behind an open circuit breaker" "fmc_dist_circuit_open";
    leasing_paused =
      g "1 while leasing is paused below the require-workers floor" "fmc_dist_leasing_paused";
    roundtrip =
      h "lease-to-accepted latency per shard"
        [| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 30.; 60.; 120. |]
        "fmc_dist_shard_roundtrip_seconds";
    audits = c "audit re-executions leased" "fmc_audit_audits_total";
    audit_mismatches =
      c "shard results whose digest failed verification" "fmc_audit_mismatches_total";
    audit_disputes =
      c "audits escalated to a third arbitrating execution" "fmc_audit_disputes_total";
    audit_invalidated =
      c "accepted shards invalidated by a quarantine" "fmc_audit_invalidated_total";
    audit_quarantined = g "workers quarantined by audit verdicts" "fmc_audit_quarantined_workers";
  }

let cinc = Option.iter Metrics.inc
let cadd c v = Option.iter (fun c -> Metrics.add c v) c
let gset g v = Option.iter (fun g -> Metrics.set g (float_of_int v)) g

type t = {
  config : config;
  store : store;
  wal : Wal.t option;  (* Queue store only *)
  wal_torn : int;  (* torn tails found by the startup replay *)
  entries : (string, entry) Hashtbl.t;
  mutable order : string list;  (* submission order, oldest first *)
  mutable rotation : int;  (* round-robin cursor over active entries *)
  rate : Rate.t;
  mutable draining : bool;
  mutable last_activity : float;
  mutable banned : string list;  (* workers quarantined by audit verdicts, newest first *)
  workers : (string, worker) Hashtbl.t;
  mutable connected : int;  (* open connections, Hello or not *)
  mutable last_connected : float;  (* last tick with a connection open *)
  mutable finished_at : float option;  (* first tick with nothing left to run *)
  mx : mx;
}

(* Observation-only exception to the injected-[now] design: the fsync
   stopwatch reads the process clock directly, because callers inject
   logical time (tests drive a fake [now]) while the fsync cost being
   measured is real. *)
let wal_append t payload =
  match (t.wal, t.mx.wal_fsync) with
  | None, _ -> ()
  | Some w, None -> Wal.append w payload
  | Some w, Some h ->
      let t0 = Clock.now () in
      Wal.append w payload;
      Metrics.observe h (Float.max 0. (Clock.now () -. t0))

(* -- WAL records --------------------------------------------------------- *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s
let rec_submit spec = "submit\n" ^ Protocol.spec_line spec
let rec_finished fp elapsed = Printf.sprintf "finished\n%s\n%h" fp elapsed
let rec_parked fp reason = Printf.sprintf "parked\n%s\n%s" fp (one_line reason)
let rec_cancelled fp = "cancelled\n" ^ fp
let rec_quarantine worker = "quarantined\n" ^ one_line worker

type wal_op =
  | Op_submit of Protocol.spec
  | Op_finished of string * float
  | Op_parked of string * string
  | Op_cancelled of string
  | Op_quarantine of string

let parse_record payload =
  match String.split_on_char '\n' payload with
  | [ "submit"; line ] -> (
      match Protocol.spec_of_line line with Ok sp -> Some (Op_submit sp) | Error _ -> None)
  | [ "finished"; fp; e ] ->
      Some (Op_finished (fp, Option.value (float_of_string_opt e) ~default:0.))
  | [ "parked"; fp; reason ] -> Some (Op_parked (fp, reason))
  | [ "cancelled"; fp ] -> Some (Op_cancelled fp)
  | [ "quarantined"; worker ] -> Some (Op_quarantine worker)
  | _ -> None

(* -- entries ------------------------------------------------------------- *)

let ckpt_dir dir = Filename.concat dir "campaigns"

(* A Queue store's checkpoint for campaign [fp]. *)
let queue_ckpt dir fp =
  Filename.concat (ckpt_dir dir) (Digest.to_hex (Digest.string fp) ^ ".ckpt")

(* The audit selection seed: any stable function of the fingerprint
   works; CRC-32 keeps it cheap and dependency-free. Engine sample
   streams never see this seed, so auditing cannot perturb results. *)
let audit_config config ~fp =
  {
    Audit.rate = config.audit_rate;
    seed = Int64.of_int (Fmc_prelude.Crc32.string fp);
    ttl_s = config.ttl_s;
  }

let make_entry config ~ckpt spec =
  let fp = Protocol.spec_fingerprint spec in
  let plan =
    Ssf.shard_plan ~samples:spec.Protocol.sp_samples ~shard_size:spec.Protocol.sp_shard_size
  in
  {
    spec;
    fp;
    ckpt;
    plan;
    lease = Lease.create ~plan ~ttl:config.ttl_s;
    blobs = Hashtbl.create 16;
    quarantines = Hashtbl.create 16;
    audit = Audit.create (audit_config config ~fp) ~nshards:(Array.length plan);
    assigned_at = Hashtbl.create 16;
    phase = Active;
    started_at = None;
    done_samples = 0;
    elapsed_s = 0.;
  }

let spec_valid (sp : Protocol.spec) =
  if sp.Protocol.sp_samples <= 0 then Error "non-positive sample count"
  else if sp.Protocol.sp_shard_size <= 0 then Error "non-positive shard size"
  else
    (* Reject unresolvable fault models at submission, not when a pool
       worker fails to build the job (which would burn its reconnect
       budget on a spec that can never run). *)
    match Fmc_fault.Registry.parse sp.Protocol.sp_fault_model with
    | Ok _ -> Ok ()
    | Error e -> Error (Fmc_fault.Registry.error_message e)

let active e = match e.phase with Active -> true | Done | Parked _ | Cancelled -> false

let iter_ordered t f =
  List.iter (fun fp -> match Hashtbl.find_opt t.entries fp with Some e -> f e | None -> ()) t.order

let active_entries t =
  List.filter_map
    (fun fp ->
      match Hashtbl.find_opt t.entries fp with Some e when active e -> Some e | _ -> None)
    t.order

let in_flight t = List.fold_left (fun n e -> n + Lease.in_flight e.lease) 0 (active_entries t)

let refresh_gauges t =
  let act = active_entries t in
  gset t.mx.q_depth (List.length act);
  gset t.mx.running
    (List.length (List.filter (fun e -> e.done_samples > 0 || Lease.in_flight e.lease > 0) act));
  gset t.mx.in_flight (in_flight t)

let sorted_quarantined e =
  Hashtbl.fold (fun _ qs acc -> List.rev_append qs acc) e.quarantines []
  |> List.sort (fun a b -> compare a.Campaign.q_index b.Campaign.q_index)

let sorted_blobs e =
  Hashtbl.fold (fun i b acc -> (i, b) :: acc) e.blobs []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let ckpt_state ~banned e =
  (* With auditing off and nobody quarantined the file stays the
     byte-identical pre-audit (v2) format. *)
  let st_audit =
    if Audit.rate e.audit = 0. && banned = [] then None
    else
      Some
        {
          Ckpt.au_entries =
            List.map
              (fun (a : Audit.entry) ->
                {
                  Ckpt.au_shard = a.Audit.au_shard;
                  au_worker = a.Audit.au_worker;
                  au_digest = a.Audit.au_digest;
                  au_passed = a.Audit.au_passed;
                })
              (Audit.export e.audit);
          au_banned = List.rev banned;
        }
  in
  {
    Ckpt.st_fingerprint = e.fp;
    st_shards = sorted_blobs e;
    st_quarantined = sorted_quarantined e;
    st_audit;
  }

let save_ckpt t e =
  Option.iter (fun path -> Ckpt.save ~path (ckpt_state ~banned:t.banned e)) e.ckpt

(* -- recovery ------------------------------------------------------------ *)

let shard_len e shard = if shard >= 0 && shard < Array.length e.plan then snd e.plan.(shard) else 0

(* Re-attribute a flat quarantine log to producing shards by global
   sample index over the plan's ranges — checkpoints (and the wire
   protocol) carry the log flat, while invalidation needs to drop
   exactly one shard's entries. *)
let shard_of_qindex e qi =
  let found = ref None in
  Array.iteri
    (fun shard (start, len) ->
      if !found = None && qi > start && qi <= start + len then found := Some shard)
    e.plan;
  !found

let attach_quarantines e entries =
  Hashtbl.reset e.quarantines;
  List.iter
    (fun q ->
      match shard_of_qindex e q.Campaign.q_index with
      | None -> ()
      | Some shard ->
          let prev = Option.value (Hashtbl.find_opt e.quarantines shard) ~default:[] in
          Hashtbl.replace e.quarantines shard (q :: prev))
    entries

(* Seed [e] from a matching checkpoint; returns the workers it names as
   quarantined, newest first. *)
let attach ~config e (st : Ckpt.state) =
  List.iter
    (fun (shard, blob) ->
      if shard >= 0 && shard < Array.length e.plan && not (Hashtbl.mem e.blobs shard) then begin
        Lease.force_complete e.lease ~shard;
        Hashtbl.replace e.blobs shard blob;
        e.done_samples <- e.done_samples + shard_len e shard
      end)
    st.Ckpt.st_shards;
  attach_quarantines e st.Ckpt.st_quarantined;
  let acfg = audit_config config ~fp:e.fp in
  match st.Ckpt.st_audit with
  | Some au ->
      e.audit <-
        Audit.restore acfg ~nshards:(Array.length e.plan)
          (List.map
             (fun (a : Ckpt.audit_entry) ->
               {
                 Audit.au_shard = a.Ckpt.au_shard;
                 au_worker = a.Ckpt.au_worker;
                 au_digest = a.Ckpt.au_digest;
                 au_passed = a.Ckpt.au_passed;
               })
             au.Ckpt.au_entries);
      List.rev au.Ckpt.au_banned
  | None ->
      (* Pre-audit (v2) checkpoint under an auditing server: recompute
         each accepted shard's digest from its blob. The primaries carry
         no producer name, so a later quarantine cannot blame them —
         they are simply due for audit. *)
      if config.audit_rate > 0. then
        Hashtbl.iter
          (fun shard blob ->
            let quarantined = Option.value (Hashtbl.find_opt e.quarantines shard) ~default:[] in
            ignore
              (Audit.note_accept e.audit ~shard ~worker:""
                 ~digest:(Audit.Check.result_digest ~tally:blob ~quarantined)
                : bool))
          e.blobs;
      []

let entry_complete e = Lease.finished e.lease && Audit.finished e.audit

(* Drop every accepted-but-unvindicated shard [worker] produced in [e]:
   the quarantine path, and its crash-recovery replay. Returns how many
   shards were invalidated. *)
let invalidate_victims_entry e ~worker =
  let victims = Audit.victims e.audit ~worker in
  List.iter
    (fun shard ->
      if Hashtbl.mem e.blobs shard then begin
        Hashtbl.remove e.blobs shard;
        Hashtbl.remove e.quarantines shard;
        e.done_samples <- e.done_samples - shard_len e shard
      end;
      Audit.invalidate e.audit ~shard;
      Lease.reopen e.lease ~shard;
      Hashtbl.remove e.assigned_at shard)
    victims;
  List.length victims

(* Reconcile a recovered entry against the evidence: replay each
   quarantine's invalidation (the ban is durable before the victims'
   checkpoints are rewritten; a no-op when the crash came after), then
   let a complete checkpoint finish the campaign even if the crash beat
   the "finished" WAL record, and re-queue a "finished" campaign whose
   shards are missing (re-running is free and bit-exact). *)
let reconcile ~banned e =
  List.iter
    (fun worker ->
      if not (entry_complete e) || e.phase <> Done then
        ignore (invalidate_victims_entry e ~worker : int))
    banned;
  match e.phase with
  | Done -> if not (entry_complete e) then e.phase <- Active
  | Active | Parked _ -> if entry_complete e then e.phase <- Done
  | Cancelled -> ()

(* Union of two newest-first worker lists, keeping that order. *)
let add_banned banned ws =
  List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) banned (List.rev ws)

(* Rebuild the queue from replayed WAL records, then reattach each
   campaign's checkpoint (an unreadable or foreign one just means the
   campaign re-runs from scratch). Runs before the WAL handle exists
   (the old segments must survive until the compacted one is durable),
   so it only touches the entry tables. *)
let recover ~config ~dir ~entries records =
  let order = ref [] in
  let banned = ref [] in
  List.iter
    (fun payload ->
      match parse_record payload with
      | None -> ()
      | Some (Op_quarantine worker) -> banned := add_banned !banned [ worker ]
      | Some (Op_submit spec) -> (
          match spec_valid spec with
          | Error _ -> ()
          | Ok () -> (
              let fp = Protocol.spec_fingerprint spec in
              match Hashtbl.find_opt entries fp with
              | Some e ->
                  (* Revival after a cancel; duplicates from compaction
                     land here too and change nothing. *)
                  if e.phase = Cancelled then e.phase <- Active
              | None ->
                  Hashtbl.replace entries fp
                    (make_entry config ~ckpt:(Some (queue_ckpt dir fp)) spec);
                  order := fp :: !order))
      | Some (Op_finished (fp, elapsed)) -> (
          match Hashtbl.find_opt entries fp with
          | Some e ->
              e.phase <- Done;
              e.elapsed_s <- elapsed
          | None -> ())
      | Some (Op_parked (fp, reason)) -> (
          match Hashtbl.find_opt entries fp with
          | Some e -> if e.phase <> Done then e.phase <- Parked reason
          | None -> ())
      | Some (Op_cancelled fp) -> (
          match Hashtbl.find_opt entries fp with
          | Some e -> if e.phase <> Done then e.phase <- Cancelled
          | None -> ()))
    records;
  let order = List.rev !order in
  List.iter
    (fun fp ->
      let e = Hashtbl.find entries fp in
      match e.ckpt with
      | Some path when Sys.file_exists path -> (
          match Ckpt.load ~path with
          | Ok st when st.Ckpt.st_fingerprint = e.fp ->
              banned := add_banned !banned (attach ~config e st)
          | Ok _ | Error _ -> ())
      | _ -> ())
    order;
  List.iter (fun fp -> reconcile ~banned:!banned (Hashtbl.find entries fp)) order;
  (order, !banned)

(* The Campaign store's one campaign: a checkpoint that does not load or
   belongs to another campaign is a hard error — silently starting over
   it would discard durable results. *)
let load_campaign ~config ~entries spec checkpoint =
  (match spec_valid spec with Error msg -> invalid_arg ("Sched.create: " ^ msg) | Ok () -> ());
  let e = make_entry config ~ckpt:checkpoint spec in
  let banned =
    match checkpoint with
    | Some path when Sys.file_exists path -> (
        match Ckpt.load ~path with
        | Error msg -> failwith (Printf.sprintf "corrupt checkpoint %s: %s" path msg)
        | Ok st when st.Ckpt.st_fingerprint <> e.fp ->
            failwith
              (Printf.sprintf "checkpoint %s belongs to a different campaign (fingerprint mismatch)"
                 path)
        | Ok st -> attach ~config e st)
    | _ -> []
  in
  reconcile ~banned e;
  Hashtbl.replace entries e.fp e;
  ([ e.fp ], banned)

let records_of_state ~entries ~banned order =
  List.concat_map
    (fun fp ->
      match Hashtbl.find_opt entries fp with
      | None -> []
      | Some e -> (
          let base = rec_submit e.spec in
          match e.phase with
          | Active -> [ base ]
          | Done -> [ base; rec_finished e.fp e.elapsed_s ]
          | Parked reason -> [ base; rec_parked e.fp reason ]
          | Cancelled -> [ base; rec_cancelled e.fp ]))
    order
  @ List.rev_map rec_quarantine banned

let create ?(obs = Obs.disabled) config store ~now =
  if config.ttl_s <= 0. then invalid_arg "Sched.create: non-positive ttl";
  if config.audit_rate < 0. || config.audit_rate > 1. then
    invalid_arg "Sched.create: audit_rate outside [0,1]";
  if config.require_workers < 0 then invalid_arg "Sched.create: negative require_workers";
  let mx = mx_create obs in
  let entries = Hashtbl.create 16 in
  let (order, banned), wal, torn =
    match store with
    | Campaign { spec; checkpoint } -> (load_campaign ~config ~entries spec checkpoint, None, 0)
    | Queue dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        if not (Sys.file_exists (ckpt_dir dir)) then Unix.mkdir (ckpt_dir dir) 0o755;
        let wal_dir = Filename.concat dir "wal" in
        let replayed = Wal.replay ~dir:wal_dir in
        cadd mx.wal_records (float_of_int (List.length replayed.Wal.records));
        cadd mx.wal_torn (float_of_int replayed.Wal.torn);
        let order, banned = recover ~config ~dir ~entries replayed.Wal.records in
        if order <> [] then cadd mx.recoveries (float_of_int (List.length order));
        (* Compacting here also truncates any torn tail: the next replay
           reads a minimal, tear-free log. *)
        let wal = Wal.start ~dir:wal_dir ~initial:(records_of_state ~entries ~banned order) in
        ((order, banned), Some wal, replayed.Wal.torn)
  in
  let t =
    {
      config;
      store;
      wal;
      wal_torn = torn;
      entries;
      order;
      rotation = 0;
      rate = Rate.create ~halflife_s:config.rate_halflife_s ~now ();
      draining = false;
      last_activity = now;
      banned;
      workers = Hashtbl.create 8;
      connected = 0;
      last_connected = now;
      finished_at = None;
      mx;
    }
  in
  gset t.mx.audit_quarantined (List.length banned);
  refresh_gauges t;
  t

(* -- worker health ------------------------------------------------------- *)

let worker_state t name =
  match Hashtbl.find_opt t.workers name with
  | Some w -> w
  | None ->
      let breaker = Breaker.create t.config.breaker in
      let w = { breaker; conns = 0; strikes = 0; beat = None; rate = 0. } in
      Hashtbl.add t.workers name w;
      w

let breaker_open w ~now = Breaker.state w.breaker ~now = Breaker.Open

let open_breakers t ~now =
  Hashtbl.fold (fun _ w n -> if breaker_open w ~now then n + 1 else n) t.workers 0

let note_failure t ~worker ~now =
  let b = (worker_state t worker).breaker in
  let trips = Breaker.trips b in
  Breaker.record_failure b ~now;
  if Breaker.trips b > trips then cinc t.mx.breaker_trips;
  gset t.mx.circuit_open (open_breakers t ~now)

let note_success t ~worker ~now =
  Breaker.record_success (worker_state t worker).breaker ~now;
  gset t.mx.circuit_open (open_breakers t ~now)

(* Distinct worker names with a live connection and no open breaker —
   the population the require_workers floor is measured against, and
   the fleet size that decides whether self-audit is allowed. *)
let healthy_workers t ~now =
  Hashtbl.fold
    (fun _ w n -> if w.conns > 0 && not (breaker_open w ~now) then n + 1 else n)
    t.workers 0

let leasing_paused t ~now =
  let paused = t.config.require_workers > 0 && healthy_workers t ~now < t.config.require_workers in
  gset t.mx.leasing_paused (if paused then 1 else 0);
  paused

let is_banned t ~worker = List.mem worker t.banned

let quarantined_reason = "worker quarantined: failed result audit"

let connect t = t.connected <- t.connected + 1

(* One hello rule for every connection: the scope must be the pool or a
   campaign this server holds, the worker must not be quarantined, and
   its breaker must admit it. *)
let hello t ~now ~worker ~scope =
  if is_banned t ~worker then `Reject quarantined_reason
  else if scope <> Protocol.pool_fingerprint && not (Hashtbl.mem t.entries scope) then
    `Reject "campaign fingerprint mismatch: no such campaign on this server"
  else
    let w = worker_state t worker in
    if Breaker.allow w.breaker ~now then begin
      w.conns <- w.conns + 1;
      `Welcome
    end
    else `Retry_later (Float.max 0.1 (Breaker.cooldown_remaining w.breaker ~now))

let disconnect t ~worker =
  t.connected <- t.connected - 1;
  Option.iter
    (fun name ->
      let w = worker_state t name in
      w.conns <- w.conns - 1)
    worker

let charge t ~now ~worker ~corrupt =
  if corrupt then cinc t.mx.frames_corrupt;
  match worker with
  | None -> 0.
  | Some worker ->
      note_failure t ~worker ~now;
      Float.max 0.05 (Breaker.cooldown_remaining (worker_state t worker).breaker ~now)

(* -- phase transitions --------------------------------------------------- *)

let finalize t e ~now =
  (* A campaign is not finished until every pending audit drained: a
     report served before its audits settle could carry a lie. *)
  if e.phase <> Done && entry_complete e then begin
    e.phase <- Done;
    e.elapsed_s <- (match e.started_at with Some s -> now -. s | None -> 0.);
    wal_append t (rec_finished e.fp e.elapsed_s);
    cinc t.mx.finished;
    refresh_gauges t
  end

(* Fleet-wide quarantine: record durably, force the worker's breaker
   open, then invalidate every unvindicated shard the liar produced in
   any still-active campaign so honest workers re-run them. Finished
   campaigns keep their reports — every shard in them was either
   audited or produced before auditing drained, and reopening a served
   report would be worse than the residual risk. *)
let quarantine_worker t ~now worker =
  if worker <> "" && not (is_banned t ~worker) then begin
    t.banned <- worker :: t.banned;
    wal_append t (rec_quarantine worker);
    gset t.mx.audit_quarantined (List.length t.banned);
    let w = worker_state t worker in
    if not (breaker_open w ~now) then cinc t.mx.breaker_trips;
    Breaker.trip w.breaker ~now;
    gset t.mx.circuit_open (open_breakers t ~now);
    iter_ordered t (fun e ->
        if active e then begin
          let dropped = invalidate_victims_entry e ~worker in
          Lease.release_worker e.lease ~worker;
          cadd t.mx.audit_invalidated (float_of_int dropped);
          save_ckpt t e
        end);
    refresh_gauges t
  end

let mismatch_strikes = 3

(* The worker's own digest disagrees with its payload: corruption or a
   clumsy lie. Charged like a corrupt frame; repeated mismatches are not
   line noise. *)
let note_mismatch t ~now worker =
  cinc t.mx.audit_mismatches;
  cinc t.mx.frames_corrupt;
  note_failure t ~worker ~now;
  let w = worker_state t worker in
  w.strikes <- w.strikes + 1;
  if w.strikes >= mismatch_strikes then quarantine_worker t ~now worker

let park t e reason =
  if active e then begin
    e.phase <- Parked reason;
    wal_append t (rec_parked e.fp reason);
    cinc t.mx.parked;
    refresh_gauges t
  end

(* -- submission ---------------------------------------------------------- *)

let position_of t e =
  let rec go n = function
    | [] -> n
    | fp :: rest ->
        if fp = e.fp then n
        else
          go
            (match Hashtbl.find_opt t.entries fp with
            | Some o when active o -> n + 1
            | _ -> n)
            rest
  in
  go 0 t.order

let submit t ~now spec =
  t.last_activity <- now;
  match spec_valid spec with
  | Error reason -> `Invalid reason
  | Ok () -> (
      let fp = Protocol.spec_fingerprint spec in
      match Hashtbl.find_opt t.entries fp with
      | Some e -> (
          match e.phase with
          | Done ->
              cinc t.mx.cache_hits;
              `Cached
          | Cancelled ->
              e.phase <- Active;
              wal_append t (rec_submit e.spec);
              cinc t.mx.submissions;
              refresh_gauges t;
              `Queued (position_of t e)
          | Active | Parked _ -> `Queued (position_of t e))
      | None ->
          let live = List.length (active_entries t) in
          if t.config.queue_depth > 0 && live >= t.config.queue_depth then begin
            cinc t.mx.rejected;
            `Rejected t.config.retry_after_s
          end
          else begin
            let ckpt =
              match t.store with Queue dir -> Some (queue_ckpt dir fp) | Campaign _ -> None
            in
            let e = make_entry t.config ~ckpt spec in
            Hashtbl.replace t.entries fp e;
            t.order <- t.order @ [ fp ];
            wal_append t (rec_submit spec);
            cinc t.mx.submissions;
            refresh_gauges t;
            `Queued (position_of t e)
          end)

let cancel t ~fingerprint =
  match Hashtbl.find_opt t.entries fingerprint with
  | None -> `Unknown
  | Some e -> (
      match e.phase with
      | Done -> `Already_finished
      | Cancelled -> `Cancelled
      | Active | Parked _ ->
          e.phase <- Cancelled;
          wal_append t (rec_cancelled e.fp);
          cinc t.mx.cancelled;
          refresh_gauges t;
          `Cancelled)

(* -- dispatch ------------------------------------------------------------ *)

(* A heartbeat gap big enough to lose the lease is a health event for
   the worker that was holding it. *)
let expire t e ~now =
  let expired = Lease.sweep_expired e.lease ~now in
  cadd t.mx.leases_expired (float_of_int (List.length expired));
  List.iter (fun (_, worker) -> note_failure t ~worker ~now) expired;
  ignore (Audit.sweep e.audit ~now : int)

let sweep t ~now =
  iter_ordered t (fun e ->
      if active e then begin
        expire t e ~now;
        (match (e.started_at, t.config.wall_budget_s) with
        | Some s, budget when budget > 0. && now -. s > budget ->
            park t e
              (Printf.sprintf "wall-clock budget exhausted (%.1fs > %.1fs)" (now -. s) budget)
        | _ -> ());
        if entry_complete e then finalize t e ~now
      end);
  gset t.mx.circuit_open (open_breakers t ~now);
  ignore (leasing_paused t ~now : bool);
  refresh_gauges t

(* Offer an audit re-execution to an otherwise idle worker. The audited
   shard stays Done in the lease table; the re-run rides a fresh epoch
   from the same fence, so its completion can never be mistaken for a
   primary result. With a single healthy worker the different-auditor
   rule would deadlock the audit queue, so self-audit is allowed (it
   still catches nondeterminism). *)
let audit_offer t e ~now ~worker =
  match Audit.next_due e.audit ~worker ~allow_self:(healthy_workers t ~now <= 1) with
  | None -> None
  | Some shard ->
      let epoch = Lease.bump_epoch e.lease ~shard in
      Audit.lease e.audit ~shard ~auditor:worker ~epoch ~now;
      cinc t.mx.audits;
      let start, len = Lease.range e.lease ~shard in
      Some { Lease.shard; epoch; start; len }

let next_job t ~now ~worker ~scope =
  t.last_activity <- now;
  if is_banned t ~worker then `Banned
  else if t.draining then `Drained
  else if leasing_paused t ~now then `Wait
  else
    let try_entry e =
      if not (active e) then None
      else begin
        expire t e ~now;
        match Lease.acquire e.lease ~now ~worker with
        | `Assign a ->
            if e.started_at = None then e.started_at <- Some now;
            Hashtbl.replace e.assigned_at a.Lease.shard now;
            cinc t.mx.leases_issued;
            Some (`Job (e.spec, a))
        | `Finished | `Wait -> (
            match audit_offer t e ~now ~worker with
            | Some a -> Some (`Job (e.spec, a))
            | None ->
                if entry_complete e then finalize t e ~now;
                None)
      end
    in
    if scope = Protocol.pool_fingerprint then begin
      let act = active_entries t in
      let n = List.length act in
      if n = 0 then `Wait
      else begin
        (* Round-robin across campaigns: start one past the campaign
           that got the previous lease, so one long campaign cannot
           starve the rest of the queue. *)
        let arr = Array.of_list act in
        let start = t.rotation mod n in
        let rec probe i =
          if i = n then `Wait
          else
            let idx = (start + i) mod n in
            match try_entry arr.(idx) with
            | Some job ->
                t.rotation <- idx + 1;
                refresh_gauges t;
                job
            | None -> probe (i + 1)
        in
        probe 0
      end
    end
    else
      match Hashtbl.find_opt t.entries scope with
      | None -> `Unknown_scope
      | Some e -> (
          match e.phase with
          | Done | Cancelled -> `Drained
          | Parked _ -> `Wait
          | Active -> (
              match try_entry e with
              | Some job ->
                  refresh_gauges t;
                  job
              | None -> if entry_complete e then `Drained else `Wait))

let heartbeat t ~now ~fingerprint ~shard ~epoch ~worker ~samples_done =
  t.last_activity <- now;
  cinc t.mx.heartbeats;
  let live =
    match Hashtbl.find_opt t.entries fingerprint with
    | None -> `Stale
    | Some e -> (
        match e.phase with
        | Active | Parked _ ->
            if Audit.heartbeat e.audit ~shard ~epoch ~now then `Ok
            else Lease.heartbeat e.lease ~now ~shard ~epoch
        | Done | Cancelled -> `Stale)
  in
  if live = `Ok then begin
    note_success t ~worker ~now;
    let w = worker_state t worker in
    (match w.beat with
    | Some (t0, s0, e0, d0) when s0 = shard && e0 = epoch && samples_done > d0 && now > t0 ->
        w.rate <- float_of_int (samples_done - d0) /. (now -. t0)
    | _ -> ());
    w.beat <- Some (now, shard, epoch, samples_done)
  end;
  live

let complete t ~now ~fingerprint ~shard ~epoch ~worker ~digest ~tally ~quarantined =
  t.last_activity <- now;
  match Hashtbl.find_opt t.entries fingerprint with
  | None -> `Unknown
  | Some { phase = Cancelled; _ } -> `Unknown
  | Some e -> (
      let computed = Audit.Check.result_digest ~tally ~quarantined in
      match (digest, Ssf.Tally.of_string tally) with
      | Some d, _ when d <> computed ->
          (* Refuse without consuming the shard's completion and put the
             lease back. *)
          note_mismatch t ~now worker;
          Audit.release e.audit ~shard ~epoch;
          Lease.release e.lease ~shard ~epoch;
          `Mismatch
      | _, Error msg ->
          (* Validate before committing: a blob that does not decode must
             not consume the shard's one accepted completion. *)
          note_failure t ~worker ~now;
          `Invalid msg
      | _, Ok _ when Audit.audit_epoch e.audit ~shard ~epoch -> (
          match Audit.complete e.audit ~shard ~epoch ~worker ~digest:computed with
          | `Pass ->
              note_success t ~worker ~now;
              save_ckpt t e;
              if e.phase = Active then finalize t e ~now;
              `Audited "audit pass"
          | `Dispute ->
              (* Somebody is lying, but we cannot yet say who: a third
                 execution arbitrates. *)
              cinc t.mx.audit_disputes;
              `Audited "audit dispute: arbitrating"
          | `Verdict { Audit.vd_liars; vd_replace } ->
              if vd_replace then begin
                (* The accepted primary was the lie; the arbiter's result
                   in hand is the honest one. *)
                Hashtbl.replace e.blobs shard tally;
                if quarantined = [] then Hashtbl.remove e.quarantines shard
                else Hashtbl.replace e.quarantines shard quarantined
              end;
              List.iter (quarantine_worker t ~now) vd_liars;
              if not (List.mem worker vd_liars) then note_success t ~worker ~now;
              save_ckpt t e;
              if e.phase = Active then finalize t e ~now;
              `Audited "audit verdict"
          | `Stale ->
              cinc t.mx.stale_results;
              `Stale)
      | _, Ok _ -> (
          match Lease.complete e.lease ~shard ~epoch with
          | `Accepted ->
              Hashtbl.replace e.blobs shard tally;
              if quarantined = [] then Hashtbl.remove e.quarantines shard
              else Hashtbl.replace e.quarantines shard quarantined;
              e.done_samples <- e.done_samples + shard_len e shard;
              cinc t.mx.shards_completed;
              Rate.observe t.rate ~now (float_of_int (shard_len e shard));
              (match Hashtbl.find_opt e.assigned_at shard with
              | Some t0 ->
                  Option.iter
                    (fun h -> Metrics.observe h (Float.max 0. (now -. t0)))
                    t.mx.roundtrip;
                  Hashtbl.remove e.assigned_at shard
              | None -> ());
              note_success t ~worker ~now;
              ignore (Audit.note_accept e.audit ~shard ~worker ~digest:computed : bool);
              save_ckpt t e;
              if e.phase = Active then finalize t e ~now;
              refresh_gauges t;
              `Accepted
          | `Stale ->
              cinc t.mx.stale_results;
              `Stale
          | (`Duplicate | `Unknown) as r -> r))

(* -- reports and status -------------------------------------------------- *)

let report t ~fingerprint =
  match Hashtbl.find_opt t.entries fingerprint with
  | Some e when e.phase = Done -> Some (sorted_blobs e, sorted_quarantined e, e.elapsed_s)
  | Some _ | None -> None

let status_entry t ~now e =
  let queue_len = List.length (active_entries t) in
  let state, position, detail =
    match e.phase with
    | Done -> (Protocol.Finished, -1, "")
    | Cancelled -> (Protocol.Cancelled, -1, "")
    | Parked reason -> (Protocol.Parked, -1, reason)
    | Active ->
        let st =
          if e.done_samples > 0 || Lease.in_flight e.lease > 0 then Protocol.Running
          else Protocol.Queued
        in
        (st, position_of t e, "")
  in
  let rate = Rate.per_sec t.rate ~now in
  let eta =
    match e.phase with
    | Done | Cancelled -> 0.
    | Parked _ -> -1.
    | Active ->
        let own = e.spec.Protocol.sp_samples - e.done_samples in
        (* Everything queued ahead shares the pool, so its backlog is
           in front of ours in expectation. *)
        let ahead =
          List.fold_left
            (fun (acc, seen) fp ->
              if seen || fp = e.fp then (acc, true)
              else
                match Hashtbl.find_opt t.entries fp with
                | Some o when active o ->
                    (acc + (o.spec.Protocol.sp_samples - o.done_samples), false)
                | _ -> (acc, false))
            (0, false) t.order
          |> fst
        in
        (match Rate.eta_s t.rate ~now ~remaining:(own + ahead) with Some s -> s | None -> -1.)
  in
  {
    Protocol.st_fingerprint = e.fp;
    st_state = state;
    st_position = position;
    st_queue_len = queue_len;
    st_samples_done = e.done_samples;
    st_samples_total = e.spec.Protocol.sp_samples;
    st_rate = rate;
    st_eta_s = eta;
    st_detail = detail;
  }

let status t ~now ~fingerprint =
  if fingerprint = "" then
    List.rev
      (List.fold_left
         (fun acc fp ->
           match Hashtbl.find_opt t.entries fp with
           | Some e -> status_entry t ~now e :: acc
           | None -> acc)
         [] t.order)
  else
    match Hashtbl.find_opt t.entries fingerprint with
    | Some e -> [ status_entry t ~now e ]
    | None -> []

type health = {
  h_finished : bool;
  h_draining : bool;
  h_queue_depth : int;
  h_shards_done : int;
  h_shards_total : int;
  h_in_flight : int;
  h_connected : int;
  h_healthy_workers : int;
  h_breakers_open : int;
  h_leasing_paused : bool;
  h_audits_pending : int;
  h_quarantined_workers : int;
  h_wal_torn : int;
}

let health t ~now =
  let sum f = Hashtbl.fold (fun _ e n -> n + f e) t.entries 0 in
  let act = active_entries t in
  {
    h_finished = act = [];
    h_draining = t.draining;
    h_queue_depth = List.length act;
    h_shards_done = sum (fun e -> Lease.completed e.lease);
    h_shards_total = sum (fun e -> Lease.total e.lease);
    h_in_flight = in_flight t;
    h_connected = t.connected;
    h_healthy_workers = healthy_workers t ~now;
    h_breakers_open = open_breakers t ~now;
    h_leasing_paused = leasing_paused t ~now;
    h_audits_pending = List.fold_left (fun n e -> n + Audit.pending e.audit) 0 act;
    h_quarantined_workers = List.length t.banned;
    h_wal_torn = t.wal_torn;
  }

type worker_health = {
  wh_breaker : Breaker.state;
  wh_connections : int;
  wh_rate : float;
  wh_quarantined : bool;
  wh_mismatches : int;
}

let workers t ~now =
  Hashtbl.fold
    (fun name w acc ->
      ( name,
        {
          wh_breaker = Breaker.state w.breaker ~now;
          wh_connections = w.conns;
          wh_rate = w.rate;
          wh_quarantined = is_banned t ~worker:name;
          wh_mismatches = w.strikes;
        } )
      :: acc)
    t.workers []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* -- lifecycle ----------------------------------------------------------- *)

let drain t = t.draining <- true
let idle t = active_entries t = []

(* The exit rules, evaluated on the service's tick. A Queue store exits
   once drained or idle past [max_idle_s]. A Campaign store exits
   [linger_s] after its report went final — once the last client has
   hung up, or at 4x linger regardless, so workers that never said
   goodbye cannot hold it hostage — and gives up ([`Abandoned]) when the
   campaign is unfinished and nothing has been connected for
   [max_idle_s], freeing its port instead of waiting forever. *)
let tick t ~now =
  sweep t ~now;
  if t.connected > 0 then t.last_connected <- now;
  let max_idle = t.config.max_idle_s in
  if t.draining then if in_flight t = 0 then `Stop Drained else `Serve
  else
    match t.store with
    | Queue _ ->
        if max_idle > 0. && idle t && now -. t.last_activity >= max_idle then `Stop Idle
        else `Serve
    | Campaign _ when idle t ->
        let t0 = Option.value t.finished_at ~default:now in
        t.finished_at <- Some t0;
        let linger = t.config.linger_s in
        if (now -. t0 >= linger && t.connected = 0) || now -. t0 >= 4. *. linger then
          `Stop Finished
        else `Serve
    | Campaign _ ->
        t.finished_at <- None;
        if max_idle > 0. && now -. t.last_connected >= max_idle then
          `Abandoned
            (Printf.sprintf
               "no worker connected for %.0f s with the campaign unfinished (--max-idle)" max_idle)
        else `Serve

let shutdown t =
  (* Rewrite the WAL as one compacted segment of the final state — the
     next startup replays a minimal, tear-free log. *)
  Option.iter
    (fun wal ->
      let wal_dir = Wal.dir wal in
      Wal.close wal;
      let initial = records_of_state ~entries:t.entries ~banned:t.banned t.order in
      Wal.close (Wal.start ~dir:wal_dir ~initial))
    t.wal
