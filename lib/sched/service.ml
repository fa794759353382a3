(* The fleet server's socket service ([faultmc sched] and
   [faultmc serve]): accept loop, per-connection threads, and the mapping
   between Protocol messages and Sched operations. Every connection
   carries a scope (its Hello fingerprint): pool workers and control
   clients announce Protocol.pool_fingerprint, while campaign-scoped
   connections ([faultmc worker] without --pool, [evaluate --connect],
   [submit --wait]) name one campaign and speak the single-campaign
   message set against it.

   Everything that decides — admission, leasing, breakers, the worker
   floor, the exit rules — lives in Sched; this module only moves bytes,
   holds the one state mutex, and turns Sched's verdicts into frames.

   Shutdown: SIGTERM (or SIGINT, or a test's request_drain) sets the
   drain flag; the tick stops leasing, in-flight shards finish and are
   checkpointed, and once none remain the loop exits, compacts the WAL
   and returns. The tick also applies the store's own exit rules (see
   Sched.tick). *)

module Protocol = Fmc_dist.Protocol
module Wire = Fmc_dist.Wire
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Clock = Fmc_obs.Clock
module Span = Fmc_obs.Span
module Fleet = Fmc_obs.Fleet
module Telemetry = Fmc_obs.Telemetry
module Traceid = Fmc_obs.Traceid

type config = {
  addr : Wire.addr;
  store : Sched.store;
  sched : Sched.config;
  io_deadline_s : float;
  handle_signals : bool;
}

let default_config ~addr store =
  { addr; store; sched = Sched.default_config; io_deadline_s = 120.; handle_signals = true }

type stop_reason = Sched.stop_reason = Drained | Idle | Finished

type outcome = {
  sv_reason : stop_reason;
  sv_report : ((int * string) list * Fmc.Campaign.quarantine_entry list * float) option;
}

type control = { request_drain : unit -> unit }

(* -- fleet view (scrape endpoint surface) -------------------------------- *)

type worker_view = {
  w_name : string;
  w_health : Sched.worker_health option;  (* None: known from telemetry only *)
  w_fleet : Fleet.worker_info option;  (* None: no telemetry absorbed yet *)
}

type view = {
  vw_metrics : unit -> string;
  vw_health : unit -> Sched.health;
  vw_status : unit -> Protocol.status_entry list;
  vw_workers : unit -> worker_view list;
  vw_trace_json : unit -> string;
}

type state = {
  mutex : Mutex.t;
  sched : Sched.t;
  config : config;
  drain_flag : bool Atomic.t;
  connections : Metrics.gauge option;
  draining_g : Metrics.gauge option;
  bytes_sent : Metrics.counter option;
  bytes_received : Metrics.counter option;
  fleet : Fleet.t;  (* absorbed v4 worker telemetry; has its own lock *)
}

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let gset g v = Option.iter (fun g -> Metrics.set g (float_of_int v)) g

exception Done_serving

(* -- message handling (call under the lock) ------------------------------ *)

let complete_reply = function
  | `Accepted -> Protocol.Ack { accepted = true; reason = "" }
  | `Duplicate -> Protocol.Ack { accepted = true; reason = "duplicate" }
  | `Stale -> Protocol.Ack { accepted = false; reason = "stale epoch" }
  | `Unknown -> Protocol.Ack { accepted = false; reason = "unknown shard or campaign" }
  | `Invalid msg -> Protocol.Ack { accepted = false; reason = "undecodable tally: " ^ msg }
  | `Mismatch -> Protocol.Ack { accepted = false; reason = "result digest mismatch" }
  | `Audited reason -> Protocol.Ack { accepted = true; reason }

let heartbeat_reply = function
  | `Ok -> Protocol.Ack { accepted = true; reason = "" }
  | `Stale -> Protocol.Ack { accepted = false; reason = "lease lost" }

let handle_msg st ~scope ~worker ~digest msg =
  let now = Clock.now () in
  let sched = st.sched in
  let pool = scope = Protocol.pool_fingerprint in
  match (msg : Protocol.client_msg) with
  | Protocol.Hello _ -> Protocol.Reject { reason = "duplicate hello" }
  | Protocol.Submit { spec } -> (
      match Sched.submit sched ~now spec with
      | `Queued position ->
          Protocol.Submitted
            { fingerprint = Protocol.spec_fingerprint spec; position; cached = false }
      | `Cached ->
          Protocol.Submitted
            { fingerprint = Protocol.spec_fingerprint spec; position = 0; cached = true }
      | `Rejected retry_after_s ->
          Protocol.Sched_rejected { retry_after_s; reason = "queue full" }
      | `Invalid reason -> Protocol.Reject { reason = "invalid campaign spec: " ^ reason })
  | Protocol.Status_req { fingerprint } -> (
      match Sched.status sched ~now ~fingerprint with
      | [] when fingerprint <> "" -> Protocol.Reject { reason = "unknown campaign" }
      | entries -> Protocol.Status { entries })
  | Protocol.Cancel { fingerprint } -> (
      match Sched.cancel sched ~fingerprint with
      | `Cancelled -> Protocol.Ack { accepted = true; reason = "" }
      | `Already_finished ->
          Protocol.Ack { accepted = false; reason = "already finished (report is cached)" }
      | `Unknown -> Protocol.Ack { accepted = false; reason = "unknown campaign" })
  | Protocol.Request_shard -> (
      match Sched.next_job sched ~now ~worker ~scope with
      | `Job (spec, { Sched.Lease.shard; epoch; start; len }) ->
          if pool then Protocol.Job { spec; shard; epoch; start; len }
          else Protocol.Assign { shard; epoch; start; len }
      | `Wait -> Protocol.No_work { finished = false }
      | `Drained -> Protocol.No_work { finished = true }
      | `Unknown_scope -> Protocol.Reject { reason = "unknown campaign" }
      | `Banned -> Protocol.Reject { reason = "worker quarantined: failed result audit" })
  | Protocol.Heartbeat { shard; epoch; samples_done } ->
      if pool then Protocol.Reject { reason = "pool connections heartbeat with job_heartbeat" }
      else
        heartbeat_reply
          (Sched.heartbeat sched ~now ~fingerprint:scope ~shard ~epoch ~worker ~samples_done)
  | Protocol.Job_heartbeat { fingerprint; shard; epoch; samples_done } ->
      heartbeat_reply (Sched.heartbeat sched ~now ~fingerprint ~shard ~epoch ~worker ~samples_done)
  | Protocol.Shard_done { shard; epoch; tally; quarantined } ->
      if pool then Protocol.Reject { reason = "pool connections complete with job_done" }
      else
        complete_reply
          (Sched.complete sched ~now ~fingerprint:scope ~shard ~epoch ~worker ~digest ~tally
             ~quarantined)
  | Protocol.Job_done { fingerprint; shard; epoch; tally; quarantined } ->
      complete_reply
        (Sched.complete sched ~now ~fingerprint ~shard ~epoch ~worker ~digest ~tally ~quarantined)
  | Protocol.Fetch_report ->
      if pool then Protocol.Reject { reason = "fetch_report needs a campaign-scoped connection" }
      else (
        match Sched.report sched ~fingerprint:scope with
        | Some (shards, quarantined, elapsed_s) ->
            Protocol.Report { shards; quarantined; elapsed_s }
        | None -> (
            match Sched.status sched ~now ~fingerprint:scope with
            | [] -> Protocol.Reject { reason = "unknown campaign" }
            | entries -> Protocol.Status { entries }))
  | Protocol.Goodbye -> raise Done_serving

(* -- per-connection protocol --------------------------------------------- *)

let send ?ext conn msg =
  let tag, payload = Protocol.encode_server_ext ?ext msg in
  Wire.write_frame conn ~tag payload

(* Outside the state mutex; the fleet store has its own lock. A blob
   that does not decode is dropped — telemetry is observation-only. *)
let absorb_telemetry st ~worker (ext : Protocol.extension) =
  match ext.Protocol.ext_telemetry with
  | None -> ()
  | Some blob -> (
      match Telemetry.decode blob with
      | Ok tm -> Fleet.absorb st.fleet ~worker tm
      | Error _ -> ())

(* Trace/span ids stamped on leases handed to v4 peers: pure functions
   of the campaign fingerprint and shard index, so any server of the
   same campaign stamps the same ones. *)
let trace_ext ~fingerprint ~shard =
  {
    Protocol.no_extension with
    Protocol.ext_trace =
      Some (Traceid.trace_id ~fingerprint, Traceid.span_id ~fingerprint ~shard);
  }

(* The first frame must be an accepted-version Hello that Sched.hello
   admits; a handshake Reject is the one refusal a worker does not
   retry, a Retry_later parks it. v1 peers get a v1-framed Reject they
   can decode. [welcomed] is set before the Welcome goes out, so the
   connection is released even if that send fails. *)
let expect_hello st conn ~welcomed =
  let reject reason =
    send conn (Protocol.Reject { reason });
    raise Done_serving
  in
  match Wire.read_frame_raw conn with
  | `Corrupt (tag, raw) -> (
      ignore
        (locked st (fun () ->
             Sched.charge st.sched ~now:(Clock.now ()) ~worker:None ~corrupt:true));
      match Protocol.v1_hello ~tag raw with
      | Some v ->
          let _, payload =
            Protocol.encode_server
              (Protocol.Reject
                 {
                   reason =
                     Printf.sprintf
                       "protocol version %d is no longer supported: this server speaks v%d \
                        (frames carry CRC-32 trailers); upgrade the worker"
                       v Protocol.version;
                 })
          in
          Wire.write_frame_v1 conn ~tag:'X' payload;
          raise Done_serving
      | None -> raise Done_serving)
  | `Ok (tag, payload) -> (
      match Protocol.decode_client tag payload with
      | Ok (Protocol.Hello { version; worker; fingerprint }) -> (
          if not (Protocol.accepts_version version) then
            reject (Printf.sprintf "protocol version %d, want %d" version Protocol.version);
          let admission =
            locked st (fun () ->
                Sched.hello st.sched ~now:(Clock.now ()) ~worker ~scope:fingerprint)
          in
          match admission with
          | `Reject reason -> reject reason
          | `Retry_later cooldown_s ->
              send conn (Protocol.Retry_later { cooldown_s });
              raise Done_serving
          | `Welcome ->
              welcomed := Some worker;
              let negotiated = Protocol.negotiate ~peer:version in
              send conn (Protocol.Welcome { version = negotiated });
              (worker, fingerprint, negotiated))
      | Ok _ | Error _ -> reject "expected hello")

let handle_conn st fd =
  let count c n = locked st (fun () -> Option.iter (fun c -> Metrics.add c (float_of_int n)) c) in
  let conn =
    Wire.conn fd ~deadline_s:st.config.io_deadline_s ~on_sent:(count st.bytes_sent)
      ~on_recv:(count st.bytes_received)
  in
  let welcomed = ref None in
  let finally () =
    Wire.close conn;
    locked st (fun () -> Sched.disconnect st.sched ~worker:!welcomed)
  in
  locked st (fun () -> Sched.connect st.sched);
  Fun.protect ~finally (fun () ->
      try
        let worker, scope, negotiated = expect_hello st conn ~welcomed in
        let rec loop () =
          (match Wire.read_frame_raw conn with
          | `Corrupt _ ->
              (* The content cannot be trusted; charge the worker, tell
                 it to back off and reconnect, then hang up. *)
              let cooldown_s =
                locked st (fun () ->
                    Sched.charge st.sched ~now:(Clock.now ()) ~worker:(Some worker) ~corrupt:true)
              in
              send conn (Protocol.Retry_later { cooldown_s });
              raise Done_serving
          | `Ok (tag, payload) -> (
              match Protocol.decode_client_ext tag payload with
              | Ok (msg, ext) ->
                  if negotiated >= 4 then absorb_telemetry st ~worker ext;
                  (* A worker quarantined mid-session gets a terminal
                     reject instead of service. *)
                  if locked st (fun () -> Sched.is_banned st.sched ~worker) then begin
                    send conn
                      (Protocol.Reject { reason = "worker quarantined: failed result audit" });
                    raise Done_serving
                  end;
                  let reply =
                    locked st (fun () ->
                        handle_msg st ~scope ~worker ~digest:ext.Protocol.ext_digest msg)
                  in
                  let ext =
                    match reply with
                    | Protocol.Job { spec; shard; _ } when negotiated >= 4 ->
                        trace_ext ~fingerprint:(Protocol.spec_fingerprint spec) ~shard
                    | Protocol.Assign { shard; _ } when negotiated >= 4 ->
                        trace_ext ~fingerprint:scope ~shard
                    | _ -> Protocol.no_extension
                  in
                  send ~ext conn reply
              | Error msg ->
                  ignore
                    (locked st (fun () ->
                         Sched.charge st.sched ~now:(Clock.now ()) ~worker:(Some worker)
                           ~corrupt:false));
                  send conn (Protocol.Reject { reason = msg })));
          loop ()
        in
        loop ()
      with
      | Done_serving | Wire.Closed | Wire.Protocol_error _ | Wire.Timeout | Unix.Unix_error _
      | Sys_error _
      ->
        ())

(* -- the fleet view ------------------------------------------------------ *)

let make_view st (obs : Obs.t) =
  let base_snapshot () =
    match obs.Obs.metrics with Some r -> Metrics.snapshot r | None -> []
  in
  let vw_metrics () =
    Metrics.to_prometheus (Fleet.merged_snapshot st.fleet ~base:(base_snapshot ()))
  in
  let vw_health () = locked st (fun () -> Sched.health st.sched ~now:(Clock.now ())) in
  let vw_status () =
    locked st (fun () -> Sched.status st.sched ~now:(Clock.now ()) ~fingerprint:"")
  in
  let vw_workers () =
    (* Every name seen by either channel: a Hello, or absorbed
       telemetry. *)
    let fleet = Fleet.workers st.fleet in
    let known = locked st (fun () -> Sched.workers st.sched ~now:(Clock.now ())) in
    List.sort_uniq compare (List.map fst known @ List.map fst fleet)
    |> List.map (fun w_name ->
           {
             w_name;
             w_health = List.assoc_opt w_name known;
             w_fleet = List.assoc_opt w_name fleet;
           })
  in
  let vw_trace_json () =
    let own_events =
      match obs.Obs.tracer with Some tr -> Span.events tr | None -> []
    in
    Fleet.to_chrome_json ~own_label:"server" ~own_events st.fleet
  in
  { vw_metrics; vw_health; vw_status; vw_workers; vw_trace_json }

(* -- the serve loop ------------------------------------------------------ *)

let install_drain_handlers flag =
  let install s =
    try Some (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set flag true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  List.filter_map install [ Sys.sigterm; Sys.sigint ]

let restore_handlers saved =
  List.iter
    (fun (s, old) -> try Sys.set_signal s old with Invalid_argument _ | Sys_error _ -> ())
    saved

let serve ?(obs = Obs.disabled) ?(on_ready = fun (_ : control) -> ()) ?on_view (config : config) =
  let sched = Sched.create ~obs config.sched config.store ~now:(Clock.now ()) in
  let reg = obs.Obs.metrics in
  let g help name = Option.map (fun r -> Metrics.gauge r ~help name) reg in
  let c help name = Option.map (fun r -> Metrics.counter r ~help name) reg in
  let st =
    {
      mutex = Mutex.create ();
      sched;
      config;
      drain_flag = Atomic.make false;
      connections = g "live server connections" "fmc_sched_connections";
      draining_g = g "1 while draining after SIGTERM" "fmc_sched_draining";
      bytes_sent = c "protocol bytes sent" "fmc_dist_bytes_sent_total";
      bytes_received = c "protocol bytes received" "fmc_dist_bytes_received_total";
      fleet = Fleet.create ();
    }
  in
  Option.iter (fun f -> f (make_view st obs)) on_view;
  let saved = if config.handle_signals then install_drain_handlers st.drain_flag else [] in
  let sock = Wire.listen config.addr in
  let finally () =
    restore_handlers saved;
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (match config.addr with
    | Wire.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> ());
    locked st (fun () -> Sched.shutdown st.sched)
  in
  Fun.protect ~finally (fun () ->
      on_ready { request_drain = (fun () -> Atomic.set st.drain_flag true) };
      let reason =
        Obs.span obs ~cat:"sched" "serve" (fun () ->
            let rec run () =
              let readable, _, _ =
                try Unix.select [ sock ] [] [] 0.2
                with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
              in
              (match readable with
              | [ _ ] ->
                  let fd, _ = Unix.accept sock in
                  ignore (Thread.create (fun () -> handle_conn st fd) ())
              | _ -> ());
              let verdict =
                locked st (fun () ->
                    if Atomic.get st.drain_flag then begin
                      Sched.drain st.sched;
                      gset st.draining_g 1
                    end;
                    let now = Clock.now () in
                    gset st.connections (Sched.health st.sched ~now).Sched.h_connected;
                    Sched.tick st.sched ~now)
              in
              match verdict with
              | `Serve -> run ()
              | `Stop reason -> reason
              | `Abandoned msg -> failwith msg
            in
            run ())
      in
      let sv_report =
        match config.store with
        | Sched.Queue _ -> None
        | Sched.Campaign { spec; _ } ->
            locked st (fun () ->
                Sched.report st.sched ~fingerprint:(Fmc_dist.Protocol.spec_fingerprint spec))
      in
      { sv_reason = reason; sv_report })
