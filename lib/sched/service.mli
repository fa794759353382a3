(** The fleet server's socket service: [faultmc sched] (a [Queue]
    store) and [faultmc serve] (a [Campaign] store) are both this one
    loop over {!Sched}.

    Accepts {!Fmc_dist.Wire} connections, reads a
    v{!Fmc_dist.Protocol.version} Hello whose fingerprint becomes the
    connection's scope — {!Fmc_dist.Protocol.pool_fingerprint} for pool
    workers and control clients, a concrete campaign fingerprint for
    single-campaign workers and report fetchers — admits it through
    {!Sched.hello}, and serves {!Sched} over it, one handler thread per
    connection, every scheduler call behind one mutex. Admission,
    leasing, breakers, the worker floor and the exit rules are all
    {!Sched}'s; this module only moves frames.

    SIGTERM/SIGINT (when [handle_signals]) drain: leasing stops,
    in-flight shards finish and checkpoint, the WAL is compacted, and
    {!serve} returns. The store's own exit rules ({!Sched.tick}) apply
    on the same 0.2 s tick. *)

type config = {
  addr : Fmc_dist.Wire.addr;
  store : Sched.store;
  sched : Sched.config;
  io_deadline_s : float;  (** per-connection read/write deadline *)
  handle_signals : bool;  (** install SIGTERM/SIGINT drain handlers *)
}

val default_config : addr:Fmc_dist.Wire.addr -> Sched.store -> config
(** {!Sched.default_config}, 120 s io deadline, signal handlers on. *)

type stop_reason = Sched.stop_reason = Drained | Idle | Finished

type outcome = {
  sv_reason : stop_reason;
  sv_report : ((int * string) list * Fmc.Campaign.quarantine_entry list * float) option;
      (** a [Campaign] store's {!Sched.report} at exit; [None] for a
          [Queue] store or an unfinished campaign *)
}

type control = { request_drain : unit -> unit }
(** Handed to [on_ready]; lets tests trigger the SIGTERM path without
    signalling the process. *)

(** {2 Fleet view}

    The read-only surface [--http-port] mounts on its scrape endpoint —
    thunks over live server state, each thread-safe and cheap enough to
    call per scrape. Workers that negotiate protocol v4 get trace/span
    ids stamped on every [Job]/[Assign] (pure functions of campaign
    fingerprint and shard) and their piggybacked {!Fmc_obs.Telemetry}
    absorbed into a fleet store; the view exposes the merged metrics and
    the stitched trace. *)

type worker_view = {
  w_name : string;
  w_health : Sched.worker_health option;  (** [None]: known from telemetry only *)
  w_fleet : Fmc_obs.Fleet.worker_info option;  (** [None]: no telemetry absorbed yet *)
}

type view = {
  vw_metrics : unit -> string;
      (** Prometheus text: the server registry merged with every
          worker's latest absorbed snapshot *)
  vw_health : unit -> Sched.health;
  vw_status : unit -> Fmc_dist.Protocol.status_entry list;
      (** every campaign, submission order — the [Status_req ""] answer *)
  vw_workers : unit -> worker_view list;
      (** every worker seen at Hello or by its telemetry, sorted by name *)
  vw_trace_json : unit -> string;
      (** stitched fleet trace: server spans on pid 1, each worker on
          its own track *)
}

val serve :
  ?obs:Fmc_obs.Obs.t ->
  ?on_ready:(control -> unit) ->
  ?on_view:(view -> unit) ->
  config ->
  outcome
(** Blocks until a {!stop_reason}. [on_view] fires once the store is
    open, with the scrape surface above; [on_ready] fires once the
    socket is listening, before the first accept — start clients from
    it, not before. Raises [Failure] when {!Sched.create} does (corrupt
    or foreign campaign checkpoint) or the campaign is abandoned under
    [max_idle_s]. *)
