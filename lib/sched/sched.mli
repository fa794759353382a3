(** The fleet server's core (DESIGN.md §12): campaigns keyed by
    fingerprint, per-campaign lease tables, round-robin shard dispatch,
    result auditing, per-worker circuit breakers, the worker floor, the
    exit rules, and report caching by campaign fingerprint. Both
    [faultmc sched] and [faultmc serve] run on it; they differ only in
    their {!store}.

    A [Queue dir] store is the durable submission queue: [<dir>/wal/]
    holds the {!Wal} segments (submit/finished/parked/cancelled/
    quarantined, all idempotent), [<dir>/campaigns/<md5>.ckpt] the
    per-campaign {!Fmc_dist.Ckpt} progress written after every accepted
    shard. {!create} recovers both after [kill -9]: the WAL replay
    rebuilds the queue in submission order (counted on
    [fmc_sched_recoveries_total]), checkpoints reattach finished
    shards, and the log is compacted to a fresh tear-free segment.

    A [Campaign] store holds one campaign fixed at start and writes no
    WAL; its only durable state is the optional checkpoint file, which
    also records quarantined workers.

    Like {!Fmc_dist.Lease}, nothing here reads the wall clock ([now] is
    always injected) and nothing takes locks — the {!Service} feeds
    connection events in and wraps every call in its mutex. *)

open Fmc
module Protocol = Fmc_dist.Protocol
module Lease = Fmc_dist.Lease

type config = {
  queue_depth : int;
      (** max campaigns queued or running before submissions are
          rejected; 0 disables admission control *)
  ttl_s : float;  (** shard lease lifetime without a heartbeat *)
  wall_budget_s : float;
      (** a campaign running (wall clock since its first lease) longer
          than this is parked — it stops consuming the pool but the
          server lives on; 0 disables *)
  retry_after_s : float;  (** resubmission hint carried by rejections *)
  rate_halflife_s : float;  (** pool-throughput EWMA window ({!Fmc_obs.Rate}) *)
  audit_rate : float;
      (** fraction of accepted shards re-executed on a different worker
          and digest-compared ({!Fmc_audit.Audit}, DESIGN.md §16).
          Selection is a pure function of each campaign's
          fingerprint-derived seed — restart-stable across [kill -9].
          0 disables and keeps checkpoints byte-identical to v2. *)
  breaker : Fmc_dist.Breaker.config;
      (** per-worker circuit breaker: corrupt frames, undecodable
          messages, digest mismatches and heartbeat-gap lease expiries
          count as failures; an open breaker parks the worker at
          {!hello} *)
  require_workers : int;
      (** minimum healthy connected workers (live connection, breaker
          not open) before shards are leased; below it {!next_job}
          answers [`Wait] and [fmc_dist_leasing_paused] reads 1. 0
          disables the floor. *)
  linger_s : float;
      (** [Campaign] store: keep serving report fetches this long after
          the report went final (see {!tick}) *)
  max_idle_s : float;
      (** [Queue] store: exit once nothing is queued or running and no
          request arrived for this long. [Campaign] store: give up once
          the campaign is unfinished and no connection has been open for
          this long. 0 disables either. *)
}

val default_config : config
(** depth 16, ttl 30s, no wall budget, retry-after 5s, 30s half-life,
    audit off, {!Fmc_dist.Breaker.default_config}, no worker floor,
    linger 5s, no idle limit. *)

type store =
  | Queue of string  (** the state directory: WAL plus campaign checkpoints *)
  | Campaign of { spec : Protocol.spec; checkpoint : string option }
      (** one campaign loaded at start; an existing [checkpoint] is
          resumed *)

type t

val create : ?obs:Fmc_obs.Obs.t -> config -> store -> now:float -> t
(** Open the store: for [Queue dir], create the directory if needed,
    replay + compact the WAL, and reattach campaign checkpoints (an
    unreadable one just re-runs its campaign); for [Campaign], load the
    checkpoint if it exists. Under [obs], registers the [fmc_sched_*],
    [fmc_dist_*] and [fmc_audit_*] series. Raises [Failure] on a
    [Campaign] checkpoint that is corrupt or belongs to another
    campaign, and [Invalid_argument] on a non-positive ttl, an
    [audit_rate] outside [0,1], a negative [require_workers] or an
    invalid [Campaign] spec. *)

(** {2 Connections} *)

val connect : t -> unit
(** A connection opened (before its Hello). *)

val hello :
  t ->
  now:float ->
  worker:string ->
  scope:string ->
  [ `Welcome | `Reject of string  (** terminal *) | `Retry_later of float  (** parked *) ]
(** The one admission rule. [scope] (the Hello fingerprint) must be
    {!Protocol.pool_fingerprint} or name a campaign this server holds;
    a quarantined [worker] is refused; a worker behind an open breaker
    is parked for the returned cooldown. [`Welcome] counts a live
    connection for [worker] until {!disconnect}. *)

val disconnect : t -> worker:string option -> unit
(** A connection closed; [worker] is its welcomed Hello name, if any. *)

val charge : t -> now:float -> worker:string option -> corrupt:bool -> float
(** A transport fault on a connection: a frame that failed its checks
    ([corrupt], counted on [fmc_dist_frames_corrupt_total]) or a message
    that did not decode. Charged to the worker's breaker when known;
    returns the cooldown a [Retry_later] should advertise. *)

(** {2 Campaigns} *)

val submit :
  t ->
  now:float ->
  Protocol.spec ->
  [ `Queued of int  (** accepted (or already queued) at this position *)
  | `Cached  (** finished earlier — the report is ready to fetch *)
  | `Rejected of float  (** queue full; retry after this many seconds *)
  | `Invalid of string  (** malformed spec (non-positive samples/shard) *) ]

val cancel : t -> fingerprint:string -> [ `Cancelled | `Already_finished | `Unknown ]
(** Cancelled campaigns stop receiving leases and drop in-flight results;
    resubmitting the same spec revives them from scratch. *)

val next_job :
  t ->
  now:float ->
  worker:string ->
  scope:string ->
  [ `Job of Protocol.spec * Lease.assignment
  | `Wait  (** nothing leasable right now (or below the worker floor) — poll again *)
  | `Drained  (** stop asking: draining, or the scoped campaign is done *)
  | `Unknown_scope  (** concrete scope names a campaign never submitted *)
  | `Banned  (** the worker is quarantined: refuse it permanently *) ]
(** [scope] is the connection's Hello fingerprint:
    {!Protocol.pool_fingerprint} draws round-robin from every active
    campaign (expiring overdue leases on the way); a concrete
    fingerprint serves only that campaign, which is how
    [faultmc worker] processes without [--pool] work. With
    [audit_rate] > 0, a campaign whose shards are all done may still
    hand out audit re-executions (under fresh lease epochs). *)

val is_banned : t -> worker:string -> bool
(** Quarantined by an audit verdict (or three digest mismatches) —
    durable across restarts via the WAL or the campaign checkpoint. *)

val heartbeat :
  t ->
  now:float ->
  fingerprint:string ->
  shard:int ->
  epoch:int ->
  worker:string ->
  samples_done:int ->
  [ `Ok | `Stale ]
(** A live heartbeat also closes the worker's breaker and feeds its
    samples/s estimate. *)

val complete :
  t ->
  now:float ->
  fingerprint:string ->
  shard:int ->
  epoch:int ->
  worker:string ->
  digest:string option ->
  tally:string ->
  quarantined:Campaign.quarantine_entry list ->
  [ `Accepted
  | `Duplicate
  | `Stale
  | `Unknown
  | `Invalid of string
  | `Mismatch  (** the carried digest disagrees with the payload *)
  | `Audited of string  (** an audit re-execution landed (reason text) *) ]
(** [`Accepted] persists the campaign checkpoint before returning and
    finalizes the campaign (WAL "finished" record, report cached) when
    it was the last shard and no audit is pending. [`Invalid]: the tally
    blob does not decode — refused without consuming the shard's one
    completion. [digest] is the v5 extension's carried digest (if any);
    it is always recomputed server-side, and a disagreement is a
    [`Mismatch] strike against [worker] (three strikes quarantine it).
    Completions under an audit epoch settle the audit instead of the
    lease; a quorum verdict quarantines the minority worker and
    invalidates its unvindicated shards across every active campaign. *)

val report :
  t ->
  fingerprint:string ->
  ((int * string) list * Campaign.quarantine_entry list * float) option
(** The finished campaign's (shard blobs ascending, quarantine log by
    sample index, first-lease-to-finish seconds); [None] until
    finished. *)

val status : t -> now:float -> fingerprint:string -> Protocol.status_entry list
(** [""] lists every campaign in submission order; a concrete
    fingerprint yields one entry, or [] if unknown. ETAs combine the
    pool {!Fmc_obs.Rate} with the backlog queued ahead. *)

(** {2 Fleet view} *)

type health = {
  h_finished : bool;  (** nothing queued or running *)
  h_draining : bool;
  h_queue_depth : int;  (** campaigns queued or running *)
  h_shards_done : int;  (** across every campaign *)
  h_shards_total : int;
  h_in_flight : int;  (** live shard leases across active campaigns *)
  h_connected : int;  (** open connections (any state) *)
  h_healthy_workers : int;  (** connected workers without an open breaker *)
  h_breakers_open : int;
  h_leasing_paused : bool;  (** below the [require_workers] floor *)
  h_audits_pending : int;  (** audit re-executions due or in flight *)
  h_quarantined_workers : int;
  h_wal_torn : int;  (** torn WAL tails detected at startup *)
}

val health : t -> now:float -> health

type worker_health = {
  wh_breaker : Fmc_dist.Breaker.state;
  wh_connections : int;  (** live post-Hello connections *)
  wh_rate : float;  (** samples/s from heartbeat deltas; 0 before the second *)
  wh_quarantined : bool;
  wh_mismatches : int;  (** digest mismatches charged to this worker *)
}

val workers : t -> now:float -> (string * worker_health) list
(** Every worker name seen at Hello, sorted. *)

(** {2 Lifecycle} *)

type stop_reason =
  | Drained  (** {!drain} requested and no lease left in flight *)
  | Idle  (** [Queue]: idle past [max_idle_s] *)
  | Finished  (** [Campaign]: the report is final and [linger_s] is over *)

val tick :
  t -> now:float -> [ `Serve | `Stop of stop_reason | `Abandoned of string ]
(** The service's periodic step: expire overdue leases and audits, park
    campaigns over their wall budget, refresh gauges, and apply the
    exit rules. A [Campaign] store stops [linger_s] after the report
    went final once no connection is open, or at [4 * linger_s]
    regardless; it is [`Abandoned] (with a one-line reason) once the
    campaign is unfinished and nothing has been connected for
    [max_idle_s]. *)

val drain : t -> unit
(** Stop issuing leases ({!next_job} answers [`Drained]); in-flight
    shards still heartbeat and complete, and {!tick} stops once none
    remain. *)

val shutdown : t -> unit
(** Flush and compact the WAL (if any) to a single segment of the final
    state. *)
