(** Metrics registry: counters, gauges and fixed-bucket histograms.

    Cells are plain mutable records with no locking — lock-free by
    construction because a registry is only ever touched by the domain
    that owns it. Aggregation across registries goes through immutable
    {!snapshot} values: each fleet worker ships a snapshot of its own
    registry and the coordinator {!merge}s them. {!merge} is associative
    and commutative, so the combined result is independent of arrival
    order.

    Update costs: counter/gauge — one float store; histogram — a linear
    scan over a handful of buckets. Cheap enough for the Monte Carlo hot
    loop. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : registry -> ?help:string -> string -> counter
(** Register (or re-open) the named counter. Metric names must match
    [[a-zA-Z0-9_:]+]. Registering an existing name returns the existing
    cell; a kind mismatch raises [Invalid_argument]. *)

val gauge : registry -> ?help:string -> string -> gauge

val histogram : registry -> ?help:string -> buckets:float array -> string -> histogram
(** [buckets] are upper bounds, strictly increasing; an implicit [+Inf]
    overflow bucket is always appended. Re-opening an existing histogram
    with different buckets raises [Invalid_argument]. *)

val inc : counter -> unit
val add : counter -> float -> unit
(** Raises [Invalid_argument] on a negative increment (counters are
    monotone). *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {2 Snapshots and aggregation} *)

type histo_data = {
  buckets : float array;  (** upper bounds, as registered *)
  counts : int array;  (** per-bucket (non-cumulative); last entry is overflow *)
  sum : float;
  count : int;
}

type value = Counter of float | Gauge of float | Histo of histo_data

type snapshot = (string * (string * value)) list
(** [(name, (help, value))], sorted by name. *)

val snapshot : registry -> snapshot
(** An immutable copy of the registry's current state. *)

val find : snapshot -> string -> value option
(** Look up the named metric in a snapshot. Convenience for tests and
    tooling that assert on a single series without walking the whole
    association list. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise combination: counters add, gauges keep the max, histograms
    add element-wise (same buckets required), help strings keep the
    lexicographic max. Associative and commutative. Raises
    [Invalid_argument] on a kind or bucket mismatch for a shared name. *)

val quantile : histo_data -> float -> float
(** Histogram quantile estimate with linear interpolation inside the
    containing bucket (first bucket interpolates from 0). Observations in
    the overflow bucket clamp to the last finite bound. Returns 0 for an
    empty histogram; raises [Invalid_argument] outside [0, 1]. *)

(** {2 Rendering} *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format v0.0.4: [# HELP] / [# TYPE] comments,
    cumulative [le] buckets with a [+Inf] terminator, [_sum] / [_count]
    series. *)

val to_json : snapshot -> string
(** [{"metrics":[{"name":..,"help":..,"type":..,..}]}] — counters/gauges
    carry ["value"], histograms carry ["buckets"], ["counts"] (with the
    overflow last), ["sum"] and ["count"]. *)
