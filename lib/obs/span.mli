(** Span-based tracing into a fixed-capacity ring buffer, exportable as
    Chrome [trace_event] JSON (loadable in Perfetto / [chrome://tracing]).

    A tracer is single-domain like a metrics registry; tracers that share
    one output use distinct [tid]s. The ring keeps the most recent [capacity]
    spans; per-name aggregate totals are maintained independently, so
    phase timing summaries stay exact even after the ring wraps. *)

type tracer

type event = {
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ev_ts_us : float;  (** start, microseconds (see {!Clock.now_us}) *)
  ev_dur_us : float;
}

val create : ?capacity:int -> ?tid:int -> unit -> tracer
(** Default capacity 65536 events, tid 0. Raises [Invalid_argument] on a
    non-positive capacity. *)

val tid : tracer -> int

val with_span : tracer -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** Time [f] and record a completed span (category default ["fmc"]). The
    span is recorded whether [f] returns or raises — a crashed sample
    still shows where its time went. *)

val recorded : tracer -> int
(** Total spans ever recorded (including ones the ring has dropped). *)

val dropped : tracer -> int

val events : tracer -> event list
(** The surviving spans, oldest first. *)

val totals : tracer -> (string * (int * float)) list
(** Per span name: (occurrences, total duration in µs), sorted by name;
    exact over the tracer's whole lifetime regardless of ring wraps. *)

val to_chrome_json : event list -> string
(** The Chrome trace_event "JSON object format": complete ([ph:"X"])
    events with µs timestamps, [pid] 1 and the recording tracer's [tid]. *)
