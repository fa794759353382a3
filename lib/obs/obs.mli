(** The observability handle threaded through the Monte Carlo pipeline.

    A single record bundles the three optional sinks so instrumented code
    takes one [?obs] parameter. {!disabled} is the default everywhere: an
    instrumentation site on the disabled path costs a single branch on an
    option (plus, for spans, the closure the call site builds) — no
    registry lookups, no clock reads. *)

type t = {
  metrics : Metrics.registry option;
  tracer : Span.tracer option;
  progress : Progress.sink option;
}

val disabled : t
(** All sinks off. *)

val create :
  ?metrics:Metrics.registry -> ?tracer:Span.tracer -> ?progress:Progress.sink -> unit -> t

val enabled : t -> bool
(** True if any sink is attached. *)

val span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [Span.with_span] when a tracer is attached, plain [f ()] otherwise. *)

val emit : t -> Progress.point -> unit
(** Push a convergence point to the progress sink, if any. *)
