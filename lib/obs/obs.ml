type t = {
  metrics : Metrics.registry option;
  tracer : Span.tracer option;
  progress : Progress.sink option;
}

let disabled = { metrics = None; tracer = None; progress = None }
let create ?metrics ?tracer ?progress () = { metrics; tracer; progress }

(* [progress] holds a closure: Option.is_some, never structural compare. *)
let enabled t = Option.is_some t.metrics || Option.is_some t.tracer || Option.is_some t.progress

let span t ?cat name f =
  match t.tracer with None -> f () | Some tr -> Span.with_span tr ?cat name f

let emit t p = match t.progress with None -> () | Some sink -> sink p
