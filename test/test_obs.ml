(* Tests for the Fmc_obs observability library: histogram semantics and
   quantiles, snapshot merge algebra (incl. qcheck associativity /
   commutativity), span ring-buffer behavior, and well-formedness of the
   Prometheus / JSON / Chrome-trace renderings. *)

module Metrics = Fmc_obs.Metrics
module Span = Fmc_obs.Span
module Progress = Fmc_obs.Progress
module Obs = Fmc_obs.Obs
module Clock = Fmc_obs.Clock

let exact = Alcotest.(check (float 0.))

(* ------------------------------------------------------------------ *)
(* A minimal JSON syntax checker: enough to certify the emitted strings
   are parseable JSON without pulling in a JSON library. Returns the
   value's end position or raises [Failure]. *)

let check_json s =
  let n = String.length s in
  let fail i msg = failwith (Printf.sprintf "json error at %d: %s" i msg) in
  let rec skip_ws i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then skip_ws (i + 1) else i in
  let rec value i =
    let i = skip_ws i in
    if i >= n then fail i "eof"
    else
      match s.[i] with
      | '{' -> obj (skip_ws (i + 1)) true
      | '[' -> arr (skip_ws (i + 1)) true
      | '"' -> string_lit (i + 1)
      | 't' -> lit i "true"
      | 'f' -> lit i "false"
      | 'n' -> lit i "null"
      | '-' | '0' .. '9' -> number i
      | c -> fail i (Printf.sprintf "unexpected %C" c)
  and lit i l =
    if i + String.length l <= n && String.sub s i (String.length l) = l then i + String.length l
    else fail i ("expected " ^ l)
  and number i =
    let j = ref (if s.[i] = '-' then i + 1 else i) in
    let digits k = let k0 = !j in (j := k); while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j = k0 && false then () else if !j = k then fail k "digit expected"
    in
    digits !j;
    if !j < n && s.[!j] = '.' then (incr j; digits !j);
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      incr j;
      if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
      digits !j
    end;
    !j
  and string_lit i =
    if i >= n then fail i "unterminated string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= n then fail i "dangling escape"
          else (
            match s.[i + 1] with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> string_lit (i + 2)
            | 'u' ->
                if i + 5 < n then string_lit (i + 6) else fail i "short \\u escape"
            | c -> fail i (Printf.sprintf "bad escape %C" c))
      | c when Char.code c < 0x20 -> fail i "raw control char in string"
      | _ -> string_lit (i + 1)
  and obj i first =
    if i < n && s.[i] = '}' then i + 1
    else begin
      let i = if first then i else skip_ws i in
      if i >= n || s.[i] <> '"' then fail i "object key expected";
      let i = skip_ws (string_lit (i + 1)) in
      if i >= n || s.[i] <> ':' then fail i "colon expected";
      let i = skip_ws (value (i + 1)) in
      if i < n && s.[i] = ',' then obj (skip_ws (i + 1)) false
      else if i < n && s.[i] = '}' then i + 1
      else fail i "comma or } expected"
    end
  and arr i first =
    if i < n && s.[i] = ']' then i + 1
    else begin
      let i = skip_ws (if first then i else i) in
      let i = skip_ws (value i) in
      if i < n && s.[i] = ',' then arr (skip_ws (i + 1)) false
      else if i < n && s.[i] = ']' then i + 1
      else fail i "comma or ] expected"
    end
  in
  let last = skip_ws (value 0) in
  if last <> n then failwith (Printf.sprintf "trailing garbage at %d" last)

let valid_json what s =
  match check_json s with
  | () -> ()
  | exception Failure msg -> Alcotest.failf "%s is not valid JSON (%s): %s" what msg s

(* ------------------------------------------------------------------ *)
(* Histograms. *)

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 10.; 20.; 30. |] "h" in
  (* Upper bounds are inclusive: an observation equal to a bound lands in
     that bucket, one just above spills into the next. *)
  List.iter (Metrics.observe h) [ 10.; 10.0000001; 20.; 30.; 31.; 1e9 ];
  match Metrics.snapshot reg with
  | [ ("h", (_, Metrics.Histo d)) ] ->
      Alcotest.(check (array int)) "per-bucket counts" [| 1; 2; 1; 2 |] d.Metrics.counts;
      Alcotest.(check int) "count" 6 d.Metrics.count;
      exact "sum" (10. +. 10.0000001 +. 20. +. 30. +. 31. +. 1e9) d.Metrics.sum
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_histogram_quantile () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 10.; 20.; 30. |] "h" in
  for v = 1 to 30 do
    Metrics.observe h (float_of_int v)
  done;
  let d =
    match Metrics.snapshot reg with
    | [ ("h", (_, Metrics.Histo d)) ] -> d
    | _ -> Alcotest.fail "unexpected snapshot shape"
  in
  (* Uniform mass over (0, 30]: the interpolated median is 15, the first
     decile 3, the maximum the last bound. *)
  Alcotest.(check (float 1e-9)) "median" 15. (Metrics.quantile d 0.5);
  Alcotest.(check (float 1e-9)) "q10" 3. (Metrics.quantile d 0.1);
  Alcotest.(check (float 1e-9)) "q100" 30. (Metrics.quantile d 1.);
  (* Overflow observations clamp to the last finite bound. *)
  Metrics.observe h 1e12;
  let d =
    match Metrics.snapshot reg with
    | [ ("h", (_, Metrics.Histo d)) ] -> d
    | _ -> assert false
  in
  Alcotest.(check (float 1e-9)) "overflow clamps" 30. (Metrics.quantile d 1.);
  exact "empty histogram" 0.
    (Metrics.quantile { Metrics.buckets = [| 1. |]; counts = [| 0; 0 |]; sum = 0.; count = 0 } 0.5);
  Alcotest.(check bool) "out-of-range q raises" true
    (try
       ignore (Metrics.quantile d 1.5);
       false
     with Invalid_argument _ -> true)

let test_registry_guards () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  Alcotest.(check bool) "negative add raises" true
    (try
       Metrics.add c (-1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad name raises" true
    (try
       ignore (Metrics.counter reg "bad name");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore (Metrics.gauge reg "c");
       false
     with Invalid_argument _ -> true);
  ignore (Metrics.histogram reg ~buckets:[| 1.; 2. |] "h");
  Alcotest.(check bool) "bucket mismatch raises" true
    (try
       ignore (Metrics.histogram reg ~buckets:[| 1.; 3. |] "h");
       false
     with Invalid_argument _ -> true);
  (* Idempotent re-registration returns the same cell. *)
  Metrics.inc c;
  Metrics.inc (Metrics.counter reg "c");
  match List.assoc_opt "c" (Metrics.snapshot reg) with
  | Some (_, Metrics.Counter v) -> exact "shared cell" 2. v
  | _ -> Alcotest.fail "counter missing"

(* ------------------------------------------------------------------ *)
(* Merge algebra across simulated worker snapshots. *)

let worker_snapshot ~samples ~gauge_v ~obs =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"samples" "fmc_samples_total" in
  let g = Metrics.gauge reg "fmc_ssf_estimate" in
  let h = Metrics.histogram reg ~buckets:[| 1.; 10. |] "fmc_is_weight" in
  for _ = 1 to samples do
    Metrics.inc c
  done;
  Metrics.set g gauge_v;
  List.iter (Metrics.observe h) obs;
  Metrics.snapshot reg

let test_merge_workers () =
  let a = worker_snapshot ~samples:120 ~gauge_v:0.25 ~obs:[ 0.5; 5.; 50. ] in
  let b = worker_snapshot ~samples:80 ~gauge_v:0.75 ~obs:[ 0.1; 0.2 ] in
  let m = Metrics.merge a b in
  (match List.assoc_opt "fmc_samples_total" m with
  | Some (help, Metrics.Counter v) ->
      exact "counters sum" 200. v;
      Alcotest.(check string) "help survives" "samples" help
  | _ -> Alcotest.fail "counter lost");
  (match List.assoc_opt "fmc_ssf_estimate" m with
  | Some (_, Metrics.Gauge v) -> exact "gauges keep max" 0.75 v
  | _ -> Alcotest.fail "gauge lost");
  (match List.assoc_opt "fmc_is_weight" m with
  | Some (_, Metrics.Histo d) ->
      Alcotest.(check (array int)) "histograms add element-wise" [| 3; 1; 1 |] d.Metrics.counts;
      Alcotest.(check int) "count" 5 d.Metrics.count
  | _ -> Alcotest.fail "histogram lost");
  (* Disjoint names are kept from both sides. *)
  let only = worker_snapshot ~samples:1 ~gauge_v:0. ~obs:[] in
  let extra_reg = Metrics.create () in
  ignore (Metrics.counter extra_reg "zz_extra");
  let m2 = Metrics.merge only (Metrics.snapshot extra_reg) in
  Alcotest.(check int) "union of names" 4 (List.length m2)

let small_snapshot_gen =
  (* A fixed name universe with a fixed kind per name (so any two
     generated snapshots are merge-compatible), each name optionally
     present (exercising the disjoint-name paths). Small-integer floats
     keep FP addition exact, so associativity holds bitwise, not just
     approximately. *)
  QCheck.Gen.(
    let counter v = ("alpha", ("", Metrics.Counter (float_of_int v))) in
    let gauge v = ("beta", ("", Metrics.Gauge (float_of_int v))) in
    let histo (a, b) =
      ( "gamma",
        ( "",
          Metrics.Histo
            {
              Metrics.buckets = [| 1.; 2. |];
              counts = [| a; b; 0 |];
              sum = float_of_int (a + b);
              count = a + b;
            } ) )
    in
    map3
      (fun c g h -> List.filter_map Fun.id [ c; g; h ])
      (opt (map counter (int_bound 50)))
      (opt (map gauge (int_bound 50)))
      (opt (map histo (pair (int_bound 20) (int_bound 20)))))

let qcheck_merge_assoc_comm =
  let gen =
    QCheck.make
      ~print:(fun (a, b, c) ->
        Printf.sprintf "%s / %s / %s" (Metrics.to_json a) (Metrics.to_json b) (Metrics.to_json c))
      QCheck.Gen.(triple small_snapshot_gen small_snapshot_gen small_snapshot_gen)
  in
  QCheck.Test.make ~name:"merge is associative and commutative" ~count:500 gen (fun (a, b, c) ->
      Metrics.merge a (Metrics.merge b c) = Metrics.merge (Metrics.merge a b) c
      && Metrics.merge a b = Metrics.merge b a)

(* ------------------------------------------------------------------ *)
(* Spans and the trace export. *)

let with_fake_clock f =
  let t = ref 1000. in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:(fun () -> Clock.set_source Unix.gettimeofday) (fun () -> f t)

let test_span_ring () =
  with_fake_clock @@ fun t ->
  let tr = Span.create ~capacity:4 ~tid:3 () in
  for i = 1 to 10 do
    Span.with_span tr (Printf.sprintf "s%d" i) (fun () -> t := !t +. 0.001)
  done;
  Alcotest.(check int) "recorded" 10 (Span.recorded tr);
  Alcotest.(check int) "dropped" 6 (Span.dropped tr);
  let evs = Span.events tr in
  Alcotest.(check (list string)) "ring keeps the most recent, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ]
    (List.map (fun e -> e.Span.ev_name) evs);
  Alcotest.(check bool) "timestamps ascend" true
    (let ts = List.map (fun e -> e.Span.ev_ts_us) evs in
     List.sort compare ts = ts);
  (* Aggregate totals are exact despite the wrap. *)
  Alcotest.(check int) "totals count all spans" 10
    (List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 (Span.totals tr));
  (* A raising span is still recorded. *)
  (try Span.with_span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "raised span recorded" 11 (Span.recorded tr)

let test_trace_json () =
  with_fake_clock @@ fun t ->
  let tr = Span.create ~tid:2 () in
  Span.with_span tr ~cat:"engine" "restore" (fun () -> t := !t +. 0.000123);
  Span.with_span tr "needs \"escaping\"\n" (fun () -> ());
  let json = Span.to_chrome_json (Span.events tr) in
  valid_json "chrome trace" json;
  Alcotest.(check bool) "has displayTimeUnit" true
    (String.length json > 20 && String.sub json 0 20 = "{\"displayTimeUnit\":\"");
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "complete events" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "tid carried" true (contains "\"tid\":2");
  Alcotest.(check bool) "duration in us" true (contains "\"dur\":123.000")

(* ------------------------------------------------------------------ *)
(* Renderings and the Obs handle. *)

let test_prometheus_format () =
  let snap = worker_snapshot ~samples:3 ~gauge_v:0.5 ~obs:[ 0.5; 5.; 50. ] in
  let text = Metrics.to_prometheus snap in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  Alcotest.(check bool) "help" true (has "# HELP fmc_samples_total samples");
  Alcotest.(check bool) "type counter" true (has "# TYPE fmc_samples_total counter");
  Alcotest.(check bool) "counter value" true (has "fmc_samples_total 3");
  Alcotest.(check bool) "type histogram" true (has "# TYPE fmc_is_weight histogram");
  (* Buckets are cumulative and terminated by +Inf. *)
  Alcotest.(check bool) "le=1" true (has "fmc_is_weight_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "le=10 cumulative" true (has "fmc_is_weight_bucket{le=\"10\"} 2");
  Alcotest.(check bool) "+Inf total" true (has "fmc_is_weight_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "count series" true (has "fmc_is_weight_count 3");
  valid_json "metrics json" (Metrics.to_json snap)

let test_progress_jsonl () =
  let p =
    {
      Progress.n = 50;
      total = 400;
      estimate = 0.031;
      half_width = 0.012;
      ess = 42.5;
      accept_rate = 0.99;
      quarantine_rate = 0.01;
      samples_per_sec = 1234.5;
      elapsed_s = 0.04;
    }
  in
  let line = Progress.to_jsonl p in
  valid_json "progress point" line;
  List.iter
    (fun key ->
      let sub = "\"" ^ key ^ "\":" in
      let n = String.length sub and m = String.length line in
      let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
      Alcotest.(check bool) (key ^ " present") true (go 0))
    [ "n"; "total"; "ssf"; "ci_half_width"; "ess"; "accept_rate"; "quarantine_rate";
      "samples_per_sec"; "elapsed_s" ]

let test_obs_handle () =
  Alcotest.(check bool) "disabled is disabled" false (Obs.enabled Obs.disabled);
  exact "span passthrough" 42. (Obs.span Obs.disabled "x" (fun () -> 42.));
  let tracer = Span.create ~capacity:8 () in
  let obs = Obs.create ~tracer () in
  Alcotest.(check bool) "a tracer enables" true (Obs.enabled obs);
  Obs.span obs "s" (fun () -> ());
  Alcotest.(check int) "span recorded" 1 (List.length (Span.events tracer))

(* ------------------------------------------------------------------ *)
(* Fleet observability (ISSUE 8): deterministic trace ids, the telemetry
   wire codec, the embedded scrape endpoint, and cross-process trace
   stitching. *)

module Traceid = Fmc_obs.Traceid
module Telemetry = Fmc_obs.Telemetry
module Fleet = Fmc_obs.Fleet
module Httpd = Fmc_obs.Httpd

let contains_sub hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let test_traceid () =
  let fp = "v3 mixed illegal_write n=5000 seed=42 shard=1000 budget=-" in
  let t1 = Traceid.trace_id ~fingerprint:fp in
  Alcotest.(check string) "trace id is a pure function" t1 (Traceid.trace_id ~fingerprint:fp);
  Alcotest.(check int) "32 chars" 32 (String.length t1);
  Alcotest.(check bool) "valid" true (Traceid.valid_trace_id t1);
  Alcotest.(check bool) "campaigns differ" true (t1 <> Traceid.trace_id ~fingerprint:(fp ^ "x"));
  let s0 = Traceid.span_id ~fingerprint:fp ~shard:0 in
  let s1 = Traceid.span_id ~fingerprint:fp ~shard:1 in
  Alcotest.(check bool) "span ids valid" true
    (Traceid.valid_span_id s0 && Traceid.valid_span_id s1);
  Alcotest.(check bool) "shards differ" true (s0 <> s1);
  (* Stability across restarts: the id depends on nothing but the
     arguments, so a resumed campaign re-issues the same ids. *)
  Alcotest.(check string) "span id stable" s0 (Traceid.span_id ~fingerprint:fp ~shard:0);
  Alcotest.(check bool) "span id is not trace-id shaped" false (Traceid.valid_trace_id s0);
  Alcotest.(check bool) "negative shard raises" true
    (try
       ignore (Traceid.span_id ~fingerprint:fp ~shard:(-1));
       false
     with Invalid_argument _ -> true)

let test_telemetry_roundtrip () =
  with_fake_clock @@ fun t ->
  t := 1234.5678;
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg ~help:"wire bytes" "fmc_dist_bytes_total") 17.25;
  (* 0.1 has no finite binary expansion — %h must round-trip it bit-exactly. *)
  Metrics.set (Metrics.gauge reg "fmc_worker_rate") 0.1;
  let h = Metrics.histogram reg ~buckets:[| 0.001; 0.1; 1. |] "fmc_shard_seconds" in
  List.iter (Metrics.observe h) [ 0.0005; 0.25; 3.5 ];
  let ev =
    {
      Span.ev_name = "shard 3 \"odd\"\nname %";
      ev_cat = "dist";
      ev_tid = 7;
      ev_ts_us = 123.456789;
      ev_dur_us = 0.1 +. 0.2;
    }
  in
  let batch =
    Telemetry.make
      ~trace_id:(Traceid.trace_id ~fingerprint:"fp")
      ~metrics:(Metrics.snapshot reg)
      ~spans:
        [ { Telemetry.ss_span_id = Traceid.span_id ~fingerprint:"fp" ~shard:3; ss_event = ev } ]
      ()
  in
  let blob = Telemetry.encode batch in
  (match Telemetry.decode blob with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok got -> Alcotest.(check bool) "bit-exact roundtrip" true (got = batch));
  Alcotest.(check bool) "empty batch roundtrips" true
    (match Telemetry.decode (Telemetry.encode (Telemetry.make ())) with
    | Ok _ -> true
    | Error _ -> false);
  Alcotest.(check bool) "garbage is an Error, not an exception" true
    (match Telemetry.decode "not a batch\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "truncation is an Error" true
    (match Telemetry.decode (String.sub blob 0 (String.length blob / 2)) with
    | Error _ -> true
    | Ok _ -> false)

let test_httpd_parse () =
  let ok line m p =
    match Httpd.parse_request line with
    | Ok (m', p') ->
        Alcotest.(check string) (line ^ " method") m m';
        Alcotest.(check string) (line ^ " path") p p'
    | Error e -> Alcotest.failf "%s: unexpected parse error %s" line e
  in
  ok "GET /metrics HTTP/1.0" "GET" "/metrics";
  ok "HEAD /healthz HTTP/1.1" "HEAD" "/healthz";
  ok "GET /campaigns?verbose=1&x=2 HTTP/1.1" "GET" "/campaigns";
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" line) true
        (match Httpd.parse_request line with Error _ -> true | Ok _ -> false))
    [ ""; "GET"; "/metrics" ]

let test_httpd_server () =
  let reg = Metrics.create () in
  Metrics.inc (Metrics.counter reg ~help:"requests" "fmc_test_requests_total");
  let routes =
    [
      ("/ping", fun () -> Httpd.text "pong");
      ("/metrics", fun () -> Httpd.text (Metrics.to_prometheus (Metrics.snapshot reg)));
      ("/boom", fun () -> failwith "handler exploded");
    ]
  in
  let srv = Httpd.start ~bind_addr:"127.0.0.1" ~port:0 ~routes () in
  Fun.protect ~finally:(fun () -> Httpd.stop srv) @@ fun () ->
  let port = Httpd.port srv in
  Alcotest.(check bool) "ephemeral port bound" true (port > 0);
  let get path = Httpd.get ~host:"127.0.0.1" ~port ~path () in
  (match get "/ping" with
  | Ok (200, "pong") -> ()
  | Ok (st, body) -> Alcotest.failf "/ping: HTTP %d %S" st body
  | Error e -> Alcotest.failf "/ping: %s" e);
  (match get "/nope" with
  | Ok (404, _) -> ()
  | Ok (st, _) -> Alcotest.failf "expected 404, got %d" st
  | Error e -> Alcotest.failf "/nope: %s" e);
  (* A raising handler is a 500, never a dead server. *)
  (match get "/boom" with
  | Ok (500, _) -> ()
  | Ok (st, _) -> Alcotest.failf "expected 500, got %d" st
  | Error e -> Alcotest.failf "/boom: %s" e);
  (match get "/metrics" with
  | Ok (200, body) ->
      let lines = String.split_on_char '\n' body in
      Alcotest.(check bool) "exposition TYPE line" true
        (List.mem "# TYPE fmc_test_requests_total counter" lines);
      Alcotest.(check bool) "exposition sample line" true
        (List.mem "fmc_test_requests_total 1" lines)
  | Ok (st, _) -> Alcotest.failf "/metrics: HTTP %d" st
  | Error e -> Alcotest.failf "/metrics: %s" e);
  (* stop is idempotent (the protect finally stops it again). *)
  Httpd.stop srv

let test_fleet_stitching () =
  with_fake_clock @@ fun t ->
  let fp = "fleet-test-fp" in
  let batch ~name ~wall ~samples =
    t := wall;
    let reg = Metrics.create () in
    Metrics.add (Metrics.counter reg "fmc_dist_shard_results_total") (float_of_int samples);
    let ev =
      { Span.ev_name = name ^ "-shard"; ev_cat = "dist"; ev_tid = 1; ev_ts_us = 10.; ev_dur_us = 5. }
    in
    Telemetry.make
      ~trace_id:(Traceid.trace_id ~fingerprint:fp)
      ~metrics:(Metrics.snapshot reg)
      ~spans:
        [ { Telemetry.ss_span_id = Traceid.span_id ~fingerprint:fp ~shard:0; ss_event = ev } ]
      ()
  in
  let fl = Fleet.create () in
  Fleet.absorb fl ~worker:"w2" (batch ~name:"w2" ~wall:1002. ~samples:3);
  Fleet.absorb fl ~worker:"w1" (batch ~name:"w1" ~wall:1001. ~samples:2);
  (* Snapshots are cumulative: a later batch replaces, never adds. *)
  Fleet.absorb fl ~worker:"w1" (batch ~name:"w1" ~wall:1003. ~samples:5);
  Alcotest.(check (list string)) "workers sorted" [ "w1"; "w2" ] (List.map fst (Fleet.workers fl));
  Alcotest.(check string) "campaign trace id surfaced"
    (Traceid.trace_id ~fingerprint:fp)
    (Fleet.trace_id fl);
  Alcotest.(check int) "span summaries retained" 3 (Fleet.span_count fl);
  let base =
    let reg = Metrics.create () in
    Metrics.add (Metrics.counter reg "fmc_dist_shard_results_total") 1.;
    Metrics.snapshot reg
  in
  (match Metrics.find (Fleet.merged_snapshot fl ~base) "fmc_dist_shard_results_total" with
  | Some (Metrics.Counter v) -> exact "base + latest worker snapshots" 9. v
  | _ -> Alcotest.fail "merged counter missing");
  let own =
    [ { Span.ev_name = "sweep"; ev_cat = "dist"; ev_tid = 0; ev_ts_us = 1.; ev_dur_us = 2. } ]
  in
  let json = Fleet.to_chrome_json ~own_label:"coordinator" ~own_events:own fl in
  valid_json "stitched fleet trace" json;
  Alcotest.(check bool) "own track labelled" true (contains_sub json "coordinator");
  Alcotest.(check bool) "worker tracks named" true
    (contains_sub json "process_name" && contains_sub json "w1" && contains_sub json "w2");
  (* Distinct pids: this process on 1, each worker on its own. *)
  List.iter
    (fun pid ->
      Alcotest.(check bool) (Printf.sprintf "pid %d present" pid) true
        (contains_sub json (Printf.sprintf "\"pid\":%d" pid)))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantile;
          Alcotest.test_case "registry guards" `Quick test_registry_guards;
          Alcotest.test_case "merge across worker snapshots" `Quick test_merge_workers;
          QCheck_alcotest.to_alcotest qcheck_merge_assoc_comm;
        ] );
      ( "spans",
        [
          Alcotest.test_case "ring buffer" `Quick test_span_ring;
          Alcotest.test_case "chrome trace json" `Quick test_trace_json;
        ] );
      ( "render",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus_format;
          Alcotest.test_case "progress jsonl" `Quick test_progress_jsonl;
          Alcotest.test_case "obs handle" `Quick test_obs_handle;
        ] );
      ("traceid", [ Alcotest.test_case "deterministic ids" `Quick test_traceid ]);
      ("telemetry", [ Alcotest.test_case "wire roundtrip" `Quick test_telemetry_roundtrip ]);
      ( "httpd",
        [
          Alcotest.test_case "request parsing" `Quick test_httpd_parse;
          Alcotest.test_case "scrape server" `Quick test_httpd_server;
        ] );
      ("fleet", [ Alcotest.test_case "absorb and stitch" `Quick test_fleet_stitching ]);
    ]
