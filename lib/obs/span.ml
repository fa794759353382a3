type event = {
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ev_ts_us : float;
  ev_dur_us : float;
}

type tracer = {
  capacity : int;
  tid : int;
  ring : event array;
  mutable total : int;  (* spans ever pushed; ring slot = total mod capacity *)
  totals : (string, int ref * float ref) Hashtbl.t;
}

let dummy = { ev_name = ""; ev_cat = ""; ev_tid = 0; ev_ts_us = 0.; ev_dur_us = 0. }

let create ?(capacity = 65536) ?(tid = 0) () =
  if capacity <= 0 then invalid_arg "Span.create: non-positive capacity";
  { capacity; tid; ring = Array.make capacity dummy; total = 0; totals = Hashtbl.create 16 }

let tid tr = tr.tid

let record tr ev =
  tr.ring.(tr.total mod tr.capacity) <- ev;
  tr.total <- tr.total + 1;
  let c, d =
    match Hashtbl.find_opt tr.totals ev.ev_name with
    | Some p -> p
    | None ->
        let p = (ref 0, ref 0.) in
        Hashtbl.replace tr.totals ev.ev_name p;
        p
  in
  incr c;
  d := !d +. ev.ev_dur_us

let with_span tr ?(cat = "fmc") name f =
  let t0 = Clock.now_us () in
  let finish () =
    record tr { ev_name = name; ev_cat = cat; ev_tid = tr.tid; ev_ts_us = t0; ev_dur_us = Clock.now_us () -. t0 }
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let recorded tr = tr.total
let dropped tr = max 0 (tr.total - tr.capacity)

let events tr =
  let n = min tr.total tr.capacity in
  let oldest = if tr.total <= tr.capacity then 0 else tr.total mod tr.capacity in
  List.init n (fun i -> tr.ring.((oldest + i) mod tr.capacity))

let totals tr =
  Hashtbl.fold (fun name (c, d) acc -> (name, (!c, !d)) :: acc) tr.totals []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let to_chrome_json evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
           (Jsonx.escape ev.ev_name) (Jsonx.escape ev.ev_cat) ev.ev_tid ev.ev_ts_us ev.ev_dur_us))
    evs;
  Buffer.add_string buf "]}";
  Buffer.contents buf
