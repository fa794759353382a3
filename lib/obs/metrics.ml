type counter = { mutable c : float }
type gauge = { mutable g : float }

type histogram = {
  h_buckets : float array;
  h_counts : int array;  (* length = Array.length h_buckets + 1; last = overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

type cell = C of counter | G of gauge | H of histogram
type registry = (string, string * cell) Hashtbl.t

let create () = Hashtbl.create 32

let validate_name name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  String.iter
    (function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name))
    name

let kind_mismatch name = invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name)

let counter reg ?(help = "") name =
  validate_name name;
  match Hashtbl.find_opt reg name with
  | Some (_, C c) -> c
  | Some _ -> kind_mismatch name
  | None ->
      let c = { c = 0. } in
      Hashtbl.replace reg name (help, C c);
      c

let gauge reg ?(help = "") name =
  validate_name name;
  match Hashtbl.find_opt reg name with
  | Some (_, G g) -> g
  | Some _ -> kind_mismatch name
  | None ->
      let g = { g = 0. } in
      Hashtbl.replace reg name (help, G g);
      g

let validate_buckets name buckets =
  if Array.length buckets = 0 then
    invalid_arg (Printf.sprintf "Metrics: histogram %s needs at least one bucket" name);
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg (Printf.sprintf "Metrics: histogram %s has a non-finite bucket bound" name);
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg (Printf.sprintf "Metrics: histogram %s buckets must be strictly increasing" name))
    buckets

let histogram reg ?(help = "") ~buckets name =
  validate_name name;
  match Hashtbl.find_opt reg name with
  | Some (_, H h) ->
      if h.h_buckets <> buckets then
        invalid_arg (Printf.sprintf "Metrics: histogram %s re-registered with different buckets" name);
      h
  | Some _ -> kind_mismatch name
  | None ->
      validate_buckets name buckets;
      let h =
        {
          h_buckets = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.;
          h_count = 0;
        }
      in
      Hashtbl.replace reg name (help, H h);
      h

let inc c = c.c <- c.c +. 1.

let add c v =
  if v < 0. then invalid_arg "Metrics.add: negative counter increment";
  c.c <- c.c +. v

let set g v = g.g <- v

let observe h v =
  let n = Array.length h.h_buckets in
  let rec slot i = if i >= n || v <= h.h_buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

type histo_data = { buckets : float array; counts : int array; sum : float; count : int }
type value = Counter of float | Gauge of float | Histo of histo_data
type snapshot = (string * (string * value)) list

let snapshot reg =
  Hashtbl.fold
    (fun name (help, cell) acc ->
      let v =
        match cell with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h ->
            Histo
              {
                buckets = Array.copy h.h_buckets;
                counts = Array.copy h.h_counts;
                sum = h.h_sum;
                count = h.h_count;
              }
      in
      (name, (help, v)) :: acc)
    reg []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let find (s : snapshot) name = Option.map snd (List.assoc_opt name s)

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x +. y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Histo x, Histo y ->
      if x.buckets <> y.buckets then
        invalid_arg (Printf.sprintf "Metrics.merge: bucket mismatch for %s" name);
      Histo
        {
          buckets = x.buckets;
          counts = Array.map2 ( + ) x.counts y.counts;
          sum = x.sum +. y.sum;
          count = x.count + y.count;
        }
  | _ -> invalid_arg (Printf.sprintf "Metrics.merge: kind mismatch for %s" name)

let merge (a : snapshot) (b : snapshot) : snapshot =
  (* Both inputs are name-sorted; a sorted-list merge keeps the result
     canonical so merge composes (associativity needs the sorted form). *)
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | ((na, (ha, va)) as ea) :: ta, ((nb, (hb, vb)) as eb) :: tb ->
        if na < nb then go ta b (ea :: acc)
        else if nb < na then go a tb (eb :: acc)
        else
          let help = if (ha : string) >= hb then ha else hb in
          go ta tb ((na, (help, merge_value na va vb)) :: acc)
  in
  go a b []

let quantile (d : histo_data) q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile: q outside [0, 1]";
  if d.count = 0 then 0.
  else begin
    let target = q *. float_of_int d.count in
    let nb = Array.length d.buckets in
    let rec go i cum =
      if i >= nb then d.buckets.(nb - 1) (* overflow bucket: clamp to the last finite bound *)
      else begin
        let c = d.counts.(i) in
        let cum' = cum +. float_of_int c in
        if cum' >= target && c > 0 then begin
          let lo = if i = 0 then 0. else d.buckets.(i - 1) in
          let hi = d.buckets.(i) in
          lo +. ((hi -. lo) *. (target -. cum) /. float_of_int c)
        end
        else go (i + 1) cum'
      end
    in
    go 0 0.
  end

let to_prometheus (s : snapshot) =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (name, (help, v)) ->
      if help <> "" then pr "# HELP %s %s\n" name help;
      match v with
      | Counter x -> pr "# TYPE %s counter\n%s %s\n" name name (Jsonx.number x)
      | Gauge x -> pr "# TYPE %s gauge\n%s %s\n" name name (Jsonx.number x)
      | Histo d ->
          pr "# TYPE %s histogram\n" name;
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + d.counts.(i);
              pr "%s_bucket{le=\"%s\"} %d\n" name (Jsonx.number bound) !cum)
            d.buckets;
          pr "%s_bucket{le=\"+Inf\"} %d\n" name d.count;
          pr "%s_sum %s\n" name (Jsonx.number d.sum);
          pr "%s_count %d\n" name d.count)
    s;
  Buffer.contents buf

let to_json (s : snapshot) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i (name, (help, v)) ->
      if i > 0 then Buffer.add_char buf ',';
      let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pr "{\"name\":\"%s\",\"help\":\"%s\"," (Jsonx.escape name) (Jsonx.escape help);
      match v with
      | Counter x -> pr "\"type\":\"counter\",\"value\":%s}" (Jsonx.number x)
      | Gauge x -> pr "\"type\":\"gauge\",\"value\":%s}" (Jsonx.number x)
      | Histo d ->
          pr "\"type\":\"histogram\",\"buckets\":[%s],\"counts\":[%s],\"sum\":%s,\"count\":%d}"
            (String.concat "," (Array.to_list (Array.map Jsonx.number d.buckets)))
            (String.concat "," (Array.to_list (Array.map string_of_int d.counts)))
            (Jsonx.number d.sum) d.count)
    s;
  Buffer.add_string buf "]}";
  Buffer.contents buf
