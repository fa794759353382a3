module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Placement = Fmc_layout.Placement
module Transient = Fmc_gatesim.Transient
module Glitch = Fmc_gatesim.Glitch
module Cycle_sim = Fmc_gatesim.Cycle_sim
module Circuit = Fmc_cpu.Circuit
module Netsys = Fmc_cpu.Netsys
module System = Fmc_cpu.System
module Arch = Fmc_cpu.Arch
module Programs = Fmc_isa.Programs
module Rng = Fmc_prelude.Rng
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics

(* Pre-resolved metric cells for the engine's phase counters (rebuilt by
   [set_obs]; hot paths touch plain record fields only). *)
type einst = {
  e_restores : Metrics.counter;
  e_rtl_cycles : Metrics.counter;
  e_gate_cycles : Metrics.counter;
  e_sample_us : Metrics.histogram;
}

let make_einst (obs : Obs.t) =
  match obs.Obs.metrics with
  | None -> None
  | Some reg ->
      Some
        {
          e_restores =
            Metrics.counter reg ~help:"golden checkpoint restores" "fmc_restores_total";
          e_rtl_cycles =
            Metrics.counter reg ~help:"RTL cycles stepped (replay windows and resumes)"
              "fmc_rtl_cycles_total";
          e_gate_cycles =
            Metrics.counter reg ~help:"gate-level injection cycles evaluated"
              "fmc_gate_cycles_total";
          e_sample_us =
            Metrics.histogram reg ~help:"end-to-end run_sample latency (us)"
              ~buckets:[| 10.; 30.; 100.; 300.; 1000.; 3000.; 10000.; 100000. |]
              "fmc_sample_duration_us";
        }

type t = {
  precharac : Precharac.t;
  circuit : Circuit.t;
  placement : Placement.t;
  pindex : Placement.index;  (* same query results as [placement], O(disc area) *)
  tconfig : Transient.config;
  timing : Glitch.timing;
  program : Programs.t;
  golden : Golden.t;
  netsys : Netsys.t;  (* reused across samples; state rewritten per run *)
  (* Mutable so cached/shared engines (e.g. Experiments' per-benchmark
     cache) can be instrumented per run; [Ssf.run_samples] installs its
     handle for the duration of a run and restores the previous one. *)
  mutable obs : Obs.t;
  mutable einst : einst option;
}

let obs t = t.obs

let set_obs t obs =
  t.obs <- obs;
  t.einst <- make_einst obs

let create ?(checkpoint_every = 16) ?(placement_seed = 1) ~precharac program =
  let circuit = Precharac.circuit precharac in
  let placement = Placement.place ~seed:placement_seed circuit.Circuit.net in
  let tconfig = Transient.default_config circuit.Circuit.net in
  let golden = Golden.run ~checkpoint_every program in
  let netsys = Netsys.create circuit program in
  let timing = Glitch.static_timing circuit.Circuit.net tconfig in
  {
    precharac;
    circuit;
    placement;
    pindex = Placement.index placement;
    tconfig;
    timing;
    program;
    golden;
    netsys;
    obs = Obs.disabled;
    einst = None;
  }

let golden t = t.golden
let placement t = t.placement
let precharac t = t.precharac
let circuit t = t.circuit
let transient_config t = t.tconfig
let program t = t.program

type outcome = Masked | Analytical of bool | Resumed of bool

type run_result = {
  sample : Sampler.sample;
  te : int;
  outcome : outcome;
  success : bool;
  flips : (string * int) list;
  direct : N.node array;
  latched : N.node array;
  struck_cells : int;
}

(* Evaluate the injection cycle at gate level: [sys] stands at [Te] with
   direct flips already applied. Returns the latched-error flip-flops; [sys]
   is advanced one cycle (state and memory reflect the gate-level cycle). *)
let gate_level_cycle t sys (sample : Sampler.sample) gate_strikes =
  let net_dmem = Netsys.dmem t.netsys in
  Array.blit (System.dmem sys) 0 net_dmem 0 (Array.length net_dmem);
  Netsys.load_arch t.netsys (System.state sys);
  Netsys.settle t.netsys;
  let strikes =
    List.map
      (fun g ->
        {
          Transient.node = g;
          time = sample.Sampler.time_frac *. t.tconfig.Transient.clock_period;
          width = sample.Sampler.width;
        })
      gate_strikes
  in
  (* The external memory's write port is a synchronous sample point too:
     transients reaching dmem_we / dmem_addr / dmem_wdata in the latch
     window are captured by the RAM exactly like a flip-flop would — this
     is the same-cycle channel a classic fault attack uses to commit a
     store whose violation flag was suppressed. *)
  let we_node = t.circuit.Circuit.dmem_we in
  let addr_nodes = t.circuit.Circuit.dmem_addr in
  let wdata_nodes = t.circuit.Circuit.dmem_wdata in
  let watch = Array.concat [ [| we_node |]; addr_nodes; wdata_nodes ] in
  let result = Transient.inject ~watch (Netsys.sim t.netsys) t.tconfig ~strikes in
  let hit node = Array.mem node result.Transient.watched_hits in
  let sim = Netsys.sim t.netsys in
  let corrupted_bus nodes =
    let v = ref 0 in
    Array.iteri
      (fun i node ->
        let bit = Cycle_sim.value sim node <> hit node in
        if bit then v := !v lor (1 lsl i))
      nodes;
    !v
  in
  let we_eff = Cycle_sim.value sim we_node <> hit we_node in
  (if we_eff then begin
     let addr = corrupted_bus addr_nodes in
     net_dmem.(addr land (Array.length net_dmem - 1)) <- corrupted_bus wdata_nodes
   end);
  Cycle_sim.latch sim;
  (* Write the (fault-free-latched) next state and memory back to RTL. *)
  let next = Netsys.read_arch t.netsys in
  let st = System.state sys in
  List.iter (fun (name, _) -> Arch.set_group st name (Arch.get_group next name)) Arch.groups;
  Array.blit net_dmem 0 (System.dmem sys) 0 (Array.length net_dmem);
  System.advance_externally sys;
  result.Transient.latched

let partition_disc ?(cell_filter = fun _ -> true) t center radius =
  let cells =
    Array.of_list
      (List.filter cell_filter
         (Array.to_list (Placement.within_indexed t.pindex ~center ~radius)))
  in
  let dffs = ref [] and gates = ref [] in
  Array.iter
    (fun c ->
      match N.kind t.circuit.Circuit.net c with
      | K.Dff _ -> dffs := c :: !dffs
      | K.Gate _ -> gates := c :: !gates
      | K.Input | K.Const _ -> ())
    cells;
  (List.rev !dffs, List.rev !gates, Array.length cells)

let apply_flip sys net dff =
  let group, bit = N.dff_group net dff in
  let st = System.state sys in
  Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit))

let observables_differ t sys =
  System.observable_values sys <> Golden.final_observables t.golden

(* Exact register-error extraction: compare the post-injection-cycle state
   against the golden state at [te + 1] bit by bit. (A direct flip that the
   cycle's own register write overwrote is thereby correctly dropped.) *)
let state_bit_diffs faulty golden_state =
  List.concat_map
    (fun (name, _) ->
      let diff = Arch.get_group faulty name lxor Arch.get_group golden_state name in
      let rec bits b acc = if diff lsr b = 0 then List.rev acc
        else bits (b + 1) (if (diff lsr b) land 1 = 1 then (name, b) :: acc else acc)
      in
      bits 0 [])
    Arch.groups

let run_sample t ?cell_filter ?(impact_cycles = 1) ?(hardened = fun _ -> false) ?(resilience = 10.)
    ?cycle_budget rng (sample : Sampler.sample) =
  if impact_cycles < 1 then invalid_arg "Engine.run_sample: impact_cycles must be >= 1";
  let te = Golden.target_cycle t.golden - sample.Sampler.t in
  if te < 1 then
    {
      sample;
      te;
      outcome = Masked;
      success = false;
      flips = [];
      direct = [||];
      latched = [||];
      struck_cells = 0;
    }
  else begin
    let t_begin = match t.einst with None -> 0. | Some _ -> Fmc_obs.Clock.now_us () in
    let on_step =
      match t.einst with
      | None -> None
      | Some ei -> Some (fun () -> Metrics.inc ei.e_rtl_cycles)
    in
    let restore cycle =
      (match t.einst with None -> () | Some ei -> Metrics.inc ei.e_restores);
      Obs.span t.obs ~cat:"engine" "restore" (fun () ->
          Golden.restore_at ?on_step t.golden cycle)
    in
    let net = t.circuit.Circuit.net in
    let sys = restore te in
    let dff_hits, gate_hits, struck_cells = partition_disc ?cell_filter t sample.Sampler.center sample.Sampler.radius in
    let survives dff = (not (hardened dff)) || Rng.float rng 1.0 < 1. /. resilience in
    let direct = List.filter survives dff_hits in
    (* A sustained (multi-cycle) radiation event deposits the single-event
       upsets once and fresh combinational transients on every impacted
       cycle (paper §3.2: "our framework can easily incorporate multi-cycle
       impact"). *)
    List.iter (apply_flip sys net) direct;
    let latched = ref [] in
    for _ = 1 to impact_cycles do
      let latched_raw =
        (match t.einst with None -> () | Some ei -> Metrics.inc ei.e_gate_cycles);
        Obs.span t.obs ~cat:"engine" "gate_cycle" (fun () ->
            gate_level_cycle t sys sample gate_hits)
      in
      let survivors = List.filter survives (Array.to_list latched_raw) in
      (* Latched errors corrupt the post-cycle state before the next
         impacted cycle executes. *)
      List.iter (apply_flip sys net) survivors;
      latched := !latched @ survivors
    done;
    let latched = List.sort_uniq compare !latched in
    (* Exact error set vs the golden run just past the impact window. *)
    let flips, mem_clean =
      Obs.span t.obs ~cat:"engine" "masking" (fun () ->
          let golden_ref = restore (te + impact_cycles) in
          ( state_bit_diffs (System.state sys) (System.state golden_ref),
            System.dmem sys = System.dmem golden_ref ))
    in
    let flip_nodes = List.map (fun (g, b) -> (N.register_group net g).(b)) flips in
    let outcome, success =
      if flips = [] && mem_clean then (Masked, false)
      else if
        flips <> [] && mem_clean
        && List.for_all (Precharac.memory_type t.precharac) flip_nodes
      then begin
        let e =
          Obs.span t.obs ~cat:"engine" "analytical" (fun () ->
              Analytical.evaluate ~program:t.program ~corrupted:(System.state sys))
        in
        (Analytical e, e)
      end
      else begin
        let budget = t.program.Fmc_isa.Programs.max_cycles + 100 in
        (* The optional watchdog bounds the RTL resume loop so a pathological
           sample raises [System.Cycle_budget_exhausted] instead of running
           away; the campaign runner quarantines it. *)
        let e =
          Obs.span t.obs ~cat:"engine" "rtl_resume" (fun () ->
              System.set_watchdog sys cycle_budget;
              ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
              System.set_watchdog sys None;
              observables_differ t sys)
        in
        (Resumed e, e)
      end
    in
    (match t.einst with
    | None -> ()
    | Some ei -> Metrics.observe ei.e_sample_us (Fmc_obs.Clock.now_us () -. t_begin));
    {
      sample;
      te;
      outcome;
      success;
      flips;
      direct = Array.of_list direct;
      latched = Array.of_list latched;
      struck_cells;
    }
  end

type glitch_result = { g_te : int; g_success : bool; g_stale : (string * int) list }

let run_glitch t ~te ~period =
  if te < 1 then { g_te = te; g_success = false; g_stale = [] }
  else begin
    let net = t.circuit.Circuit.net in
    let sys = Golden.restore_at t.golden te in
    (* Evaluate the glitched cycle at gate level: settle, commit the memory
       write at the nominal edge, clock with the shortened period. *)
    let net_dmem = Netsys.dmem t.netsys in
    Array.blit (System.dmem sys) 0 net_dmem 0 (Array.length net_dmem);
    Netsys.load_arch t.netsys (System.state sys);
    Netsys.settle t.netsys;
    let sim = Netsys.sim t.netsys in
    (if Cycle_sim.value sim t.circuit.Circuit.dmem_we then begin
       let addr = Cycle_sim.read_bus sim t.circuit.Circuit.dmem_addr in
       net_dmem.(addr land (Array.length net_dmem - 1)) <-
         Cycle_sim.read_bus sim t.circuit.Circuit.dmem_wdata
     end);
    let stale = Glitch.latch_with_glitch t.timing t.tconfig sim ~period in
    let next = Netsys.read_arch t.netsys in
    let st = System.state sys in
    List.iter (fun (name, _) -> Arch.set_group st name (Arch.get_group next name)) Arch.groups;
    Array.blit net_dmem 0 (System.dmem sys) 0 (Array.length net_dmem);
    System.advance_externally sys;
    let budget = t.program.Programs.max_cycles + 100 in
    ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
    {
      g_te = te;
      g_success = observables_differ t sys;
      g_stale = Array.to_list (Array.map (N.dff_group net) stale);
    }
  end

let glitch_critical_path t = Glitch.critical_path t.timing

(* Leave-one-out counterfactual attribution: replay the injection cycle
   deterministically, then for each flipped bit resume the RTL run with that
   one bit restored; the bits whose restoration defeats the attack are the
   causal ones. Falls back to the full flip set when no single bit is
   individually necessary (jointly caused successes) or the run failed. *)
let causal_flips t (r : run_result) =
  if (not r.success) || r.flips = [] || r.te < 1 then r.flips
  else
    Obs.span t.obs ~cat:"engine" "causal" @@ fun () ->
    begin
    let net = t.circuit.Circuit.net in
    let sys = Golden.restore_at t.golden r.te in
    Array.iter (apply_flip sys net) r.direct;
    let _, gate_hits, _ = partition_disc t r.sample.Sampler.center r.sample.Sampler.radius in
    ignore (gate_level_cycle t sys r.sample gate_hits);
    Array.iter (apply_flip sys net) r.latched;
    let cp = System.checkpoint sys in
    let budget = t.program.Programs.max_cycles + 100 in
    let fails_without (group, bit) =
      let trial = System.create t.program in
      System.restore trial cp;
      let st = System.state trial in
      Arch.set_group st group (Arch.get_group st group lxor (1 lsl bit));
      ignore (System.run trial ~max_cycles:(max 1 (budget - System.cycle trial)));
      not (observables_differ t trial)
    in
    match List.filter fails_without r.flips with
    | [] -> r.flips
    | causal -> causal
  end

let static_vulnerable t =
  let net = t.circuit.Circuit.net in
  let vulnerable = Hashtbl.create 32 in
  (match (t.program.Programs.attack, t.program.Programs.user_code_range) with
  | Some (addr, perm), Some (lo, hi) ->
      let perm =
        match perm with
        | Programs.Attack_read -> Arch.Read
        | Programs.Attack_write -> Arch.Write
        | Programs.Attack_exec -> Arch.Exec
      in
      let base = Golden.state_at t.golden (Golden.target_cycle t.golden) in
      Array.iter
        (fun dff ->
          let group, bit = N.dff_group net dff in
          let corrupted = Arch.copy base in
          Arch.set_group corrupted group (Arch.get_group corrupted group lxor (1 lsl bit));
          let privileged = corrupted.Arch.mode = 1 in
          let access = privileged || Arch.mpu_allows corrupted ~addr ~perm in
          let executable =
            privileged
            ||
            let ok = ref true in
            for pc = lo to hi do
              if not (Arch.mpu_allows corrupted ~addr:pc ~perm:Arch.Exec) then ok := false
            done;
            !ok
          in
          if access && executable then Hashtbl.replace vulnerable dff ())
        (N.dffs net)
  | _ -> ());
  fun dff -> Hashtbl.mem vulnerable dff

let gate_flips_only t rng (sample : Sampler.sample) =
  ignore rng;
  let te = max 1 (Golden.target_cycle t.golden - sample.Sampler.t) in
  let sys = Golden.restore_at t.golden te in
  let dff_hits, gate_hits, _ = partition_disc t sample.Sampler.center sample.Sampler.radius in
  List.iter (apply_flip sys t.circuit.Circuit.net) dff_hits;
  let latched = gate_level_cycle t sys sample gate_hits in
  (latched, Array.of_list dff_hits)
