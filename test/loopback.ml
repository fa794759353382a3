(* One-campaign loopback servers for the fleet tests: a [Campaign]-store
   Service.serve on its own thread, handed back only once its socket
   listens, so no client ever races the bind. *)

module Protocol = Fmc_dist.Protocol
module Sched = Fmc_sched.Sched
module Service = Fmc_sched.Service

(* The campaign identity the tests' workers announce: benchmark "write"
   under [strategy] and [model]. *)
let spec ?(model = "disc-transient") ~strategy ~samples ~seed ~shard_size () =
  {
    Protocol.sp_benchmark = "write";
    sp_strategy = strategy;
    sp_samples = samples;
    sp_seed = seed;
    sp_shard_size = shard_size;
    sp_sample_budget = None;
    sp_fault_model = model;
  }

type server = { thread : Thread.t; outcome : (Service.outcome, exn) result option ref }

let serve ?obs ?on_view ?checkpoint ?(io_deadline_s = 120.) ~addr sched spec =
  let config =
    {
      (Service.default_config ~addr (Sched.Campaign { spec; checkpoint })) with
      Service.sched;
      io_deadline_s;
      handle_signals = false;
    }
  in
  let ready = ref false in
  let outcome = ref None in
  let thread =
    Thread.create
      (fun () ->
        outcome :=
          Some
            (try Ok (Service.serve ?obs ?on_view ~on_ready:(fun _ -> ready := true) config)
             with exn -> Error exn))
      ()
  in
  let rec wait n =
    if !ready then ()
    else if Option.is_some !outcome || n = 0 then failwith "loopback server never became ready"
    else (
      Thread.delay 0.02;
      wait (n - 1))
  in
  wait 1000;
  { thread; outcome }

(* Join the server and return its final report's shard blobs and
   quarantine log. *)
let finish server =
  Thread.join server.thread;
  match !(server.outcome) with
  | Some (Ok { Service.sv_report = Some (shards, quarantined, _); _ }) -> (shards, quarantined)
  | Some (Ok _) -> failwith "server stopped without a final report"
  | Some (Error exn) -> raise exn
  | None -> failwith "no outcome"
