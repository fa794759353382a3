(** System Security Factor estimation (paper §3.3).

    [SSF = E_{T,P}(E)], estimated by the finite-sample mean of the
    (importance-weighted) success indicator. The report carries everything
    the paper's evaluation section reads off a run: the estimate, the
    sample variance (the convergence-rate driver of the LLN bound), the
    running-estimate trace (Fig. 9a), the outcome breakdown (Fig. 10a) and
    per-register success attribution (the "3% registers, 95% SSF"
    analysis). *)

(** Why the crash guard of {!run_samples} quarantined a sample. *)
type disposition =
  | Crashed of string  (** the evaluation raised; payload: the exception *)
  | Timed_out  (** the per-sample cycle budget was exhausted *)

type outcome_counts = {
  masked : int;  (** no register error survived the injection cycle *)
  mem_only : int;  (** analytical evaluation sufficed *)
  resumed : int;  (** RTL simulation had to resume *)
  quarantined : int;
      (** samples whose evaluation crashed or timed out and was isolated by
          the sample loop's crash guard ({!run_samples}). The four buckets
          partition the [n] samples. *)
  q_crashed : int;  (** quarantines attributed to the crash guard *)
  q_timed_out : int;
      (** quarantines attributed to the cycle-budget watchdog;
          [q_crashed + q_timed_out = quarantined] *)
}

type report = {
  strategy : string;
  n : int;
  ssf : float;
  ssf_upper : float;
      (** conservative SSF bound that counts every quarantined sample as a
          full-weight success; equals [ssf] when nothing was quarantined *)
  variance : float;  (** unbiased sample variance of the weighted indicator *)
  successes : int;  (** raw count of successful attack runs *)
  ess : float;
      (** Kish effective sample size of the drawn importance weights,
          [n] under plain Monte Carlo; a low [ess/n] warns that the
          sampling distribution is poorly matched to [f] *)
  sum_w : float;  (** raw sum of drawn f-scaled weights, [ess]'s numerator root *)
  sum_w2 : float;
      (** raw sum of squared weights; carried so {!merge_reports} can pool
          ESS exactly as [(Σw)² / Σw²] instead of summing per-report ESS
          values (wrong whenever weight scales differ across reports) *)
  trace : (int * float) list;  (** (samples so far, running estimate) *)
  outcomes : outcome_counts;
  contributions : ((string * int) * float) list;
      (** per register bit: summed weight over successful runs it was
          corrupted in, descending *)
  success_by_direct : int;  (** successes whose strike flipped a register directly *)
  success_by_comb : int;  (** successes caused purely by combinational transients *)
}

(** The incremental estimator state {!run_samples} folds samples into,
    exposed so the campaign runner ({!Campaign}) and the fleet can
    durably snapshot/restore the whole accumulator mid-run. A tally fed the
    same (sample, result, attribution) stream as {!estimate} produces a
    bit-identical report. *)
module Tally : sig
  type t

  (** The complete, serializable accumulator state. Every float must be
      persisted exactly (e.g. hex float formatting) for a resumed campaign
      to be bit-identical to an uninterrupted one. [snap_accs] /
      [snap_pess] are Welford [(count, mean, m2)] triples aligned with
      [snap_strata]; [snap_trace] is chronological. *)
  type snapshot = {
    snap_total : int;
    snap_trace_every : int;
    snap_processed : int;
    snap_strata : (Sampler.stratum * float) list;
    snap_accs : (int * float * float) list;
    snap_pess : (int * float * float) list;
    snap_masked : int;
    snap_mem_only : int;
    snap_resumed : int;
    snap_quarantined : int;
    snap_q_crashed : int;
    snap_q_timed_out : int;
    snap_successes : int;
    snap_by_direct : int;
    snap_by_comb : int;
    snap_sum_w : float;
    snap_sum_w2 : float;
    snap_contributions : ((string * int) * float) list;
    snap_trace : (int * float) list;
  }

  val create : ?obs:Fmc_obs.Obs.t -> ?trace_every:int -> Sampler.prepared -> total:int -> t
  (** Fresh tally for a campaign of [total] samples ([trace_every]
      defaults to 50, matching {!estimate}). [obs] (default disabled)
      attaches observability: per-outcome counters, the importance-weight
      histogram and running SSF/ESS gauges in the metrics registry, and a
      convergence {!Fmc_obs.Progress.point} pushed at every trace bump.
      Observability never touches the statistics — an instrumented tally
      produces a bit-identical report. *)

  val processed : t -> int
  (** Samples consumed so far, including quarantined ones. *)

  val total : t -> int

  val record : t -> Sampler.sample -> Engine.run_result -> attributed:(string * int) list -> unit
  (** Fold one evaluated sample into the estimate. [attributed] is the flip
      list credited in the contribution table (the caller decides between
      causal attribution and the raw flip set, exactly as {!estimate}
      does). *)

  val quarantine : t -> Sampler.sample -> reason:disposition -> unit
  (** Consume one sample slot without folding it into the honest estimate:
      the sample counts in [n], the [quarantined] bucket and the [reason]'s
      sub-bucket, and enters the pessimistic accumulators as a full-weight
      success so [ssf_upper] stays a sound conservative bound. *)

  val report : t -> strategy:string -> report

  val snapshot : t -> snapshot

  val restore : ?obs:Fmc_obs.Obs.t -> snapshot -> t
  (** Rebuild a tally that continues exactly where [snapshot] left off.
      Observability starts fresh (metrics count this segment's work;
      throughput telemetry excludes the downtime since the snapshot).
      Raises [Invalid_argument] on an internally inconsistent snapshot. *)

  val to_string : snapshot -> string
  (** The canonical line-oriented text encoding of a snapshot, shared
      verbatim by the durable campaign checkpoint ({!Campaign}, format v3)
      and the distributed wire protocol ([Fmc_dist]) — one serializer, not
      two. Floats are hex float literals ([%h]), so
      [of_string (to_string s) = Ok s] round-trips every accumulator
      bit-exactly. *)

  val of_string : string -> (snapshot, string) result
  (** Decode {!to_string}'s encoding. [Error msg] names the first offending
      line of a truncated, reordered or malformed snapshot. *)

  val digest_hex : string -> string
  (** MD5 hex of a {!to_string} blob. Because the encoding is canonical
      (one serializer, hex-float literals, fixed line order), equal
      digests mean bit-identical accumulator states — the primitive the
      distributed result audit ([Fmc_audit]) is built on. *)
end

(** {2 Pluggable fault models}

    A per-sample injector substituted for the engine's native
    disc-transient path. The estimator stays model-agnostic: it draws
    the sample stream exactly as before and hands each drawn sample to
    [inj_run] instead of {!Engine.run_sample}. [lib/core] deliberately
    knows nothing about the model registry — [Fmc_fault] builds these
    records; [None] everywhere means the native disc-transient model
    and produces byte-identical reports to the pre-subsystem code. *)
type inject = {
  inj_model : string;
      (** canonical model string ([name\[:k=v,...\]]) recorded in
          campaign checkpoints and error messages *)
  inj_run :
    Engine.t -> ?cycle_budget:int -> Fmc_prelude.Rng.t -> Sampler.sample -> Engine.run_result;
      (** evaluate one drawn sample under this model. Must be
          deterministic for a fixed (engine, sample) pair up to its
          declared RNG draws; [cycle_budget] arms the RTL-resume
          watchdog exactly as in {!Engine.run_sample} *)
  inj_causal : Engine.t -> Engine.run_result -> (string * int) list;
      (** contribution attribution for a successful run (the model's
          analogue of {!Engine.causal_flips}; returning
          [result.flips] is always sound) *)
}

val inject_model : inject option -> string
(** The canonical model string an injector option denotes:
    ["disc-transient"] for [None]. *)

val shard_plan : samples:int -> shard_size:int -> (int * int) array
(** Cut a campaign into contiguous sample-index shards: [(start, len)]
    pairs covering [\[0, samples)] in order, every shard of size
    [shard_size] except a possibly shorter last one. Shard [i] of a
    campaign with seed [s] is always evaluated under
    [Rng.substream ~seed:(Int64.of_int s) ~shard:i]
    (see {!Campaign.run_shard}), so the plan — not the process layout —
    determines every draw. Raises [Invalid_argument] on non-positive
    arguments. *)

val pruned_result : Engine.t -> Sampler.sample -> Engine.run_result
(** The analytical result a certified-masked sample is tallied with:
    field-for-field what {!Engine.run_sample} returns on its masked path
    ([outcome = Masked], [success = false], no flips). {!run_samples}
    tallies every pruned sample with it, so a pruned run stays
    bit-identical to the simulated one. *)

type evaluator
(** The per-sample evaluation of one run, built by {!evaluator}. *)

val evaluator :
  who:string ->
  ?causal:bool ->
  ?cell_filter:(Fmc_netlist.Netlist.node -> bool) ->
  ?impact_cycles:int ->
  ?hardened:(Fmc_netlist.Netlist.node -> bool) ->
  ?resilience:float ->
  ?sample_budget:int ->
  ?fault_hook:(int -> Sampler.sample -> unit) ->
  ?prune:(Sampler.sample -> bool) ->
  ?inject:inject ->
  Engine.t ->
  evaluator
(** Build the per-sample evaluation of one run.

    - [prune] is an analytical masking oracle (e.g.
      [Fmc_sva.Pruner.check]): when it returns true the sample {e must}
      be one the engine would classify as exactly [Masked]. The
      simulation (and [fault_hook]) is skipped and the sample is tallied
      as {!pruned_result} with its original weight, leaving the report
      byte-identical to the unpruned run (an unsound oracle silently
      biases the estimate; use the certified pruner).
    - [inject] substitutes a pluggable fault model for the native
      disc-transient evaluation (the sample stream is unchanged).
      [cell_filter]/[impact_cycles]/[hardened]/[resilience] modify the
      native path only (see {!Engine.run_sample}); [sample_budget] is the
      RTL-resume cycle budget of both.
    - [fault_hook] runs before every simulated evaluation with the
      sample's 1-based index in its tally (a test fault-injection point).
    - [causal] (default true) applies leave-one-out counterfactual
      attribution to successful runs, so the contribution list reflects
      causal bits rather than incidental co-flips; it is off when
      [cell_filter], [impact_cycles] or [hardened] is given.

    Raises [Invalid_argument], naming [who], when [prune] is combined
    with [inject] or with [cell_filter]/[impact_cycles]/[hardened]: the
    masking certificates only cover the unmodified disc transient. *)

val run_samples :
  ?obs:Fmc_obs.Obs.t ->
  ?stop:(int -> bool) ->
  ?on_sample:(int -> unit) ->
  ?on_quarantine:(int -> Sampler.sample -> disposition -> unit) ->
  evaluator ->
  Sampler.prepared ->
  Tally.t ->
  Fmc_prelude.Rng.t ->
  until:int ->
  unit
(** The one sample loop: {!estimate}, {!estimate_until} and [Campaign]'s
    [run], [resume] and [run_shard] all call it. Draw, evaluate and tally
    samples from [rng] until the tally has processed [until] samples, or
    [stop] (polled with the processed count before each draw) says to
    stop. The evaluation runs under a crash guard: a sample whose cycle
    budget runs out, or whose evaluation raises anything but [Sys.Break],
    is {!Tally.quarantine}d and passed to [on_quarantine] with its 1-based
    index in the tally. [on_sample] is called with that index after every
    sample, outside the guard, so an exception it raises ends the loop.
    While the loop runs [obs] is installed on the evaluator's engine (its
    previous handle is restored afterwards). *)

val estimate :
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?cell_filter:(Fmc_netlist.Netlist.node -> bool) ->
  ?impact_cycles:int ->
  ?hardened:(Fmc_netlist.Netlist.node -> bool) ->
  ?resilience:float ->
  ?prune:(Sampler.sample -> bool) ->
  ?inject:inject ->
  Engine.t ->
  Sampler.prepared ->
  samples:int ->
  seed:int ->
  report
(** The Monte Carlo estimate over [samples] draws from [Rng.create seed],
    each evaluated as {!evaluator} describes. A sample whose evaluation
    raises is quarantined by the crash guard of {!run_samples} (counted
    in [outcomes.quarantined] and in [ssf_upper]) instead of aborting the
    run; [Sys.Break] still propagates. Deterministic for fixed arguments,
    including under [obs]: observability reads the sample stream but
    never the RNG. While the run is in flight [obs] is also installed on
    [engine], so the engine's phase spans and cycle counters land in the
    same sinks. Raises [Invalid_argument] on a non-positive sample count
    or a combination {!evaluator} refuses. *)

val merge_reports : report list -> report
(** Pool split-run reports (checkpointed shards, distributed workers)
    into one: sample-count-weighted means for the
    estimates, summed counters, summed contribution tables, and the ESS
    recomputed from the pooled weight sums [(Σw)² / Σw²]. Every float
    reduction sorts its addends first, so the merged report is
    {e bit-identical under any permutation} of the input list — worker or
    batch completion order cannot change the result. The running-estimate
    [trace] is merged by local sample index (each point is the pooled
    estimate over every part's latest trace entry, plotted at the total
    number of samples finished across parts), so distributed and local
    convergence plots agree. Raises [Invalid_argument] on an empty
    list. *)

val confidence_interval : report -> z:float -> float * float
(** Normal-approximation confidence interval for the SSF estimate:
    [estimate -/+ z * sqrt(variance / n)] clamped to [\[0, 1\]]. [z = 1.96]
    for 95%. *)

val estimate_until :
  ?obs:Fmc_obs.Obs.t ->
  ?trace_every:int ->
  ?causal:bool ->
  ?prune:(Sampler.sample -> bool) ->
  ?inject:inject ->
  ?batch:int ->
  ?max_samples:int ->
  Engine.t ->
  Sampler.prepared ->
  half_width:float ->
  z:float ->
  seed:int ->
  report
(** The paper's stopping rule made concrete: keep sampling one stream
    until the confidence interval's half-width drops below [half_width],
    or [max_samples] (default 200_000) is reached. The interval is checked
    at pass boundaries: after [min batch max_samples] samples (batch
    default 500), then at [max (n + batch) (2 * n)] capped at
    [max_samples]. The returned report covers all samples taken and is
    bit-identical to [estimate ~samples:r.n] at the same seed. Raises
    [Invalid_argument] on a non-positive [half_width], [batch] or
    [max_samples]. *)

val contribution_coverage : report -> fraction:float -> ((string * int) * float) list
(** The smallest prefix of [contributions] covering at least [fraction] of
    the total success weight. *)
