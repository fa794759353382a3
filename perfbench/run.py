#!/usr/bin/env python3
"""The repository benchmark: time to a trustworthy SSF, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload write-ci --seed 7 --seconds 30 --trace 0

It builds bin/faultmc.exe and perfbench/bench.exe with dune, runs one
workload, checks every output, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics (plus a Chrome trace and
a per-layer table under .perfbench/). Workloads, metrics and the seed
convention are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

OUT = ".perfbench"
FAULTMC = "_build/default/bin/faultmc.exe"
BENCH = "_build/default/perfbench/bench.exe"

# A fleet run repeats its campaign until --seconds have passed and at least
# MIN_REPS times, then reports medians (bench.ml sets the CI runs' count).
MIN_REPS = 5

# fleet-seu-audit: a loopback campaign through the faultmc serve/worker CLI.
FLEET = {
    "program": "write",
    "model": "seu-burst",
    "samples": 80000,
    "shard_size": 200,
    "audit_rate": "0.1",
    "workers": 2,
}
# The small loopback campaign a traced CI run makes so that every fleet
# layer is measured on every workload (disc-transient, the CI program).
MINI_FLEET_SAMPLES = 2000
# How long a traced run waits after the merged report for the workers to
# exit on their own before stopping them (dist.drain_s is censored there).
DRAIN_WAIT_S = 10.0

WORKLOADS = {
    "write-ci": {"program": "write", "prune": False},
    "read-ci-pruned": {"program": "read", "prune": True},
    "fleet-seu-audit": {"fleet": True},
}

# Every run must end well inside 180 s once built; a stuck fleet is stopped.
RUN_LIMIT_S = 170
children = []


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def on_alarm(signum, frame):
    for pid in children:
        stop(pid)
    for pid in children:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    sys.exit(f"perfbench: run exceeded {RUN_LIMIT_S} s")


def child_env():
    # Keep every file the build and the runs write inside the checkout.
    tmp = os.path.abspath(os.path.join(OUT, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(
        os.environ,
        TMPDIR=tmp,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.abspath(os.path.join(OUT, "cache")),
    )


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} not found; run from the root of a faultmc checkout")
    # The perfbench profile enables perfbench/bench.exe (see perfbench/dune).
    cmd = ["dune", "build", "--root", ".", "--profile", "perfbench", "--cache=disabled",
           "--display", "quiet", "./bin/faultmc.exe", "./perfbench/bench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode != 0:
        sys.exit("perfbench: build failed")


def run_bench(args):
    """Run bench.exe and return its standard output."""
    p = subprocess.Popen([BENCH, *map(str, args)], stdout=subprocess.PIPE, env=child_env(), text=True)
    children[:] = [p.pid]
    out, _ = p.communicate()
    children.clear()
    if p.returncode != 0:
        sys.exit(f"perfbench: bench.exe {args[0]} exited with {p.returncode}")
    return out


def bench(args):
    """Run bench.exe and return its JSON result."""
    return json.loads(run_bench(args).strip().splitlines()[-1])


# ---- loopback fleet ----------------------------------------------------------


def reap(pid):
    """Wait for a child and return its resource usage."""
    _, _, usage = os.wait4(pid, 0)
    return usage


def stop(pid):
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pass


def fleet_campaign(program, model, samples, shard_size, seed, tag, drain_wait):
    """One campaign through `faultmc serve` and two `faultmc worker`s over a
    Unix socket, with a coordinator checkpoint and result audits."""
    paths = {k: os.path.join(OUT, f"{tag}.{k}") for k in ("sock", "ckpt", "metrics.json", "trace.json", "log")}
    for p in paths.values():
        if os.path.exists(p):
            os.remove(p)
    ident = ["-b", program, "-s", "mixed", "-n", str(samples), "--seed", str(seed),
             "--shard-size", str(shard_size), "--fault-model", model]
    env = child_env()
    logf = open(paths["log"], "w")
    t0 = time.monotonic()
    serve = subprocess.Popen(
        [FAULTMC, "serve", *ident, "--listen", "unix:" + paths["sock"], "--linger", "0s", "--json",
         "--require-workers", str(FLEET["workers"]), "--max-idle", "60s",
         "--audit-rate", FLEET["audit_rate"], "--checkpoint", paths["ckpt"],
         "--metrics-out", paths["metrics.json"], "--fleet-trace-out", paths["trace.json"]],
        stdout=subprocess.PIPE, stderr=logf, env=env, text=True)
    workers = [
        subprocess.Popen([FAULTMC, "worker", "--connect", "unix:" + paths["sock"], *ident, "--name", f"w{i}"],
                         stdout=logf, stderr=logf, env=env)
        for i in range(1, FLEET["workers"] + 1)
    ]
    children[:] = [serve.pid] + [w.pid for w in workers]
    report = serve.stdout.readline()
    t_report = time.monotonic()
    serve.stdout.read()
    usage = [reap(serve.pid)]
    serve.returncode = 0
    # The workers have nothing left to do once the report is out; a traced
    # run waits for them to notice (the drain), an untraced one stops them.
    drain = 0.0
    if drain_wait:
        pending = {w.pid for w in workers}
        while pending and time.monotonic() - t_report < DRAIN_WAIT_S:
            for pid in list(pending):
                done, _, u = os.wait4(pid, os.WNOHANG)
                if done:
                    pending.discard(pid)
                    usage.append(u)
            time.sleep(0.02)
        drain = time.monotonic() - t_report
        for pid in pending:
            stop(pid)
            usage.append(reap(pid))
    else:
        for w in workers:
            stop(w.pid)
            usage.append(reap(w.pid))
    for w in workers:
        w.returncode = 0
    children.clear()
    logf.close()

    with open(paths["metrics.json"]) as f:
        metrics = {m["name"]: m for m in json.load(f)["metrics"]}
    with open(paths["trace.json"]) as f:
        events = json.load(f)["traceEvents"]
    shards = {}
    for e in events:
        if e.get("ph") == "X" and e["name"].startswith("shard-"):
            shards.setdefault(e["pid"], []).append((e["ts"] / 1e6, e["dur"] / 1e6))
    starts = [min(s for s, _ in v) for v in shards.values()]
    first, ready = min(starts), max(starts)

    def value(name):
        return metrics[name]["value"] if name in metrics else 0

    audits = value("fmc_audit_audits_total")
    completed = value("fmc_dist_shards_completed_total")
    gaps, busy = [], 0.0
    for v in shards.values():
        v.sort()
        busy += sum(d for _, d in v)
        gaps += [(b[0] - (a[0] + a[1])) * 1e3 for a, b in zip(v, v[1:])]
    window = max(s + d for v in shards.values() for s, d in v) - first
    return {
        "report": report,
        "campaign_s": t_report - t0,
        "setup_s": ready,  # the coordinator's clock starts with its process
        "time_to_ci_s": (t_report - t0) - first,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
        "rss_mb": sum(u.ru_maxrss for u in usage) / 1024.0,
        "simulated": samples + audits * shard_size,
        "failed": value("fmc_dist_stale_results_total") + value("fmc_dist_frames_corrupt_total")
        + value("fmc_audit_mismatches_total") + json.loads(report)["outcomes"]["quarantined"],
        "shard_results": completed + audits,
        "gaps_ms": gaps,
        "idle_frac": 1.0 - busy / (len(shards) * window),
        "wire_bytes_per_shard": (value("fmc_dist_bytes_received_total") + value("fmc_dist_bytes_sent_total"))
        / max(1, value("fmc_dist_leases_issued_total") + audits),
        "reexec_frac": audits / max(1, completed),
        "drain_s": drain,
        "shard_spans": sum(len(v) for v in shards.values()),
        "busy_s": busy,
        "ckpt": paths["ckpt"],
    }


def quantile(xs, q):
    xs = sorted(xs)
    return xs[max(0, min(len(xs) - 1, int(-(-q * len(xs) // 1)) - 1))]


def fleet_layer_metrics(c):
    return {
        "dist.lease_rtt_ms.p50": quantile(c["gaps_ms"], 0.5),
        "dist.lease_rtt_ms.p99": quantile(c["gaps_ms"], 0.99),
        "dist.worker_idle_frac": c["idle_frac"],
        "dist.wire_bytes_per_shard": c["wire_bytes_per_shard"],
        "audit.reexec_frac": c["reexec_frac"],
        "dist.drain_s": c["drain_s"],
    }


def reference(program, model, samples, shard_size, seed):
    return run_bench(["fleet-ref", "--program", program, "--model", model, "--seed", seed,
                      "--samples", samples, "--shard-size", shard_size])


def append_fleet_rows(table, c):
    """The workers' shard spans from the coordinator's fleet trace, as one
    more row of the per-layer table (allocation is not traced there)."""
    with open(table, "a") as f:
        busy_us = c["busy_s"] * 1e6
        f.write(f"dist.shard\t{c['shard_spans']}\t{busy_us:.0f}\t{busy_us:.0f}\t-\t-\n")


# ---- workloads ------------------------------------------------------------


def run_fleet(seed, seconds, trace):
    f = FLEET
    ref = reference(f["program"], f["model"], f["samples"], f["shard_size"], seed)
    checks, campaigns = {}, []
    t_begin = time.monotonic()
    while True:
        c = fleet_campaign(f["program"], f["model"], f["samples"], f["shard_size"], seed,
                           f"fleet{len(campaigns)}", drain_wait=trace)
        checks[f"merged_report_equals_reference_{len(campaigns)}"] = c["report"] == ref
        campaigns.append(c)
        if trace or (len(campaigns) >= MIN_REPS and time.monotonic() - t_begin >= seconds):
            break
    attempted = sum(c["shard_results"] for c in campaigns) + len(checks)
    failed = sum(c["failed"] for c in campaigns) + sum(not ok for ok in checks.values())
    if not trace:
        log(f"medians over {len(campaigns)} campaigns")
        med = lambda k: statistics.median(c[k] for c in campaigns)
        ttc = med("time_to_ci_s")
        metrics = {
            "time_to_ci_s": ttc,
            "campaign_s": med("campaign_s"),
            "cpu_s": med("cpu_s"),
            "samples_to_ci": f["samples"],
            "samples_per_s": statistics.median(c["simulated"] / c["time_to_ci_s"] for c in campaigns),
            "setup_s": med("setup_s"),
            "peak_heap_mb": max(c["rss_mb"] for c in campaigns),
        }
        return metrics, checks, attempted, failed
    c = campaigns[0]
    out = os.path.join(OUT, "trace-fleet-seu-audit")
    os.makedirs(out, exist_ok=True)
    r = bench(["fleet-layers", "--seed", seed, "--samples", f["samples"], "--shard-size", f["shard_size"],
               "--ckpt", c["ckpt"], "--out", out])
    append_fleet_rows(os.path.join(out, "layers.tsv"), c)
    checks.update(r["checks"])
    metrics = dict(r["metrics"])
    metrics.update(fleet_layer_metrics(c))
    metrics["ssf.samples_evaluated"] = c["simulated"]
    metrics["ssf.useful_frac"] = f["samples"] / c["simulated"]
    return metrics, checks, attempted + r["attempted"], failed + r["failed"]


def run_ci(name, spec, seed, seconds, trace):
    program = spec["program"]
    prune = ["--prune"] if spec["prune"] else []
    if not trace:
        r = bench(["ci", "--program", program, *prune, "--seed", seed, "--seconds", seconds])
        log(f"medians over {r['campaigns']} campaigns and {len(r['setup_walls'].split())} set-ups")
        return r["metrics"], r["checks"], r["attempted"], r["failed"]
    out = os.path.join(OUT, f"trace-{name}")
    os.makedirs(out, exist_ok=True)
    r = bench(["ci-trace", "--program", program, *prune, "--seed", seed, "--out", out])
    metrics, checks = dict(r["metrics"]), dict(r["checks"])
    # The fleet layers of this workload's own campaign: a small loopback run.
    c = fleet_campaign(program, "disc-transient", MINI_FLEET_SAMPLES, FLEET["shard_size"], seed,
                       f"mini-{name}", drain_wait=True)
    checks["mini_fleet_equals_reference"] = c["report"] == reference(
        program, "disc-transient", MINI_FLEET_SAMPLES, FLEET["shard_size"], seed)
    append_fleet_rows(os.path.join(out, "layers.tsv"), c)
    metrics.update(fleet_layer_metrics(c))
    return metrics, checks, r["attempted"] + c["shard_results"] + 1, \
        r["failed"] + c["failed"] + (not checks["mini_fleet_equals_reference"])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    os.makedirs(OUT, exist_ok=True)
    build()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    spec = WORKLOADS[a.workload]
    trace = a.trace == 1
    if spec.get("fleet"):
        metrics, checks, attempted, failed = run_fleet(a.seed, a.seconds, trace)
    else:
        metrics, checks, attempted, failed = run_ci(a.workload, spec, a.seed, a.seconds, trace)
    shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)

    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    for name, ok in checks.items():
        if not ok:
            log(f"output check failed: {name}")
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    correct = all(checks.values()) and failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
