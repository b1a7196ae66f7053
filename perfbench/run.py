#!/usr/bin/env python3
"""Serial, self-checking benchmark of the chopim simulator.

One run:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/unit into .bench_build/, then for S seconds starts one
fresh unit process after another (each pays the process-wide first-use
costs a user's chopim call pays), checks every unit's simulated outputs,
and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, medians over the
run's units. With --trace 1 untraced and traced units alternate and the
metrics are the per-layer ones: CPU-profile self time by package, spans,
counters, and the tracing overhead.

    python3 perfbench/run.py --steadiness K [--seconds S]

runs two sets of K runs per workload, interleaved (seeds 1..K in both),
and prints each set's quartiles per end-to-end metric and whether the two
sets agree within the metric's bound in BENCHMARK.json.

    python3 perfbench/run.py --regen

rewrites perfbench/expected.json: the default-seed outputs of every
workload and the exact full-budget Fig 11 rows (about 100 s serial) the
sampled-mode error metrics compare against. Those metrics measure sampled
against exact simulation only: the repository holds no hardware
reference, so the model itself is unvalidated and no error against the
paper is reported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
UNIT = os.path.join(BUILD, "perfbench-unit")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ["mixed_copy", "host_compute", "sampled_fig11", "svrg_fig15b"]
SEEDED = {"mixed_copy", "host_compute"}  # the figures run at the harness's fixed seeds
DEFAULT_SEED = 1
UNIT_TIMEOUT = 120

# Per-layer metrics: packages whose profile self time is reported (the
# rest sum into "other"), counters the units read, and spans by name.
PACKAGES = ["mc", "dram", "nda", "cache", "cpu", "workload", "sim", "addrmap",
            "ndart", "experiments", "sample", "svrg", "runtime"]
COUNTERS = {"dram.cmds": "count", "dram.row_hit": "ratio", "nda.blocks": "count",
            "nda.stalls_host": "count", "nda.stalls_policy": "count",
            "cache.demand": "count", "cache.prefetches": "count", "cpu.retired": "count",
            "cpu.ns_per_instr": "ns", "sim.dram_cycles": "count", "sim.ns_per_cycle": "ns",
            "ndart.launches": "count", "experiments.points": "count",
            "experiments.warm_forks": "count", "runtime.alloc_mb": "MB",
            "runtime.gc_cycles": "count"}
SPANS = {"setup.new_s": "sim.New", "setup.alloc_s": "operand.alloc",
         "sim.warm_s": "sim.RunFast.warm", "sim.measure_s": "sim.RunFast.measure",
         "experiments.fig_s": "experiments.Fig"}


class Failed(Exception):
    """A run that cannot produce its metrics."""


def go_env():
    """Keeps the Go toolchain's caches and temporary files in the build dir."""
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", CGO_ENABLED="0")
    return env


def build():
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        raise Failed("no go.mod in %s: run from the root of a chopim checkout" % ROOT)
    r = subprocess.run(["go", "build", "-buildvcs=false", "-o", UNIT, "./perfbench/unit"],
                       cwd=ROOT, env=go_env(), capture_output=True, text=True, timeout=850)
    if r.returncode != 0:
        raise Failed("build failed:\n" + r.stderr)


def run_unit(args, timeout=UNIT_TIMEOUT):
    """Runs the unit binary in a fresh process; returns (report, error)."""
    try:
        r = subprocess.run([UNIT] + args, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = r.stdout.strip().splitlines()
    if not lines:
        return None, "exit %d: %s" % (r.returncode, r.stderr.strip()[-500:])
    rep = json.loads(lines[-1])
    if r.returncode != 0:
        return rep, rep.get("error") or "exit %d" % r.returncode
    return rep, None


def workload_unit(workload, seed, profile=None):
    args = ["-workload", workload, "-seed", str(seed), "-t0", str(time.time_ns())]
    return run_unit(args + (["-trace", profile] if profile else []))


def fig11_errors(rows, ref):
    """Largest relative error (%) of sampled host IPC and of NDA
    utilization over every Fig 11 row, against the exact reference rows.
    The (mix, config) sets must match: no row may be dropped."""
    def table(rs):
        out = {}
        for r in rs:
            for c in ["SharedDOT", "SharedCOPY", "PartDOT", "PartCOPY"]:
                out[(r["Mix"], c)] = (r[c]["HostIPC"], r[c]["NDAUtil"])
            out[(r["Mix"], "Ideal")] = (r["IdealHostIPC"], None)  # host only
        return out
    got, want = table(rows), table(ref)
    if set(got) != set(want):
        raise Failed("sampled Fig 11 rows %s differ from the reference rows %s"
                     % (sorted(got), sorted(want)))
    ipc = max(abs(got[k][0] - w[0]) / w[0] for k, w in want.items())
    nda = max(abs(got[k][1] - w[1]) / w[1] for k, w in want.items() if w[1] is not None)
    return {"ipc_err_pct": {"value": 100 * ipc, "unit": "%"},
            "nda_err_pct": {"value": 100 * nda, "unit": "%"}}


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def run(args, expected):
    # Outputs are checked against the stored ones where they exist: at
    # the default seed, and always for the fixed-seed figures. At other
    # seeds every unit must match the run's first.
    want = None
    if args.workload not in SEEDED or args.seed == DEFAULT_SEED:
        want = expected["outputs"][args.workload]
    plain, traced, errors, durations = [], [], [], []
    prof = os.path.join(BUILD, "unit-%d.pprof" % os.getpid())
    start = time.monotonic()
    while True:
        # Traced runs alternate untraced and traced units ABBA, so
        # neither side always runs first.
        trace_this = args.trace == 1 and len(durations) % 4 in (1, 2)
        t = time.monotonic()
        rep, err = workload_unit(args.workload, args.seed, prof if trace_this else None)
        durations.append(time.monotonic() - t)
        if err is None:
            if want is None:
                want = rep["output"]
            elif rep["output"] != want:
                err = "output differs from the expected output"
        if err is not None:
            errors.append(err)
            print("perfbench: %s unit failed: %s" % (args.workload, err), file=sys.stderr)
        else:
            (traced if trace_this else plain).append(rep)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) > args.seconds and (traced or args.trace == 0):
            break
        if len(errors) >= 3 and not plain:
            break
    if os.path.exists(prof):
        os.remove(prof)
    if not plain or (args.trace == 1 and not traced):
        raise Failed("no unit of %s completed" % args.workload)

    attempted, failed = len(durations), len(errors)
    print(json.dumps({"units": len(plain), "wall_s": [r["wall_s"] for r in plain]}))
    if args.trace == 1:
        metrics = per_layer(traced, plain)
    else:
        metrics = {"wall_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
                   "setup_s": {"value": median_of(plain, "setup_s"), "unit": "s"},
                   "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"}}
        # The sampled-mode error metrics come from the sampled Fig 11
        # sweep. Workloads that do not time that sweep run it once more,
        # untimed, so every workload reports them.
        rows = plain[0]["output"]
        if args.workload != "sampled_fig11":
            attempted += 1
            rep, err = workload_unit("sampled_fig11", DEFAULT_SEED)
            if err is None and rep["output"] != expected["outputs"]["sampled_fig11"]:
                err = "sampled Fig 11 rows differ from the expected rows"
            if err is not None:
                raise Failed("accuracy probe failed: " + err)
            rows = rep["output"]
        metrics.update(fig11_errors(rows, expected["fig11_exact"]["rows"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def per_layer(traced, plain):
    def med(f):
        return statistics.median(f(r) for r in traced)

    m = {}
    for pkg in PACKAGES:
        m[pkg + ".self_s"] = {"value": med(lambda r: r["self_s"].get(pkg, 0.0)), "unit": "s"}
    m["other.self_s"] = {"value": med(lambda r: sum(
        v for k, v in r["self_s"].items() if k not in PACKAGES)), "unit": "s"}
    for c, unit in COUNTERS.items():
        m[c] = {"value": med(lambda r: r["counts"].get(c, 0.0)), "unit": unit}
    for metric, prefix in SPANS.items():
        m[metric] = {"value": med(lambda r: sum(
            s["end_s"] - s["start_s"] for s in r["spans"] if s["name"].startswith(prefix))),
            "unit": "s"}
    overhead = median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1
    m["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    print(json.dumps({"spans": traced[-1]["spans"]}))
    return m


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    vals = {}  # (workload, set, metric) -> values
    counts = {}  # (workload, set) -> [failed, attempted]
    for seed in range(1, args.steadiness + 1):
        for w in WORKLOADS:
            for side in "AB":
                r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                    "--seed", str(seed), "--seconds", str(args.seconds),
                                    "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
                lines = r.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if r.returncode == 0 and lines else None
                fa = counts.setdefault((w, side), [0, 0])
                if not res:
                    fa[0], fa[1] = fa[0] + 1, fa[1] + 1
                    print("%s seed %d set %s failed: %s" % (w, seed, side, r.stderr.strip()))
                    continue
                fa[0], fa[1] = fa[0] + res["failed"], fa[1] + res["attempted"]
                if res["correct"]:
                    for k, v in res["metrics"].items():
                        vals.setdefault((w, side, k), []).append(v["value"])
                print("%-14s seed %2d set %s %d/%d failed %s" % (
                    w, seed, side, res["failed"], res["attempted"], " ".join(
                        "%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items())),
                    flush=True)
    ok = True
    print("\n%-14s %-12s %-30s %-30s %6s %6s %5s %s" % (
        "workload", "metric", "set A q1/median/q3", "set B q1/median/q3",
        "iqr A", "iqr B", "bound", "agree"))
    for w in WORKLOADS:
        for k, bound in bounds.items():
            a, b = vals.get((w, "A", k), []), vals.get((w, "B", k), [])
            if len(a) < 2 or len(b) < 2:
                print("%-14s %-12s too few runs" % (w, k))
                ok = False
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            iqr_a, iqr_b = (qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]
            # Either set may be the later one: each median must be within
            # the bound of the other. The spread limit exempts setup_s.
            agree = qb[1] <= qa[1] * (1 + bound) and qa[1] <= qb[1] * (1 + bound)
            if k != "setup_s":
                agree = agree and iqr_a <= bound and iqr_b <= bound
            ok = ok and agree
            print("%-14s %-12s %-30s %-30s %5.1f%% %5.1f%% %4.0f%% %s" % (
                w, k, "%.4g/%.4g/%.4g" % tuple(qa), "%.4g/%.4g/%.4g" % tuple(qb),
                100 * iqr_a, 100 * iqr_b, 100 * bound, "yes" if agree else "NO"))
    for (w, side), (failed, attempted) in sorted(counts.items()):
        print("%-14s set %s: %d of %d operations failed" % (w, side, failed, attempted))
        ok = ok and failed == 0
    print("\nsets agree within bounds: %s" % ("yes" if ok else "NO"))
    return ok


def regen():
    outputs = {}
    for w in WORKLOADS:
        rep, err = workload_unit(w, DEFAULT_SEED)
        if err is not None:
            raise Failed("%s: %s" % (w, err))
        outputs[w] = rep["output"]
    rows, err = run_unit(["-reference"], timeout=None)
    if err is not None:
        raise Failed("reference: " + err)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    doc = {"seed": DEFAULT_SEED, "outputs": outputs,
           "fig11_exact": {"commit": commit, "how": "unit -reference: experiments.Fig11"
                           "(DefaultOptions()), exact, Parallel=1", "rows": rows}}
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    err = fig11_errors(outputs["sampled_fig11"], rows)
    print("wrote %s; sampled Fig 11 error: ipc %.2f%%, nda %.2f%%"
          % (EXPECTED, err["ipc_err_pct"]["value"], err["nda_err_pct"]["value"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--regen", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.steadiness or args.regen):
        ap.error("one of --workload, --steadiness or --regen is required")
    try:
        build()
        if args.regen:
            regen()
        elif args.steadiness:
            return 0 if steadiness(args) else 1
        else:
            with open(EXPECTED) as f:
                run(args, json.load(f))
    except Failed as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
