"""Benchmark of the wiretap-adc library: three seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py                                   # every workload, untraced and traced
    python3 bench/run.py --workload construct --seed 3 --seconds 45 --trace 0

One caller runs operations back to back in this process and starts no
threads.  ``--trace 0`` times the operations with the library untouched and
reports the end-to-end metrics, per-op times rescaled to a nominal host speed
(see host.py); ``--trace 1`` alternates untraced and traced
passes over a fixed prefix of the operations and reports the per-layer
metrics plus the tracing overhead.  Every output is checked outside the
timed region, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import host

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 5
CLI_SWEEP_REPEATS = 3
MIN_TRACED_PAIRS = 2

# name -> (unit, better).  Times and rates without _raw are rescaled to the
# nominal host speed (see host.py); the _raw ones are wall-clock values.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p95_ms": ("ms", "lower"),
    "failed_frac": ("frac", "lower"),
    "floor_cleared_frac": ("frac", "higher"),
    "kkt_pass_frac": ("frac", "higher"),
    "rs_mean_bits": ("bit", "higher"),
    "setup_s_raw": ("s", "lower"),
    "ops_per_s_raw": ("1/s", "higher"),
    "op_p50_ms_raw": ("ms", "lower"),
    "host_ref_ms": ("ms", "lower"),
}
# Printed but left off the last line, so not in BENCHMARK.json: they are zero,
# missing on some workloads, only move on the optimize workload, or are the
# host-dependent raw values.
UNGATED = {
    "op_p95_ms", "failed_frac", "floor_cleared_frac", "kkt_pass_frac", "rs_mean_bits",
    "setup_s_raw", "ops_per_s_raw", "op_p50_ms_raw", "host_ref_ms",
    "L3.optimize.evals_per_op", "L3.optimize.nm_iterations_per_op", "L3.optimize.nm_self_s",
}
# Metrics that only mean something on some workloads.
ONLY_ON = {
    "op_p95_ms": ("construct", "wide"),
    "floor_cleared_frac": ("construct",),
    "kkt_pass_frac": ("optimize",),
    "rs_mean_bits": ("construct", "optimize"),
}

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import wiretap_adc
imported = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}].build({seed})
built = time.perf_counter()
import host, statistics
print(imported - start, built - imported, statistics.median(host.reference_ms() for _ in range(5)))
"""

# A fixed real channel whose w2_mag sweep stays below |w1|, so every point constructs.
CLI_SWEEP_CONFIG = {
    "channel": {
        "mode": "real",
        "w1": {"re": 2.0, "im": 0.0},
        "w2": {"re": 1.0, "im": 0.0},
        "legit_adc": {"thresholds": [0.0], "outputs": [-1.0, 1.0]},
        "eave_adc": {"thresholds": [-1.0, 0.0, 1.0], "outputs": [0.0, 1.0, 2.0, 3.0]},
    },
    "sweep": {"axis": "w2_mag", "start": 0.1, "stop": 1.5, "num": 64},
}


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("construct", "optimize", "wide", "all"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--out", help="also write the full report as JSON here")
    return parser


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": seed,
        "WIRETAP_ADC_THREADS": os.environ.get("WIRETAP_ADC_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure_setup(name, seed):
    """Fresh-process import plus input build, SETUP_REPEATS times, in seconds.

    Returns the median rescaled by host reference samples taken in the same
    process right after its build, the raw median, and the raw median import.
    """
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    imports, totals, scaled = [], [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        imported, built, ref_ms = (float(v) for v in done.stdout.split())
        imports.append(imported)
        totals.append(imported + built)
        scaled.append((imported + built) * host.NOMINAL_MS / ref_ms)
    return statistics.median(scaled), statistics.median(totals), statistics.median(imports)


def run_ops(wl, ops, count=None, seconds=None, clock=None):
    """Closed loop over ops: stops after count ops, or once seconds have passed.

    With seconds, at least wl.digest_ops ops run, so the digest prefix is whole.
    A host.HostClock samples the host between ops, outside the per-op times.
    Returns (ops run, outcomes, per-op seconds, wall seconds).
    """
    done, outcomes, times = [], [], []
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    minimum = count if count is not None else wl.digest_ops
    i = 0
    while i < minimum or (deadline is not None and perf_counter() < deadline):
        if clock is not None:
            clock.before_op()
        op = ops[i % len(ops)]
        t0 = perf_counter()
        outcome = wl.run(op)
        times.append(perf_counter() - t0)
        done.append(op)
        outcomes.append(outcome)
        i += 1
    return done, outcomes, times, perf_counter() - start


def digest(wl, outcomes):
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(repr(wl.record(outcome)).encode())
        h.update(b"\n")
    return h.hexdigest()


def check(wl, seed, done, outcomes):
    """Failed positions and their problems; repeats must match the first run."""
    import oracle

    first = {}
    failed = []
    problems = []
    for pos, (op, outcome) in enumerate(zip(done, outcomes)):
        record = wl.record(outcome)
        if op.index in first:
            first_record, first_failed = first[op.index]
            bad = [] if record == first_record else ["result differs from the op's first run"]
            failed.append(first_failed or bool(bad))
        else:
            bad = wl.check(op, outcome)
            first[op.index] = (record, bool(bad))
            failed.append(bool(bad))
        problems.extend((op.index, p) for p in bad)

    prefix = min(wl.digest_ops, len(done))
    candidates = [pos for pos in range(prefix) if wl.oracle_inputs(done[pos], outcomes[pos])]
    rng = np.random.default_rng([seed, 999])
    picked = rng.choice(candidates, size=min(wl.oracle_ops, len(candidates)), replace=False)
    for pos in sorted(int(p) for p in picked):
        bad = oracle.disagreement(*wl.oracle_inputs(done[pos], outcomes[pos]))
        if bad:
            failed[pos] = True
            problems.extend((done[pos].index, p) for p in bad)
    return failed, problems, len(picked)


def percentile_ms(times, q):
    return 1e3 * statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def cli_sweep_ms():
    """Median wall time of an in-process `wiretap-adc sweep`, tracing off.

    Returns (milliseconds, problems).
    """
    from wiretap_adc import cli

    WORK.mkdir(exist_ok=True)
    config, out = WORK / "sweep.json", WORK / "sweep_out.json"
    config.write_text(json.dumps(CLI_SWEEP_CONFIG))
    times, problems = [], []
    try:
        for _ in range(CLI_SWEEP_REPEATS):
            t0 = perf_counter()
            code = cli.main(["sweep", "--config", str(config), "--out", str(out)])
            times.append(perf_counter() - t0)
            rows = json.loads(out.read_text())["rows"] if code == 0 else []
            if len(rows) != 64 or not all(math.isfinite(v) for r in rows for v in r):
                problems.append(f"CLI sweep: exit {code}, {len(rows)} good rows of 64")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1e3 * statistics.median(times), problems


def run_untraced(wl, seed, seconds):
    setup_s, setup_s_raw, _ = measure_setup(wl.name, seed)
    ops = wl.build(seed)
    clock = host.HostClock()
    done, outcomes, times, wall = run_ops(wl, ops, seconds=seconds, clock=clock)
    scaled = clock.rescale(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_start = perf_counter()
    failed, problems, oracle_checked = check(wl, seed, done, outcomes)
    check_s = perf_counter() - check_start

    prefix = wl.digest_ops
    summary = wl.summary(done[:prefix], outcomes[:prefix])
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(done) / math.fsum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
        "op_p95_ms": percentile_ms(scaled, 95),
        "failed_frac": sum(failed) / len(done),
        "floor_cleared_frac": summary.get("floor_cleared_frac"),
        "kkt_pass_frac": summary.get("kkt_pass_frac"),
        "rs_mean_bits": summary.get("rs_mean_bits"),
        "setup_s_raw": setup_s_raw,
        "ops_per_s_raw": len(done) / math.fsum(times),
        "op_p50_ms_raw": 1e3 * statistics.median(times),
        "host_ref_ms": statistics.median(clock.samples),
    }
    metrics = {
        name: {"value": values[name], "unit": unit, "better": better}
        for name, (unit, better) in END_TO_END.items()
        if wl.name in ONLY_ON.get(name, (wl.name,))
    }
    details = {
        "wall_s": wall,
        "check_s": check_s,
        "digest": {"sha256": digest(wl, outcomes[:prefix]), "ops": prefix},
        "oracle_checked": oracle_checked,
        "problems": [f"op {i}: {p}" for i, p in problems[:20]],
    }
    if "exhausted" in summary:
        details["exhausted"] = summary["exhausted"]
        details["near_zero"] = summary["near_zero"]
    return metrics, len(done), sum(failed), details


def run_traced(wl, seed, seconds):
    from layers import Tracer, layer_metrics

    _, _, import_s = measure_setup(wl.name, seed)
    ops = wl.build(seed)[: wl.trace_ops]
    pairs = []  # (untraced wall, traced wall, tracer)
    done_all, outcomes_all, digests, refs = [], [], set(), []
    start = perf_counter()
    while len(pairs) < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        refs += [host.reference_ms() for _ in range(3)]
        done, plain, _, plain_wall = run_ops(wl, ops, count=len(ops))
        tracer = Tracer()
        with tracer.installed():
            _, traced, _, traced_wall = run_ops(wl, ops, count=len(ops))
        pairs.append((plain_wall, traced_wall, tracer))
        digests |= {digest(wl, plain), digest(wl, traced)}
        done_all += done + done
        outcomes_all += plain + traced
    failed, problems, oracle_checked = check(wl, seed, done_all, outcomes_all)

    sweep_ms, run_problems = cli_sweep_ms()
    if len(digests) != 1:
        run_problems.append("traced and untraced passes gave different results")
    if len({repr(tracer.counts()) for *_, tracer in pairs}) != 1:
        run_problems.append("traced passes gave different layer counts")
    _, traced_wall, tracer = pairs[0]
    metrics = layer_metrics(tracer, traced_wall)
    metrics["L4.import_s"] = (import_s, "s")
    metrics["L4.cli_sweep_ms"] = (sweep_ms, "ms")
    metrics["host.ref_ms"] = (statistics.median(refs), "ms")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced / plain - 1.0 for plain, traced, _ in pairs), "frac")
    details = {
        "pairs": len(pairs),
        "digest": {"sha256": min(digests), "ops": len(ops)},
        "oracle_checked": oracle_checked,
        "problems": run_problems + [f"op {i}: {p}" for i, p in problems[:20]],
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return metrics, len(done_all), sum(failed) + len(run_problems), details


def print_block(name, trace, env, metrics, attempted, failed, details):
    print(f"== {name} (trace {trace}) seed {env['seed']}: "
          f"{attempted} ops, {failed} failed, digest {details['digest']['sha256'][:16]} "
          f"over {details['digest']['ops']} ops")
    for metric, entry in metrics.items():
        better = f"  ({entry['better']} is better)" if "better" in entry else ""
        print(f"   {metric:34s} {entry['value']!r:>24} {entry['unit']}{better}")
    for key in ("exhausted", "near_zero", "problems"):
        if details.get(key):
            print(f"   {key}: {json.dumps(details[key])}")


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "wiretap_adc" / "__init__.py").is_file():
        print(f"error: no wiretap_adc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    reports, merged = [], {}
    attempted_total = failed_total = 0
    for name in names:
        wl = workloads.WORKLOADS[name]
        for trace in traces:
            runner = run_traced if trace else run_untraced
            metrics, attempted, failed, details = runner(wl, args.seed, args.seconds)
            print_block(name, trace, env, metrics, attempted, failed, details)
            reports.append({"workload": name, "trace": trace, "metrics": metrics,
                            "attempted": attempted, "failed": failed, **details})
            attempted_total += attempted
            failed_total += failed
            prefix = "" if len(names) == 1 else f"{name}."
            merged.update({prefix + k: dict(v, name=k) for k, v in metrics.items()})
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "seconds": args.seconds,
                                              "reports": reports}, indent=2) + "\n")
    gated = {k: {"value": v["value"], "unit": v["unit"]}
             for k, v in merged.items() if v["name"] not in UNGATED}
    print(json.dumps({"correct": failed_total == 0, "attempted": attempted_total,
                      "failed": failed_total, "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
