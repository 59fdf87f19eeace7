"""The bench's own output check passes on each workload's digest prefix.

The bench records, checks and oracle-checks every op after its timed loop;
an exception there fails the whole run.  This runs that path from bench/
as it stands, over the ops its digest covers: construct's 200 for seeds 1, 2
and 3, and wide's 200 (fresh rates, KKT sanity on the 2001-point grid and
3 oracle ops) for seed 1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the seed-1 construct digest as bench/run.py prints it: its first 16 hex digits
CONSTRUCT_DIGEST_PREFIX = "f630f1838a01e1d7"


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checked(monkeypatch, workload, seed):
    """Run and check a workload's digest prefix at a seed; (run, workload, outcomes)."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports host, workloads and oracle
    run = _load_run()
    wl = importlib.import_module("workloads").WORKLOADS[workload]
    done, outcomes, _, _ = run.run_ops(wl, wl.build(seed), count=wl.digest_ops)
    failed, problems, oracle_checked = run.check(wl, seed, done, outcomes)
    assert (len(done), sum(failed), problems) == (wl.digest_ops, 0, [])
    assert oracle_checked == wl.oracle_ops
    return run, wl, outcomes


def test_construct_digest_prefix_passes_the_bench_check(monkeypatch):
    run, wl, outcomes = _checked(monkeypatch, "construct", 1)
    assert run.digest(wl, outcomes).startswith(CONSTRUCT_DIGEST_PREFIX)


@pytest.mark.parametrize("seed", [2, 3])
def test_construct_check_passes_on_more_seeds(monkeypatch, seed):
    # no digest here: these seeds' bits, like seed 1's, depend on the host's BLAS
    _checked(monkeypatch, "construct", seed)


def test_wide_digest_prefix_passes_the_bench_check(monkeypatch):
    # no digest: WIDE_RESULTS_SHA256 pins these kernels, and wide's bits depend on the host's BLAS
    _checked(monkeypatch, "wide", 1)
