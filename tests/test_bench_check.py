"""The bench's own output check passes on the construct workload's digest prefix.

The bench records, checks and oracle-checks every op after its timed loop;
an exception there fails the whole run.  This runs that path from bench/
as it stands, over the 200 ops its digest covers, for seeds 1, 2 and 3.
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


def _checked(monkeypatch, seed):
    """Run and check the construct digest prefix at a seed; (run, workload, outcomes)."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports host, workloads and oracle
    run = _load_run()
    wl = importlib.import_module("workloads").WORKLOADS["construct"]
    done, outcomes, _, _ = run.run_ops(wl, wl.build(seed), count=wl.digest_ops)
    failed, problems, oracle_checked = run.check(wl, seed, done, outcomes)
    assert (len(done), sum(failed), problems) == (wl.digest_ops, 0, [])
    assert oracle_checked == wl.oracle_ops
    return run, wl, outcomes


def test_construct_digest_prefix_passes_the_bench_check(monkeypatch):
    run, wl, outcomes = _checked(monkeypatch, 1)
    assert run.digest(wl, outcomes).startswith(CONSTRUCT_DIGEST_PREFIX)


@pytest.mark.parametrize("seed", [2, 3])
def test_construct_check_passes_on_more_seeds(monkeypatch, seed):
    # no digest here: these seeds' bits, like seed 1's, depend on the host's BLAS
    _checked(monkeypatch, seed)
