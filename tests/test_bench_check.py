"""The bench's own output check passes on the construct workload's digest prefix.

The bench records, checks and oracle-checks every op after its timed loop;
an exception there fails the whole run.  This runs that path from bench/
as it stands, over the 200 ops its digest covers.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the seed-1 construct digest as bench/run.py prints it: its first 16 hex digits
CONSTRUCT_DIGEST_PREFIX = "f630f1838a01e1d7"


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_construct_digest_prefix_passes_the_bench_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports host, workloads and oracle
    run = _load_run()
    wl = importlib.import_module("workloads").WORKLOADS["construct"]
    done, outcomes, _, _ = run.run_ops(wl, wl.build(1), count=wl.digest_ops)
    failed, problems, oracle_checked = run.check(wl, 1, done, outcomes)
    assert (len(done), sum(failed), problems) == (wl.digest_ops, 0, [])
    assert oracle_checked == wl.oracle_ops
    assert run.digest(wl, outcomes).startswith(CONSTRUCT_DIGEST_PREFIX)
