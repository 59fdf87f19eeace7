"""Every demo script runs to completion and prints the bytes frozen below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "folding_demo.py": "f37a92e180eeec9afa9a84496468b3d49531ed6d7db2345ac369c8240bd4ca5b",
    "optimizer_demo.py": "0360433d7dc7f1af74476450570fa7b3dc77dcdd09161b8a4758d7e0e8881d8f",
    "sweep_demo.py": "635e5977d9f23f9f71fbb9404ca79b6d16204af88af64e3ac4adc0f3bf7b4d52",
    "worked_example.py": "b5a714ede351330afe04b5b548e1cd7c6b397410699a25ed9fc79bb31afb6e8a",
}


def test_every_demo_has_a_frozen_digest():
    assert sorted(DEMO_STDOUT_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_byte_identical_to_frozen_digest(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
