"""Seeded samplers and C1 builders shared across test modules.

The samplers come from bench/workloads.py, loaded from that file, so the
tests and the bench draw the same way: random_adc, random_adc_pair,
random_gain, criterion1_channel (the bench's c1_channel), one_bit_real_channel
and random_complex_input's points.  random_real_input keeps its own copy for
its mixed variants.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from wiretap_adc import DiscreteInput, SweepExhaustedError, WiretapChannel, achieve


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
random_adc = _WORKLOADS.random_adc
random_adc_pair = _WORKLOADS.random_adc_pair
random_gain = _WORKLOADS.random_gain
criterion1_channel = _WORKLOADS.c1_channel  # one-bit legit, 2-8 level eavesdropper, gap >= 0.05
one_bit_real_channel = _WORKLOADS.one_bit_real_channel


def c1_channel(case, mode=None):
    """C1 config case, from seed [1, 1, case]; by default real for odd cases, complex for even."""
    mode = mode or ("real" if case % 2 else "complex")
    return criterion1_channel(np.random.default_rng([1, 1, case]), mode)


def c1_outcome(chan, options=None, power_budget=None):
    """achieve's result, or the exhaustion diagnostics when the sweep exhausts."""
    try:
        return achieve(chan, options, power_budget)
    except SweepExhaustedError as exc:
        return exc.diagnostics


def sha256_lines(reprs):
    """sha256 hex digest of the strings joined one per line."""
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


def random_real_input(rng, mixed=None):
    """Finite real support with distinct magnitudes and no tiny atoms.

    mixed=True puts at least one point strictly on each side of zero (atoms
    never fall below 0.2/n); mixed=False keeps the support single-signed.
    """
    n = int(rng.integers(2, 6))
    while True:
        mags = np.round(rng.uniform(0.05, 2.5, n), 6)
        if len(set(mags)) == n:
            break
    if mixed is None:
        signs = rng.choice([-1.0, 1.0], n)
    elif mixed:
        signs = rng.choice([-1.0, 1.0], n)
        signs[0], signs[1] = 1.0, -1.0
    else:
        signs = np.full(n, float(rng.choice([-1.0, 1.0])))
    probs = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    return DiscreteInput(tuple(float(m) * float(s) for m, s in zip(mags, signs)),
                         tuple(float(p) for p in probs))


def random_complex_input(rng, min_points, max_points):
    """min_points-max_points distinct complex points in [-2, 2]^2; atoms never below 0.2/n."""
    return _WORKLOADS.random_complex_input(rng, int(rng.integers(min_points, max_points + 1)))


def wide_case(case):
    """Case 0-59 of the wide digest, on 8-64-level ADCs: (channel, input, budget).

    Cases 0-39 are complex channels with 16-64 input points and no budget;
    40-59 are real channels with a kkt_check budget.
    """
    rng = np.random.default_rng([14, case])
    mode = "complex" if case < 40 else "real"
    levels = {"min_levels": 8, "max_levels": 64}
    chan = WiretapChannel(
        w1=random_gain(rng, float(rng.uniform(0.1, 4.0)), mode),
        w2=random_gain(rng, float(rng.uniform(0.1, 4.0)), mode),
        legit_adc=random_adc_pair(rng, **levels),
        eave_adc=random_adc_pair(rng, **levels),
        mode=mode,
    )
    if mode == "complex":
        return chan, random_complex_input(rng, 16, 64), None
    return chan, random_real_input(rng), float(rng.uniform(0.5, 4.0))


def random_stochastic_matrix(rng, n, m):
    raw = rng.dirichlet(np.ones(m), size=n)
    return raw
