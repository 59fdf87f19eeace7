"""Seeded samplers shared across test modules."""

import numpy as np

from wiretap_adc import (
    AdcSpec,
    ComplexAdcPair,
    ComplexGain,
    DiscreteInput,
    WiretapChannel,
    one_bit_pair,
)


def random_adc(rng, lo=-3.0, hi=3.0, min_levels=2, max_levels=8):
    levels = int(rng.integers(min_levels, max_levels + 1))
    ths = np.sort(rng.uniform(lo, hi, levels - 1))
    return AdcSpec(
        thresholds=tuple(float(t) for t in ths),
        outputs=tuple(float(i) for i in range(levels)),
    )


def random_adc_pair(rng, **kwargs):
    return ComplexAdcPair(real_part=random_adc(rng, **kwargs),
                          imag_part=random_adc(rng, **kwargs))


def random_gain(rng, magnitude, mode):
    if mode == "complex":
        angle = float(rng.uniform(-np.pi, np.pi))
        return ComplexGain(magnitude * np.cos(angle), magnitude * np.sin(angle))
    sign = float(rng.choice([-1.0, 1.0]))
    return ComplexGain(magnitude * sign, 0.0)


def criterion1_channel(rng, mode):
    """One-bit legitimate receiver, 2-8 level eavesdropper, gap >= 0.05."""
    while True:
        m1 = float(rng.uniform(0.1, 4.0))
        m2 = float(rng.uniform(0.1, 4.0))
        if abs(m1 - m2) >= 0.05:
            break
    return WiretapChannel(
        w1=random_gain(rng, m1, mode),
        w2=random_gain(rng, m2, mode),
        legit_adc=one_bit_pair(),
        eave_adc=random_adc_pair(rng),
        mode=mode,
    )


def one_bit_real_channel(rng, legit_weaker):
    """Both receivers one-bit, real mode, strict magnitude ordering."""
    lo = float(rng.uniform(0.2, 1.2))
    hi = lo + float(rng.uniform(0.1, 1.5))
    m1, m2 = (lo, hi) if legit_weaker else (hi, lo)
    return WiretapChannel(
        w1=random_gain(rng, m1, "real"),
        w2=random_gain(rng, m2, "real"),
        legit_adc=one_bit_pair(),
        eave_adc=one_bit_pair(),
        mode="real",
    )


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
    n = int(rng.integers(min_points, max_points + 1))
    while True:
        pts = np.round(rng.uniform(-2.0, 2.0, n), 6) + 1j * np.round(rng.uniform(-2.0, 2.0, n), 6)
        if len(set(pts.tolist())) == n:
            break
    probs = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    return DiscreteInput(tuple(pts.tolist()), tuple(float(p) for p in probs))


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
