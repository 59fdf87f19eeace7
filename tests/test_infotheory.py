import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import random_real_input, random_stochastic_matrix
from wiretap_adc import (
    ComplexGain,
    DiscreteInput,
    TransitionMatrix,
    ValidationError,
    WiretapChannel,
    binary_entropy,
    folding_functions,
    information_density,
    mutual_information,
    one_bit_pair,
    q_function,
    secrecy_rate,
    transition_matrix,
    z_rate,
)


def random_matrix_obj(rng, n, m):
    probs = random_stochastic_matrix(rng, n, m)
    return TransitionMatrix(
        inputs=tuple(complex(i) for i in range(n)),
        output_alphabet=tuple(float(j) for j in range(m)),
        probs=probs,
    )


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.3) == pytest.approx(oracles.H_OF_0_3, rel=1e-15)
    with pytest.raises(ValidationError):
        binary_entropy(-0.1)
    with pytest.raises(ValidationError):
        binary_entropy(float("nan"))


def test_mutual_information_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 9))
        mat = random_matrix_obj(rng, n, m)
        probs = rng.dirichlet(np.ones(n))
        dist = DiscreteInput(mat.inputs, tuple(probs))
        want = oracles.brute_mi(list(probs), mat.probs.tolist())
        assert mutual_information(dist, mat) == pytest.approx(want, abs=1e-13)


def test_mutual_information_edge_cases():
    # noiseless channel: I = H(X)
    ident = TransitionMatrix(
        inputs=(0j, 1 + 0j), output_alphabet=(0.0, 1.0), probs=np.eye(2)
    )
    dist = DiscreteInput((0j, 1 + 0j), (0.3, 0.7))
    assert mutual_information(dist, ident) == pytest.approx(
        binary_entropy(0.3), abs=1e-15
    )
    # constant channel: I = 0
    const = TransitionMatrix(
        inputs=(0j, 1 + 0j), output_alphabet=(0.0, 1.0),
        probs=np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    assert mutual_information(dist, const) == 0.0
    # zero-probability atom does not contribute
    dist0 = DiscreteInput((0j, 1 + 0j), (0.0, 1.0))
    assert mutual_information(dist0, ident) == 0.0


def test_mutual_information_requires_aligned_support():
    mat = random_matrix_obj(np.random.default_rng(0), 2, 3)
    dist = DiscreteInput((5 + 0j, 6 + 0j), (0.5, 0.5))
    with pytest.raises(ValidationError):
        mutual_information(dist, mat)


def test_secrecy_rate_report_fields():
    chan = WiretapChannel(
        w1=ComplexGain(2.0), w2=ComplexGain(1.0),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    dist = DiscreteInput((-1.5, 1.5), (0.5, 0.5))
    rep = secrecy_rate(chan, dist)
    assert rep.rs == rep.i1 - rep.i2
    assert rep.power == pytest.approx(2.25, rel=1e-15)
    assert rep.i1 > rep.i2 > 0.0
    assert rep.to_json() == {
        "i1": rep.i1, "i2": rep.i2, "rs": rep.rs, "power": rep.power
    }
    with pytest.raises(ValidationError):
        secrecy_rate(chan, DiscreteInput((1j,), (1.0,)))


def test_bpsk_one_bit_rate_frozen_value():
    chan = WiretapChannel(
        w1=ComplexGain(1.0), w2=ComplexGain(0.5),
        legit_adc=one_bit_pair(), eave_adc=one_bit_pair(), mode="real",
    )
    rep = secrecy_rate(chan, DiscreteInput((-1.0, 1.0), (0.5, 0.5)))
    assert rep.i1 == pytest.approx(oracles.BPSK_ONE_BIT_RATE_J1, abs=2e-16)


def test_z_rate_matches_explicit_z_channel():
    for phi in (0.1, 0.35, 0.5, 0.72, 0.9):
        for p in (0.0, 0.05, 0.3, 0.6, 0.95, 1.0):
            want = oracles.z_mi_oracle(phi, p)
            assert z_rate(phi, p) == pytest.approx(want, abs=1e-15)


def test_z_rate_domain():
    with pytest.raises(ValidationError):
        z_rate(0.0, 0.5)
    with pytest.raises(ValidationError):
        z_rate(1.0, 0.5)
    with pytest.raises(ValidationError):
        z_rate(0.5, -0.01)
    with pytest.raises(ValidationError):
        z_rate(0.5, 1.01)


def test_information_density_expectation_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        mat = random_matrix_obj(rng, n, m)
        dist = DiscreteInput(mat.inputs, tuple(rng.dirichlet(np.ones(n))))
        mean = math.fsum(
            p * information_density(x, dist, mat)
            for x, p in zip(dist.points, dist.probs)
        )
        assert mean == pytest.approx(mutual_information(dist, mat), abs=1e-12)


def test_information_density_off_support_and_infinity():
    ident = TransitionMatrix(
        inputs=(0j, 1 + 0j), output_alphabet=(0.0, 1.0), probs=np.eye(2)
    )
    dist = DiscreteInput((0j, 1 + 0j), (1.0, 0.0))
    # the second output never occurs, so a row landing there has density +inf
    assert information_density(1 + 0j, dist, ident) == math.inf
    with pytest.raises(ValidationError):
        information_density(9 + 0j, dist, ident)
    # explicit row for an off-support point works
    val = information_density(None, dist, ident, row=np.array([1.0, 0.0]))
    assert val == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValidationError):
        information_density(None, dist, ident, row=np.array([1.0, 0.0, 0.0]))


def test_folding_functions_tail_identities():
    rng = np.random.default_rng(17)
    for _ in range(15):
        dist = random_real_input(rng)
        w = float(rng.uniform(0.1, 3.0))
        c, d, f_val = folding_functions(dist, w)
        x = dist.real_points()
        p = np.asarray(dist.probs)
        e_folded = float(p @ [q_function(w * abs(v)) for v in x])
        e_signed = float(p @ [q_function(w * v) for v in x])
        assert c - d == pytest.approx(e_folded, abs=1e-15)
        assert c + d == pytest.approx(e_signed, abs=1e-15)
        assert 0.0 <= d <= c <= 0.5 + 1e-15
        assert f_val == pytest.approx(
            binary_entropy(c - d) - binary_entropy(min(1.0, c + d)), abs=1e-15
        )


def test_folding_functions_requires_positive_gain_and_real_input():
    dist = DiscreteInput((-1.0, 0.5), (0.5, 0.5))
    with pytest.raises(ValidationError):
        folding_functions(dist, 0.0)
    with pytest.raises(ValidationError):
        folding_functions(dist, -1.0)
    with pytest.raises(ValidationError):
        folding_functions(DiscreteInput((1j,), (1.0,)), 1.0)


def test_discrete_input_validation():
    with pytest.raises(ValidationError):
        DiscreteInput((), ())
    with pytest.raises(ValidationError):
        DiscreteInput((1.0, 1.0), (0.5, 0.5))       # duplicate points
    with pytest.raises(ValidationError):
        DiscreteInput((1.0, 2.0), (0.6, 0.6))       # bad normalization
    with pytest.raises(ValidationError):
        DiscreteInput((1.0, 2.0), (-0.1, 1.1))      # negative mass
    with pytest.raises(ValidationError):
        DiscreteInput((float("inf"),), (1.0,))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutual_information_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 10))
    mat = random_matrix_obj(rng, n, m)
    dist = DiscreteInput(mat.inputs, tuple(rng.dirichlet(np.ones(n))))
    mi = mutual_information(dist, mat)
    assert 0.0 <= mi <= math.log2(min(n, m)) + 1e-12
