import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import random_real_input, random_stochastic_matrix, sha256_lines, wide_case
from wiretap_adc import (
    ComplexGain,
    DiscreteInput,
    ValidationError,
    WiretapChannel,
    binary_entropy,
    folding_functions,
    kkt_check,
    one_bit_pair,
    q_function,
    secrecy_rate,
    z_rate,
)
from wiretap_adc.infotheory import _information


def kernel_mi(probs, rows):
    """I(X;Y) in bits of one input law through the library kernel."""
    return _information([probs], rows)[0][0]


def kernel_rates(laws, rows):
    """The kernel's rates alone: a list per law, or per support of stacked rows."""
    return _information(laws, rows)[0]


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
        rows = random_stochastic_matrix(rng, n, m)
        probs = rng.dirichlet(np.ones(n))
        want = oracles.brute_mi(list(probs), rows.tolist())
        assert kernel_mi(probs, rows) == pytest.approx(want, abs=1e-13)


def test_mutual_information_edge_cases():
    # noiseless channel: I = H(X)
    ident = np.eye(2)
    assert kernel_mi((0.3, 0.7), ident) == pytest.approx(
        binary_entropy(0.3), abs=1e-15
    )
    # constant channel: I = 0
    const = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert kernel_mi((0.3, 0.7), const) == 0.0
    # zero-probability atom does not contribute
    assert kernel_mi((0.0, 1.0), ident) == 0.0


def _one_law_mi(p, w):
    """The one-law formula: P_Y = p @ W, then p @ (row sums of W log2(W / P_Y))."""
    py = p @ w
    ratio = np.where(w > 0.0, w, 1.0) / np.where(py > 0.0, py, 1.0)
    terms = np.where(w > 0.0, w * np.log2(ratio), 0.0)
    return max(0.0, float(p @ np.where(p[:, None] > 0.0, terms, 0.0).sum(axis=1)))


@pytest.mark.parametrize(
    "n,k,batch,supports",
    [(2, 4, 9, 16), (2, 64, 9, 16), (64, 4096, 4, 2)],
    ids=["2-4-9", "2-64-9", "64-4096-4"],
)
def test_batched_kernel_matches_one_law_calls_bit_for_bit(n, k, batch, supports):
    # shapes of a construction step (two points, 2x2- and 8x8-level ADC
    # pairs; up to 16 pairs per call) and of the wide benchmark's 64-level
    # complex channels
    rng = np.random.default_rng([7, n, k])
    for _ in range(3):
        stack = []
        for _ in range(supports):
            rows = random_stochastic_matrix(rng, n, k)
            rows[rng.random(rows.shape) < 0.2] = 0.0
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            stack.append(rows / rows.sum(axis=1, keepdims=True))
        laws = rng.dirichlet(np.ones(n), size=batch)
        laws[rng.random(laws.shape) < 0.25] = 0.0
        laws[0] = np.eye(n)[0]
        laws[laws.sum(axis=1) == 0.0, -1] = 1.0
        laws /= laws.sum(axis=1, keepdims=True)
        stacked = kernel_rates(laws, np.array(stack))
        assert len(stacked) == supports
        for rows, got in zip(stack, stacked):
            assert got == kernel_rates(laws, rows)
            assert len(got) == batch
            for law, value in zip(laws, got):
                assert value == kernel_rates(law[None, :], rows)[0]
                assert value == _one_law_mi(law, rows)


def _kernel_stack(rng, n, k, supports):
    """Rows with zero cells; on columns `dead` only the last point has mass, and on
    columns `faint` the others have 1e-300, or subnormal 1e-310, against its 0.25."""
    stack = rng.dirichlet(np.ones(k), size=(supports, n))
    stack[rng.random(stack.shape) < 0.2] = 0.0
    stack[..., 0] += stack.sum(axis=-1) == 0.0
    stack /= stack.sum(axis=-1, keepdims=True)
    m = max(1, k // 16)
    cols = rng.choice(k, size=3 * m, replace=False)
    dead, faint = cols[:m], cols[m:]
    stack[:, :-1, dead] = 0.0
    stack[:, -1, dead] = 0.25
    stack[:, :-1, faint] = rng.permutation(np.resize([1e-300, 1e-310], len(faint)))
    stack[:, -1, faint] = 0.25
    return stack


@pytest.mark.parametrize(
    "n,k,batch,supports",
    [(2, 4, 9, 3), (4, 64, 9, 3), (16, 256, 5, 2), (64, 4096, 2, 1)],
    ids=["2-4-9-3", "4-64-9-3", "16-256-5-2", "64-4096-2-1"],
)
def test_kernel_keeps_the_masked_formula_bits(n, k, batch, supports):
    # the last point has zero mass in every other law: its row then puts mass
    # where P_Y is 0 (dead) or subnormal (faint), and the latter's terms are
    # +inf, which only the zero-law mask keeps out of the rate (0 * inf)
    rng = np.random.default_rng([14, n, k])
    stack = _kernel_stack(rng, n, k, supports)
    laws = rng.dirichlet(np.ones(n), size=batch)
    laws[rng.random(laws.shape) < 0.25] = 0.0
    laws[::2, -1] = 0.0
    laws[laws.sum(axis=1) == 0.0, 0] = 1.0
    laws /= laws.sum(axis=1, keepdims=True)
    py = laws[None, :, None, :] @ stack[:, None]
    want_terms = oracles.masked_entropy_terms(stack[:, None], py)
    assert np.isinf(want_terms).any() and (py == 0.0).any()
    rates, densities, got_py = _information(laws, stack)
    assert rates == oracles.masked_mutual_information(laws, stack)
    assert _same_bits(got_py, py[..., 0, :])
    # every row's density, +inf where a faint column's term overflows
    assert _same_bits(densities, want_terms.sum(axis=-1))
    for rows, want_densities in zip(stack, densities):
        one_rates, one_densities, _ = _information(laws, rows)
        assert one_rates == oracles.masked_mutual_information(laws, rows)
        assert _same_bits(one_densities, want_densities)
        # rows past the laws' m get densities, and the same bits, but no weight
        rates_x, densities_x, _ = _information(laws, np.concatenate([rows, rows[::-1]]))
        assert rates_x == one_rates
        want_x = np.concatenate([want_densities, want_densities[:, ::-1]], axis=1)
        assert _same_bits(densities_x, want_x)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _peak_over(nbytes, call):
    """Peak traced allocation of a second call, as a multiple of nbytes."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / nbytes
    finally:
        tracemalloc.stop()


def test_kernel_temporaries_stay_within_one_and_a_half_rows():
    # a wide rate op's rows, a kkt_check grid's densities, and the optimizer's
    # log-ratio path: one array of terms at a time (the np.where formulas of
    # oracles.masked_* hold about 3.1x)
    rng = np.random.default_rng(14)
    rows = random_stochastic_matrix(rng, 64, 4096)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    law = rng.dirichlet(np.ones(64))
    assert _peak_over(rows.nbytes, lambda: _information([law], rows)) <= 1.5
    # the log ratios it returns are one rows-sized array on top of the temporaries
    assert _peak_over(rows.nbytes, lambda: _information([law], rows, log_ratios=True)) - 1.0 <= 1.5
    rows = random_stochastic_matrix(rng, 2005, 65)
    law = rng.dirichlet(np.ones(5))  # P_Y from the first 5 rows, as kkt_check's support
    assert _peak_over(rows.nbytes, lambda: _information([law], rows)) <= 1.5


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
        rows = random_stochastic_matrix(rng, n, m)
        probs = rng.dirichlet(np.ones(n))
        (rate,), (densities,), _ = _information([probs], rows)
        mean = math.fsum(p * d for p, d in zip(probs, densities))
        assert mean == pytest.approx(rate, abs=1e-12)
        assert rate == kernel_mi(probs, rows)


def test_information_density_off_support_rows():
    ident = np.eye(2)
    # rows past the law's one point are weighed by nothing: P_Y is the first row
    (rate,), (densities,), (py,) = _information([[1.0]], np.vstack([ident, [1.0, 0.0]]))
    assert rate == 0.0
    assert list(py) == [1.0, 0.0]
    # an output P_Y never produces reads P_Y = 1 in the kernel; kkt_check makes
    # such a row's density +inf (test_kkt_unseen_output_reads_infinite_density)
    assert list(densities) == [0.0, 0.0, 0.0]


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
    with pytest.raises(ValidationError, match="nonnegative"):
        DiscreteInput((1.0, 2.0), (float("nan"), 1.0))  # NaN passes the sum check
    with pytest.raises(ValidationError):
        DiscreteInput((float("inf"),), (1.0,))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutual_information_bounds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 10))
    rows = random_stochastic_matrix(rng, n, m)
    mi = kernel_mi(rng.dirichlet(np.ones(n)), rows)
    assert 0.0 <= mi <= math.log2(min(n, m)) + 1e-12


# sha256 over the repr of secrecy_rate on 40 complex channels with 16-64
# points and of kkt_check on 20 real channels, both with 8-64-level ADCs:
# kernel-sized calls (up to 64 x 4096 rows, 2,005-mean cell tables), which the
# C1 digests, all on two-point supports of 2-8-level ADCs, do not reach.  A
# kernel speedup must keep every bit of them.
WIDE_RESULTS_SHA256 = "7dd4bb7a22567f0134cca490c68ab76be72be2f3c5d578ce40213358e6aea636"


def test_wide_results_are_byte_identical_to_frozen_digest():
    reprs = []
    for case in range(60):
        chan, dist, budget = wide_case(case)
        result = secrecy_rate(chan, dist) if budget is None else kkt_check(chan, dist, budget)
        reprs.append(repr(result))
    assert sha256_lines(reprs) == WIDE_RESULTS_SHA256
