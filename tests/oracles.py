"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's own numerics: tails come
from mpmath, integrals from adaptive quadrature, and mutual information from
a plain double loop over math.fsum.  Slow is fine; these run on small cases.
The one exception is the two-point search, which needs millions of rates and
so takes its tails from scipy's ndtr, through its own cell and rate code.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

mp.mp.dps = 40


def q_oracle(x):
    """Gaussian tail P(N > x) at 40 significant digits."""
    return float(mp.ncdf(-mp.mpf(x)))


def h_oracle(p):
    """Binary entropy in bits."""
    p = mp.mpf(p)
    if p == 0 or p == 1:
        return 0.0
    return float(-p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2))


def cell_oracle(lo, hi, mean):
    """P(lo < mean + N <= hi) by quadrature of the normal density."""
    mean = mp.mpf(mean)
    a = mp.mpf("-inf") if lo is None else mp.mpf(lo) - mean
    b = mp.mpf("inf") if hi is None else mp.mpf(hi) - mean
    val = mp.quad(lambda t: mp.npdf(t), [a, b])
    return float(val)


def brute_mi(probs, matrix):
    """I(X;Y) in bits by the definition, double loop, fsum accumulation."""
    n = len(probs)
    m = len(matrix[0])
    py = [math.fsum(probs[i] * matrix[i][j] for i in range(n)) for j in range(m)]
    terms = []
    for i in range(n):
        if probs[i] == 0.0:
            continue
        for j in range(m):
            w = matrix[i][j]
            if w > 0.0:
                terms.append(probs[i] * w * math.log2(w / py[j]))
    return math.fsum(terms)


def z_mi_oracle(phi, p):
    """Rate of the explicit two-symbol Z channel under Bern(phi) input."""
    matrix = [[1.0 - p, p], [0.0, 1.0]]
    return brute_mi([phi, 1.0 - phi], matrix)


# Pinned constants (mpmath, 40 dps).  The scipy pipeline agrees to ~1 ulp.
Q_OF_1 = 0.1586552539314570514147675
Q_OF_MINUS_2 = 0.9772498680518207927997174
H_OF_0_3 = 0.8812908992306926182248192
BPSK_ONE_BIT_RATE_J1 = 0.36891723259445811  # 1 - h(Q(1))
CELL_MINUS1_1_MEAN0 = 0.6826894921370859


def canonical_limit_rate(chan, a, phis):
    """Best Z-channel limit f_phi(p1) - f_phi(p2) over phis, at 50 digits.

    Real mode, symmetric one-bit legitimate receiver, near point sign(w2)*a.
    On saturated channels both crossovers sit within 1e-300 of 1, so each is
    carried with its own complement, c1 = Q(|w1| a) and c2 = Q(|w2| a - q_top),
    and f_phi(p) = h(phi*c) - phi*h(p) never forms 1 - p or 1 - c: every
    logarithm is taken of whichever of a pair is the smaller, directly, or
    through log1p of that smaller one.  (When the crossovers sit near 0
    instead, both f values share the term h(phi), and their difference keeps
    only 50 digits relative to it.)
    """

    def log_of(v, complement):
        return mp.log(v) if v <= 0.5 else mp.log1p(-complement)

    def f(phi, p, c):
        x, y = phi * c, (1 - phi) + phi * p  # x + y = 1
        h_out = -x * log_of(x, y) - y * log_of(y, x)
        h_p = -p * log_of(p, c) - c * log_of(c, p)
        return (h_out - phi * h_p) / mp.log(2)

    with mp.workdps(50):
        a = mp.mpf(a)
        arg1 = abs(mp.mpf(chan.w1.re)) * a
        arg2 = abs(mp.mpf(chan.w2.re)) * a - mp.mpf(chan.eave_adc.real_part.thresholds[-1])
        p1, c1 = mp.ncdf(arg1), mp.ncdf(-arg1)
        p2, c2 = mp.ncdf(arg2), mp.ncdf(-arg2)
        return max(f(mp.mpf(phi), p1, c1) - f(mp.mpf(phi), p2, c2) for phi in phis)


def _real_rows(gain, thresholds, xs):
    """P(gain*x + N in each cell), taking each cell from the tail it is small in."""
    d = np.concatenate(([-np.inf], thresholds, [np.inf]))[None, :] - gain * np.asarray(xs)[:, None]
    below, above = ndtr(d), ndtr(-d)
    return np.where(
        d[:, 1:] <= 0.0,
        np.diff(below, axis=1),
        np.where(d[:, :-1] >= 0.0, -np.diff(above, axis=1), 1.0 - below[:, :-1] - above[:, 1:]),
    )


def _binary_mi(phi, a, b):
    """I(X;Y) in bits for P(X=0) = phi and rows a, b (last axis = outputs).

    Each term w*log(w/m) takes log1p of (w - m)/m when w is close to m, so the
    result keeps its relative accuracy when the two rows nearly coincide.
    """
    m = phi * a + (1.0 - phi) * b

    def term(w, step):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(np.abs(step) < 0.5, np.log1p(step), np.log(w) - np.log(m))
            return np.where(w > 0.0, w * log_ratio, 0.0)

    total = phi * term(a, (1.0 - phi) * (a - b) / m) + (1.0 - phi) * term(b, phi * (b - a) / m)
    return total.sum(axis=-1) / math.log(2.0)


def two_point_rate(chan, x1, x2, phi):
    """Secrecy rate of P(x1) = phi, P(x2) = 1 - phi on a real-mode channel."""
    thresholds = np.asarray(chan.eave_adc.real_part.thresholds, dtype=float)
    legit = _real_rows(chan.w1.re, np.zeros(1), (x1, x2))
    eave = _real_rows(chan.w2.re, thresholds, (x1, x2))
    return float(_binary_mi(phi, legit[0], legit[1]) - _binary_mi(phi, eave[0], eave[1]))


def _phi_of_logit(logit):
    return 1.0 / (1.0 + math.exp(-logit))


def real_two_point_max(chan):
    """Largest secrecy rate over all two-point inputs of a real-mode channel.

    The legitimate receiver must be a symmetric one-bit quantizer.  Past
    |x| = reach every row entry is within Q(9) ~ 1e-19 of its saturated value,
    so a point beyond it changes no rate by more than ~1e-17 when moved back
    to +/-reach.  The grid covers [-reach, reach] for both points at a step
    of 0.1 in the stronger receiver's mean, and phi at integer logits
    -10..10; Nelder-Mead then refines the best 8 grid candidates in
    (x1, x2, logit phi).
    Returns (rate, (x1, x2, phi)).
    """
    thresholds = np.asarray(chan.eave_adc.real_part.thresholds, dtype=float)
    g1, g2 = abs(chan.w1.re), abs(chan.w2.re)
    reach = max(9.0 / g1, (np.abs(thresholds).max() + 9.0) / g2)
    xs = np.linspace(-reach, reach, int(math.ceil(20.0 * reach * max(g1, g2))) + 1)
    i, j = np.triu_indices(len(xs), 1)
    legit = _real_rows(chan.w1.re, np.zeros(1), xs)
    eave = _real_rows(chan.w2.re, thresholds, xs)
    legit_i, legit_j, eave_i, eave_j = legit[i], legit[j], eave[i], eave[j]
    candidates = []
    for logit in range(-10, 11):
        phi = _phi_of_logit(logit)
        rates = _binary_mi(phi, legit_i, legit_j) - _binary_mi(phi, eave_i, eave_j)
        top = np.argpartition(rates, -8)[-8:]
        candidates.extend((float(rates[k]), float(xs[i[k]]), float(xs[j[k]]), logit) for k in top)
    candidates.sort(reverse=True)

    best_rate, x1, x2, logit = candidates[0]
    best = (best_rate, (x1, x2, _phi_of_logit(logit)))
    for rate0, x1, x2, logit in candidates[:8]:
        scale = max(abs(rate0), 1e-18)
        res = minimize(
            lambda v: -two_point_rate(chan, v[0], v[1], _phi_of_logit(v[2])) / scale,
            [x1, x2, logit],
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
        )
        if -res.fun * scale > best[0]:
            x1, x2, logit = (float(v) for v in res.x)
            best = (-res.fun * scale, (x1, x2, _phi_of_logit(logit)))
    return best
