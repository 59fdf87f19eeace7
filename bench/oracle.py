"""Independent rate oracle: mpmath cell probabilities and an fsum mutual information.

Nothing here calls the package's numerics.  Channel means are formed exactly
from the double inputs, every cell probability is a difference of normal
tails at ``DIGITS`` significant digits taken in the cancellation-free
direction, and I(X;Y) is summed term by term with ``math.fsum``.
"""

import math

import mpmath as mp

DIGITS = 50
TOLERANCE = 1e-12  # absolute, in bits, on i1, i2 and rs


def _cells(thresholds, mean):
    """P(mean + N in each cell) for the cells cut by the sorted thresholds."""
    edges = [mp.ninf] + [mp.mpf(t) for t in thresholds] + [mp.inf]
    cells = []
    for lo, hi in zip(edges, edges[1:]):
        a, b = lo - mean, hi - mean
        if a >= 0:
            cells.append(mp.ncdf(-a) - mp.ncdf(-b))
        elif b <= 0:
            cells.append(mp.ncdf(b) - mp.ncdf(a))
        else:
            cells.append(1 - mp.ncdf(a) - mp.ncdf(-b))
    return cells


def _rows(chan, receiver, points):
    pair = chan.legit_adc if receiver == "legit" else chan.eave_adc
    gain = chan.w1 if receiver == "legit" else chan.w2
    wr, wi = mp.mpf(gain.re), mp.mpf(gain.im)
    rows = []
    for z in points:
        xr, xi = mp.mpf(complex(z).real), mp.mpf(complex(z).imag)
        if chan.mode == "real":
            rows.append([float(c) for c in _cells(pair.real_part.thresholds, wr * xr)])
            continue
        re_cells = _cells(pair.real_part.thresholds, wr * xr - wi * xi)
        im_cells = _cells(pair.imag_part.thresholds, wr * xi + wi * xr)
        rows.append([float(cr * ci) for cr in re_cells for ci in im_cells])
    return rows


def mutual_information(probs, rows):
    """I(X;Y) in bits by the definition, accumulated with fsum."""
    outputs = range(len(rows[0]))
    py = [math.fsum(p * row[j] for p, row in zip(probs, rows)) for j in outputs]
    terms = []
    for p, row in zip(probs, rows):
        if p == 0.0:
            continue
        for j in outputs:
            if row[j] > 0.0:
                terms.append(p * row[j] * math.log2(row[j] / py[j]))
    return math.fsum(terms)


def rates(chan, dist):
    """(i1, i2, rs) of a discrete input on a channel."""
    with mp.workdps(DIGITS):
        i1 = mutual_information(dist.probs, _rows(chan, "legit", dist.points))
        i2 = mutual_information(dist.probs, _rows(chan, "eave", dist.points))
    return i1, i2, i1 - i2


def disagreement(chan, dist, report):
    """Problems when the reported rate is further than TOLERANCE from the oracle."""
    want = rates(chan, dist)
    got = (report.i1, report.i2, report.rs)
    worst = max(abs(g - w) for g, w in zip(got, want))
    if worst <= TOLERANCE:
        return []
    return [f"oracle {want!r} differs from {got!r} by {worst:.3e}"]
