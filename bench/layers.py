"""Layer tracer: wraps the library's layer entry points from outside.

``Tracer.installed()`` swaps each entry point for a timing wrapper in every
module that binds it by name, and restores the originals on exit.  Each
wrapper keeps a call count, total time, self time (total minus the time of
the traced calls it made) and a few counts read off its arguments or
result.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics.  The wrappers keep a single call stack, so only one
thread may run traced code.
"""

import contextlib
from time import perf_counter

from wiretap_adc import achievability, channel, cli, infotheory, optimizer
from wiretap_adc.errors import SweepExhaustedError

FLOAT_BYTES = 8
NEAR_ZERO = 1e-12


class Span:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


def _joint_levels(chan, receiver):
    pair = chan.adc_for(receiver)
    return pair.real_part.levels if chan.mode == "real" else pair.joint_levels


def _count_cells(span, args, result, exc):
    if exc is None:
        span.add("values", int(result.size))


def _count_rows(span, args, result, exc):
    if exc is None:
        span.add("rows", int(result.shape[0]))


def _count_rate(span, args, result, exc):
    """Bytes of the two transition-row arrays the kernel builds, from their shapes."""
    if exc is None:
        chan, points = args[0], args[1]
        outputs = _joint_levels(chan, "legit") + _joint_levels(chan, "eave")
        span.add("bytes", FLOAT_BYTES * len(points) * outputs)


def _count_achieve(span, args, result, exc):
    if isinstance(exc, SweepExhaustedError):
        span.add("exhausted", 1)
        span.add("extended", 1)
        best = exc.diagnostics.get("best_rate")
        span.add("near_zero", int(best is not None and abs(best) <= NEAR_ZERO))
    elif exc is None:
        span.add("extended", int(result.regime == "searched"))
        span.add("near_zero", int(abs(result.exact_rate.rs) <= NEAR_ZERO))


def _count_optimize(span, args, result, exc):
    if exc is None:
        span.add("nm_iterations", sum(row[2] for row in result.trace))


def _count_kkt(span, args, result, exc):
    if exc is None:
        span.add("grid_rows", int(result.grid_points))


# (span, module, attribute, other modules binding it by name, counter, counts evals)
ENTRY_POINTS = (
    ("L0.cells", channel, "_cells", (), _count_cells, False),
    ("L1.rows", channel, "transition_rows", (), _count_rows, False),
    ("L1.row", channel, "transition_row", (), None, False),
    ("L2.rate", infotheory, "_rate_arrays", (achievability, optimizer, cli), _count_rate, False),
    ("L3.achieve", achievability, "achieve", (cli,), _count_achieve, True),
    ("L3.optimize", optimizer, "optimize_wyner_rate", (cli,), _count_optimize, True),
    ("L3.minimize", optimizer, "minimize", (), None, False),
    ("L3.kkt", optimizer, "kkt_check", (cli,), _count_kkt, False),
)


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name, *_ in ENTRY_POINTS}
        self._children = []  # per open span: time spent in traced callees

    def _wrap(self, name, fn, counter, counts_evals):
        span = self.spans[name]
        rate = self.spans["L2.rate"]
        children = self._children

        def traced(*args, **kwargs):
            evals_before = rate.calls
            children.append(0.0)
            start = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - inner
                if counts_evals:
                    span.add("evals", rate.calls - evals_before)
                if counter is not None:
                    counter(span, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point; the originals come back even on error."""
        saved = []
        try:
            for name, module, attr, rebinders, counter, counts_evals in ENTRY_POINTS:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, counter, counts_evals)
                for mod in (module, *rebinders):
                    if getattr(mod, attr) is not original:
                        raise RuntimeError(f"{mod.__name__}.{attr} is not the {name} entry point")
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def counts(self):
        """Every exact count, for comparing two traced passes."""
        return {
            name: (span.calls, tuple(sorted(span.counts.items())))
            for name, span in self.spans.items()
        }


def _per(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass that took wall_s seconds."""
    s = tracer.spans
    cells, rows, row, rate = s["L0.cells"], s["L1.rows"], s["L1.row"], s["L2.rate"]
    achieve, opt, nm, kkt = s["L3.achieve"], s["L3.optimize"], s["L3.minimize"], s["L3.kkt"]
    return {
        "L0.cells.calls": (cells.calls, "count"),
        "L0.cells.values": (cells.counts.get("values", 0), "count"),
        "L0.cells.us_per_call": (_per(cells.total_s, cells.calls, 1e6), "us"),
        "L0.cells.self_s": (cells.self_s, "s"),
        "L1.rows.calls": (rows.calls, "count"),
        "L1.rows.rows": (rows.counts.get("rows", 0), "count"),
        "L1.rows.self_us_per_call": (_per(rows.self_s, rows.calls, 1e6), "us"),
        "L1.row.calls": (row.calls, "count"),
        "L2.rate.calls": (rate.calls, "count"),
        "L2.rate.us_per_call": (_per(rate.total_s, rate.calls, 1e6), "us"),
        "L2.rate.self_us_per_call": (_per(rate.self_s, rate.calls, 1e6), "us"),
        "L2.rate.share": (_per(rate.total_s, wall_s), "frac"),
        "L2.rate.bytes_computed": (rate.counts.get("bytes", 0), "B"),
        "L3.achieve.evals_per_op": (_per(achieve.counts.get("evals", 0), achieve.calls), "count"),
        "L3.achieve.extended_frac": (_per(achieve.counts.get("extended", 0), achieve.calls), "frac"),
        "L3.achieve.exhausted": (achieve.counts.get("exhausted", 0), "count"),
        "L3.achieve.near_zero": (achieve.counts.get("near_zero", 0), "count"),
        "L3.optimize.evals_per_op": (_per(opt.counts.get("evals", 0), opt.calls), "count"),
        "L3.optimize.nm_iterations_per_op": (
            _per(opt.counts.get("nm_iterations", 0), opt.calls), "count"),
        "L3.optimize.nm_self_s": (nm.self_s, "s"),
        "L3.kkt.us_per_call": (_per(kkt.total_s, kkt.calls, 1e6), "us"),
        "L3.kkt.grid_rows": (kkt.counts.get("grid_rows", 0), "count"),
    }
