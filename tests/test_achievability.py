import cmath
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from helpers import c1_channel, c1_outcome, criterion1_channel, random_adc
from wiretap_adc import achievability as achievability_mod
from wiretap_adc import channel as channel_mod
from wiretap_adc import infotheory as infotheory_mod
from wiretap_adc import (
    AdcSpec,
    ComplexAdcPair,
    ComplexGain,
    ConstructOptions,
    DiscreteInput,
    EqualGainError,
    SweepExhaustedError,
    ValidationError,
    WiretapChannel,
    achieve,
    align_phase,
    apply_power_constraint,
    choose_amplitude,
    construct_positive_rate,
    crossover_probs,
    one_bit,
    one_bit_pair,
    qpsk_bound,
    reduce_to_symmetric,
    secrecy_rate,
    z_rate,
    zchannel_limit,
)

# the worked real-mode example used throughout: unit legit gain, eavesdropper
# twice as strong but quantized with a lopsided 3-level ADC
WORKED = WiretapChannel(
    w1=ComplexGain(1.0),
    w2=ComplexGain(2.0),
    legit_adc=one_bit_pair(),
    eave_adc=ComplexAdcPair(AdcSpec((-0.5, 1.0), (0.0, 1.0, 2.0)), one_bit()),
    mode="real",
)


def complex_channel(w1, w2, eave=None):
    return WiretapChannel(
        w1=ComplexGain(*w1), w2=ComplexGain(*w2),
        legit_adc=one_bit_pair(), eave_adc=eave or one_bit_pair(),
        mode="complex",
    )


class TestAlignPhase:
    def test_quadrant_selection(self):
        al = align_phase(ComplexGain(math.cos(0.8), math.sin(0.8)),
                         ComplexGain(math.cos(0.5), math.sin(0.5)))
        assert al.m == 1
        assert al.delta == pytest.approx(0.3, abs=1e-15)
        assert al.theta == pytest.approx((math.pi / 2 - 0.3) / 2, abs=1e-15)
        assert al.capital_phi == pytest.approx(al.theta - 0.5, abs=1e-15)
        assert al.y1_bar == 1 + 1j

    def test_equal_phases_give_quarter_pi_over_4(self):
        al = align_phase(ComplexGain(2.0, 0.0), ComplexGain(0.5, 0.0))
        assert al.m == 1
        assert al.delta == 0.0
        assert al.theta == pytest.approx(math.pi / 4)

    def test_exact_quadrant_boundary(self):
        al = align_phase(ComplexGain(0.0, 1.0), ComplexGain(1.0, 0.0))
        assert al.delta == pytest.approx(math.pi / 2)
        assert al.m == 2
        assert al.theta == pytest.approx(math.pi / 4)
        assert al.y1_bar == -1 + 1j

    def test_rays_land_where_promised(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a1, a2 = rng.uniform(-math.pi, math.pi, 2)
            w1 = ComplexGain(math.cos(a1), math.sin(a1))
            w2 = ComplexGain(2 * math.cos(a2), 2 * math.sin(a2))
            al = align_phase(w1, w2)
            assert 0.0 < al.theta <= math.pi / 4 + 1e-15
            assert al.m in (1, 2, 3, 4)
            rot = cmath.rect(1.0, al.capital_phi)
            # eavesdropper ray steered to angle theta
            assert cmath.phase(w2.value * rot) == pytest.approx(al.theta, abs=1e-9)
            # legitimate ray at theta away from the m-th quadrant corner
            want = al.m * math.pi / 2 - al.theta
            got = cmath.phase(w1.value * rot) % (2 * math.pi)
            assert got == pytest.approx(want % (2 * math.pi), abs=1e-9)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValidationError):
            align_phase(ComplexGain(1.0), ComplexGain(0.0, 0.0))

    @staticmethod
    def corrected_align_phase(w1, w2):
        """align_phase with the rounding corrections it once had, as the reference."""
        quarter = achievability_mod.QUARTER
        delta = (w1.phase - w2.phase) % (2.0 * math.pi)
        if delta >= 2.0 * math.pi:
            delta = 0.0
        m = int(delta // quarter) + 1
        theta = (m * quarter - delta) / 2.0
        if theta <= 0.0:
            m += 1
            theta = (m * quarter - delta) / 2.0
        elif theta > math.pi / 4.0:
            m -= 1
            theta = (m * quarter - delta) / 2.0
            if theta <= 0.0:
                m += 1
                theta = (m * quarter - delta) / 2.0
        m = (m - 1) % 4 + 1
        return achievability_mod.PhaseAlignment(
            theta=theta, capital_phi=theta - w2.phase, m=m,
            y1_bar=achievability_mod._Y1_BAR[m], delta=delta)

    def test_quadrant_boundaries_need_no_rounding_correction(self):
        # the exactness align_phase's docstring relies on
        quarter = achievability_mod.QUARTER
        assert all(Fraction(m * quarter) == m * Fraction(quarter) for m in range(1, 5))
        assert math.pi / 4.0 == quarter / 2.0
        # 2,000 ulps either side of each quadrant boundary k * QUARTER as the
        # phase difference (align_phase reads only magnitude and phase), and a
        # gain pair whose phase difference rounds delta up to 2 pi
        phases = []
        for k in range(5):
            below = above = k * quarter
            phases.append(below)
            for _ in range(2000):
                below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
                phases += [below, above]
        w2 = SimpleNamespace(magnitude=1.0, phase=0.0)
        pairs = [(SimpleNamespace(magnitude=1.0, phase=x), w2) for x in phases]
        wrapped = (ComplexGain(1.0, -1e-300), ComplexGain(1.0))
        assert (wrapped[0].phase - wrapped[1].phase) % (2.0 * math.pi) == 2.0 * math.pi
        pairs.append(wrapped)
        for w1, w2 in pairs:
            al = align_phase(w1, w2)
            assert al.m in (1, 2, 3, 4) and 0.0 < al.theta <= math.pi / 4.0, w1.phase
            assert al == self.corrected_align_phase(w1, w2), w1.phase


class TestCrossoversAndAmplitude:
    def test_real_mode_crossovers_match_tails(self):
        p1, p2 = crossover_probs(WORKED, None, 2.0)
        assert p1 == pytest.approx(oracles.q_oracle(-2.0), rel=1e-15)
        assert p2 == pytest.approx(oracles.q_oracle(1.0 - 4.0), rel=1e-15)

    def test_complex_mode_crossovers_are_component_products(self):
        chan = complex_channel((0.6, 0.3), (1.1, -0.8))
        al = align_phase(chan.w1, chan.w2)
        a = 1.7
        p1, p2 = crossover_probs(chan, al.theta, a)
        m1, m2 = chan.w1.magnitude, chan.w2.magnitude
        want1 = (oracles.q_oracle(-m1 * a * math.cos(al.theta))
                 * oracles.q_oracle(-m1 * a * math.sin(al.theta)))
        want2 = (oracles.q_oracle(-m2 * a * math.cos(al.theta))
                 * oracles.q_oracle(-m2 * a * math.sin(al.theta)))
        assert p1 == pytest.approx(want1, rel=1e-12)
        assert p2 == pytest.approx(want2, rel=1e-12)

    def test_crossovers_need_one_bit_legit(self):
        bad = WiretapChannel(
            w1=ComplexGain(1.0), w2=ComplexGain(2.0),
            legit_adc=ComplexAdcPair(AdcSpec((0.5,), (-1.0, 1.0)), one_bit()),
            eave_adc=one_bit_pair(), mode="real",
        )
        with pytest.raises(ValidationError):
            crossover_probs(bad, None, 1.0)

    def test_a_ray_along_a_quantizer_axis_has_no_limit_cell(self):
        # direction (c, d) = e^{0.3j} and w1 = d + jc give the legitimate real
        # drift d*c - c*d == 0.0 exactly: the ray never leaves that axis's cells
        direction = cmath.rect(1.0, 0.3)
        chan = complex_channel((direction.imag, direction.real), (1.0, 0.0))
        assert (chan.w1.value * direction).real == 0.0
        with pytest.raises(ValidationError, match="drifts along a quantizer axis"):
            crossover_probs(chan, 0.3, 1.0)
        with pytest.raises(ValidationError, match="drifts along a quantizer axis"):
            achievability_mod._ray_limits(chan, direction)

    def test_choose_amplitude_real(self):
        # top eavesdropper threshold 1.0, gain gap 1.0: bound 1, margin 1
        assert choose_amplitude(WORKED) == 2.0

    def test_choose_amplitude_clears_the_margin(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            chan = criterion1_channel(rng, "complex")
            al = align_phase(chan.w1, chan.w2)
            a = choose_amplitude(chan, al.theta)
            s = chan.w2.magnitude - chan.w1.magnitude
            top_r = chan.eave_adc.real_part.thresholds[-1]
            top_i = chan.eave_adc.imag_part.thresholds[-1]
            # the margin makes both strict inequalities hold with room
            assert s * a * math.cos(al.theta) > top_r
            assert s * a * math.sin(al.theta) > top_i

    def test_equal_gains_raise(self):
        chan = complex_channel((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(EqualGainError):
            choose_amplitude(chan, 0.5)
        with pytest.raises(EqualGainError):
            construct_positive_rate(chan)


class TestConstruct:
    def test_worked_example_frozen(self):
        res = construct_positive_rate(WORKED)
        assert res.a == 2.0
        assert res.b == 4.0
        assert res.phi == 0.1
        assert res.regime == "limit"
        assert res.p1 == pytest.approx(oracles.q_oracle(-2.0), rel=1e-15)
        assert res.p2 == pytest.approx(oracles.q_oracle(-3.0), rel=1e-15)
        assert res.exact_rate.rs == pytest.approx(0.006925525082308039, rel=1e-12)
        assert res.limit_rate == zchannel_limit(res.phi, res.p1, res.p2)
        assert res.input.points == (2.0 + 0j, 4.0 + 0j)
        assert res.input.probs == (0.1, 0.9)

    def test_limit_rate_formula(self):
        assert zchannel_limit(0.3, 0.2, 0.9) == pytest.approx(
            z_rate(0.3, 0.2) - z_rate(0.3, 0.9), abs=1e-16
        )

    def test_best_mode_dominates_first(self):
        first = construct_positive_rate(WORKED, ConstructOptions(mode="first"))
        best = construct_positive_rate(WORKED, ConstructOptions(mode="best"))
        assert best.exact_rate.rs >= first.exact_rate.rs

    def test_trace_schema(self):
        res = construct_positive_rate(WORKED, ConstructOptions(keep_trace=True))
        assert res.trace
        for row in res.trace:
            b, phi, i1, i2, rs, limit = row
            assert rs == i1 - i2
            assert 0.0 < phi < 1.0

    @staticmethod
    def count_calls(monkeypatch, calls, *names):
        for module, name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, args))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

    def test_rows_built_once_per_point(self, monkeypatch):
        # C1 config 0: the canonical near amplitude is also the schedule's
        # first far amplitude, so that pair is skipped and the one step
        # evaluates 9 phis on (near, 2 near), where both receivers saturate.
        # The ray's one row build for both receivers holds the near point and
        # the far point 2 near; the near point's rows serve the crossovers.
        # The build takes one _cells call for every quantizer component of
        # both receivers, and the 9 phis take one batched kernel call per
        # receiver.
        calls = []
        self.count_calls(
            monkeypatch, calls,
            (channel_mod, "_rows"),
            (channel_mod, "_cells"),
            (infotheory_mod, "_information"),
        )
        chan = c1_channel(0)
        res = construct_positive_rate(chan, ConstructOptions(keep_trace=True))
        assert len(res.trace) == 9
        builds = [args[1:] for name, args in calls if name == "_rows"]
        assert [(receivers, len(xs)) for receivers, xs in builds] == [(("legit", "eave"), 2)]
        assert sum(name == "_cells" for name, _ in calls) == 1
        assert sum(name == "_information" for name, _ in calls) == 2

    @staticmethod
    def tee_scanned_pairs(monkeypatch, calls, starts=None):
        """Record each pair as _Sweep.scan pulls it from its stream, in calls.

        With starts, also record there the len(calls) at which each scan begins.
        """
        scan = achievability_mod._Sweep.scan

        def teed(sweep, pairs, *args):
            if starts is not None:
                starts.append(len(calls))

            def pulled():
                for pair in pairs:
                    calls.append(("pair", pair))
                    yield pair

            return scan(sweep, pulled(), *args)

        monkeypatch.setattr(achievability_mod._Sweep, "scan", teed)

    @pytest.mark.parametrize("case, mode", [(7, "real"), (28, "complex")])
    def test_extended_rays_build_each_point_once_and_batch_pairs(self, monkeypatch, case, mode):
        # C1 config 7 exhausts the sweep; config 28 runs every extended ray
        # before its split pair clears the floor.  The construction derives
        # its edge layout once and each limit direction's _ray_limits once.
        # Each scan scores a first chunk of at most 2 pairs, then chunks of
        # _BATCH_PAIRS, one kernel call per receiver each.
        calls, starts = [], []
        self.count_calls(
            monkeypatch, calls,
            (channel_mod, "_rows"),
            (channel_mod, "_edge_layout"),
            (achievability_mod, "_ray_limits"),
            (infotheory_mod, "_information"),
        )
        self.tee_scanned_pairs(monkeypatch, calls, starts)
        chan = c1_channel(case, mode)
        try:
            construct_positive_rate(chan)
        except SweepExhaustedError:
            assert case == 7
        # the pairs a scan pulls before a kernel call form its chunk
        chunks = []
        for start, end in zip(starts, starts[1:] + [len(calls)]):
            sizes, pulled = [], 0
            for name, _ in calls[start:end]:
                pulled += name == "pair"
                if name == "_information" and pulled:
                    sizes.append(pulled)
                    pulled = 0
            assert pulled == 0
            chunks.append(sizes)
        batch = achievability_mod._BATCH_PAIRS
        assert all(sizes[0] <= 2 for sizes in chunks if sizes)
        assert all(size == batch for sizes in chunks for size in sizes[1:-1])
        assert all(size <= batch for sizes in chunks for size in sizes)
        assert any(len(sizes) > 1 for sizes in chunks)
        pairs = {args[:2] for name, args in calls if name == "pair" and args[0] != args[1]}
        builds = [args[1:] for name, args in calls if name == "_rows"]
        assert builds and pairs
        assert {receivers for receivers, _ in builds} == {("legit", "eave")}
        built = [x for _, xs in builds for x in xs]
        assert len(built) == len(set(built))
        kernel_calls = sum(name == "_information" for name, _ in calls)
        assert kernel_calls == 2 * sum(map(len, chunks)) < len(pairs)
        assert sum(name == "_edge_layout" for name, _ in calls) == 1
        # every limit direction a pulled pair reads, and no other, is derived once
        derived = [args[1] for name, args in calls if name == "_ray_limits"]
        directions = {args[2] for name, args in calls if name == "pair"}
        assert len(derived) == len(set(derived)) == len(directions)
        assert set(derived) == directions

    def test_riding_pairs_are_scored_only_at_the_phis_read(self, monkeypatch):
        # C1-family seed [5, 5, 57]: a riding pair misses at phi 0.5 and
        # clears the floor at 0.3.  Each riding pair is scored once, in
        # chunks that share one kernel call per receiver carrying only the 3
        # phis the steps read.
        calls = []
        self.count_calls(monkeypatch, calls, (infotheory_mod, "_information"))
        self.tee_scanned_pairs(monkeypatch, calls)
        chan = criterion1_channel(np.random.default_rng([5, 5, 57]), "real")
        res = construct_positive_rate(chan)
        assert (res.regime, res.phi) == ("searched", 0.3)
        # the pairs pulled before a kernel call form its chunk
        scored, laws, chunk, carries = [], [], [], False
        for name, args in calls:
            if name == "pair":
                chunk.append(args)
                continue
            if chunk:
                # only riding pairs leave the trace's limit column empty
                carries = all("limit" in meta for *_, meta in chunk)
                if carries:
                    scored.append([pair[:2] for pair in chunk])
                chunk = []
            if carries:
                laws.append(len(args[0]))
        riding = {pair[:2] for name, pair in calls if name == "pair" and "limit" in pair[4]}
        assert riding and max(len(chunk) for chunk in scored) > 1
        flat = [pair for chunk in scored for pair in chunk]
        assert len(flat) == len(set(flat)) and riding <= set(flat)
        assert laws == [3, 3] * len(scored)

    @staticmethod
    def c1_reprs(configs, options):
        return [repr(c1_outcome(c1_channel(case), options)) for case in configs]

    def test_far_points_match_the_rows_read_schedule(self, monkeypatch):
        # every far schedule the construction meets on C1 configs 0-199, in
        # both modes, stops where the far point's rows read 1.0 in both limit
        # cells
        far_points, schedules, current = achievability_mod._far_points, {}, {}

        def recorded(near_amp, direction, saturated):
            fars = far_points(near_amp, direction, saturated)
            schedules[(current["chan"], near_amp, direction)] = fars
            return fars

        monkeypatch.setattr(achievability_mod, "_far_points", recorded)
        for options in (ConstructOptions(), ConstructOptions(mode="best")):
            for case in range(200):
                current["chan"] = c1_channel(case)
                self.c1_reprs([case], options)
        assert len(schedules) > 1000
        for (chan, near_amp, direction), fars in schedules.items():
            assert fars == oracles.rows_read_far_points(chan, near_amp, direction)

    def test_pair_chunks_build_every_point_read(self, monkeypatch):
        # C1 configs 0-199: each chunk of pairs builds the rows its limit
        # lookups read, so limit_mass never builds rows; 368 _rows calls
        calls = {"rows": 0, "lazy": 0}
        rows, limit_mass = channel_mod._rows, achievability_mod._Sweep.limit_mass

        def counted(*args, **kwargs):
            calls["rows"] += 1
            return rows(*args, **kwargs)

        def watched(sweep, *args):
            before = calls["rows"]
            mass = limit_mass(sweep, *args)
            calls["lazy"] += calls["rows"] - before
            return mass

        monkeypatch.setattr(channel_mod, "_rows", counted)
        monkeypatch.setattr(achievability_mod._Sweep, "limit_mass", watched)
        self.c1_reprs(range(200), ConstructOptions())
        assert calls["lazy"] == 0
        assert calls["rows"] == 368

    def test_results_do_not_depend_on_chunking(self, monkeypatch):
        # a stacked kernel call gives each pair the bits of a one-pair call,
        # and the walk keeps stream order, so one pair per chunk after the
        # first changes no result, trace or evaluation count
        runs = [(range(200), ConstructOptions()),
                (range(100), ConstructOptions(mode="best", keep_trace=True))]
        chunked = [self.c1_reprs(*run) for run in runs]
        monkeypatch.setattr(achievability_mod, "_BATCH_PAIRS", 1)
        assert [self.c1_reprs(*run) for run in runs] == chunked

    def test_rate_positive_across_random_channels(self):
        rng = np.random.default_rng(21)
        done = 0
        for k in range(12):
            chan = criterion1_channel(rng, "complex" if k % 2 else "real")
            try:
                res = achieve(chan)
            except SweepExhaustedError:
                # A complex exhaustion is a search gap: random gain angles give
                # theta < pi/4, where the split pair's rate tends to h(phi).
                # The one real exhaustion here (k = 10) has no binary input
                # above round-off: a dense two-point search peaks at 1.1e-16.
                if chan.mode == "complex":
                    raise
                continue
            assert res.exact_rate.rs > 1e-9
            done += 1
        assert done >= 8

    def test_exhaustion_carries_diagnostics(self):
        # margins force every ray deep into saturation: nothing clears 1e-9
        chan = WiretapChannel(
            w1=ComplexGain(2.868969027989957),
            w2=ComplexGain(3.4769744226145676),
            legit_adc=one_bit_pair(),
            eave_adc=ComplexAdcPair(
                AdcSpec((-2.7331714163422323, -1.2906134580853619,
                         1.2949445706683873, 2.9372238452499735),
                        (0.0, 1.0, 2.0, 3.0, 4.0)),
                AdcSpec((-1.0, 1.75), (0.0, 1.0, 2.0)),
            ),
            mode="real",
        )
        with pytest.raises(SweepExhaustedError) as exc:
            construct_positive_rate(chan)
        diag = exc.value.diagnostics
        assert diag["rate_floor"] == 1e-9
        assert diag["best_rate"] <= 1e-9
        assert diag["evaluations"] > 0
        # the canonical schedule's first far point repeats the near point and
        # is already saturated, so that stage evaluates nothing
        assert diag["stage_evaluations"] == {"canonical": 0, "extended": 300}
        assert "channel" in diag

    @pytest.mark.parametrize(
        "seed, mode, first_rows",
        [
            ([1, 1, 0], "complex", 9),  # canonical far schedule
            ([1, 1, 1], "real", 54),  # extended real ray
            ([1, 1, 10], "complex", 405),  # extended complex ray
            ([1, 1, 28], "complex", 1405),  # split pair
            ([5, 5, 57], "real", 299),  # riding pair: phi 0.3 after 0.5 missed
            ([1, 1, 7], "real", None),  # real exhaustion after 300 evaluations
        ],
        ids=["canonical", "real-ray", "complex-ray", "split-pair", "riding-pair", "exhausted"],
    )
    def test_first_mode_stops_at_the_first_step_with_a_hit(self, seed, mode, first_rows):
        chan = criterion1_channel(np.random.default_rng(seed), mode)
        first_opts = ConstructOptions(keep_trace=True)
        best_opts = ConstructOptions(mode="best", keep_trace=True)
        if first_rows is None:
            with pytest.raises(SweepExhaustedError) as first:
                construct_positive_rate(chan, first_opts)
            with pytest.raises(SweepExhaustedError) as best:
                construct_positive_rate(chan, best_opts)
            assert first.value.diagnostics["evaluations"] == 300
            assert first.value.diagnostics == best.value.diagnostics
            return
        first = construct_positive_rate(chan, first_opts)
        best = construct_positive_rate(chan, best_opts)
        assert len(first.trace) == first_rows
        assert best.trace[:first_rows] == first.trace
        # every row above the floor belongs to the last step evaluated, which
        # shares one amplitude; the returned candidate is its smallest phi
        hits = [row for row in first.trace if row[4] > 1e-9]
        assert {row[0] for row in hits} == {first.trace[-1][0]}
        _, phi, _, _, rs, _ = min(hits, key=lambda row: row[1])
        assert (first.phi, first.exact_rate.rs) == (phi, rs)

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            ConstructOptions(mode="worst")

    def test_needs_symmetric_one_bit_legit(self):
        bad = WiretapChannel(
            w1=ComplexGain(1.0), w2=ComplexGain(2.0),
            legit_adc=ComplexAdcPair(AdcSpec((0.3,), (-1.0, 1.0)), one_bit()),
            eave_adc=one_bit_pair(), mode="real",
        )
        with pytest.raises(ValidationError, match="needs a symmetric one-bit legitimate "
                           "receiver; apply reduce_to_symmetric first"):
            construct_positive_rate(bad)


class TestReduce:
    @staticmethod
    def asymmetric_channel(threshold=0.7):
        return WiretapChannel(
            w1=ComplexGain(1.0), w2=ComplexGain(2.0),
            legit_adc=ComplexAdcPair(AdcSpec((threshold,), (-1.0, 1.0)), one_bit()),
            eave_adc=ComplexAdcPair(AdcSpec((-0.5, 1.0), (0.0, 1.0, 2.0)), one_bit()),
            mode="real",
        )

    def test_shift_arithmetic(self):
        chan = self.asymmetric_channel()
        reduced, translation = reduce_to_symmetric(chan)
        assert translation == pytest.approx(0.7 + 0j)
        assert reduced.legit_adc == one_bit_pair()
        # eavesdropper thresholds move by (w2/w1) * 0.7
        want = tuple(t - 1.4 for t in (-0.5, 1.0))
        assert reduced.eave_adc.real_part.thresholds == pytest.approx(want)
        assert reduced.w1 == chan.w1 and reduced.w2 == chan.w2

    def test_translated_rate_matches_reduced_rate(self):
        res = achieve(self.asymmetric_channel())
        assert res.translation == pytest.approx(0.7 + 0j)
        assert res.reduced_rate is not None
        assert res.exact_rate.rs == pytest.approx(res.reduced_rate.rs, abs=1e-10)

    def test_multi_level_legit_never_loses_rate(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            legit = ComplexAdcPair(random_adc(rng, lo=-1.0, hi=1.0, max_levels=4),
                                   one_bit())
            chan = WiretapChannel(
                w1=ComplexGain(1.0), w2=ComplexGain(2.2),
                legit_adc=legit, eave_adc=one_bit_pair(), mode="real",
            )
            res = achieve(chan)
            assert res.exact_rate.rs >= res.reduced_rate.rs - 1e-12


class TestPowerConstraint:
    def test_duty_cycle_scaling(self):
        res = construct_positive_rate(WORKED)
        power = res.exact_rate.power
        capped = apply_power_constraint(res, power / 3.0)
        assert capped.alpha <= 1.0 / 3.0
        assert capped.alpha * power <= power / 3.0  # never exceeds the budget
        assert capped.alpha == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert capped.effective_rate == capped.alpha * res.exact_rate.rs

    def test_budget_slack_keeps_alpha_one(self):
        res = construct_positive_rate(WORKED)
        capped = apply_power_constraint(res, res.exact_rate.power * 2.0)
        assert capped.alpha == 1.0
        assert capped.power_budget == res.exact_rate.power * 2.0

    def test_invalid_budget(self):
        res = construct_positive_rate(WORKED)
        with pytest.raises(ValidationError):
            apply_power_constraint(res, 0.0)


class TestAchieve:
    def test_complex_points_share_the_aligned_ray(self):
        chan = complex_channel((0.4, 0.9), (1.6, -0.2))
        res = achieve(chan)
        rot = cmath.rect(1.0, res.capital_phi)
        for z in res.input.points:
            assert (z / rot).imag == pytest.approx(0.0, abs=1e-12)
        assert res.exact_rate.rs > 1e-9
        rep = secrecy_rate(chan, res.input)
        assert rep.rs == res.exact_rate.rs

    @pytest.mark.parametrize("legit", ["c1", "off_centre"])
    def test_legit_receiver_is_checked_once(self, monkeypatch, legit):
        # an off-centre legitimate ADC is reduced to one_bit_pair(), which the
        # construction then takes without checking it again
        checked = []
        original = WiretapChannel.has_symmetric_one_bit

        def counted(chan, receiver):
            checked.append(receiver)
            return original(chan, receiver)

        monkeypatch.setattr(WiretapChannel, "has_symmetric_one_bit", counted)
        if legit == "c1":
            chan = c1_channel(0)
        else:
            chan = TestReduce.asymmetric_channel()
        achieve(chan)
        assert checked == ["legit"]

    def test_json_payload_keys(self):
        res = achieve(WORKED, power_budget=4.0)
        payload = res.to_json()
        for key in ("mode", "phi", "a", "b", "capital_phi", "regime", "p1", "p2",
                    "limit_rate", "input", "exact_rate", "alpha", "power_budget",
                    "effective_rate"):
            assert key in payload
        assert payload["power_budget"] == 4.0


class TestQpskBound:
    def test_bound_formula_and_rotation(self):
        chan = complex_channel((1.5, 0.7), (0.3, -0.4))
        j = 2.0
        res = qpsk_bound(chan, j)
        amp = math.sqrt(j / 2.0)
        want = 2.0 * (
            oracles.h_oracle(oracles.q_oracle(chan.w2.magnitude * amp))
            - oracles.h_oracle(oracles.q_oracle(chan.w1.magnitude * amp))
        )
        assert res.bound == pytest.approx(want, rel=1e-12)
        assert res.bound > 0.0
        assert res.rs >= res.bound - 1e-10
        # the four points are the rotated square at radius sqrt(J)
        assert sorted(abs(z) for z in res.input.points) == pytest.approx(
            [math.sqrt(j)] * 4
        )
        assert res.i1 == pytest.approx(
            2.0 * (1.0 - oracles.h_oracle(oracles.q_oracle(chan.w1.magnitude * amp))),
            rel=1e-12,
        )

    def test_mode_and_adc_requirements(self):
        with pytest.raises(ValidationError):
            qpsk_bound(WORKED, 1.0)
        chan = complex_channel((1.5, 0.0), (0.3, 0.0),
                               eave=ComplexAdcPair(AdcSpec((0.1,), (-1.0, 1.0)), one_bit()))
        with pytest.raises(ValidationError):
            qpsk_bound(chan, 1.0)
        good = complex_channel((1.5, 0.0), (0.3, 0.0))
        with pytest.raises(ValidationError):
            qpsk_bound(good, -1.0)
