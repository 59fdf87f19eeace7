"""End-to-end checks of the command line, driven in-process through main()."""

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import c1_channel
from wiretap_adc import (
    AdcSpec,
    ComplexAdcPair,
    ComplexGain,
    DiscreteInput,
    WiretapChannel,
    achieve,
    one_bit,
    one_bit_pair,
)
from wiretap_adc import cli
from wiretap_adc.cli import COMMANDS, main


def worked_channel():
    return WiretapChannel(
        w1=ComplexGain(1.0),
        w2=ComplexGain(2.0),
        legit_adc=one_bit_pair(),
        eave_adc=ComplexAdcPair(AdcSpec((-0.5, 1.0), (0.0, 1.0, 2.0)), one_bit()),
        mode="real",
    )


def one_bit_complex_channel():
    return WiretapChannel(
        w1=ComplexGain(2.0),
        w2=ComplexGain(0.0, 1.0),
        legit_adc=one_bit_pair(),
        eave_adc=one_bit_pair(),
        mode="complex",
    )


def equal_gain_channel():
    return WiretapChannel(
        w1=ComplexGain(1.0),
        w2=ComplexGain(-1.0),
        legit_adc=one_bit_pair(),
        eave_adc=one_bit_pair(),
        mode="real",
    )


def write_config(tmp_path, name="config.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections), encoding="utf-8")
    return str(path)


def set_node(tree, path, value):
    """tree with the node at path (a key or index per level) replaced by value."""
    if not path:
        return value
    *parents, leaf = path
    node = tree
    for key in parents:
        node = node[key]
    node[leaf] = value
    return tree


def rate_sections():
    """A valid `rate` config: the worked channel and a two-point input."""
    dist = DiscreteInput((2.0, 4.0), (0.1, 0.9))
    return {"channel": worked_channel().to_json(), "input": dist.to_json()}


def json_paths(node, prefix=()):
    """The path of every node of a JSON tree, the root's () first."""
    yield prefix
    children = ()
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    for key, child in children:
        yield from json_paths(child, (*prefix, key))


# null, bools, numbers (NaN and infinities too), strings, and arrays and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestRate:
    def make_config(self, tmp_path):
        return write_config(tmp_path, **rate_sections())

    def test_json_output(self, tmp_path, capsys):
        assert main(["rate", "--config", self.make_config(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["rate_report"]
        assert report["rs"] == pytest.approx(report["i1"] - report["i2"], abs=1e-15)
        assert payload["input"]["probs"] == [0.1, 0.9]

    def test_csv_output(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        assert main(["rate", "--config", cfg, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["i1", "i2", "rs", "power"]
        assert len(rows) == 1
        i1, i2, rs, power = map(float, rows[0])
        assert rs == pytest.approx(i1 - i2, abs=1e-15)
        assert power == pytest.approx(0.1 * 4.0 + 0.9 * 16.0)

    def test_out_file(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "rate.json"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert "rate_report" in json.loads(out.read_text())


class TestAchieve:
    def test_json_and_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel=worked_channel().to_json())
        trace_path = tmp_path / "trace.csv"
        assert main(["achieve", "--config", cfg, "--trace", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == 2.0
        assert payload["b"] == 4.0
        assert payload["exact_rate"]["rs"] > 1e-9

        header, rows = parse_csv(trace_path.read_text())
        assert header == ["b", "phi", "i1", "i2", "rs", "limit_rate"]
        assert rows
        for row in rows:
            b, phi, i1, i2, rs, limit = map(float, row)
            assert rs == pytest.approx(i1 - i2, abs=1e-12)

    def test_csv_format_is_the_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel=worked_channel().to_json())
        assert main(["achieve", "--config", cfg, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["b", "phi", "i1", "i2", "rs", "limit_rate"]
        assert rows

    def test_power_budget_is_applied(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel=worked_channel().to_json(), J=2.0)
        assert main(["achieve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["power_budget"] == 2.0
        assert 0.0 < payload["alpha"] < 1.0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tolerance", 1e-6),
            # the search constants are fixed, not options
            ("rate_floor", 1e-9),
            ("phi_grid", []),
            ("max_doublings", 40),
            ("extended", False),
        ],
        ids=["tolerance", "rate_floor", "phi_grid", "max_doublings", "extended"],
    )
    def test_unknown_option_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, channel=worked_channel().to_json(), achieve={key: value})
        assert main(["achieve", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


class TestOptimize:
    def make_config(self, tmp_path, **extra):
        return write_config(
            tmp_path,
            channel=worked_channel().to_json(),
            J=4.0,
            optimize={"support_size": 3, "restarts": 2, "seed": 5},
            **extra,
        )

    def test_payload_and_seed_override(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        trace_path = tmp_path / "trace.csv"
        code = main(
            ["optimize", "--config", cfg, "--seed", "9", "--trace", str(trace_path)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "input", "kkt_report", "power_budget", "rate_report", "seed", "support_verdict"
        ]
        assert payload["seed"] == 9
        assert payload["kkt_report"]["grid_points"] == 2001
        assert payload["support_verdict"]["gain_order"] == "legit_weaker"
        assert payload["rate_report"]["power"] <= 4.0 + 1e-9

        header, rows = parse_csv(trace_path.read_text())
        assert header == ["seed", "restart", "iterations", "rs", "power"]
        assert len(rows) == 2
        assert [int(r[1]) for r in rows] == [0, 1]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["optimize", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["optimize", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestKktCheck:
    def test_report(self, tmp_path, capsys):
        dist = DiscreteInput((-2.0, 2.0), (0.5, 0.5))
        cfg = write_config(
            tmp_path, channel=worked_channel().to_json(), input=dist.to_json(), J=4.0
        )
        assert main(["kkt-check", "--config", cfg, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == [
            "lambda",
            "mean_square",
            "power_budget",
            "max_slack_violation",
            "support_residual",
            "slackness_residual",
        ]
        assert float(rows[0][1]) == pytest.approx(4.0)
        assert main(["kkt-check", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["grid_points"] == 2001

    @pytest.mark.parametrize(
        "section",
        ['{"grid_points": 501}', '{"grid_points": 1e400}', '{"grid_points": 1e12}'],
        ids=["small", "overflow", "huge"],
    )
    def test_grid_is_not_an_option(self, tmp_path, capsys, section):
        # the grid is fixed; a section asking for another is rejected before
        # any grid is allocated
        dist = DiscreteInput((-2.0, 2.0), (0.5, 0.5))
        body = {"channel": worked_channel().to_json(), "input": dist.to_json(), "J": 4.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body)[:-1] + f', "kkt": {section}}}', encoding="utf-8")
        assert main(["kkt-check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config section 'kkt' accepts only keys [], got ['grid_points']" in err

    def test_needs_budget(self, tmp_path, capsys):
        dist = DiscreteInput((1.0,), (1.0,))
        cfg = write_config(
            tmp_path, channel=worked_channel().to_json(), input=dist.to_json()
        )
        assert main(["kkt-check", "--config", cfg]) == 2
        assert "'J'" in capsys.readouterr().err


class TestSweep:
    def test_far_point_axis(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            channel=worked_channel().to_json(),
            sweep={"axis": "b", "start": 3.0, "stop": 7.0, "num": 5},
        )
        assert main(["sweep", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axis"] == "b"
        values = [row[0] for row in payload["rows"]]
        assert values == sorted(values)
        assert len(values) == 5
        # larger far points approach the Z-channel limit from below
        last = payload["rows"][-1]
        assert abs(last[3] - last[4]) < abs(payload["rows"][0][3] - last[4])

    def test_far_point_sweep_at_its_own_amplitude_is_the_result(self, tmp_path, capsys):
        # the row at |b| rates the result's own points, so it matches exact_rate bit for
        # bit; config 28 ends in a split pair, whose far point lies half a quarter-turn
        # past the a-point's ray
        assert achieve(c1_channel(28)).ray is None
        for case in range(40):
            chan = c1_channel(case, "complex")
            result = achieve(chan)
            b = abs(result.b)
            sweep = {"axis": "b", "start": b, "stop": b, "num": 1}
            cfg = write_config(tmp_path, channel=chan.to_json(), sweep=sweep)
            assert main(["sweep", "--config", cfg]) == 0
            (row,) = json.loads(capsys.readouterr().out)["rows"]
            assert row[:3] == [b, result.exact_rate.i1, result.exact_rate.i2], case

    def test_eavesdropper_gain_axis_at_equal_magnitudes_is_a_null_row(self, tmp_path, capsys):
        # |w1| = 2 lies on the grid: that row has no construction, the others keep theirs
        sweep = {"axis": "w2_mag", "start": 0.5, "stop": 3.5, "num": 3}
        cfg = write_config(tmp_path, channel=one_bit_complex_channel().to_json(), sweep=sweep)
        assert main(["sweep", "--config", cfg]) == 0
        first, equal, last = json.loads(capsys.readouterr().out)["rows"]
        assert equal == [2.0, None, None, None, None]
        assert first[3] > 0.0 and last[3] > 0.0
        assert main(["sweep", "--config", cfg, "--format", "csv"]) == 0
        assert parse_csv(capsys.readouterr().out)[1][1] == ["2.0", "", "", "", ""]

    def test_budget_axis_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            channel=worked_channel().to_json(),
            sweep={"axis": "J", "start": 1.0, "stop": 16.0, "num": 3, "scale": "log"},
        )
        assert main(["sweep", "--config", cfg, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["axis_value", "i1", "i2", "rs", "limit_rate"]
        assert [float(r[0]) for r in rows] == pytest.approx([1.0, 4.0, 16.0])

    def test_eavesdropper_gain_axis(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            channel=worked_channel().to_json(),
            sweep={"axis": "w2_mag", "start": 2.0, "stop": 3.0, "num": 3},
        )
        assert main(["sweep", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(row[3] > 0.0 for row in payload["rows"])

    def test_bad_axis(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            channel=worked_channel().to_json(),
            sweep={"axis": "sigma", "start": 0.0, "stop": 1.0, "num": 2},
        )
        assert main(["sweep", "--config", cfg]) == 2
        assert "axis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bound, value", [("start", float("-inf")), ("start", float("nan")), ("stop", float("inf"))]
    )
    def test_non_finite_range_rejected(self, tmp_path, capsys, bound, value):
        # json.dumps writes -Infinity, NaN and Infinity, which json.load accepts
        sweep = {"axis": "b", "start": 1.0, "stop": 3.0, "num": 3, bound: value}
        cfg = write_config(tmp_path, channel=worked_channel().to_json(), sweep=sweep)
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().out == ""


class TestConfigSections:
    def write(self, tmp_path, **sections):
        dist = DiscreteInput((-2.0, 2.0), (0.5, 0.5))
        return write_config(
            tmp_path, channel=worked_channel().to_json(), input=dist.to_json(), J=4.0,
            **sections,
        )

    @pytest.mark.parametrize(
        "command, section, value",
        [
            ("achieve", "achieve", 5),
            ("achieve", "achieve", [1]),
            ("optimize", "optimize", "fast"),
            ("sweep", "sweep", 7),
            ("verify", "verify", 3),
            ("kkt-check", "kkt", 5),
        ],
    )
    def test_section_must_be_an_object(self, tmp_path, capsys, command, section, value):
        cfg = self.write(tmp_path, **{section: value})
        assert main([command, "--config", cfg]) == 2
        assert f"config section '{section}' must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, value",
        [
            ("sweep", "sweep", {"axis": "b", "start": 1.0, "stop": 3.0, "num": 3, "step": 1}),
            ("verify", "verify", {"seed": 0, "suite": ["closed_forms"]}),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, capsys, command, section, value):
        cfg = self.write(tmp_path, **{section: value})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config section '{section}' accepts only keys" in err
        assert f"got [{[*value][-1]!r}]" in err  # the section's last key is the unknown one

    @pytest.mark.parametrize(
        "command, sections, message",
        [
            ("optimize", {"J": True}, "J must be a number"),
            ("optimize", {"J": 10**400}, "too large to convert to float"),
            ("sweep", {"sweep": {"start": True}}, "sweep start must be a number"),
            ("sweep", {"sweep": {"stop": True}}, "sweep stop must be a number"),
            ("sweep", {"sweep": {"num": 2.9}}, "sweep num must be an integer"),
            ("sweep", {"sweep": {"num": True}}, "sweep num must be an integer"),
            ("verify", {"verify": {"seed": 1.7}}, "verify seed must be an integer"),
            ("verify", {"verify": {"seed": True}}, "verify seed must be an integer"),
            ("optimize", {"optimize": {"support_size": True}}, "support_size must be an integer"),
            ("optimize", {"optimize": {"restarts": True}}, "restarts must be an integer"),
            ("optimize", {"optimize": {"seed": 1.5}}, "seed must be an integer"),
            ("optimize", {"optimize": {"max_iterations": 2.5}}, "max_iterations must be an int"),
        ],
    )
    def test_numbers_refuse_bools_and_fractions(self, tmp_path, capsys, command, sections, message):
        # a valid config but for the one field under test
        sweep = {"axis": "b", "start": 1.0, "stop": 3.0, "num": 3, **sections.get("sweep", {})}
        cfg = write_config(
            tmp_path, channel=worked_channel().to_json(), **{"J": 4.0, **sections, "sweep": sweep}
        )
        assert main([command, "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, message",
        [
            (("channel", "w1"), "w1 must be a number"),
            (("channel", "w2", "re"), "w2 re must be a number"),
            (("channel", "legit_adc", "real", "thresholds", 0), "thresholds must be a number"),
            (("channel", "eave_adc", "imag", "outputs", 1), "outputs must be a number"),
            (("input", "points", 0), "point must be a number"),
            (("input", "probs", 1), "probs must be a number"),
        ],
    )
    def test_channel_and_input_numbers_refuse_bools(self, tmp_path, capsys, path, message):
        dist = DiscreteInput((0.0, 2.0), (0.0, 1.0))  # a true prob would read as 1.0
        sections = {"channel": worked_channel().to_json(), "input": dist.to_json()}
        set_node(sections, path, True)
        assert main(["rate", "--config", write_config(tmp_path, **sections)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("channel", "w1"), {"re": 2.0, "img": 1.0},
             "w1 accepts only keys ['re', 'im'], got ['img']"),
            (("input", "points", 0), {"re": 1.0, "imag": 1.0},
             "point accepts only keys ['re', 'im'], got ['imag']"),
        ],
    )
    def test_complex_numbers_refuse_unknown_keys(self, tmp_path, capsys, path, value, message):
        # a misspelt imaginary part must not read as 0
        dist = DiscreteInput((0.0, 2.0), (0.5, 0.5))
        sections = {"channel": worked_channel().to_json(), "input": dist.to_json()}
        set_node(sections, path, value)
        assert main(["rate", "--config", write_config(tmp_path, **sections)]) == 2
        assert message in capsys.readouterr().err

    def test_integral_float_counts_read_as_ints(self, tmp_path, capsys):
        sweep = {"axis": "b", "start": 1.0, "stop": 3.0, "num": 3.0}
        cfg = write_config(tmp_path, channel=worked_channel().to_json(), sweep=sweep)
        assert main(["sweep", "--config", cfg]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 3

    def test_verify_suites_must_be_a_list(self, tmp_path, capsys):
        cfg = self.write(tmp_path, verify={"suites": "kkt"})
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "verify suites must be a JSON array" in err
        assert "'k'" not in err

    @pytest.mark.parametrize(
        "path, value, what, key",
        [
            (("channel", "noise_variance"), 4.0, "channel", "noise_variance"),
            (("channel", "eave_adc", "real", "bits"), 2, "eave_adc real", "bits"),
            (("channel", "eave_adc", "joint"), True, "eave_adc", "joint"),
            (("channel", "legit_adc"), {**one_bit().to_json(), "real": {}}, "legit_adc", "real"),
            (("input", "weights"), [0.5, 0.5], "input", "weights"),
            (("optimise",), {"restarts": 2}, "config root", "optimise"),
        ],
        ids=["channel", "adc_spec", "adc_pair", "bare_spec", "input", "root"],
    )
    def test_every_object_refuses_unknown_keys(self, tmp_path, capsys, path, value, what, key):
        # a key outside an object's schema would otherwise describe another channel or search
        cfg = write_config(tmp_path, **set_node(rate_sections(), path, value))
        assert main(["rate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"error: {what} accepts only keys" in err
        assert f"got [{key!r}]" in err

    def test_arrays_must_be_json_arrays(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **set_node(rate_sections(), ("input", "points"), 2.0))
        assert main(["rate", "--config", cfg]) == 2
        assert "error: input points must be a JSON array, got 2.0" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_json_value_anywhere_exits_0_or_2(self, tmp_path, capsys, data):
        # main's exit-2 list names no KeyError or TypeError: the reader must refuse every shape
        path = data.draw(st.sampled_from(list(json_paths(rate_sections()))), label="path")
        value = data.draw(JSON_VALUES, label="value")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(set_node(rate_sections(), path, value)), encoding="utf-8")
        assert main(["rate", "--config", str(config)]) in (0, 2)
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["rate", "kkt-check"])
    def test_readme_config_runs(self, tmp_path, capsys, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(block, encoding="utf-8")
        assert main([command, "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""


# sha256 of what `wiretap-adc verify --seed 0` prints
VERIFY_SEED_0_SHA256 = "87b2a759a0116e4a1a9b5e7aa582b6a48fe43ba1163be30995f68465266ae141"


class TestVerify:
    def test_seed_0_output_is_byte_identical_to_frozen_digest(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED_0_SHA256

    def test_subset_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, verify={"seed": 3, "suites": ["closed_forms", "entropy_identity"]}
        )
        assert main(["verify", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        # suites run in registry order, not request order
        assert sorted(s["name"] for s in payload["suites"]) == [
            "closed_forms",
            "entropy_identity",
        ]

    def test_empty_suite_list_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, verify={"suites": []})
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "no verification suites selected" in captured.err
        assert captured.out == ""

    def test_broken_invariant_fails(self, tmp_path, capsys, monkeypatch):
        import wiretap_adc.optimizer as optimizer

        real_gap = optimizer.folding_gap
        monkeypatch.setattr(
            optimizer, "folding_gap", lambda chan, dist: -real_gap(chan, dist)
        )
        cfg = write_config(tmp_path, verify={"suites": ["folding_gap_signs"]})
        assert main(["verify", "--config", cfg]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["suites"][0]["passed"] is False


class TestExitCodes:
    def test_equal_gains(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel=equal_gain_channel().to_json())
        assert main(["achieve", "--config", cfg]) == 3
        assert "error" in capsys.readouterr().err

    def test_sweep_exhausted(self, tmp_path, capsys):
        # two-sided far-out thresholds push every candidate into saturation
        chan = WiretapChannel(
            w1=ComplexGain(2.868969027989957),
            w2=ComplexGain(3.4769744226145676),
            legit_adc=one_bit_pair(),
            eave_adc=ComplexAdcPair(
                AdcSpec(
                    (-2.7331714163422323, -1.2906134580853619,
                     1.2949445706683873, 2.9372238452499735),
                    (0.0, 1.0, 2.0, 3.0, 4.0),
                ),
                AdcSpec((-1.0, 1.75), (0.0, 1.0, 2.0)),
            ),
            mode="real",
        )
        cfg = write_config(tmp_path, channel=chan.to_json())
        assert main(["achieve", "--config", cfg]) == 4
        err = capsys.readouterr().err
        diag = json.loads(err[err.index("{"):])
        assert diag["rate_floor"] == 1e-9
        assert diag["best_rate"] <= 1e-9

    def test_missing_config(self, capsys):
        assert main(["rate"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_malformed_channel(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel={"w1": [1.0, 0.0]})
        assert main(["rate", "--config", cfg]) == 2
        assert "error" in capsys.readouterr().err


class TestQpskBound:
    def test_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel=one_bit_complex_channel().to_json(), J=4.0)
        assert main(["qpsk-bound", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rs"] >= payload["bound"] - 1e-10
        assert payload["bound"] > 0.0

    def test_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, channel=one_bit_complex_channel().to_json(), J=4.0)
        assert main(["qpsk-bound", "--config", cfg, "--format", "csv"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["i1", "i2", "rs", "bound"]
        assert len(rows) == 1


def frozen_runs(group, write):
    """The argv lists of one group of CLI_BYTES_SHA256; write(**sections) gives a config path."""
    worked, cplx = worked_channel().to_json(), one_bit_complex_channel().to_json()
    dist = DiscreteInput((2.0, 4.0), (0.1, 0.9)).to_json()
    bpsk = DiscreteInput((-2.0, 2.0), (0.5, 0.5)).to_json()
    qpsk = DiscreteInput((1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j), (0.25,) * 4).to_json()
    optimize = {"support_size": 3, "restarts": 2, "seed": 5}
    c1 = [c1_channel(case, mode).to_json()
          for case, mode in ((0, "real"), (1, "real"), (3, "real"),
                             (0, "complex"), (2, "complex"), (28, "complex"))]
    formats = (["--format", "json"], ["--format", "csv"])
    if group == "rate":
        return [
            *(["rate", "--config", write(channel=chan, input=x), *fmt]
              for chan, x in ((worked, dist), (cplx, qpsk)) for fmt in formats),
            ["rate", "--config", write(channel=worked, input=dist), "--out", "rate.json"],
        ]
    if group == "achieve":
        configs = [write(channel=worked), write(channel=cplx), write(channel=worked, J=2.0),
                   write(channel=cplx, achieve={"mode": "first"}),
                   *(write(channel=chan) for chan in c1)]
        return [["achieve", "--config", cfg, *fmt, *trace] for cfg in configs
                for fmt in formats for trace in ([], ["--trace", "trace.csv"])]
    if group == "optimize":
        configs = [write(channel=worked, J=4.0, optimize=optimize),
                   write(channel=equal_gain_channel().to_json(), J=2.0,
                         optimize={"support_size": 2, "restarts": 1})]
        return [
            *(["optimize", "--config", cfg, *fmt, *trace] for cfg in configs
              for fmt in formats for trace in ([], ["--trace", "trace.csv"])),
            ["optimize", "--config", configs[0], "--seed", "9"],
        ]
    if group == "kkt-check":
        configs = [write(channel=worked, input=bpsk, J=4.0),
                   write(channel=worked, input=dist, J=9.0)]
        return [["kkt-check", "--config", cfg, *fmt] for cfg in configs for fmt in formats]
    if group == "sweep":
        sweeps = [{"axis": "b", "start": 1.0, "stop": 20.0, "num": 4, "scale": "log"},
                  {"axis": "w2_mag", "start": 0.5, "stop": 3.5, "num": 3},
                  {"axis": "J", "start": 0.5, "stop": 32.0, "num": 3, "scale": "log"}]
        return [["sweep", "--config", write(channel=chan, sweep=sweep), *fmt]
                for chan in (worked, cplx, *c1) for sweep in sweeps for fmt in formats]
    if group == "verify":
        cfg = write(verify={"seed": 3, "suites": ["closed_forms", "entropy_identity"]})
        return [["verify", "--config", cfg, *fmt] for fmt in formats] + [
            ["verify", "--config", cfg, "--seed", "1"]]
    if group == "qpsk-bound":
        return [["qpsk-bound", "--config", write(channel=cplx, J=j), *fmt]
                for j in (0.5, 4.0) for fmt in formats]
    if group == "errors":
        sweep = {"axis": "b", "start": 1.0, "stop": 3.0, "num": 3}
        return [
            [], ["rate"], ["rate", "--format", "xml"], ["rate", "--config", "missing.json"],
            ["rate", "--config", write(channel=worked)],
            ["rate", "--config", write(input=dist)],
            ["achieve", "--config", write(channel=worked, achieve={"tolerance": 1e-6})],
            ["achieve", "--config", write(channel=worked, J="4")],
            ["achieve", "--config", write(channel=equal_gain_channel().to_json())],
            ["optimize", "--config", write(channel=worked, optimize=optimize)],
            ["optimize", "--config", write(channel=worked, J=4.0, optimize=[1])],
            ["optimize", "--config", write(channel=cplx, J=4.0)],
            ["kkt-check", "--config", write(channel=worked, input=bpsk)],
            ["kkt-check", "--config", write(channel=worked, input=bpsk, J=4.0, kkt={"grid": 9})],
            ["sweep", "--config", write(channel=worked, sweep={**sweep, "axis": "sigma"})],
            ["sweep", "--config", write(channel=worked, sweep={"axis": "b", "start": 1.0})],
            ["sweep", "--config", write(channel=worked, sweep={**sweep, "scale": "log",
                                                                "start": 0.0})],
            ["sweep", "--config", write(channel=worked, sweep={**sweep, "start": 4.0})],
            ["sweep", "--config", write(channel=worked, sweep={**sweep, "axis": "w2_mag",
                                                                "start": 0.0})],
            ["sweep", "--config", write(sweep=sweep)],
            ["verify", "--config", write(verify={"suites": "kkt"})],
            ["verify", "--config", write(verify={"suites": ["no_such_suite"]})],
            ["verify", "--config", write(verify={"seed": -1})],
            ["qpsk-bound", "--config", write(channel=worked, J=4.0)],
            ["qpsk-bound", "--config", write(channel=cplx)],
            # several faults at once: the first section a command reads reports
            ["rate", "--config", write()],
            ["achieve", "--config", write(achieve={"x": 1}, J="4")],
            ["achieve", "--config", write(channel=worked, achieve={"x": 1}, J="4")],
            ["optimize", "--config", write(optimize=[1])],
            ["optimize", "--config", write(channel=worked, optimize={"x": 1})],
            ["kkt-check", "--config", write(kkt={"grid": 9})],
            ["kkt-check", "--config", write(channel=worked)],
            ["sweep", "--config", write(channel=worked, sweep={"axis": "sigma"},
                                        achieve={"x": 1})],
            ["sweep", "--config", write(channel=worked, sweep=sweep, achieve={"x": 1})],
            ["verify", "--config", write(verify={"suites": "kkt", "seed": 1.5})],
            ["qpsk-bound", "--config", write(J="x")],
            # a key outside its object's schema, a number for an array, --seed off its commands
            ["rate", "--config", write(channel={**worked, "noise_variance": 4.0}, input=dist)],
            ["rate", "--config", write(channel=worked, input=dist, optimise={"restarts": 2})],
            ["rate", "--config", write(channel=worked, input={**dist, "points": 2.0})],
            ["rate", "--seed", "7"],
        ]
    assert group == "help"
    return [["--help"]] + [[name, "--help"] for name in
                           ("rate", "achieve", "optimize", "kkt-check", "sweep", "verify",
                            "qpsk-bound")]


# sha256 per group over the exit code, stdout, stderr (temp dir masked) and the
# --trace/--out file of each run in frozen_runs; --help is laid out at 80 columns
CLI_BYTES_SHA256 = {
    "rate": "4c5d4a301f9961c1287fb6cd80c17cdca2f51667c61f54ccf45a78f240a23f5e",
    "achieve": "e241d5760b4d539ecce48694480b8ce3bf19eaac9e165fcd4f664050a4a0f563",
    "optimize": "884b0cfd5d997bc1e085e0438401d051e8c11db68ca83048e30a1bf624a8ac73",
    "kkt-check": "2766ede375db80c69113590fd4ad06007f06684568e4616b299c3a3006b6ca59",
    "sweep": "17235a0a07aebe6dff9ca5f409db31d57ac0d5c562260bf712ee45f4fadb54e5",
    "verify": "29a6bc0b8198b2ace379922503852fdc08edcbd2ab7af251a2ee393bdbb515cf",
    "qpsk-bound": "b5cc7f1ae76dc2aa2382db838a0845733cc20148c27474b7cb920651c83ef24f",
    "errors": "c1bfaa353ae314f6cd27432add644f304c2b1ab72644a87a49e25a87a550d4e3",
    "help": "4a5b4907443fe9fe12e3b775c0ae6c33ca7485fa66d400bbf10b20c9e47306be",
}


@pytest.mark.parametrize("group", list(CLI_BYTES_SHA256))
def test_cli_bytes_match_frozen_digest(group, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    numbers = itertools.count(1)

    def write(**sections):
        return write_config(tmp_path, f"config{next(numbers)}.json", **sections)

    digest = hashlib.sha256()
    for argv in frozen_runs(group, write):
        for name in ("trace.csv", "rate.json"):
            (tmp_path / name).unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = [(tmp_path / name).read_text() if (tmp_path / name).exists() else None
                 for name in ("trace.csv", "rate.json")]
        run = [code, out, err.replace(str(tmp_path), "<tmp>"), *files]
        digest.update(json.dumps(run).encode())
    assert digest.hexdigest() == CLI_BYTES_SHA256[group]


@pytest.mark.parametrize("name", [name for name, *_, seeded in COMMANDS if not seeded])
def test_seed_is_offered_only_where_it_applies(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_docs_name_the_command_table():
    names = [name for name, *_ in COMMANDS]
    (line,) = [line for line in cli.__doc__.splitlines() if line.startswith("Subcommands:")]
    assert line == f"Subcommands: {', '.join(names)}."
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    assert [line.split()[1] for line in block.strip().splitlines()] == names


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, **rate_sections())
    # the package's source directory, whether or not PYTHONPATH names it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wiretap_adc.cli", "rate", "--config", cfg],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=False,
    )
    assert proc.returncode == 0
    assert "rate_report" in json.loads(proc.stdout)
