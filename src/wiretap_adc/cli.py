"""Command-line front end.

Subcommands: rate, achieve, optimize, kkt-check, sweep, verify, qpsk-bound.
COMMANDS is the one place that knows each command: its name, handler, help
line and --trace help.  Inputs come from a JSON config file; results go to
stdout or --out as JSON (default) or CSV.  Exit codes: 0 success, 1
verification failure, 2 validation error, 3 equal-gain precondition, 4 sweep
exhausted.  Sweeps evaluate their grid in order, so one config gives the same
bytes every run.
"""

import argparse
import cmath
import csv
import io
import json
import math
import sys
from dataclasses import fields, replace

from . import verification
from .achievability import (
    ConstructOptions,
    achieve,
    apply_power_constraint,
    qpsk_bound,
)
from .channel import ComplexGain, WiretapChannel
from .errors import EqualGainError, SweepExhaustedError, ValidationError
from .infotheory import DiscreteInput, _rate_arrays, secrecy_rate
from .optimizer import (
    OptimizeConfig,
    check_support_condition,
    kkt_check,
    optimize_wyner_rate,
)
from .util import require_finite, require_integer

_SWEEP_AXES = ("b", "w2_mag", "J")


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="write the result here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="wiretap-adc",
        description="Secrecy rates of Gaussian wiretap channels with finite-resolution ADCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, trace_help in COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if trace_help:
            p.add_argument("--trace", help=trace_help)
        p.set_defaults(handler=handler, trace=None)
    return parser


def _load_config(args):
    if not args.config:
        raise ValidationError("this command needs --config <path>")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return cfg


def _required(cfg, key, what, parse):
    """parse(cfg[key]); a config without key is refused as missing `what`."""
    if key not in cfg:
        raise ValidationError(f"config is missing {what}")
    return parse(cfg[key])


def _channel_from(cfg):
    return _required(cfg, "channel", "the 'channel' section", WiretapChannel.from_json)


def _input_from(cfg):
    return _required(cfg, "input", "the 'input' section", DiscreteInput.from_json)


def _budget_from(cfg):
    return _required(cfg, "J", "the power budget 'J'", lambda j: require_finite("J", j))


def _options_section(cfg, name, keys):
    """A copy of the config's options section `name`, rejecting keys outside `keys`."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name!r} must be a JSON object, got {section!r}")
    unknown = set(section) - keys
    if unknown:
        raise ValidationError(f"unknown {name} options: {sorted(unknown)}")
    return dict(section)


def _construct_options(cfg, keep_trace=False):
    return ConstructOptions(keep_trace=keep_trace, **_options_section(cfg, "achieve", {"mode"}))


def _write_text(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit(args, payload, header, rows):
    """payload as JSON, or header and rows as CSV; a --trace file gets the CSV too."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])  # None reads as ""
    if args.trace:
        _write_text(args.trace, buf.getvalue())
    if args.format == "csv":
        _write_text(args.out, buf.getvalue())
    else:
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_rate(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    dist = _input_from(cfg)
    report = secrecy_rate(chan, dist).to_json()
    header = ("i1", "i2", "rs", "power")
    payload = {"rate_report": report, "input": dist.to_json()}
    return _emit(args, payload, header, [[report[k] for k in header]])


def cmd_achieve(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    options = _construct_options(cfg, keep_trace=bool(args.trace or args.format == "csv"))
    result = achieve(chan, options, power_budget=_budget_from(cfg) if "J" in cfg else None)
    header = ("b", "phi", "i1", "i2", "rs", "limit_rate")
    return _emit(args, result.to_json(), header, result.trace or ())


def cmd_optimize(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    j = _budget_from(cfg)
    section = _options_section(cfg, "optimize", {f.name for f in fields(OptimizeConfig)})
    if args.seed is not None:
        section["seed"] = args.seed
    config = OptimizeConfig(**section)
    result = optimize_wyner_rate(chan, j, config)
    kkt = kkt_check(chan, result.input, j)
    try:
        verdict = check_support_condition(result.input, chan).to_json()
    except EqualGainError:
        verdict = None
    payload = {
        **result.to_json(),
        "seed": config.seed,
        "kkt_report": kkt.to_json(),
        "support_verdict": verdict,
    }
    header = ("seed", "restart", "iterations", "rs", "power")
    return _emit(args, payload, header, result.trace)


def cmd_kkt_check(args):
    cfg = _load_config(args)
    _options_section(cfg, "kkt", set())  # no options: the grid is optimizer.KKT_GRID_POINTS
    chan = _channel_from(cfg)
    dist = _input_from(cfg)
    flat = kkt_check(chan, dist, _budget_from(cfg)).to_json()
    header = ("lambda", "mean_square", "power_budget", "max_slack_violation",
              "support_residual", "slackness_residual")
    return _emit(args, flat, header, [[flat[k] for k in header]])


def _sweep_grid(section):
    axis = section.get("axis")
    if axis not in _SWEEP_AXES:
        raise ValidationError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    try:
        start = require_finite("sweep start", section["start"])
        stop = require_finite("sweep stop", section["stop"])
        num = require_integer("sweep num", section["num"])
    except KeyError as missing:
        raise ValidationError(f"sweep section is missing {missing}") from None
    scale = section.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ValidationError(f"sweep scale must be 'linear' or 'log', got {scale!r}")
    if num < 1 or start > stop:
        raise ValidationError("sweep range is empty")
    if scale == "log":
        if start <= 0.0:
            raise ValidationError("log-scale sweeps need start > 0")
        if num == 1:
            values = [start]
        else:
            ratio = (stop / start) ** (1.0 / (num - 1))
            values = [start * ratio**i for i in range(num)]
    else:
        step = 0.0 if num == 1 else (stop - start) / (num - 1)
        values = [start + step * i for i in range(num)]
    return axis, values


def cmd_sweep(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    section = _options_section(cfg, "sweep", {"axis", "start", "stop", "num", "scale"})
    axis, values = _sweep_grid(section)
    options = _construct_options(cfg)

    if axis == "b":
        result = achieve(chan, options)
        if chan.mode == "complex":
            unit = far_unit = cmath.rect(1.0, result.capital_phi)
            if result.ray is None:
                # a split pair's far point lies half a quarter-turn past the a-point's ray
                far_unit = cmath.rect(1.0, result.capital_phi + math.pi / 4.0)
        else:
            unit = far_unit = 1.0
        sign = 1.0 if result.b >= 0.0 else -1.0
        near = complex(result.a * unit) + result.translation

        def run_one(val):
            far = complex(sign * val * far_unit) + result.translation
            if far == near:
                return (val, 0.0, 0.0, 0.0, result.limit_rate)
            i1, i2 = _rate_arrays(chan, (near, far), (result.phi, 1.0 - result.phi))
            return (val, i1, i2, i1 - i2, result.limit_rate)

    elif axis == "w2_mag":
        phase = chan.w2.phase

        def run_one(val):
            if val <= 0.0:
                raise ValidationError("w2_mag sweep values must be positive")
            if chan.mode == "real":
                gain = ComplexGain(math.copysign(val, chan.w2.re))
            else:
                gain = ComplexGain(val * math.cos(phase), val * math.sin(phase))
            res = achieve(replace(chan, w2=gain), options)
            rr = res.exact_rate
            return (val, rr.i1, rr.i2, rr.rs, res.limit_rate)

    else:  # axis == "J"
        base = achieve(chan, options)

        def run_one(val):
            constrained = apply_power_constraint(base, val)
            alpha = constrained.alpha
            rr = constrained.exact_rate
            return (val, alpha * rr.i1, alpha * rr.i2, constrained.effective_rate,
                    constrained.limit_rate)

    rows = [run_one(val) for val in values]
    payload = {"axis": axis, "rows": [list(r) for r in rows]}
    return _emit(args, payload, ("axis_value", "i1", "i2", "rs", "limit_rate"), rows)


def cmd_verify(args):
    seed = 0
    names = None
    if args.config:
        cfg = _load_config(args)
        section = _options_section(cfg, "verify", {"seed", "suites"})
        seed = require_integer("verify seed", section.get("seed", 0))
        names = section.get("suites")
        if names is not None and not isinstance(names, list):
            raise ValidationError(f"verify suites must be a list of suite names, got {names!r}")
    if args.seed is not None:
        seed = args.seed
    results = verification.run_verification(seed=seed, names=names)
    passed = all(r.passed for r in results)
    payload = {
        "seed": seed,
        "passed": passed,
        "suites": [r.to_json() for r in results],
    }
    rows = [(r.name, r.passed, r.worst, r.cases) for r in results]
    _emit(args, payload, ("name", "passed", "worst", "cases"), rows)
    return 0 if passed else 1


def cmd_qpsk_bound(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    flat = qpsk_bound(chan, _budget_from(cfg)).to_json()
    header = ("i1", "i2", "rs", "bound")
    return _emit(args, flat, header, [[flat[k] for k in header]])


COMMANDS = (
    ("rate", cmd_rate, "exact rates of a given input", None),
    ("achieve", cmd_achieve, "construct a positive-rate input",
     "write the candidate sweep trace CSV here"),
    ("optimize", cmd_optimize, "optimize the input distribution",
     "write the per-restart trace CSV here"),
    ("kkt-check", cmd_kkt_check, "KKT audit of a given input", None),
    ("sweep", cmd_sweep, "rate sweep along one axis", None),
    ("verify", cmd_verify, "run the self-check suites", None),
    ("qpsk-bound", cmd_qpsk_bound, "QPSK rate and closed-form bound", None),
)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except EqualGainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SweepExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, indent=2, sort_keys=True), file=sys.stderr)
        return 4
    except (ValidationError, ValueError, KeyError, TypeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
