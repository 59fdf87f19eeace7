"""Command-line front end.

Subcommands: rate, achieve, optimize, kkt-check, sweep, verify, qpsk-bound.
Inputs come from a JSON config file; results go to stdout or --out as JSON
(default) or CSV.  Exit codes: 0 success, 1 verification failure, 2
validation error, 3 equal-gain precondition, 4 sweep exhausted.  Sweeps
evaluate their grid in order, so one config gives the same bytes every run.
"""

import argparse
import cmath
import csv
import io
import json
import math
import sys
from dataclasses import replace

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
from .util import require_integer, require_number

_ACHIEVE_KEYS = {"mode"}
_OPTIMIZE_KEYS = {"support_size", "restarts", "seed", "max_iterations"}
_SWEEP_KEYS = {"axis", "start", "stop", "num", "scale"}
_SWEEP_AXES = ("b", "w2_mag", "J")
_VERIFY_KEYS = {"seed", "suites"}

TRACE_HEADERS = {
    "achieve": ("b", "phi", "i1", "i2", "rs", "limit_rate"),
    "optimize": ("seed", "restart", "iterations", "rs", "power"),
}


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

    p = sub.add_parser("rate", parents=[common], help="exact rates of a given input")
    p.set_defaults(handler=cmd_rate)
    p = sub.add_parser("achieve", parents=[common], help="construct a positive-rate input")
    p.add_argument("--trace", help="write the candidate sweep trace CSV here")
    p.set_defaults(handler=cmd_achieve)
    p = sub.add_parser("optimize", parents=[common], help="optimize the input distribution")
    p.add_argument("--trace", help="write the per-restart trace CSV here")
    p.set_defaults(handler=cmd_optimize)
    p = sub.add_parser("kkt-check", parents=[common], help="KKT audit of a given input")
    p.set_defaults(handler=cmd_kkt_check)
    p = sub.add_parser("sweep", parents=[common], help="rate sweep along one axis")
    p.set_defaults(handler=cmd_sweep)
    p = sub.add_parser("verify", parents=[common], help="run the self-check suites")
    p.set_defaults(handler=cmd_verify)
    p = sub.add_parser("qpsk-bound", parents=[common], help="QPSK rate and closed-form bound")
    p.set_defaults(handler=cmd_qpsk_bound)
    return parser


def _load_config(args):
    if not args.config:
        raise ValidationError("this command needs --config <path>")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return cfg


def _channel_from(cfg):
    if "channel" not in cfg:
        raise ValidationError("config is missing the 'channel' section")
    return WiretapChannel.from_json(cfg["channel"])


def _input_from(cfg):
    if "input" not in cfg:
        raise ValidationError("config is missing the 'input' section")
    return DiscreteInput.from_json(cfg["input"])


def _budget_from(cfg, required=True):
    if "J" not in cfg:
        if required:
            raise ValidationError("config is missing the power budget 'J'")
        return None
    return require_number("J", cfg["J"])


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
    section = _options_section(cfg, "achieve", _ACHIEVE_KEYS)
    return ConstructOptions(keep_trace=keep_trace, **section)


def _write_text(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _emit(args, payload, csv_header=None, csv_rows=None):
    if args.format == "csv":
        if csv_header is None:
            raise ValidationError(f"{args.command} has no CSV representation")
        _write_text(args.out, _csv_text(csv_header, csv_rows))
    else:
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _write_trace(path, kind, rows):
    if path:
        _write_text(path, _csv_text(TRACE_HEADERS[kind], rows))


def cmd_rate(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    dist = _input_from(cfg)
    report = secrecy_rate(chan, dist)
    payload = {"rate_report": report.to_json(), "input": dist.to_json()}
    row = (report.i1, report.i2, report.rs, report.power)
    return _emit(args, payload, ("i1", "i2", "rs", "power"), [row])


def cmd_achieve(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    options = _construct_options(cfg, keep_trace=bool(args.trace or args.format == "csv"))
    result = achieve(chan, options, power_budget=_budget_from(cfg, required=False))
    trace = list(result.trace or ())
    _write_trace(args.trace, "achieve", trace)
    return _emit(args, result.to_json(), TRACE_HEADERS["achieve"], trace)


def cmd_optimize(args):
    cfg = _load_config(args)
    chan = _channel_from(cfg)
    j = _budget_from(cfg)
    section = _options_section(cfg, "optimize", _OPTIMIZE_KEYS)
    if args.seed is not None:
        section["seed"] = args.seed
    config = OptimizeConfig(**section)
    result = optimize_wyner_rate(chan, j, config)
    kkt = kkt_check(chan, result.input, j)
    if chan.w1.magnitude == chan.w2.magnitude:
        verdict = None
    else:
        verdict = check_support_condition(result.input, chan).to_json()
    payload = {
        **result.to_json(),
        "seed": config.seed,
        "kkt_report": kkt.to_json(),
        "support_verdict": verdict,
    }
    _write_trace(args.trace, "optimize", result.trace)
    return _emit(args, payload, TRACE_HEADERS["optimize"], list(result.trace))


def cmd_kkt_check(args):
    cfg = _load_config(args)
    _options_section(cfg, "kkt", set())  # no options: the grid is optimizer.KKT_GRID_POINTS
    chan = _channel_from(cfg)
    dist = _input_from(cfg)
    j = _budget_from(cfg)
    report = kkt_check(chan, dist, j)
    flat = report.to_json()
    header = (
        "lambda",
        "mean_square",
        "power_budget",
        "max_slack_violation",
        "support_residual",
        "slackness_residual",
    )
    row = tuple(flat[k] for k in header)
    return _emit(args, flat, header, [row])


def _sweep_grid(section):
    axis = section.get("axis")
    if axis not in _SWEEP_AXES:
        raise ValidationError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    try:
        start = require_number("sweep start", section["start"])
        stop = require_number("sweep stop", section["stop"])
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
    axis, values = _sweep_grid(_options_section(cfg, "sweep", _SWEEP_KEYS))
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
            gain = ComplexGain(val * math.cos(phase), val * math.sin(phase))
            if chan.mode == "real":
                gain = ComplexGain(math.copysign(val, chan.w2.re))
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
        section = _options_section(cfg, "verify", _VERIFY_KEYS)
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
    j = _budget_from(cfg)
    res = qpsk_bound(chan, j)
    row = (res.i1, res.i2, res.rs, res.bound)
    return _emit(args, res.to_json(), ("i1", "i2", "rs", "bound"), [row])


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
