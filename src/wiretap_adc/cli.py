"""Command-line front end.

Subcommands: rate, achieve, optimize, kkt-check, sweep, verify, qpsk-bound.
COMMANDS is the one place that knows each command: its name, handler, help
line, --trace help and whether --seed applies.  Inputs come from a JSON config
file, every object and array of which is read through util.json_object and
util.json_array: an unknown key or section anywhere exits 2.  Results go to
stdout or --out as JSON (default) or CSV.  Exit codes: 0 success, 1
verification failure, 2 validation error, 3 equal-gain precondition, 4 sweep
exhausted.  Sweeps evaluate their grid in order, so one config gives the same
bytes every run.
"""

import argparse
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
from .util import json_array, json_object, require_finite, require_integer

_SWEEP_AXES = ("b", "w2_mag", "J")
# every section any command reads; README's shared config holds them all
_SECTIONS = ("channel", "input", "J", "achieve", "optimize", "kkt", "sweep", "verify")


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--out", help="write the result here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="wiretap-adc",
        description="Secrecy rates of Gaussian wiretap channels with finite-resolution ADCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, trace_help, seeded in COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if seeded:
            p.add_argument("--seed", type=int, help="override the config seed")
        if trace_help:
            p.add_argument("--trace", help=trace_help)
        p.set_defaults(handler=handler, trace=None)
    return parser


def _load_config(args):
    if not args.config:
        raise ValidationError("this command needs --config <path>")
    with open(args.config, "r", encoding="utf-8") as fh:
        return json_object(json.load(fh), "config root", optional=_SECTIONS)


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


def _options_section(cfg, name, required=(), optional=()):
    """A copy of config section `name` (absent reads as {}), checked by json_object."""
    return dict(json_object(cfg.get(name, {}), f"config section {name!r}", required, optional))


def _construct_options(cfg, keep_trace=False):
    return ConstructOptions(keep_trace=keep_trace,
                            **_options_section(cfg, "achieve", optional=("mode",)))


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
    section = _options_section(cfg, "optimize", optional=[f.name for f in fields(OptimizeConfig)])
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
    _options_section(cfg, "kkt")  # no options: the grid is optimizer.KKT_GRID_POINTS
    chan = _channel_from(cfg)
    dist = _input_from(cfg)
    flat = kkt_check(chan, dist, _budget_from(cfg)).to_json()
    header = ("lambda", "mean_square", "power_budget", "max_slack_violation",
              "support_residual", "slackness_residual")
    return _emit(args, flat, header, [[flat[k] for k in header]])


def _sweep_grid(cfg):
    section = _options_section(cfg, "sweep", ("axis", "start", "stop", "num"), ("scale",))
    axis = section["axis"]
    if axis not in _SWEEP_AXES:
        raise ValidationError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    start = require_finite("sweep start", section["start"])
    stop = require_finite("sweep stop", section["stop"])
    num = require_integer("sweep num", section["num"])
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
    axis, values = _sweep_grid(cfg)
    options = _construct_options(cfg)

    if axis == "b":
        result = achieve(chan, options)
        near, far0 = result.input.points
        t = result.translation

        def run_one(val):
            far = t + (far0 - t) * (val / abs(result.b))  # far0 moved along its ray to |b| = val
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
            try:
                res = achieve(replace(chan, w2=gain), options)
            except EqualGainError:  # |w2| == |w1|: no construction, a null row
                return (val, None, None, None, None)
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
    section = {}
    if args.config:
        section = _options_section(_load_config(args), "verify", optional=("seed", "suites"))
    seed = require_integer("verify seed", section.get("seed", 0))
    names = json_array(section["suites"], "verify suites") if "suites" in section else None
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


COMMANDS = (  # (name, handler, help, --trace help or None, whether --seed applies)
    ("rate", cmd_rate, "exact rates of a given input", None, False),
    ("achieve", cmd_achieve, "construct a positive-rate input",
     "write the candidate sweep trace CSV here", False),
    ("optimize", cmd_optimize, "optimize the input distribution",
     "write the per-restart trace CSV here", True),
    ("kkt-check", cmd_kkt_check, "KKT audit of a given input", None, False),
    ("sweep", cmd_sweep, "rate sweep along one axis", None, False),
    ("verify", cmd_verify, "run the self-check suites", None, True),
    ("qpsk-bound", cmd_qpsk_bound, "QPSK rate and closed-form bound", None, False),
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
    except (ValidationError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
