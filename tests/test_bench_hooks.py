"""The bench's layer tracer patches library entry points by attribute name.

A renamed or removed entry point would otherwise first show up as a failed
benchmark run, since the bench's own tests are not part of this suite.
"""

import importlib.util
from pathlib import Path

from helpers import c1_channel
from wiretap_adc import DiscreteInput, OptimizeConfig, achievability, optimizer, secrecy_rate

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_entry_point():
    layers = _load_layers()
    bindings = [
        (mod, attr)
        for _, module, attr, rebinders, _, _ in layers.ENTRY_POINTS
        for mod in (module, *rebinders)
    ]
    originals = [getattr(mod, attr) for mod, attr in bindings]
    with layers.Tracer().installed():
        for (mod, attr), original in zip(bindings, originals):
            assert getattr(mod, attr).__wrapped__ is original, f"{mod.__name__}.{attr}"
    for (mod, attr), original in zip(bindings, originals):
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"


def test_traced_runs_reach_every_layer_the_bench_reads():
    # patching alone is not enough: a call path that bypasses a hooked name
    # would leave that layer's bench metrics at 0
    layers = _load_layers()
    tracer = layers.Tracer()
    complex_chan, real_chan = c1_channel(0), c1_channel(1)
    with tracer.installed():
        for chan in (complex_chan, real_chan):
            achievability.achieve(chan)  # the module binding is the one patched
        secrecy_rate(real_chan, DiscreteInput((0.5, 2.0), (0.5, 0.5)))
        # the solver must run through the module's minimize binding
        optimizer.optimize_wyner_rate(real_chan, 1.0, OptimizeConfig(restarts=1))
    for name in ("L0.cells", "L1.rows", "L2.rate", "L3.achieve", "L3.optimize", "L3.minimize"):
        assert tracer.spans[name].calls > 0, name
