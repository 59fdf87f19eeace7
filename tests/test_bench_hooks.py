"""The bench's layer tracer patches library entry points by attribute name.

A renamed or removed entry point would otherwise first show up as a failed
benchmark run, since the bench's own tests are not part of this suite.
"""

import importlib.util
from pathlib import Path

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
