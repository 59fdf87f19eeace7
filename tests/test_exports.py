import ast
import pathlib

import wiretap_adc

# (module, name) imported but never read; the reason each binding stays
UNUSED_IMPORTS_KEPT = {
    ("achievability", "_rate_arrays"): "bench/layers.py patches that binding by name",
}


def test_every_public_name_resolves():
    missing = [name for name in wiretap_adc.__all__ if not hasattr(wiretap_adc, name)]
    assert not missing
    exec("from wiretap_adc import *", {})


def test_value_types_have_no_instance_dict():
    spec = wiretap_adc.AdcSpec((0.0, 1.0), (0.0, 1.0, 2.0))
    pair = wiretap_adc.ComplexAdcPair(spec, wiretap_adc.one_bit())
    chan = wiretap_adc.WiretapChannel(
        w1=wiretap_adc.ComplexGain(2.0),
        w2=wiretap_adc.ComplexGain(1.0, 0.5),
        legit_adc=wiretap_adc.one_bit_pair(),
        eave_adc=pair,
    )
    real = wiretap_adc.WiretapChannel(
        w1=wiretap_adc.ComplexGain(2.0),
        w2=wiretap_adc.ComplexGain(1.0),
        legit_adc=wiretap_adc.one_bit_pair(),
        eave_adc=pair,
        mode="real",
    )
    dist = wiretap_adc.DiscreteInput((-1.0, 1.0), (0.5, 0.5))
    instances = (
        spec,
        pair,
        chan.w2,
        chan,
        dist,
        wiretap_adc.secrecy_rate(chan, dist),
        wiretap_adc.achieve(chan),
        wiretap_adc.kkt_check(real, dist, 1.0),
    )
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_modules_import_no_unused_name():
    unused = set()
    for path in pathlib.Path(wiretap_adc.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    assert unused == set(UNUSED_IMPORTS_KEPT)


def test_every_private_definition_is_referenced():
    # a private module-level function or class that nothing in the package
    # names is dead code left behind by a refactor
    trees = [ast.parse(path.read_text())
             for path in pathlib.Path(wiretap_adc.__file__).parent.glob("*.py")]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert len(defined) > 50
    assert defined - referenced == set()
