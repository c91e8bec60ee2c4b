"""The benchmark's layer tracer must find every function it names in oadiag.

benchmark/layers.py wraps oadiag functions by name for ``--trace 1`` runs; a
renamed or deleted function makes its install() raise AttributeError there.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(home, attr):
    owner = importlib.import_module(f"oadiag.{home}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls_every_span():
    layers = load_layers()
    originals = {(home, attr): resolve(home, attr) for home, attr, _, _ in layers.SPANS}
    tracer = layers.Tracer()
    tracer.install()
    try:
        for home, attr, _, _ in layers.SPANS:
            wrapped = resolve(home, attr)
            assert wrapped is not originals[home, attr], (home, attr)
            assert wrapped.__wrapped__ is originals[home, attr], (home, attr)
    finally:
        tracer.uninstall()
    for home, attr, _, _ in layers.SPANS:
        assert resolve(home, attr) is originals[home, attr], (home, attr)
