"""The names the benchmark's tracer rebinds must exist in the package.

bench/tracing.py wraps functions by name; a renamed or removed one would
only show up in a traced benchmark run, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from seqbase.base_sequences import BaseSequence

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = _load_tracing()
    for layer, (module_name, functions) in tracing.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}: {module_name}.{name}"


def test_every_traced_method_is_defined_on_base_sequence():
    tracing = _load_tracing()
    for method in tracing.BASE_METHODS:
        assert method in vars(BaseSequence), method


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_family_overrides_a_traced_method():
    # the tracer wraps these methods on BaseSequence alone: a family that defined its own
    # would bypass the wrapper, and the traced metrics would read 0.0 with no error
    tracing = _load_tracing()
    families = list(_subclasses(BaseSequence))
    assert families
    for family in families:
        overridden = sorted(set(tracing.BASE_METHODS) & set(vars(family)))
        assert not overridden, f"{family.__name__} defines {overridden}"
