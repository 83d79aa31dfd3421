"""The names the benchmark's tracer wraps must exist in the package.

``bench/spans.py`` wraps functions by name from outside the program, so
removing or renaming one of them breaks every traced benchmark run.
This keeps that break inside the test suite.
"""

import importlib.util
from pathlib import Path

from epplan import automata

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_the_tracer_installs():
    spans = load_spans()
    missing = [f"{spans.layer(module)}.{name}"
               for module, names in spans.SPANNED.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []
    assert callable(getattr(automata.Automaton, "__post_init__", None))
    originals = {(module, name): getattr(module, name)
                 for module, names in spans.SPANNED.items() for name in names}
    with spans.Tracer():
        pass
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
