"""The benchmark's hooks into the package, and its inputs, must hold.

``bench/spans.py`` wraps functions by name from outside the program, so
removing or renaming one of them, or changing what an observer reads off
a result, breaks every traced benchmark run.  This keeps that break
inside the test suite, next to the check that every committed demo and
workload model meets the presentation contract.
"""

import importlib.util
import sys
from pathlib import Path

from epplan import automata
from epplan.cli import build_tm_config_graph
from epplan.logic import parse_formula
from epplan.planner import bfs_plan, decide_plan

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_the_tracer_installs():
    spans = load_bench("spans")
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


def test_the_tracer_sees_the_history_structure_builders(flang):
    model, action, _ = flang
    goal = parse_formula("K[a] exists x. C(x)", model.signature)
    spans = load_bench("spans")
    with spans.Tracer() as tracer:
        assert decide_plan(model, "s", action, goal).answer == "yes"
        assert bfs_plan(model, "s", action, goal, max_depth=2).answer == "yes"
    metrics = tracer.metrics()
    assert metrics["planner.history_presentation.calls"] == 1
    assert metrics["planner.history_presentation.relation_states"] > 0
    assert metrics["epistemic.model_presentation.calls"] > 0


def test_every_demo_and_workload_model_passes_validate(flang, flang_concat, one_step_tm,
                                                       scanner_tm, dead_tm):
    workloads = load_bench("workloads")
    models = [flang[0], flang_concat[0]]
    models += [build_tm_config_graph(tm)[0] for tm in (one_step_tm, scanner_tm, dead_tm)]
    for name in workloads.WORKLOADS:
        models += [instance.model for instance in workloads.build(name, 1)]
    for model in {id(m): m for m in models}.values():
        assert model.validate() == []
