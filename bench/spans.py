"""Per-layer spans and counts, recorded from outside the program.

A ``Tracer`` wraps the public functions at each layer boundary of
``epplan`` for as long as it is installed, and changes nothing under
``src/``.  Each call leaves a span (id, parent id, name, start, end) in
memory; a layer's self time is its spans' durations minus the time their
child spans cover.  Modules that imported a function by name get the
same wrapper, so calls through ``planner.compile_formula`` and
``presentation.compile_formula`` are one span each, not two.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from epplan import automata, cli, epistemic, logic, planner, presentation

# the functions wrapped in spans, by layer
SPANNED = {
    automata: ("substitute_tracks", "boolean_combine", "determinize", "canonicalize",
               "project", "trim", "is_empty", "is_empty_witness", "concatenate"),
    presentation: ("compile_formula", "check_sentence", "defined_relation"),
    epistemic: ("apply_event", "product_update", "model_presentation",
                "eval_on_presentation"),
    planner: ("class_quotient", "history_presentation", "solution_automaton",
              "decide_plan", "bfs_plan"),
    logic: ("standard_translation",),
    cli: ("build_language_demo", "build_tm_config_graph"),
}



def layer(module) -> str:
    return module.__name__.split(".")[-1]


TIMED = tuple(f"{layer(m)}.{f}" for m, names in SPANNED.items() for f in names)


def _states_out(name):
    def observe(tracer, args, result, _):
        key = f"{name}.states_out_max"
        tracer.maxima[key] = max(tracer.maxima.get(key, 0), result.states)
    return observe


def _cache_len(args):
    return len(args[4].outcomes)  # apply_event(signature, alphabet, domain, action, cache, ...)


def _cache_hit(tracer, args, result, before):
    tracer.counts["epistemic.apply_event.cache_lookups"] += 1
    if len(args[4].outcomes) == before:
        tracer.counts["epistemic.apply_event.cache_hits"] += 1


def _worlds_out(tracer, args, result, _):
    key = "epistemic.product_update.worlds_out_max"
    tracer.maxima[key] = max(tracer.maxima.get(key, 0), len(result.worlds))


def _quotient(tracer, args, result, _):
    tracer.counts["planner.class_quotient.classes"] += result.stats["classes"]
    tracer.counts["planner.class_quotient.applications"] += result.stats["applications"]


def _history(tracer, args, result, _):
    pres = result.presentation
    tracer.counts["planner.history_presentation.universe_states"] += pres.domain.states
    tracer.counts["planner.history_presentation.relation_states"] += sum(
        rel.states for rel in pres.relations.values())


def _solution(tracer, args, result, _):
    tracer.counts["planner.solution_automaton.solution_states"] += result.states


def _visited(tracer, args, result, _):
    stats = result.stats
    tracer.counts["planner.bfs_plan.visited"] += stats.get(
        "visited_classes", stats.get("visited_histories", 0))


# name -> (before hook, after hook)
OBSERVERS = {
    "automata.substitute_tracks": (None, _states_out("automata.substitute_tracks")),
    "automata.boolean_combine": (None, _states_out("automata.boolean_combine")),
    "automata.determinize": (None, _states_out("automata.determinize")),
    "epistemic.apply_event": (_cache_len, _cache_hit),
    "epistemic.product_update": (None, _worlds_out),
    "planner.class_quotient": (None, _quotient),
    "planner.history_presentation": (None, _history),
    "planner.solution_automaton": (None, _solution),
    "planner.bfs_plan": (None, _visited),
}

COUNTS = (
    "automata.Automaton.constructed",
    "epistemic.apply_event.cache_hits",
    "epistemic.apply_event.cache_lookups",
    "planner.class_quotient.classes",
    "planner.class_quotient.applications",
    "planner.history_presentation.universe_states",
    "planner.history_presentation.relation_states",
    "planner.solution_automaton.solution_states",
    "planner.bfs_plan.visited",
)
MAXIMA = (
    "automata.substitute_tracks.states_out_max",
    "automata.boolean_combine.states_out_max",
    "automata.determinize.states_out_max",
    "epistemic.product_update.worlds_out_max",
)

ROOT = -1


class Tracer:
    """Spans and counts at the layer boundaries of ``epplan``, kept in memory.

    Use as a context manager: entering wraps the functions, leaving puts
    the originals back.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack = [ROOT]
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        """Forget what was recorded; the wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def __enter__(self):
        packages = [mod for name, mod in sys.modules.items()
                    if name == "epplan" or name.startswith("epplan.")]
        for module, names in SPANNED.items():
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer(module)}.{fname}", original)
                for mod in packages:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        init = automata.Automaton.__post_init__
        counts = self.counts

        def counted_init(obj):
            counts["automata.Automaton.constructed"] += 1
            init(obj)

        self._restore.append((automata.Automaton, "__post_init__", init))
        automata.Automaton.__post_init__ = counted_init
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        before, after = OBSERVERS.get(name, (None, None))
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(self, args, result, token)
            return result

        return traced

    def write(self, path: Path):
        """The recorded spans as JSON lines: id, parent id, name, start and
        end in seconds from the first start."""
        origin = min((start for _, _, _, start, _ in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps([sid, parent, name, start - origin, end - origin]))
                out.write("\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers for what was recorded since the last reset.

        Every name is present; a layer that was not entered reads 0.
        """
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name in ("planner.decide_plan", "planner.bfs_plan"):
            out[f"{name}.total_s"] = 0.0
        for sid, parent, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[sid]
            if parent == ROOT and f"{name}.total_s" in out:
                out[f"{name}.total_s"] += end - start
        for key in COUNTS:
            out[key] = self.counts[key]
        for key in MAXIMA:
            out[key] = self.maxima.get(key, 0)
        lookups = self.counts["epistemic.apply_event.cache_lookups"]
        hits = self.counts["epistemic.apply_event.cache_hits"]
        out["epistemic.apply_event.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        return out


def source_lines() -> dict[str, int]:
    """Non-blank source lines of each layer module."""
    out = {}
    for module in SPANNED:
        text = Path(module.__file__).read_text(encoding="utf-8")
        out[f"{layer(module)}.loc"] = sum(1 for line in text.splitlines() if line.strip())
    return out
