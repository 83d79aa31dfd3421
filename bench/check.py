"""Correctness of the benchmark's planner calls.

Every answer is compared with the verdict and plan pinned in
``expected.json``.  Every "yes" is also confirmed without the planner:
the plan is replayed with ``epistemic.apply_event`` and the goal checked
on the result, by language equivalence for the language demos and by
``presentation.brute_force_check`` over the finite domain for non-modal
random goals.  Random instances are further checked against a naive
enumeration of the explicit twin model, which also confirms "no" and
"unknown" up to the search depth.
"""
from __future__ import annotations

import json
from pathlib import Path

from epplan import automata as fa
from epplan.epistemic import UpdateCache, apply_event
from epplan.logic import classify
from epplan.planner import PlanResult
from epplan.presentation import AutomaticPresentation, brute_force_check

from workloads import RANDOM_BFS_DEPTH, Instance, naive_holds, naive_minimal_plan

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def verdict(result: PlanResult) -> dict:
    """The part of an answer that is pinned: verdict and plan."""
    plan = list(result.plan) if result.plan is not None else None
    return {"answer": result.answer, "plan": plan}


def replay(inst: Instance, plan: tuple[str, ...]) -> dict[str, fa.Automaton] | None:
    """The interpretation after ``plan``, or None if a precondition fails."""
    model, cache = inst.model, UpdateCache()
    interp = model.interpretations[inst.world]
    for event in plan:
        alive, interp = apply_event(model.signature, model.alphabet, model.domain,
                                    inst.action, cache, interp, event)
        if not alive:
            return None
    return interp


def confirm(inst: Instance, result: PlanResult) -> str | None:
    """Why the answer is wrong, or None when the independent checks agree."""
    plan = tuple(result.plan) if result.plan is not None else None
    if result.answer == "yes":
        interp = replay(inst, plan)
        if interp is None:
            return "plan is not executable"
        if inst.target is not None and not fa.equivalent(interp["C"], inst.target):
            return "C after the plan differs from the target language"
        if inst.naive is not None and not classify(inst.goal).modal:
            model = inst.model
            pres = AutomaticPresentation(model.signature, model.alphabet,
                                         model.domain, interp)
            if not brute_force_check(pres, inst.goal):
                return "goal fails after the plan (brute force)"
    if inst.naive is None:
        return None
    sig = inst.model.signature
    shortest = naive_minimal_plan(inst.naive, inst.action, sig, inst.world,
                                  inst.goal, RANDOM_BFS_DEPTH)
    if shortest is not None:
        if plan != shortest:
            return f"naive enumeration finds the plan {list(shortest)}"
    elif inst.planner == "bfs":
        if result.answer != "unknown":
            return "naive enumeration finds no plan within the depth bound"
    elif result.answer == "yes":
        if not naive_holds(inst.naive, inst.action, sig, inst.world, plan, inst.goal):
            return "goal fails after the plan (naive enumeration)"
    return None


def check_pass(instances: list[Instance], results: dict,
               expected: dict) -> list[tuple[str, str]]:
    """Calls of one pass whose answer is not the pinned one: (name, reason)."""
    problems = []
    for inst in instances:
        got = results[inst.name]
        if isinstance(got, str):
            problems.append((inst.name, got))
        elif verdict(got) != expected.get(inst.name):
            problems.append((inst.name, f"got {verdict(got)}, "
                                        f"pinned {expected.get(inst.name)}"))
    return problems
