"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

One untraced and one traced pass per workload, plus two traced runs of
the benchmark command in fresh processes: about two and a half minutes.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ on sys.path

from epplan import planner  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the traced pass may exceed the summed self time by the loop's own work
# between planner calls: at most this share of the pass, plus 10 ms
SELF_TIME_SLACK = 0.01


def answers(results) -> str:
    return json.dumps({name: check.verdict(r) for name, r in sorted(results.items())})


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def passes(request):
    workload = request.param
    with spans.Tracer() as tracer:
        instances = workloads.build(workload, seed=3)
        setup = tracer.metrics()
        traced = run.measure(instances, 0, tracer)
    with speed.HostSpeed() as host:
        plain = run.measure(instances, 0, host=host)[0]
    return workload, instances, plain, traced, setup


def test_tracing_changes_no_answer(passes):
    _, instances, plain, traced, _ = passes
    assert answers(plain["results"]) == answers(traced[0]["results"])
    assert not check.check_pass(instances, plain["results"], check.load_expected())


def test_self_times_sum_to_the_traced_wall_time(passes):
    _, _, _, traced, _ = passes
    layers, wall = traced[0]["layers"], traced[0]["wall"]
    covered = sum(v for name, v in layers.items() if name.endswith(".self_s"))
    assert covered <= wall
    assert wall - covered <= SELF_TIME_SLACK * wall + 0.010


def test_host_speed_scales_by_the_mean_sampled_speed():
    host = speed.HostSpeed()
    host.samples = [speed.SLICE_S] * 3 + [speed.SLICE_S * 2] * 5
    mark = host.mark()
    host.samples += [speed.SLICE_S, speed.SLICE_S * 4] * 4   # 8 samples in the call
    host.spent += 0.25                                       # the sampler's own time
    assert host.scaled(2.25, mark) == pytest.approx(2.0 * (1 + 0.25) / 2)
    short = host.mark()                                      # no samples in the call
    assert host.scaled(0.01, short) == pytest.approx(0.01 * (2 * 1 + 3 * 0.25) / 5)


def traced_run(workload):
    """Layer metrics of one traced pass of the benchmark command."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_two_traced_runs(workload):
    first, second = traced_run(workload), traced_run(workload)
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == \
        {n: second[n]["value"] for n in counts}


def test_every_layer_metric_is_reported_and_declared(passes):
    _, _, _, traced, setup = passes
    reported = run.per_layer(traced, setup, spans.source_lines())
    assert {name: m["unit"] for name, m in reported.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_end_to_end_metrics_match_the_declaration():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed_and_every_instance_is_pinned():
    expected = check.load_expected()
    names = set()
    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.build(workload, seed) for seed in (1, 1, 2))
        assert [i.model.alphabet for i in a] == [i.model.alphabet for i in b]
        assert [i.name for i in a] == [i.name for i in b]
        assert [i.model.alphabet for i in a] != [i.model.alphabet for i in c]
        names.update(i.name for i in a)
    assert names == set(expected)


def test_checks_reject_wrong_answers():
    inst = next(i for i in workloads.build("lang-decide", 0) if i.name == "lang-mixed")
    right = planner.decide_plan(inst.model, inst.world, inst.action, inst.goal)
    assert check.confirm(inst, right) is None
    wrong = planner.PlanResult("yes", ("U0",), 1, None)
    assert check.confirm(inst, wrong) is not None
    assert check.check_pass([inst], {inst.name: wrong}, check.load_expected())

    rq = next(i for i in workloads.build("random-qf", 0) if i.name == "rq07-bfs3")
    assert check.confirm(rq, planner.PlanResult("unknown", None, None, None))
