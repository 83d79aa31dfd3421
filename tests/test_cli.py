"""End-to-end runs of the ``epp`` command line through ``main(argv)``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epplan
import oracles as oc
from epplan import automata as fa
from epplan.cli import main, tm_to_json
from epplan.epistemic import (
    ActionModel,
    EpistemicModel,
    action_to_json,
    model_from_json,
    model_to_json,
)
from epplan.logic import Signature, parse_formula

AB = fa.Alphabet(("a", "b"))
SIG = Signature((("P", 1),))

TARGET = "(a|b)*·(a·b|b·a)·(a|b)*"


def coin_model():
    return EpistemicModel(
        agents=("i",),
        worlds=("u", "v"),
        access={"i": frozenset({("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")})},
        signature=SIG,
        alphabet=AB,
        domain=oc.finite_domain(AB, [(), ("a",), ("b",)]),
        interpretations={
            "u": {"P": oc.trie_relation(AB, 1, {(("a",),)})},
            "v": {"P": fa.empty_automaton(AB, 1)},
        },
    )


def flip_or_wait():
    return ActionModel(
        events=("flip", "wait"),
        access={"i": frozenset({("flip", "flip"), ("wait", "wait")})},
        pre={"flip": parse_formula("exists x. P(x)", SIG)},
        post={"flip": {"P": parse_formula("!P(x1)", SIG)}},
    )


@pytest.fixture()
def coin_files(tmp_path):
    model = tmp_path / "model.json"
    action = tmp_path / "action.json"
    model.write_text(json.dumps(model_to_json(coin_model())), encoding="utf-8")
    action.write_text(json.dumps(action_to_json(flip_or_wait())),
                      encoding="utf-8")
    return str(model), str(action)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


# --- check ---------------------------------------------------------------------

def test_check_true_and_false(coin_files, capsys):
    model, _ = coin_files
    code, out, _ = run(capsys, "check", model, "--world", "u",
                       "--formula", "exists x. P(x)")
    assert code == 0 and out["holds"] is True
    code, out, _ = run(capsys, "check", model, "--world", "u",
                       "--formula", "K[i] exists x. P(x)")
    assert code == 1 and out["holds"] is False


@pytest.mark.parametrize("argv_tail", [
    ("--world", "zz", "--formula", "exists x. P(x)"),   # unknown world
    ("--world", "u", "--formula", "exists x. P(x"),     # parse error
    ("--world", "u", "--formula", "exists x. Q(x)"),    # unknown predicate
])
def test_check_input_errors(coin_files, capsys, argv_tail):
    model, _ = coin_files
    code, _, err = run(capsys, "check", model, *argv_tail)
    assert code == 5
    assert err.startswith("error:")


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.json"),
                       "--world", "u", "--formula", "exists x. P(x)")
    assert code == 5 and "nope.json" in err


def test_bad_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), "--world", "u",
                       "--formula", "exists x. P(x)")
    assert code == 5 and "broken.json" in err


def test_json_array_as_the_model_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), "--world", "u",
                       "--formula", "exists x. P(x)")
    assert code == 5 and "JSON object" in err


def test_non_integer_automaton_states_are_an_input_error(tmp_path, capsys):
    obj = model_to_json(coin_model())
    obj["domain"]["states"] = "x"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), "--world", "u",
                       "--formula", "exists x. P(x)")
    assert code == 5 and "malformed automaton" in err


def test_relation_outside_the_domain_is_an_input_error(tmp_path, capsys):
    # unchecked, plan --decide said yes and check said false on this model
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "agents": ["i"], "worlds": ["w"], "access": {"i": [["w", "w"]]},
        "signature": {"P": 1}, "alphabet": ["a", "b"], "domain": "a",
        "interpretations": {"w": {"P": "b"}},
    }), encoding="utf-8")
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"events": ["e"]}), encoding="utf-8")
    for argv in (("plan", str(model), str(action), "--world", "w",
                  "--goal", "exists x. P(x)", "--decide"),
                 ("check", str(model), "--world", "w",
                  "--formula", "exists x. P(x)")):
        code, out, err = run(capsys, *argv)
        assert code == 5 and out is None
        assert "'P'" in err and "outside the domain" in err and "(b)" in err


def test_deeply_nested_goal_is_a_parse_error(coin_files, capsys):
    model, action = coin_files
    code, _, err = run(capsys, "plan", model, action, "--world", "u",
                       "--goal", "!" * 3000 + "exists x. P(x)", "--decide")
    assert code == 5 and "nests deeper" in err


def test_deeply_nested_generator_regex_is_a_parse_error(capsys):
    nested = "(" * 3000 + "a" + ")" * 3000
    code, _, err = run(capsys, "demo", "lang", "--generators", f"{nested},b*",
                       "--target", "a")
    assert code == 5 and "nests deeper" in err


# --- update --------------------------------------------------------------------

def test_update_writes_step_files(coin_files, tmp_path, capsys):
    model, action = coin_files
    out = tmp_path / "steps"
    code, summary, _ = run(capsys, "update", model, action, "-n", "2",
                           "--out", str(out))
    assert code == 0
    assert summary["steps"] == 2
    step1 = model_from_json(json.loads((out / "step_1.json").read_text()))
    assert set(step1.worlds) == {"u·flip", "u·wait", "v·wait"}
    assert set(summary["worlds"]) == {
        "u·flip·flip", "u·flip·wait", "u·wait·flip", "u·wait·wait",
        "v·wait·wait",
    }
    assert set(json.loads((out / "step_2.json").read_text())["worlds"]) \
        == set(summary["worlds"])


def test_update_without_out_prints_the_model(coin_files, capsys):
    model, action = coin_files
    code, payload, _ = run(capsys, "update", model, action)
    assert code == 0
    updated = model_from_json(payload)
    assert set(updated.worlds) == {"u·flip", "u·wait", "v·wait"}
    flipped = updated.interpretations["u·flip"]["P"]
    assert fa.accepts(flipped, ((),)) and fa.accepts(flipped, (("b",),))
    assert not fa.accepts(flipped, (("a",),))


# --- classes -------------------------------------------------------------------

def test_classes_reports_the_quotient(coin_files, capsys):
    model, action = coin_files
    code, out, _ = run(capsys, "classes", model, action)
    assert code == 0
    assert out["count"] == 3 and out["cap_exceeded"] is False
    assert set(out["initial"]) == {"u", "v"}
    for cid, event, nxt in out["delta"]:
        assert event in ("flip", "wait")
        assert cid in out["classes"] and nxt in out["classes"]


def test_classes_cap_exit(coin_files, capsys):
    model, action = coin_files
    code, out, _ = run(capsys, "classes", model, action, "--cap", "2")
    assert code == 4 and out["cap_exceeded"] is True


# --- plan ----------------------------------------------------------------------

def test_plan_decide_answers(coin_files, capsys):
    model, action = coin_files
    code, out, _ = run(capsys, "plan", model, action, "--world", "u",
                       "--goal", "exists x. P(x)", "--decide")
    assert code == 0 and out["answer"] == "yes"
    assert out["plan"] == [] and out["depth"] == 0

    code, out, _ = run(capsys, "plan", model, action, "--world", "v",
                       "--goal", "exists x. P(x)", "--decide")
    assert code == 1 and out["answer"] == "no" and out["plan"] is None


def test_plan_bfs_is_sound_but_bounded(coin_files, capsys):
    model, action = coin_files
    code, out, _ = run(capsys, "plan", model, action, "--world", "v",
                       "--goal", "exists x. P(x)", "--bfs", "--max-depth", "3")
    assert code == 2 and out["answer"] == "unknown"


# --- the language demo and file reuse -------------------------------------------

def test_demo_lang_decides_the_flagship_target(capsys):
    code, out, _ = run(capsys, "demo", "lang", "--generators", "a*,b*",
                       "--target", TARGET)
    assert code == 0
    assert out["answer"] == "yes"
    assert out["plan"] == ["U0", "U1", "CP"] and out["depth"] == 3
    assert out["generators"] == ["a*", "b*"] and out["target"] == TARGET


def test_demo_lang_negative_target(capsys):
    code, out, _ = run(capsys, "demo", "lang", "--generators", "a*,b*",
                       "--target", "a*·b")
    assert code == 1 and out["answer"] == "no"
    code, out, _ = run(capsys, "demo", "lang", "--generators", "a*,b*",
                       "--target", "a*·b", "--bfs", "--max-depth", "4")
    assert code == 2 and out["answer"] == "unknown"


def test_demo_lang_over_the_state_cap_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(fa, "STATE_CAP", 4)
    code, out, err = run(capsys, "demo", "lang", "--generators", "a*,b*",
                         "--target", TARGET)
    assert code == 4 and out is None
    assert err == "error: automaton construction exceeded the state cap (4)\n"


def test_demo_lang_concat_needs_bfs(tmp_path, capsys):
    emit = tmp_path / "demo"
    target = TARGET + "·a·b"
    code, _, err = run(capsys, "demo", "lang",
                       "--generators", "a*,b*,a·b", "--target", target,
                       "--concat", "--emit", str(emit))
    assert code == 3 and "quantifier-free" in err

    code, out, _ = run(capsys, "demo", "lang",
                       "--generators", "a*,b*,a·b", "--target", target,
                       "--concat", "--bfs", "--max-depth", "5")
    assert code == 0 and out["plan"] == ["U0", "U1", "CP", "concat2"]

    # the emitted pair drives the generic commands; decide still refuses
    model, action = str(emit / "model.json"), str(emit / "action.json")
    goal = (emit / "goal.txt").read_text().strip()
    code, _, _ = run(capsys, "plan", model, action, "--world", "s",
                     "--goal", goal, "--decide")
    assert code == 3
    code, out, _ = run(capsys, "plan", model, action, "--world", "s",
                       "--goal", goal, "--bfs", "--max-depth", "5")
    assert code == 0 and out["plan"] == ["U0", "U1", "CP", "concat2"]


def test_emitted_model_round_trips(tmp_path, capsys):
    emit = tmp_path / "demo"
    code, _, _ = run(capsys, "demo", "lang", "--generators", "a*,b*",
                     "--target", TARGET, "--emit", str(emit))
    assert code == 0
    reloaded = model_from_json(json.loads((emit / "model.json").read_text()))
    assert reloaded.worlds == ("s",)
    assert fa.accepts(reloaded.interpretations["s"]["L"], (("a", "b"),))
    assert not fa.accepts(reloaded.interpretations["s"]["C"], (("a", "b"),))


def test_solutions_command_writes_the_automaton(tmp_path, capsys):
    emit = tmp_path / "demo"
    run(capsys, "demo", "lang", "--generators", "a*,b*", "--target", TARGET,
        "--emit", str(emit))
    model, action = str(emit / "model.json"), str(emit / "action.json")
    goal = (emit / "goal.txt").read_text().strip()
    out_file = tmp_path / "solutions.json"
    code, summary, _ = run(capsys, "solutions", model, action, "--world", "s",
                           "--goal", goal, "--out", str(out_file))
    assert code == 0 and summary["out"] == str(out_file)
    sol = fa.automaton_from_json(json.loads(out_file.read_text()))
    assert fa.accepts(sol, (("s", "U0", "U1", "CP"),))
    assert not fa.accepts(sol, (("s", "CP"),))
    assert not fa.accepts(sol, (("U0", "U1", "CP"),))  # must start at the world


# --- the machine demo ------------------------------------------------------------

def test_demo_tm_bfs_and_decide(tmp_path, one_step_tm, capsys):
    machine = tmp_path / "machine.json"
    machine.write_text(json.dumps(tm_to_json(one_step_tm)), encoding="utf-8")
    code, out, _ = run(capsys, "demo", "tm", str(machine))
    assert code == 0 and out["answer"] == "yes" and out["depth"] == 0
    code, _, err = run(capsys, "demo", "tm", str(machine), "--decide")
    assert code == 3 and "quantifier-free" in err


def test_demo_tm_never_says_no(tmp_path, dead_tm, capsys):
    machine = tmp_path / "machine.json"
    machine.write_text(json.dumps(tm_to_json(dead_tm)), encoding="utf-8")
    code, out, _ = run(capsys, "demo", "tm", str(machine), "--bfs-depth", "5")
    assert code == 2 and out["answer"] == "unknown"


def test_demo_tm_rejects_malformed_machines(tmp_path, capsys):
    machine = tmp_path / "machine.json"
    machine.write_text(json.dumps({"states": ["q0"]}), encoding="utf-8")
    code, _, err = run(capsys, "demo", "tm", str(machine))
    assert code == 5 and "lacks field" in err


# --- running as a module -----------------------------------------------------------

def test_python_dash_m_epplan_runs_the_cli_without_warnings():
    src = Path(epplan.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "epplan", "demo", "lang", "--generators", "a*,b*",
         "--target", "a*·b"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert json.loads(done.stdout)["answer"] == "no"
    assert done.stderr == ""


def test_a_reader_that_leaves_early_gets_no_traceback():
    src = Path(epplan.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "epplan", "demo", "lang", "--generators", "a*,b*",
         "--target", "a*·b"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # as `| head -0` would: every write now finds no reader
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1  # the command's own exit code: "no"
    assert "Traceback" not in err and err == ""
