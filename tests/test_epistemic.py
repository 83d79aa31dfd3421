import json
import random

import pytest

import oracles as oc
from epplan import automata as fa
from epplan.errors import MAX_NESTING, EmptyModelError, FragmentError, InputError
from epplan.epistemic import (
    ActionModel,
    EpistemicModel,
    NativeTransformer,
    UpdateCache,
    action_from_json,
    action_to_json,
    apply_event,
    element_word,
    eval_foel,
    identity_post,
    iterate_update,
    model_from_json,
    model_presentation,
    model_to_json,
    product_update,
)
from epplan.logic import Know, Not, Signature, classify, parse_formula
from epplan.planner import bfs_plan, decide_plan
from epplan.presentation import validate

AB = fa.Alphabet(("a", "b"))
SIG = Signature((("P", 1),))
DOMAIN_WORDS = [(), ("a",), ("b",)]


def coin_model():
    """Two worlds agent i cannot tell apart; agent j can."""
    domain = oc.finite_domain(AB, DOMAIN_WORDS)
    return EpistemicModel(
        agents=("i", "j"),
        worlds=("u", "v"),
        access={
            "i": frozenset({("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")}),
            "j": frozenset({("u", "u"), ("v", "v")}),
        },
        signature=SIG,
        alphabet=AB,
        domain=domain,
        interpretations={
            "u": {"P": oc.trie_relation(AB, 1, {(("a",),)})},
            "v": {"P": fa.empty_automaton(AB, 1)},
        },
    )


def flip_or_wait():
    return ActionModel(
        events=("flip", "wait"),
        access={"i": frozenset({("flip", "flip"), ("wait", "wait")}),
                "j": frozenset({("flip", "flip"), ("wait", "wait")})},
        pre={"flip": parse_formula("exists x. P(x)", SIG)},
        post={"flip": {"P": parse_formula("!P(x1)", SIG)}},
    )


# --- model and action validation ----------------------------------------------

def test_model_validation():
    with pytest.raises(InputError):
        EpistemicModel(("i",), ("u", "u"), {}, SIG, AB,
                       oc.finite_domain(AB, DOMAIN_WORDS),
                       {"u": {"P": fa.empty_automaton(AB, 1)}})
    with pytest.raises(InputError):
        EpistemicModel(("i",), ("u",), {"i": frozenset({("u", "zz")})}, SIG,
                       AB, oc.finite_domain(AB, DOMAIN_WORDS),
                       {"u": {"P": fa.empty_automaton(AB, 1)}})
    with pytest.raises(InputError):
        EpistemicModel(("i",), ("u",), {}, SIG, AB,
                       oc.finite_domain(AB, DOMAIN_WORDS), {})


def test_action_check_against():
    ok = flip_or_wait()
    ok.check_against(SIG)
    bad_var = ActionModel(("e",), {}, {}, {"e": {"P": parse_formula("P(z)", SIG)}})
    with pytest.raises(InputError):
        bad_var.check_against(SIG)
    bad_pred = ActionModel(("e",), {}, {}, {"e": {"Z": parse_formula("true", SIG)}})
    with pytest.raises(InputError):
        bad_pred.check_against(SIG)
    open_pre = ActionModel(("e",), {}, {"e": parse_formula("P(x1)", SIG)}, {})
    with pytest.raises(FragmentError):
        open_pre.check_against(SIG)
    modal_post = ActionModel(
        ("e",), {}, {}, {"e": {"P": parse_formula("K[i] P(x1)", SIG)}})
    with pytest.raises(FragmentError):
        modal_post.check_against(SIG)


def test_quantifier_free_flag():
    assert flip_or_wait().is_quantifier_free()
    quantified = ActionModel(
        ("e",), {}, {}, {"e": {"P": parse_formula("exists x. P(x)", SIG)}})
    assert not quantified.is_quantifier_free()
    native = ActionModel(
        ("e",), {}, {}, {},
        native={"e": {"P": NativeTransformer(
            "concat-right", fa.regex_to_automaton("a", AB))}})
    assert not native.is_quantifier_free()


def test_native_transformer_ops():
    rel = oc.finite_domain(AB, [("b",)])
    gen = fa.regex_to_automaton("a", AB)
    right = NativeTransformer("concat-right", gen).apply(rel)
    left = NativeTransformer("concat-left", gen).apply(rel)
    assert fa.accepts(right, (("b", "a"),)) and not fa.accepts(right, (("a", "b"),))
    assert fa.accepts(left, (("a", "b"),)) and not fa.accepts(left, (("b", "a"),))
    with pytest.raises(InputError):
        NativeTransformer("reverse", gen)


# --- product update ---------------------------------------------------------------

def test_product_update_filters_and_rewrites():
    updated = product_update(coin_model(), flip_or_wait())
    # v·flip dies: its precondition needs a P witness
    assert set(updated.worlds) == {"u·flip", "u·wait", "v·wait"}
    flipped = updated.interpretations["u·flip"]["P"]
    assert fa.equivalent(flipped,
                         oc.trie_relation(AB, 1, {((),), (("b",),)}))
    assert fa.equivalent(updated.interpretations["u·wait"]["P"],
                         coin_model().interpretations["u"]["P"])
    # componentwise access never invents pairs
    assert ("u·flip", "v·wait") not in updated.access["i"]
    assert ("u·wait", "v·wait") in updated.access["i"]
    assert ("u·wait", "v·wait") not in updated.access["j"]


def test_product_update_can_empty_the_model():
    never = ActionModel(("e",), {}, {"e": parse_formula("false", SIG)}, {})
    with pytest.raises(EmptyModelError):
        product_update(coin_model(), never)


def test_iterate_update_composes():
    model = coin_model()
    action = flip_or_wait()
    assert iterate_update(model, action, 0) is model
    twice = iterate_update(model, action, 2)
    assert "u·flip·wait" in twice.worlds
    # flipping twice restores the original interpretation
    assert fa.equivalent(twice.interpretations["u·flip·flip"]["P"],
                         model.interpretations["u"]["P"])
    with pytest.raises(InputError):
        iterate_update(model, action, -1)


def test_apply_event_memoizes_by_language(flang):
    model, action, _ = flang
    cache = UpdateCache()
    args = (model.signature, model.alphabet, model.domain, action, cache)
    ok, first = apply_event(*args, model.interpretations["s"], "U0")
    assert ok
    # a different automaton for the same languages hits the same entry
    renamed = {name: fa.boolean_combine(rel, rel, "or")
               for name, rel in model.interpretations["s"].items()}
    ok, second = apply_event(*args, renamed, "U0")
    assert ok and second is first


def test_update_sequence_reaches_the_concatenated_target(flang_concat):
    model, action, _ = flang_concat
    cache = UpdateCache()
    interp = model.interpretations["s"]
    for event in ("U0", "U1", "CP", "concat2"):
        ok, interp = apply_event(model.signature, model.alphabet, model.domain,
                                 action, cache, interp, event)
        assert ok
    want = fa.regex_to_automaton("(a|b)*·(a·b|b·a)·(a|b)*·a·b", model.alphabet)
    assert fa.equivalent(interp["C"], want)


# --- evaluating knowledge ------------------------------------------------------------

def test_eval_foel_hand_cases():
    model = coin_model()
    knows = parse_formula("K[j] exists x. P(x)", SIG)
    unsure = parse_formula("K[i] exists x. P(x)", SIG)
    assert eval_foel(model, "u", knows)
    assert not eval_foel(model, "u", unsure)
    assert eval_foel(model, "u", parse_formula("!K[i] exists x. P(x)", SIG))
    assert eval_foel(model, "v", parse_formula("K[j] !P(x)", SIG),
                     {"x": ("a",)})
    nested = parse_formula("K[i] (K[j] exists x. P(x) | K[j] !exists x. P(x))", SIG)
    assert eval_foel(model, "u", nested)


def test_eval_foel_variables_crossing_knowledge_operators():
    # u sees only v, so the atom under K is always looked up at the other
    # world; the element bound at u must keep denoting there
    model = EpistemicModel(
        agents=("i",),
        worlds=("u", "v"),
        access={"i": frozenset({("u", "v"), ("v", "v")})},
        signature=SIG,
        alphabet=AB,
        domain=oc.finite_domain(AB, [(), ("a",), ("b",)]),
        interpretations={
            "u": {"P": fa.empty_automaton(AB, 1)},
            "v": {"P": oc.trie_relation(AB, 1, {(("a",),)})},
        },
    )
    assert eval_foel(model, "u", parse_formula("exists x. K[i] P(x)", SIG))
    assert not eval_foel(model, "u", parse_formula("forall x. K[i] !P(x)", SIG))
    assert eval_foel(model, "u",
                     parse_formula("exists x. (!P(x) & K[i] P(x))", SIG))
    # two hops: u -> v -> v
    assert eval_foel(model, "u", parse_formula("exists x. K[i] K[i] P(x)", SIG))


def test_eval_foel_input_errors():
    model = coin_model()
    with pytest.raises(InputError):
        eval_foel(model, "zz", parse_formula("true", SIG))
    with pytest.raises(InputError):
        eval_foel(model, "u", parse_formula("P(x)", SIG))
    with pytest.raises(InputError):
        eval_foel(model, "u", parse_formula("P(x)", SIG), {"x": ("a", "a", "a")})


def test_formulas_nested_past_the_bound_are_refused():
    model = coin_model()
    phi = parse_formula("exists x. P(x)", SIG)
    for _ in range(5000):
        phi = Not(phi)
    for call in (lambda: eval_foel(model, "u", phi),
                 lambda: decide_plan(model, "u", flip_or_wait(), phi),
                 lambda: bfs_plan(model, "u", flip_or_wait(), phi, 2)):
        with pytest.raises(InputError, match=f"nests deeper than {MAX_NESTING} levels"):
            call()
    # at the bound itself every call still answers: P never empties
    phi = parse_formula("exists x. P(x)", SIG)
    for _ in range(MAX_NESTING - 1):
        phi = Not(phi)
    assert eval_foel(model, "u", phi) is False
    assert decide_plan(model, "u", flip_or_wait(), phi).answer == "no"
    assert bfs_plan(model, "u", flip_or_wait(), phi, 2).answer == "unknown"


def test_a_knowledge_chain_at_the_bound_compiles():
    # its standard translation is twice as tall: compiling still takes it
    model = coin_model()
    phi = parse_formula("exists x. P(x)", SIG)
    for _ in range(MAX_NESTING - 1):
        phi = Know("i", phi)
    assert classify(phi).height == MAX_NESTING
    assert eval_foel(model, "u", phi) is False  # i cannot rule out v
    # after a flip, v is gone from i's view: both planners find it
    assert decide_plan(model, "u", flip_or_wait(), phi).plan == ("flip",)
    assert bfs_plan(model, "u", flip_or_wait(), phi, 2).plan == ("flip",)
    with pytest.raises(InputError, match=f"nests deeper than {MAX_NESTING} levels"):
        eval_foel(model, "u", Know("i", phi))


def test_eval_foel_agrees_with_naive_evaluation():
    rng = random.Random(41)
    for _ in range(300):
        model, naive = oc.random_kripke(rng)
        phi = oc.random_foel(rng, model.signature, model.agents)
        for world in model.worlds:
            assert eval_foel(model, world, phi) == \
                oc.naive_eval(naive, world, phi), (world, str(phi))


# --- the history-free presentation ----------------------------------------------------

def test_model_presentation_is_a_valid_presentation():
    pres = model_presentation(coin_model())
    assert validate(pres) == []


def test_model_presentation_encodes_worlds_and_elements():
    model = coin_model()
    pres = model_presentation(model)
    hats = dict(pres.signature.predicates)
    assert hats["P^"] == 2 and hats["dom^"] == 2 and hats["ep^i"] == 2
    assert fa.accepts(pres.domain, (("u",),))
    assert fa.accepts(pres.domain, (element_word("u", ("a",)),))
    assert not fa.accepts(pres.domain, (element_word("u", ("a", "a", "a")),))
    assert fa.accepts(pres.relations["P^"], (("u",), element_word("u", ("a",))))
    assert not fa.accepts(pres.relations["P^"], (("v",), element_word("v", ("a",))))
    assert fa.accepts(pres.relations["dom^"], (("v",), element_word("v", ("b",))))
    # copies are interchangeable: the first track alone picks the world
    assert fa.accepts(pres.relations["P^"], (("u",), element_word("v", ("a",))))
    assert not fa.accepts(pres.relations["P^"], (("v",), element_word("u", ("a",))))
    assert fa.accepts(pres.relations["dom^"], (("u",), element_word("v", ("b",))))
    assert fa.accepts(pres.relations["ep^i"], (("u",), ("v",)))
    assert not fa.accepts(pres.relations["ep^j"], (("u",), ("v",)))


def test_world_letters_must_not_clash_with_the_alphabet(tmp_path, capsys):
    from epplan.cli import main

    for clash in ("a", "#"):
        # coin_model with world u renamed to a domain letter or the separator
        text = json.dumps(model_to_json(coin_model())).replace('"u"', json.dumps(clash))
        with pytest.raises(InputError):
            model_presentation(model_from_json(json.loads(text)))
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        code = main(["check", str(path), "--world", "v", "--formula", "exists x. P(x)"])
        assert code == 5 and "must all differ" in capsys.readouterr().err


# --- serialization ----------------------------------------------------------------------

def test_model_json_round_trip():
    model = coin_model()
    back = model_from_json(model_to_json(model))
    assert back.worlds == model.worlds
    assert back.access == model.access
    assert back.signature == model.signature
    for w in model.worlds:
        assert fa.equivalent(back.interpretations[w]["P"],
                             model.interpretations[w]["P"])


def test_model_json_accepts_regex_shorthand():
    obj = {
        "agents": ["i"],
        "worlds": ["u"],
        "access": {"i": [["u", "u"]]},
        "signature": {"P": 1},
        "alphabet": ["a", "b"],
        "domain": "(a|b)*",
        "interpretations": {"u": {"P": "a·a*"}},
    }
    model = model_from_json(obj)
    assert eval_foel(model, "u", parse_formula("K[i] exists x. P(x)",
                                               model.signature))


def test_action_json_round_trip(flang_concat):
    _, action, _ = flang_concat
    sig = Signature((("L", 1), ("L0", 1), ("L1", 1), ("L2", 1), ("C", 1)))
    back = action_from_json(action_to_json(action), sig, AB)
    assert back.events == action.events
    assert back.post.keys() == action.post.keys()
    assert back.native["concat2"]["C"].source == "a·b"
    got = back.native["concat2"]["C"].generator
    assert fa.equivalent(got, fa.regex_to_automaton("a·b", AB))


def test_action_json_missing_field():
    with pytest.raises(InputError):
        action_from_json({"access": {}}, SIG, AB)
