import random

import pytest

import oracles as oc
from epplan.errors import InputError, ParseError, VariableCaptureError
from epplan.logic import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Implies,
    Know,
    MAX_NESTING,
    Not,
    Or,
    Signature,
    TRUE,
    FALSE,
    children,
    classify,
    format_formula,
    fresh_history_var,
    hat_name,
    history_signature,
    knows_name,
    origin_name,
    parse_formula,
    standard_translation,
    validate_against,
)

SIG = Signature((("P", 1), ("Q", 2), ("R", 1)))


def test_signature_validation():
    with pytest.raises(InputError):
        Signature((("P", 1), ("P", 2)))
    with pytest.raises(InputError):
        Signature((("P", -1),))
    assert SIG.arity("Q") == 2
    with pytest.raises(InputError):
        SIG.arity("Z")


# --- parsing ------------------------------------------------------------------

def test_precedence_chain():
    got = parse_formula("!P(x) & Q(x,y) -> R(x) | Q(y,x) <-> P(y)", SIG)
    want = Iff(
        Implies(
            And(Not(Atom("P", ("x",))), Atom("Q", ("x", "y"))),
            Or(Atom("R", ("x",)), Atom("Q", ("y", "x"))),
        ),
        Atom("P", ("y",)),
    )
    assert got == want


def test_binders_take_everything_to_the_right():
    got = parse_formula("forall x. P(x) & Q(x,x)", SIG)
    assert got == Forall("x", And(Atom("P", ("x",)), Atom("Q", ("x", "x"))))
    got = parse_formula("K[a] P(x) | R(x)", SIG)
    assert got == Know("a", Or(Atom("P", ("x",)), Atom("R", ("x",))))
    got = parse_formula("(K[a] P(x)) | R(x)", SIG)
    assert got == Or(Know("a", Atom("P", ("x",))), Atom("R", ("x",)))


def test_constants_and_zero_arity_atoms():
    assert parse_formula("true -> false", SIG) == Implies(TRUE, FALSE)
    sig = Signature((("raining", 0),))
    assert parse_formula("raining & !raining", sig) == \
        And(Atom("raining"), Not(Atom("raining")))


@pytest.mark.parametrize("text", [
    "P(x", "P(x,y)", "Z(x)", "forall . P(x)", "P(x) &", "K[] P(x)",
    "exists x P(x)", "",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text, SIG)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_formula("P(x) & Z(x)", SIG)
    assert info.value.position == 7


@pytest.mark.parametrize("wrap", [
    lambda body, n: "!" * n + body,
    lambda body, n: "(" * n + body + ")" * n,
    lambda body, n: "K[a] " * n + body,
    lambda body, n: "P(x) -> " * n + body,
    lambda body, n: body + " & P(x)" * n,
    lambda body, n: body + " | P(x)" * n,
])
def test_nesting_is_bounded(wrap):
    body = "exists x. P(x)"  # the binder is one level itself
    assert parse_formula(wrap(body, MAX_NESTING - 1), SIG) is not None
    with pytest.raises(ParseError):
        parse_formula(wrap(body, MAX_NESTING), SIG)


def test_round_trip_random_formulas():
    rng = random.Random(11)
    for _ in range(120):
        phi = oc.random_foel(rng, SIG, ("a", "b"), modal_depth=2)
        assert parse_formula(format_formula(phi), SIG) == phi


# --- classification ------------------------------------------------------------

def test_free_variables_in_first_occurrence_order():
    phi = parse_formula("Q(z,y) & forall x. Q(x,z) & P(w)", SIG)
    info = classify(phi)
    assert info.free_vars == ("z", "y", "w")
    assert info.variables == {"x", "y", "z", "w"}


def test_classify_flags():
    sentence = parse_formula("forall x. P(x) -> exists y. Q(x,y)", SIG)
    info = classify(sentence)
    assert info.closed and not info.modal and not info.quantifier_free
    open_qf = parse_formula("P(x) & !R(x)", SIG)
    info = classify(open_qf)
    assert not info.closed and info.quantifier_free and not info.modal
    modal = parse_formula("K[a] forall x. P(x)", SIG)
    assert classify(modal).modal
    assert classify(parse_formula("(K[a] K[b] P(x)) & K[a] true", SIG)).modal_depth == 2


def test_children_are_the_immediate_subformulas_left_to_right():
    p, q = Atom("P", ("x",)), Atom("Q", ("x", "y"))
    assert children(Iff(p, q)) == (p, q)
    assert children(Exists("x", p)) == (p,)
    assert children(Know("a", p)) == (p,)
    assert children(Not(p)) == (p,)
    assert children(p) == children(TRUE) == ()
    for bad in ("P", Not("P"), And(p, 3)):
        with pytest.raises(InputError):
            classify(bad)


def _rejection(check, phi, signature):
    try:
        check(phi, signature)
    except InputError as err:
        return str(err)
    return None


def test_classify_matches_the_recursive_walkers():
    # every subformula of the draws, so open ones test the free-variable order
    bad_sig = Signature((("P", 2), ("Q", 2)))  # R is unknown, P has the wrong arity
    rng = random.Random(29)
    seen = {"open": 0, "two free": 0, "modal": 0, "rejected": 0, "accepted": 0}
    for _ in range(200):
        stack = [oc.random_foel(rng, SIG, ("a", "b"), modal_depth=3)]
        while stack:
            phi = stack.pop()
            stack.extend(children(phi))
            info = classify(phi)
            assert info.free_vars == oc.free_variables(phi), phi
            assert info.variables == oc.all_variables(phi), phi
            assert info.modal == oc.is_modal(phi)
            assert info.modal_depth == oc.modal_depth(phi)
            assert info.quantifier_free == (not oc.has_quantifier(phi))
            assert info.height == oc.nesting_height(phi)
            assert info.closed == (not oc.free_variables(phi))
            assert validate_against(phi, SIG) == info
            want = _rejection(oc.validate_against, phi, bad_sig)
            assert _rejection(validate_against, phi, bad_sig) == want, phi
            seen["open"] += not info.closed
            seen["two free"] += len(info.free_vars) > 1
            seen["modal"] += info.modal
            seen["rejected" if want else "accepted"] += 1
    assert min(seen.values()) >= 20, seen


def test_classify_walks_a_deep_chain_without_recursion():
    phi = Atom("P", ("x",))
    for _ in range(5000):
        phi = Not(phi)
    info = validate_against(phi, SIG)
    assert info.height == 5000 and info.free_vars == ("x",)
    assert info.atoms == (Atom("P", ("x",)),) and not info.modal


# --- the history signature and translation ---------------------------------------

def test_history_signature_contents():
    hist = history_signature(SIG, ("a",), ("w0", "w1"))
    entries = dict(hist.predicates)
    assert entries[knows_name("a")] == 2
    assert entries[hat_name("Q")] == 3
    assert entries[origin_name("w1")] == 1
    assert entries["dom^"] == 2


def test_history_signature_rejects_collisions():
    with pytest.raises(InputError):
        history_signature(Signature((("dom^", 2),)), ("a",), ("w",))


def test_translation_of_atoms_guards_the_domain():
    got = standard_translation(Atom("P", ("x",)), "y")
    assert got == And(Atom("P^", ("y", "x")), Atom("dom^", ("y", "x")))


def test_translation_of_knowledge_quantifies_primed_histories():
    got = standard_translation(Know("a", Atom("P", ("x",))), "y")
    assert got == Forall(
        "y'",
        Implies(Atom("ep^a", ("y", "y'")),
                And(Atom("P^", ("y'", "x")), Atom("dom^", ("y'", "x")))),
    )


def test_translation_relativizes_quantifiers():
    got = standard_translation(Forall("x", Atom("P", ("x",))), "y")
    assert got == Forall("x", Implies(Atom("dom^", ("y", "x")),
                                      And(Atom("P^", ("y", "x")),
                                          Atom("dom^", ("y", "x")))))
    got = standard_translation(Exists("x", TRUE), "y")
    assert got == Exists("x", And(Atom("dom^", ("y", "x")), TRUE))


def test_translation_rejects_capture():
    phi = Know("a", Atom("P", ("y'",)))
    with pytest.raises(VariableCaptureError):
        standard_translation(phi, "y")
    assert fresh_history_var(phi) != "y"
    deep = Know("a", Know("b", Atom("P", ("x",))))
    v = fresh_history_var(deep)
    assert {v, v + "'", v + "''"} & classify(deep).variables == set()


def test_translation_output_is_non_modal():
    rng = random.Random(5)
    for _ in range(60):
        phi = oc.random_foel(rng, SIG, ("a", "b"), modal_depth=2)
        translated = standard_translation(phi, fresh_history_var(phi))
        assert not classify(translated).modal
