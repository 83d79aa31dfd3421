import random

import pytest

import oracles as oc
from epplan.errors import FragmentError, InputError, ParseError, VariableCaptureError
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
    all_variables,
    classify,
    format_formula,
    free_variables,
    fresh_history_var,
    hat_name,
    history_signature,
    knows_name,
    modal_depth,
    origin_name,
    parse_formula,
    require_non_modal,
    standard_translation,
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
    assert free_variables(phi) == ("z", "y", "w")
    assert all_variables(phi) == {"x", "y", "z", "w"}


def test_classify_flags():
    sentence = parse_formula("forall x. P(x) -> exists y. Q(x,y)", SIG)
    info = classify(sentence)
    assert info.closed and not info.modal and not info.quantifier_free
    open_qf = parse_formula("P(x) & !R(x)", SIG)
    info = classify(open_qf)
    assert not info.closed and info.quantifier_free and not info.modal
    modal = parse_formula("K[a] forall x. P(x)", SIG)
    assert classify(modal).modal
    assert modal_depth(parse_formula("(K[a] K[b] P(x)) & K[a] true", SIG)) == 2


def test_require_non_modal():
    require_non_modal(parse_formula("P(x)", SIG), "precondition")
    with pytest.raises(FragmentError):
        require_non_modal(parse_formula("K[a] P(x)", SIG), "precondition")


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
    assert {v, v + "'", v + "''"} & all_variables(deep) == set()


def test_translation_output_is_non_modal():
    rng = random.Random(5)
    for _ in range(60):
        phi = oc.random_foel(rng, SIG, ("a", "b"), modal_depth=2)
        translated = standard_translation(phi, fresh_history_var(phi))
        assert not classify(translated).modal
