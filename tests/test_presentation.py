import itertools
import random
import time

import pytest

import oracles as oc
from epplan import automata as fa
from epplan.errors import MAX_NESTING, FragmentError, InfiniteDomainError, InputError
from epplan.logic import (And, Atom, Forall, Implies, Not, Or, Signature, format_formula,
                          parse_formula)
from epplan.presentation import (
    AutomaticPresentation,
    brute_force_check,
    check_sentence,
    compile_formula,
    defined_relation,
    domain_power,
    enumerate_domain,
    presentation_from_json,
    presentation_to_json,
    validate,
)

AB = fa.Alphabet(("a", "b"))


def small_presentation():
    domain = oc.finite_domain(AB, [(), ("a",), ("b", "b")])
    rels = {
        "P": oc.trie_relation(AB, 1, {(("a",),), ((),)}),
        "E": oc.trie_relation(AB, 2, {(("a",), ("b", "b")), (("b", "b"), ("a",))}),
    }
    return AutomaticPresentation(Signature((("P", 1), ("E", 2))), AB,
                                 domain, rels)


# --- plumbing -------------------------------------------------------------------

def test_presentation_field_validation():
    domain = oc.finite_domain(AB, [("a",)])
    sig = Signature((("P", 1),))
    with pytest.raises(InputError):
        AutomaticPresentation(sig, AB, domain, {})
    from epplan.errors import TrackMismatchError
    with pytest.raises(TrackMismatchError):
        AutomaticPresentation(sig, AB, domain,
                              {"P": fa.valid_convolutions(AB, 2)})
    with pytest.raises(InputError):
        AutomaticPresentation(sig, AB, domain,
                              {"P": domain, "Z": domain})


def test_domain_power():
    dom = oc.finite_domain(AB, [("a",), ("b",)])
    square = domain_power(dom, 2)
    assert fa.accepts(square, (("a",), ("b",)))
    assert not fa.accepts(square, (("a",), ("a", "a")))
    zero = domain_power(dom, 0)
    assert not fa.is_empty(zero)


def test_atoms_with_distinct_arguments_skip_the_substitution(monkeypatch):
    pres = small_presentation()
    substitute = fa.substitute_tracks
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return substitute(*args, **kwargs)

    monkeypatch.setattr(fa, "substitute_tracks", counted)
    # over scope (x) or (x, y); E(y, x) is reordered when lifted to the scope
    for args, sigma, want in [(("x",), (1,), 0), (("x", "y"), (1, 2), 0),
                              (("y", "x"), (2, 1), 1), (("x", "x"), (1, 1), 1)]:
        pred = "P" if len(args) == 1 else "E"
        scope = tuple(sorted(set(args)))
        calls.clear()
        got = compile_formula(pres, Atom(pred, args), scope)
        assert len(calls) == want, args
        routed = substitute(pres.relations[pred], sigma, len(scope), pres.domain)
        assert fa.equivalent(got, routed), args


def test_sentences_nested_past_the_bound_are_refused():
    pres = small_presentation()
    phi = parse_formula("exists x. P(x)", pres.signature)
    for _ in range(5000):
        phi = Not(phi)
    for check in (check_sentence, brute_force_check):
        with pytest.raises(InputError, match=f"nests deeper than {MAX_NESTING} levels"):
            check(pres, phi)


def test_compiling_and_printing_refuse_formulas_nested_past_the_bound():
    pres = small_presentation()
    phi = parse_formula("exists x. P(x)", pres.signature)
    for _ in range(5000):
        phi = Not(phi)
    with pytest.raises(InputError, match="nests deeper than 203 levels"):
        compile_formula(pres, phi, ())
    with pytest.raises(InputError, match="nests deeper than 203 levels"):
        defined_relation(pres, phi, ())
    with pytest.raises(InputError, match=f"nests deeper than {MAX_NESTING} levels"):
        format_formula(phi)


def test_validate_passes_a_clean_presentation():
    assert validate(small_presentation()) == []


def test_validate_flags_tuples_outside_the_domain():
    pres = small_presentation()
    pres.relations["P"] = oc.trie_relation(AB, 1, {(("a", "a", "a"),)})
    found = validate(pres)
    assert any(d.relation == "P" and d.witness == (("a", "a", "a"),)
               for d in found)


def test_validate_flags_invalid_convolutions():
    # a run that resumes a track after padding it
    bad = fa.Automaton(
        2, AB, 3, frozenset({0}), frozenset({2}),
        frozenset({(0, (fa.PAD, "a"), 1), (1, ("a", "a"), 2)}),
    )
    pres = small_presentation()
    pres.relations["E"] = bad
    assert any(d.relation == "E" and "convolution" in d.message
               for d in validate(pres))


def test_validate_reports_empty_domain():
    pres = AutomaticPresentation(Signature(()), AB,
                                 fa.empty_automaton(AB, 1), {})
    assert any(d.relation is None for d in validate(pres))


# --- compilation ------------------------------------------------------------------

def test_compile_scope_errors():
    pres = small_presentation()
    phi = parse_formula("P(x)", pres.signature)
    with pytest.raises(InputError):
        compile_formula(pres, phi, ("x", "x"))
    with pytest.raises(InputError):
        compile_formula(pres, phi, ("y",))


def test_defined_relation_track_order():
    pres = small_presentation()
    swapped = defined_relation(pres, parse_formula("E(x2,x1)", pres.signature),
                               ("x1", "x2"))
    assert fa.accepts(swapped, (("b", "b"), ("a",)))
    assert fa.accepts(swapped, (("a",), ("b", "b")))
    # a scope variable the formula ignores still ranges over the domain
    padded = defined_relation(pres, parse_formula("P(x1)", pres.signature),
                              ("x1", "x2"))
    assert fa.accepts(padded, (("a",), ("b", "b")))
    assert not fa.accepts(padded, (("a",), ("a", "a")))


def test_check_sentence_gates_input():
    pres = small_presentation()
    with pytest.raises(InputError):
        check_sentence(pres, parse_formula("P(x)", pres.signature))
    sig = Signature((("P", 1),))
    modal = parse_formula("K[a] forall x. P(x)", sig)
    with pytest.raises(FragmentError):
        check_sentence(small_presentation(), modal)


def test_check_sentence_on_an_infinite_domain():
    # enumeration would diverge here; the automata route must not care
    pres = AutomaticPresentation(
        Signature((("P", 1),)), AB, fa.universal_words(AB),
        {"P": fa.regex_to_automaton("a*", AB)},
    )
    assert check_sentence(pres, parse_formula("exists x. P(x)", pres.signature))
    assert not check_sentence(pres, parse_formula("forall x. P(x)", pres.signature))
    with pytest.raises(InfiniteDomainError):
        brute_force_check(pres, parse_formula("exists x. P(x)", pres.signature))


def test_quantifier_shadowing():
    pres = small_presentation()
    phi = parse_formula("exists x. (P(x) & exists x. E(x,x2))", pres.signature)
    rel = compile_formula(pres, phi, ("x2",))
    for w in [(), ("a",), ("b", "b")]:
        assert fa.accepts(rel, (w,)) == brute_force_check(pres, phi, {"x2": w})


def test_vacuous_quantifiers_still_consult_the_domain():
    pres = small_presentation()
    sig = pres.signature
    assert check_sentence(pres, parse_formula("exists x. true", sig))
    assert check_sentence(pres, parse_formula("exists x. exists y. P(y)", sig))
    # over an empty domain an exists is false even if its body ignores x
    hollow = AutomaticPresentation(sig, AB, fa.empty_automaton(AB, 1),
                                   {"P": fa.empty_automaton(AB, 1),
                                    "E": fa.empty_automaton(AB, 2)})
    assert not check_sentence(hollow, parse_formula("exists x. true", sig))
    assert check_sentence(hollow, parse_formula("forall x. false", sig))


def test_compile_agrees_with_brute_force_on_random_structures():
    rng = random.Random(23)
    for _ in range(100):
        pres, _, _ = oc.random_structure(rng, max_elements=8)
        phi = oc.random_sentence(rng, pres.signature)
        assert check_sentence(pres, phi) == brute_force_check(pres, phi)


OPEN_VARS = ("x", "y", "z")


def _open_side(rng, signature, scope):
    """A random formula whose free variables occur first in ``scope`` order:
    a chain of atoms, one per variable, leads, then random structure."""
    lead = None
    for var in scope:
        name, arity = rng.choice(signature.predicates)
        atom = Atom(name, (var,) * arity)
        lead = atom if lead is None else rng.choice([And, Or])(lead, atom)
    rest = oc.random_formula(rng, signature, scope, 1, 2)
    return rest if lead is None else rng.choice([And, Or, Implies])(lead, rest)


def _open_operands(rng, overlap):
    """Variable tuples of two operands that are equal, disjoint (one may
    be empty), overlapping, or the same variables in another order."""
    if overlap == "equal":
        vs = tuple(rng.sample(OPEN_VARS, rng.randint(1, 3)))
        return vs, vs
    if overlap == "disjoint":
        vs = tuple(rng.sample(OPEN_VARS, rng.randint(1, 3)))
        cut = rng.randint(1, len(vs))
        return vs[:cut], vs[cut:]
    if overlap == "overlapping":
        vs = tuple(rng.sample(OPEN_VARS, rng.randint(2, 3)))
        return vs[:2], vs[1:]
    vs = tuple(rng.sample(OPEN_VARS, rng.randint(2, 3)))
    return vs, vs[::-1]


OPEN_SHAPES = {
    "not-not": lambda a, b: Not(Not(And(a, b))),
    "not-or": lambda a, b: Not(Or(a, b)),
    "not-implies": lambda a, b: Not(Implies(a, b)),
    "and": lambda a, b: And(a, b),
}


def test_compile_agrees_with_brute_force_on_open_formulas():
    rng = random.Random(41)
    shapes = sorted(OPEN_SHAPES)
    overlaps = ("equal", "disjoint", "overlapping", "permuted")
    for i in range(100):
        pres, domain, _ = oc.random_structure(rng, max_elements=4)
        sig = pres.signature
        va, vb = _open_operands(rng, overlaps[i // len(shapes) % len(overlaps)])
        phi = OPEN_SHAPES[shapes[i % len(shapes)]](
            _open_side(rng, sig, va), _open_side(rng, sig, vb))
        if rng.random() < 0.3:  # a guarded universal over one variable
            var = rng.choice(va + vb)
            guard = _open_side(rng, sig, (var,))
            phi = Forall(var, Implies(guard, phi))
        scope = list(dict.fromkeys(va + vb))
        if len(scope) < 3 and rng.random() < 0.3:
            scope.append(next(v for v in OPEN_VARS if v not in scope))
        rng.shuffle(scope)
        rel = compile_formula(pres, phi, tuple(scope))
        for words in itertools.product(domain, repeat=len(scope)):
            assert fa.accepts(rel, words) == brute_force_check(
                pres, phi, dict(zip(scope, words))), (phi, scope, words)


def test_a_biconditional_compiles_each_side_once(monkeypatch):
    sig = Signature((("Q", 0),))
    dom = oc.finite_domain(AB, [("a",)])
    real, calls = fa.boolean_combine, []
    monkeypatch.setattr(fa, "boolean_combine",
                        lambda *args: calls.append(args[2]) or real(*args))
    counts = {}
    for n in (6, 12):
        for truth in (True, False):
            q = fa.epsilon_automaton(AB, 0) if truth else fa.empty_automaton(AB, 0)
            pres = AutomaticPresentation(sig, AB, dom, {"Q": q})
            chain = parse_formula(" <-> ".join(["Q"] * n), sig)
            calls.clear()
            # the chain nests to the right, so with Q false it holds iff n is even
            assert check_sentence(pres, chain) == (truth or n % 2 == 0)
            counts[n, truth] = len(calls)
    for truth in (True, False):
        assert counts[12, truth] <= 3 * counts[6, truth], counts


# --- enumeration --------------------------------------------------------------------

def test_enumerate_domain_lists_every_word():
    words = [(), ("a",), ("a", "b", "a")]
    got = enumerate_domain(oc.finite_domain(AB, words))
    assert sorted(got) == sorted(words)


def test_enumerate_domain_rejects_cycles():
    with pytest.raises(InfiniteDomainError):
        enumerate_domain(fa.universal_words(AB))


def test_enumerate_domain_walks_a_long_chain():
    # deeper than the interpreter's recursion limit
    chain = fa.Automaton(1, AB, 1500, frozenset({0}), frozenset({1499}),
                         frozenset((i, ("a",), i + 1) for i in range(1499)))
    assert enumerate_domain(chain) == [("a",) * 1499]


def test_enumerate_domain_respects_the_limit():
    dom = oc.finite_domain(AB, [(c1, c2) for c1 in "ab" for c2 in "ab"])
    with pytest.raises(InfiniteDomainError):
        enumerate_domain(dom, limit=3)


def test_enumerate_domain_stops_at_the_limit():
    dom = fa.regex_to_automaton("(a|b)" * 22, AB)  # 2^22 words
    start = time.perf_counter()
    with pytest.raises(InfiniteDomainError):
        enumerate_domain(dom, limit=1000)
    assert time.perf_counter() - start < 0.5


def test_brute_force_check_needs_full_assignments():
    pres = small_presentation()
    phi = parse_formula("P(x)", pres.signature)
    assert brute_force_check(pres, phi, {"x": ("a",)})
    with pytest.raises(InputError):
        brute_force_check(pres, phi)


# --- serialization -------------------------------------------------------------------

def test_presentation_json_round_trip():
    pres = small_presentation()
    back = presentation_from_json(presentation_to_json(pres))
    assert back.signature == pres.signature
    assert fa.equivalent(back.domain, pres.domain)
    for name in ("P", "E"):
        assert fa.equivalent(back.relations[name], pres.relations[name])


def test_presentation_json_accepts_regex_shorthand():
    obj = {
        "signature": {"P": 1},
        "alphabet": ["a", "b"],
        "domain": "(a|b)*",
        "relations": {"P": "a·a*"},
    }
    pres = presentation_from_json(obj)
    assert check_sentence(pres, parse_formula("exists x. P(x)", pres.signature))
