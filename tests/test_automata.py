import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

import oracles as oc
from epplan import automata as fa
from epplan.errors import InputError, ParseError, ResourceLimitError, TrackMismatchError

AB = fa.Alphabet(("a", "b"))

word_st = st.text(alphabet="ab", max_size=4).map(tuple)
pair_st = st.tuples(word_st, word_st)
relation_st = st.frozensets(pair_st, max_size=8)
unary_st = st.frozensets(word_st.map(lambda w: (w,)), max_size=8)


def probes(max_len=3):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(("a", "b"), repeat=n))
    return out


# --- construction and validation ---------------------------------------------

def test_alphabet_validation():
    with pytest.raises(InputError):
        fa.Alphabet(("a", "a"))
    with pytest.raises(InputError):
        fa.Alphabet(("a", fa.PAD))
    with pytest.raises(InputError):
        fa.Alphabet(("a", ""))


def test_automaton_rejects_bad_labels():
    with pytest.raises(InputError):
        fa.Automaton(2, AB, 1, frozenset({0}), frozenset({0}),
                     frozenset({(0, (fa.PAD, fa.PAD), 0)}))
    with pytest.raises(InputError):
        fa.Automaton(1, AB, 1, frozenset({0}), frozenset({0}),
                     frozenset({(0, ("c",), 0)}))
    with pytest.raises((InputError, TrackMismatchError)):
        fa.Automaton(2, AB, 1, frozenset({0}), frozenset({0}),
                     frozenset({(0, ("a",), 0)}))
    with pytest.raises(InputError):
        fa.Automaton(1, AB, 1, frozenset({0}), frozenset({0}),
                     frozenset({(0, ("a",), 5)}))


# a deterministic 2-track base: 30 states, every non-all-pad label once per state
CHECK_STATES = 30
CHECK_LABELS = [lab for lab in itertools.product(("a", "b", fa.PAD), repeat=2)
                if lab != (fa.PAD, fa.PAD)]
CHECK_EDGES = frozenset((s, lab, (s + 1) % CHECK_STATES)
                        for s in range(CHECK_STATES) for lab in CHECK_LABELS)

# one fault each, hidden among the base edges: (initial, accepting, extra
# edge, deterministic) and the exception that names the fault
MALFORMED = [
    ({0}, {1}, (-1, ("a", "a"), 0), False,
     InputError, "transition endpoint out of range"),
    ({0}, {1}, (3, ("a", "b"), CHECK_STATES), False,
     InputError, "transition endpoint out of range"),
    ({0}, {1, CHECK_STATES + 4}, None, False,
     InputError, f"state {CHECK_STATES + 4} out of range"),
    ({0}, {1}, (2, ("a",), 5), False,
     TrackMismatchError, "label ('a',) has 1 tracks, automaton has 2"),
    ({0}, {1}, (4, (fa.PAD, fa.PAD), 5), False,
     InputError, "the all-pad tuple may not label a transition"),
    ({0}, {1}, (4, fa.PAD * 2, 5), False,  # a label given as a string
     InputError, "the all-pad tuple may not label a transition"),
    ({0}, {1}, (6, ("a", "c"), 7), False,
     InputError, "label symbol 'c' not in alphabet"),
    ({0}, {1}, (8, ("b", fa.PAD), 2), True,
     InputError, "deterministic flag set but transitions branch"),
    ({0, 1}, {1}, None, True,
     InputError, "deterministic flag requires exactly one initial state"),
]


def test_construction_checks_name_every_fault():
    assert len(CHECK_EDGES) >= 200
    fa.Automaton(2, AB, CHECK_STATES, {0}, {1}, CHECK_EDGES, deterministic=True)
    for initial, accepting, extra, deterministic, kind, message in MALFORMED:
        edges = CHECK_EDGES | ({extra} if extra else set())
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
            fa.Automaton(2, AB, CHECK_STATES, frozenset(initial), frozenset(accepting),
                         edges, deterministic=deterministic)
        assert type(info.value) is kind


def test_boolean_combine_rejects_mismatched_operands():
    one = fa.universal_words(AB)
    two = fa.valid_convolutions(AB, 2)
    with pytest.raises(TrackMismatchError):
        fa.boolean_combine(one, two, "and")
    with pytest.raises(InputError):
        fa.boolean_combine(one, one, "xor")


# --- convolution ---------------------------------------------------------------

@given(st.lists(word_st, min_size=1, max_size=3))
def test_convolution_matches_reference(words):
    tup = tuple(words)
    assert fa.convolve(tup) == oc.convolve_words(tup)
    assert fa.deconvolve(fa.convolve(tup), len(tup)) == tup


# a raw 2-track string whose first track resumes after padding
RESUMED = fa.Automaton(2, AB, 3, frozenset({0}), frozenset({2}),
                       frozenset({(0, (fa.PAD, "a"), 1), (1, ("a", "a"), 2)}))


def raw_empty(a: fa.Automaton) -> bool:
    """No accepted label string at all, valid convolution or not."""
    t = fa.trim(a)
    return not (t.initial and t.accepting)


@given(relation_st, pair_st)
def test_valid_convolutions_accept_all_real_pairs(rel, pair):
    assert fa.accepts(fa.valid_convolutions(AB, 2), pair)
    # _pad_filter(a) is a ∧ valid_convolutions, compared as raw strings
    auto = fa.boolean_combine(oc.trie_relation(AB, 2, rel | {pair}), RESUMED, "or")
    filtered = fa._pad_filter(auto)
    meet = fa.boolean_combine(auto, fa.valid_convolutions(AB, 2), "and")
    assert fa.accepts(filtered, pair)
    assert fa.equivalent(filtered, meet)
    assert raw_empty(fa.boolean_combine(filtered, meet, "minus"))
    assert raw_empty(fa.boolean_combine(meet, filtered, "minus"))


def test_pad_filter_rejects_a_resumed_pad_string():
    assert not raw_empty(RESUMED)
    assert raw_empty(fa._pad_filter(RESUMED))


# --- membership and boolean algebra --------------------------------------------

@given(relation_st, pair_st)
def test_trie_membership(rel, probe):
    auto = oc.trie_relation(AB, 2, rel)
    assert fa.accepts(auto, probe) == (probe in rel)


@given(relation_st, relation_st)
def test_boolean_ops_match_set_algebra(r1, r2):
    a1 = oc.trie_relation(AB, 2, r1)
    a2 = oc.trie_relation(AB, 2, r2)
    both = fa.boolean_combine(a1, a2, "and")
    either = fa.boolean_combine(a1, a2, "or")
    diff = fa.boolean_combine(a1, a2, "minus")
    for probe in set(r1) | set(r2) | {((), ()), (("a",), ("b", "b"))}:
        assert fa.accepts(both, probe) == (probe in r1 and probe in r2)
        assert fa.accepts(either, probe) == (probe in r1 or probe in r2)
        assert fa.accepts(diff, probe) == (probe in r1 and probe not in r2)


@given(relation_st)
def test_complement_membership_and_involution(rel):
    auto = oc.trie_relation(AB, 2, rel)
    comp = fa.complement(auto)
    for probe in list(rel)[:4] + [((), ()), (("a",), ()), (("b", "a"), ("b",))]:
        assert fa.accepts(comp, probe) == (probe not in rel)
    assert fa.equivalent(fa.complement(comp), auto)


@given(relation_st, relation_st)
def test_determinize_preserves_language(r1, r2):
    union = fa.boolean_combine(oc.trie_relation(AB, 2, r1),
                               oc.trie_relation(AB, 2, r2), "or")
    det = fa.determinize(union)
    assert det.deterministic
    for probe in set(r1) | set(r2) | {((), ("a",))}:
        assert fa.accepts(det, probe) == (probe in r1 or probe in r2)


# --- canonical forms -------------------------------------------------------------

def test_canonicalize_empty_language():
    canon = fa.canonicalize(fa.empty_automaton(AB, 1))
    assert canon.states == 1 and not canon.accepting
    assert fa.is_empty(canon)


def test_canonicalize_is_minimal_on_known_languages():
    # mixed words need one state per "letters seen so far" value
    mixed = fa.regex_to_automaton("(a|b)*·(a·b|b·a)·(a|b)*", AB)
    assert fa.canonicalize(mixed).states == 4
    assert fa.canonicalize(fa.regex_to_automaton("a*", AB)).states == 1
    assert fa.canonicalize(fa.universal_words(AB)).states == 1


@pytest.mark.parametrize("left,right,equal", [
    ("a**", "a*", True),
    ("(a|b)·(a|b)", "a·a|a·b|b·a|b·b", True),
    ("a·(b·a)*", "(a·b)*·a", True),
    ("ε|a·a*", "a*", True),
    ("a*·b*", "b*·a*", False),
    ("(a|b)*", "(a*·b*)*", True),
    ("∅", "ε", False),
])
def test_fingerprint_equality_matches_language_equality(left, right, equal):
    la = fa.regex_to_automaton(left, AB)
    ra = fa.regex_to_automaton(right, AB)
    assert fa.equivalent(la, ra) == equal
    assert (fa.fingerprint(fa.canonicalize(la)) ==
            fa.fingerprint(fa.canonicalize(ra))) == equal


@given(relation_st)
def test_canonicalize_preserves_language(rel):
    auto = oc.trie_relation(AB, 2, rel)
    canon = fa.canonicalize(auto)
    assert canon.deterministic
    assert fa.equivalent(auto, canon)
    # nothing below the count of pairwise-distinguishable live states
    assert canon.states <= max(fa.trim(fa.determinize(auto)).states, 1)


def test_hopcroft_matches_moore_reference():
    rng = random.Random(606)
    seen = {"empty": 0, "epsilon": 0, "pad": 0, "dead": 0}
    for case in range(240):
        auto = oc.random_nfa(rng, tracks=1 + case % 3)
        canon = fa.canonicalize(auto)
        assert fa.fingerprint(canon) == fa.fingerprint(oc.moore_canonicalize(auto))
        perm = list(range(auto.states))
        rng.shuffle(perm)
        assert (fa.fingerprint(fa.canonicalize(oc.renumber_states(auto, perm)))
                == fa.fingerprint(canon))
        seen["empty"] += not canon.accepting
        seen["epsilon"] += 0 in canon.accepting
        seen["pad"] += any(fa.PAD in lab for _, lab, _ in canon.transitions)
        seen["dead"] += fa.trim(auto).states < auto.states
    # every shape the refinement must handle occurs many times
    assert min(seen.values()) >= 20, seen


def builder_of(auto: fa.Automaton) -> fa._Builder:
    """A builder holding ``auto``'s states and edges under their own numbers."""
    bld = fa._Builder(auto.alphabet, auto.tracks)
    for q in range(auto.states):
        bld.state(q)
    for s, lab, d in auto.transitions:
        bld.edge(s, lab, d)
    return bld


def test_one_walk_constructions_match_the_staged_ones():
    rng = random.Random(1414)
    seen = {"invalid": 0, "empty": 0, "epsilon": 0, "dead": 0}
    for case in range(240):
        auto = oc.random_nfa(rng, tracks=1 + case % 3)
        canon = fa.canonicalize(auto)
        assert canon == oc.staged_canonicalize(auto)
        for pos in range(1, auto.tracks + 1):
            assert fa.project(auto, pos) == oc.staged_project(auto, pos)
        assert fa.is_empty(auto) == oc.staged_is_empty(auto)
        assert fa.is_empty_witness(auto) == oc.staged_is_empty_witness(auto)
        assert fa.enumerate_upto(auto, 3) == oc.staged_enumerate_upto(auto, 3)
        assert fa._pad_filter(auto) == oc.staged_pad_filter(auto)
        assert fa.trim(auto) == oc.staged_trim(auto)
        bld = builder_of(auto)
        assert (bld.trimmed(auto.initial, auto.accepting)
                == oc.staged_trim(bld.build(auto.initial, auto.accepting)))
        # raw strings that are not valid convolutions, as ``validate`` finds them
        seen["invalid"] += bool(fa.boolean_combine(auto, fa._pad_filter(auto),
                                                   "minus").accepting)
        seen["empty"] += not canon.accepting
        seen["epsilon"] += 0 in canon.accepting
        seen["dead"] += fa.trim(auto).states < auto.states
    # every shape the one-walk constructions must handle occurs many times
    assert min(seen.values()) >= 20, seen


# --- track surgery ----------------------------------------------------------------

def test_substitute_tracks_swap_and_diagonal():
    rel = {(("a",), ("b", "b")), (("a", "a"), ("a", "a")), ((), ("b",))}
    auto = oc.trie_relation(AB, 2, rel)
    swapped = fa.substitute_tracks(auto, (2, 1), 2)
    for u, v in rel:
        assert fa.accepts(swapped, (v, u))
        assert fa.accepts(swapped, (u, v)) == ((v, u) in rel)
    diag = fa.substitute_tracks(auto, (1, 1), 1)
    for w in probes():
        assert fa.accepts(diag, (w,)) == ((w, w) in rel)


def test_substitute_tracks_validation():
    auto = oc.trie_relation(AB, 2, {(("a",), ("b",))})
    with pytest.raises(TrackMismatchError):
        fa.substitute_tracks(auto, (1,), 2)
    with pytest.raises(InputError):
        fa.substitute_tracks(auto, (1, 3), 2)


def test_substitute_tracks_needs_a_universe_for_unmapped_tracks():
    auto = oc.finite_domain(AB, [("a",), ("b", "a")])
    with pytest.raises(InputError, match=r"leaves tracks \[2\] unmapped"):
        fa.substitute_tracks(auto, (1,), 2)
    pairs = fa.substitute_tracks(auto, (1,), 2, fa.universal_words(AB))
    assert fa.accepts(pairs, (("b", "a"), ("b", "b", "b")))
    assert not fa.accepts(pairs, (("b",), ()))


def random_word(rng) -> tuple[str, ...]:
    return tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))


def join_component(rng, width: int) -> fa.Automaton:
    """A random NFA, or the trie of a few random tuples of short words."""
    if rng.random() < 0.5:
        return oc.random_nfa(rng, width, max_states=5)
    return oc.trie_relation(AB, width, {tuple(random_word(rng) for _ in range(width))
                                        for _ in range(rng.randint(1, 4))})


def test_hash_join_matches_the_product_join():
    rng = random.Random(1207)
    seen = {"repeated": 0, "overlapping": 0, "disjoint": 0, "padded early": 0}
    for _ in range(240):
        tracks = rng.randint(1, 3)
        components = []
        for _ in range(rng.randint(1, 3)):
            positions = tuple(rng.randrange(tracks) for _ in range(rng.randint(1, 2)))
            components.append((join_component(rng, len(positions)), positions))
        read = {p for _, positions in components for p in positions}
        components.extend((join_component(rng, 1), (p,))
                          for p in range(tracks) if p not in read)
        joined = fa.track_join(AB, tracks, components)
        assert joined == oc.product_track_join(AB, tracks, components)
        reads = [set(positions) for _, positions in components]
        seen["repeated"] += any(len(set(p)) < len(p) for _, p in components)
        seen["overlapping"] += any(a & b for a, b in itertools.combinations(reads, 2))
        seen["disjoint"] += any(not a & b for a, b in itertools.combinations(reads, 2))
        # a component's own sub-labels are never all-pad, so an all-pad one
        # means it accepted early and the join pads its tracks
        seen["padded early"] += any(all(lab[p] == fa.PAD for p in positions)
                                    for _, lab, _ in joined.transitions
                                    for _, positions in components)
    assert min(seen.values()) >= 20, seen


@given(relation_st)
def test_project_is_existential(rel):
    auto = oc.trie_relation(AB, 2, rel)
    left = fa.project(auto, 2)
    right = fa.project(auto, 1)
    firsts = {u for u, _ in rel}
    seconds = {v for _, v in rel}
    for w in probes():
        assert fa.accepts(left, (w,)) == (w in firsts)
        assert fa.accepts(right, (w,)) == (w in seconds)


def test_project_saturates_pad_tails():
    # the surviving track ends long before the dropped one
    auto = oc.trie_relation(AB, 2, {(("a",), ("a", "b", "b"))})
    assert fa.accepts(fa.project(auto, 2), (("a",),))


# --- concatenation ------------------------------------------------------------------

def test_concatenate_finite_languages():
    left = oc.finite_domain(AB, [("a",), ("a", "b")])
    right = oc.finite_domain(AB, [("b",), ()])
    cat = fa.concatenate(left, right)
    want = {("a",), ("a", "b"), ("a", "b", "b")}
    for w in probes():
        assert fa.accepts(cat, (w,)) == (w in want)


def test_concatenate_rejects_multi_track():
    two = fa.valid_convolutions(AB, 2)
    with pytest.raises(TrackMismatchError):
        fa.concatenate(two, two)


# --- regular expressions --------------------------------------------------------------

@pytest.mark.parametrize("pattern,members,rejects", [
    ("a*", ["", "a", "aaa"], ["b", "ab"]),
    ("ε", [""], ["a"]),
    ("∅", [], ["", "a"]),
    ("a·b*", ["a", "ab", "abb"], ["", "ba"]),
    ("(a|b)·b", ["ab", "bb"], ["a", "b", "abb"]),
    ("a**", ["", "aa"], ["b"]),
])
def test_regex_membership(pattern, members, rejects):
    auto = fa.regex_to_automaton(pattern, AB)
    for w in members:
        assert fa.accepts(auto, (tuple(w),)), (pattern, w)
    for w in rejects:
        assert not fa.accepts(auto, (tuple(w),)), (pattern, w)


def test_regex_star_binds_tighter_than_concat_and_union():
    assert fa.equivalent(fa.regex_to_automaton("a·b*", AB),
                         fa.regex_to_automaton("a·(b*)", AB))
    assert not fa.equivalent(fa.regex_to_automaton("a·b*", AB),
                             fa.regex_to_automaton("(a·b)*", AB))
    assert fa.equivalent(fa.regex_to_automaton("a|b·b", AB),
                         fa.regex_to_automaton("a|(b·b)", AB))


@pytest.mark.parametrize("pattern", ["(a", "a)", "a·", "·a", "a||b", "a*·"])
def test_regex_parse_errors_carry_a_position(pattern):
    with pytest.raises(ParseError) as info:
        fa.regex_to_automaton(pattern, AB)
    assert info.value.position is None or info.value.position >= 0


def test_regex_unknown_letter():
    with pytest.raises(ParseError):
        fa.regex_to_automaton("a·c", AB)


# --- enumeration and witnesses -----------------------------------------------------------

def test_enumerate_upto_is_length_lex_sorted():
    auto = fa.regex_to_automaton("(a|b)*·b", AB)
    got = fa.enumerate_upto(auto, 3)
    flat = [w for (w,) in got]
    keys = [(len(w), tuple(AB.key(c) for c in w)) for w in flat]
    assert keys == sorted(keys)
    assert flat == [w for w in probes() if w and w[-1] == "b"]


def test_witness_is_the_length_lex_least_word():
    auto = fa.regex_to_automaton("b·b|a·b·a", AB)
    assert fa.is_empty_witness(auto) == (("b", "b"),)
    assert fa.is_empty_witness(fa.regex_to_automaton("∅", AB)) is None


@given(relation_st)
def test_witness_agrees_with_enumeration(rel):
    auto = oc.trie_relation(AB, 2, rel)
    wit = fa.is_empty_witness(auto)
    if not rel:
        assert wit is None
    else:
        assert wit == fa.enumerate_upto(auto, 6)[0]


# --- the state cap -------------------------------------------------------------------------

CHAIN = oc.finite_domain(AB, [("a", "b", "a", "b")])  # five states in a row


def _history_presentation_case():
    from epplan.cli import build_language_demo
    from epplan.planner import class_quotient, history_presentation
    model, action, _ = build_language_demo(["a*", "b*"], "a·b")
    quotient = class_quotient(model, action)  # built before the cap shrinks
    return lambda: history_presentation(model, action, quotient=quotient)


# each case sets up its inputs under the default cap and returns the construction
CAPPED_CONSTRUCTIONS = {
    "_pad_filter": lambda: lambda: fa._pad_filter(CHAIN),
    "and": lambda: lambda: fa.boolean_combine(CHAIN, CHAIN, "and"),
    "minus": lambda: lambda: fa.boolean_combine(CHAIN, fa.empty_automaton(AB, 1), "minus"),
    "determinize": lambda: lambda: fa.determinize(CHAIN),
    "substitute_tracks": lambda: lambda: fa.substitute_tracks(CHAIN, (1,), 2, CHAIN),
    "regex_to_automaton": lambda: lambda: fa.regex_to_automaton("a·b·a·b", AB),
    "canonicalize": lambda: lambda: fa.canonicalize(CHAIN),
    "project": lambda: lambda: fa.project(CHAIN, 1),
    "is_empty": lambda: lambda: fa.is_empty(CHAIN),
    "is_empty_witness": lambda: lambda: fa.is_empty_witness(CHAIN),
    "history_presentation": _history_presentation_case,
}


@pytest.mark.parametrize("name", sorted(CAPPED_CONSTRUCTIONS))
def test_the_state_cap_bounds_every_construction(name, monkeypatch):
    construct = CAPPED_CONSTRUCTIONS[name]()
    construct()  # fine under the default cap
    monkeypatch.setattr(fa, "STATE_CAP", 3)
    with pytest.raises(ResourceLimitError, match=r"exceeded the state cap \(3\)"):
        construct()


# --- serialization -------------------------------------------------------------------------

@given(relation_st)
def test_json_round_trip(rel):
    auto = oc.trie_relation(AB, 2, rel)
    back = fa.automaton_from_json(fa.automaton_to_json(auto))
    assert fa.equivalent(auto, back)


def test_automaton_or_regex_accepts_both_forms():
    via_regex = fa.automaton_or_regex("a·b*", AB)
    via_json = fa.automaton_or_regex(
        fa.automaton_to_json(fa.regex_to_automaton("a·b*", AB)), AB)
    assert fa.equivalent(via_regex, via_json)
