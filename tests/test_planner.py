import pytest

import oracles as oc
from epplan import automata as fa
from epplan.epistemic import (
    ActionModel,
    EpistemicModel,
    UpdateCache,
    apply_event,
    iterate_update,
)
from epplan.errors import FragmentError, InputError, ResourceLimitError
from epplan.logic import (
    And,
    Atom,
    Signature,
    fresh_history_var,
    hat_name,
    origin_name,
    parse_formula,
    standard_translation,
)
from epplan.planner import (
    ClassAutomaton,
    InterpClass,
    bfs_plan,
    class_quotient,
    decide_plan,
    history_presentation,
    interp_class,
    solution_automaton,
)
from epplan.presentation import (
    AutomaticPresentation,
    check_sentence,
    compile_formula,
    validate,
)

AB = fa.Alphabet(("a", "b"))
SIG = Signature((("P", 1),))


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


def run_plan(model, world, action, plan):
    """Replay a plan and report whether every precondition held."""
    cache = UpdateCache()
    interp = model.interpretations[world]
    for event in plan:
        ok, interp = apply_event(model.signature, model.alphabet, model.domain,
                                 action, cache, interp, event)
        if not ok:
            return None
    return interp


# --- interpretation classes -----------------------------------------------------

def test_interp_class_ids_depend_on_language_only():
    one = interp_class(SIG, {"P": fa.regex_to_automaton("a|a", AB)})
    two = interp_class(SIG, {"P": fa.regex_to_automaton("a", AB)})
    other = interp_class(SIG, {"P": fa.regex_to_automaton("b", AB)})
    assert one.id == two.id
    assert one.id != other.id
    assert fa.equivalent(one.automaton("P"), two.automaton("P"))


def test_class_quotient_on_the_coin():
    result = class_quotient(coin_model(), flip_or_wait())
    assert not result.cap_exceeded
    # {a}, its flip {ε,b}, and the stuck empty interpretation
    assert len(result.classes) == 3
    ca = result.automaton
    start = ca.initial["u"]
    flipped = ca.delta[(start, "flip")]
    assert ca.delta[(flipped, "flip")] == start
    assert ca.delta[(start, "wait")] == start
    assert (ca.initial["v"], "flip") not in ca.delta  # precondition fails


def test_class_quotient_matches_the_set_closure_oracle(flang, closure):
    model, action, _ = flang
    result = class_quotient(model, action)
    assert len(result.classes) == closure.count
    got_vectors = set()
    for cls in result.classes.values():
        c_rel = cls.automaton("C")
        vec = oc.atom_vector(
            lambda w: fa.accepts(c_rel, (tuple(w),)))
        got_vectors.add(vec)
    assert got_vectors == set(closure.depth_of)


def test_class_quotient_cap_is_reported_not_raised(flang):
    model, action, _ = flang
    result = class_quotient(model, action, cap=5)
    assert result.cap_exceeded
    assert len(result.classes) <= 5


def test_class_automaton_predicts_iterated_updates(flang):
    model, action, _ = flang
    ca = class_quotient(model, action).automaton
    current = model
    for depth in range(3):
        current = iterate_update(current, action, 1)
        for world in current.worlds:
            history = tuple(world.split("·"))
            cls = ca.classes[ca.state_of(history)]
            for name, _ in model.signature.predicates:
                assert fa.equivalent(current.interpretations[world][name],
                                     cls.automaton(name)), (world, name)


def test_state_of_rejects_non_histories():
    ca = class_quotient(coin_model(), flip_or_wait()).automaton
    assert ca.state_of(("v", "flip")) is None
    assert ca.state_of(("zz",)) is None
    assert ca.state_of(()) is None
    assert ca.state_of(("u", "flip", "flip", "wait")) is not None


def test_history_automaton_language():
    quotient = class_quotient(coin_model(), flip_or_wait())
    big = fa.Alphabet(("u", "v", "flip", "wait"))
    hist = quotient.automaton.history_automaton(big)
    assert fa.accepts(hist, (("u", "flip", "flip"),))
    assert fa.accepts(hist, (("v", "wait"),))
    assert not fa.accepts(hist, (("v", "flip"),))
    assert not fa.accepts(hist, (("flip",),))
    pinned = quotient.automaton.history_automaton(big, start_world="v")
    assert not fa.accepts(pinned, (("u", "wait"),))


# --- the history presentation -----------------------------------------------------

def test_history_presentation_is_valid(flang):
    model, action, _ = flang
    hp = history_presentation(model, action)
    assert validate(hp.presentation) == []


def test_history_presentation_relations(flang):
    model, action, _ = flang
    pres = history_presentation(model, action).presentation
    h = ("s", "U0")
    elem = h + ("#", "a")
    assert fa.accepts(pres.domain, (h,))
    assert fa.accepts(pres.domain, (elem,))
    assert fa.accepts(pres.relations["dom^"], (h, elem))
    assert not fa.accepts(pres.relations["dom^"], (("s",), elem))
    # C holds of a* exactly after the first union event
    assert fa.accepts(pres.relations["C^"], (h, elem))
    assert not fa.accepts(pres.relations["C^"], (("s",), ("s", "#", "a")))
    assert not fa.accepts(pres.relations["C^"], (h, h + ("#", "b")))
    # any same-length history names the copy; the first track decides
    other = ("s", "U1", "#", "a")
    assert fa.accepts(pres.relations["dom^"], (h, other))
    assert fa.accepts(pres.relations["C^"], (h, other))
    assert not fa.accepts(pres.relations["dom^"], (h, ("s", "#", "a")))
    # one reflexive agent: ep^ is the diagonal on histories
    assert fa.accepts(pres.relations["ep^a"], (h, h))
    assert not fa.accepts(pres.relations["ep^a"], (h, ("s",)))
    assert fa.accepts(pres.relations["from^s"], (h,))


def test_lifted_predicates_follow_the_class_of_every_short_history(flang):
    # P^(h, h#u) holds iff the class of h has u in P, for every history h
    # of up to four letters; the random draws refuse some histories, and
    # some of their classes differ only after several events
    import itertools
    import random

    rng = random.Random(20)
    instances = [flang[:2]]
    for _ in range(6):
        model, _ = oc.random_kripke(rng)
        instances.append((model, oc.random_pre_action(rng, model.signature,
                                                      model.alphabet)))
    for model, action in instances:
        quotient = class_quotient(model, action)
        ca = quotient.automaton
        pres = history_presentation(model, action, quotient=quotient).presentation
        elements = [u for (u,) in fa.enumerate_upto(model.domain, 3)]
        for n in range(1, 5):
            for h in itertools.product(ca.worlds + ca.events, repeat=n):
                cid = ca.state_of(h)
                assert fa.accepts(pres.domain, (h,)) == (cid is not None)
                if cid is None:
                    continue
                for name, arity in model.signature.predicates:
                    rel = ca.classes[cid].automaton(name)
                    for tup in itertools.product(elements, repeat=arity):
                        lifted = (h,) + tuple(h + ("#",) + u for u in tup)
                        assert fa.accepts(pres.relations[hat_name(name)], lifted) == \
                            fa.accepts(rel, tup), (h, name, tup)


def test_history_presentation_agrees_with_model_evaluation():
    # the two evaluation routes, iterated product update vs the one-shot
    # history structure, must call every formula the same way; the random
    # draws carry preconditions, so some histories are refused
    import random

    from epplan.epistemic import eval_foel, eval_on_presentation
    from epplan.errors import EmptyModelError
    from epplan.logic import fresh_history_var

    rng, draw = random.Random(7), random.Random(3)
    instances = [(coin_model(), flip_or_wait(), 10)]
    for _ in range(4):
        model, _ = oc.random_kripke(draw, max_worlds=2)
        action = oc.random_pre_action(draw, model.signature, model.alphabet)
        action.access = {agent: frozenset((e, e) for e in action.events)
                         for agent in model.agents}
        instances.append((model, action, 3))
    for model, action, formulas in instances:
        hp = history_presentation(model, action)
        current = model
        for depth in range(3):
            for _ in range(formulas):
                phi = oc.random_foel(rng, model.signature, model.agents, modal_depth=3)
                for world in current.worlds:
                    history = tuple(world.split("·"))
                    var = fresh_history_var(phi)
                    direct = eval_foel(current, world, phi)
                    lifted = eval_on_presentation(hp.presentation, phi, var,
                                                  {var: history})
                    assert direct == lifted, (world, str(phi))
            try:
                current = iterate_update(current, action, 1)
            except EmptyModelError:
                break


def test_history_presentation_cap(flang):
    model, action, _ = flang
    with pytest.raises(ResourceLimitError):
        history_presentation(model, action, cap=5)


# --- planning -------------------------------------------------------------------

def test_decide_plan_finds_the_minimal_plan(flang, closure):
    model, action, goal = flang
    result = decide_plan(model, "s", action, goal)
    assert result.answer == "yes"
    assert result.depth == len(result.plan) == 3
    target = oc.atom_vector(oc.member_target)
    assert result.depth == closure.depth_of[target]
    final = run_plan(model, "s", action, result.plan)
    pres = AutomaticPresentation(model.signature, model.alphabet,
                                 model.domain, final)
    assert check_sentence(pres, goal)


def test_decide_plan_negative_instance():
    from epplan.cli import build_language_demo
    model, action, goal = build_language_demo(["a*", "b*"], "a*·b")
    result = decide_plan(model, "s", action, goal)
    assert result.answer == "no"
    assert result.plan is None and result.depth is None
    assert result.classes == 12


def test_decide_plan_rejects_the_general_fragment(flang_concat):
    model, action, goal = flang_concat
    with pytest.raises(FragmentError):
        decide_plan(model, "s", action, goal)
    quantified = ActionModel(
        ("e",), {}, {},
        {"e": {"P": parse_formula("exists y. P(y)", SIG)}})
    with pytest.raises(FragmentError):
        decide_plan(coin_model(), "u", quantified,
                    parse_formula("exists x. P(x)", SIG))


def test_decide_plan_respects_the_class_cap(flang):
    model, action, goal = flang
    with pytest.raises(ResourceLimitError):
        decide_plan(model, "s", action, goal, cap=3)


def test_decide_plan_handles_modal_goals():
    model, action = coin_model(), flip_or_wait()
    goal = parse_formula("K[i] exists x. P(x)", SIG)
    result = decide_plan(model, "u", action, goal)
    assert result.answer == "yes"
    assert result.plan == ("flip",)


def test_bfs_plan_agrees_on_flang(flang):
    model, action, goal = flang
    result = bfs_plan(model, "s", action, goal, max_depth=5)
    assert result.answer == "yes" and result.depth == 3
    final = run_plan(model, "s", action, result.plan)
    pres = AutomaticPresentation(model.signature, model.alphabet,
                                 model.domain, final)
    assert check_sentence(pres, goal)


def test_bfs_plan_cannot_prove_absence():
    from epplan.cli import build_language_demo
    model, action, goal = build_language_demo(["a*", "b*"], "a*·b")
    result = bfs_plan(model, "s", action, goal, max_depth=10)
    assert result.answer == "unknown"


def test_bfs_plan_reports_the_depth_where_its_frontier_closes():
    from epplan.cli import build_language_demo
    model, action, goal = build_language_demo(["a*", "b*"], "a*·b")
    closed = bfs_plan(model, "s", action, goal, max_depth=10)
    assert closed.answer == "unknown"
    assert closed.stats == {"visited_classes": 12, "levels": 4}
    # one level short of closing, the bound is the depth reached
    cut = bfs_plan(model, "s", action, goal, max_depth=3)
    assert cut.stats["levels"] == 3 and cut.stats["visited_classes"] < 12
    # the modal walk likewise: one event that can happen once
    once = ActionModel(events=("clear",), access={"i": frozenset({("clear", "clear")})},
                       pre={"clear": parse_formula("exists x. P(x)", SIG)},
                       post={"clear": {"P": parse_formula("false", SIG)}})
    modal = bfs_plan(coin_model(), "u", once, parse_formula("K[i] false", SIG), 5)
    assert modal.stats == {"visited_histories": 2, "levels": 1}


def test_bfs_plan_handles_native_events(flang_concat):
    model, action, goal = flang_concat
    result = bfs_plan(model, "s", action, goal, max_depth=5)
    assert result.answer == "yes"
    assert result.plan == ("U0", "U1", "CP", "concat2")


def test_bfs_plan_modal_goal_path():
    model, action = coin_model(), flip_or_wait()
    goal = parse_formula("K[i] exists x. P(x)", SIG)
    result = bfs_plan(model, "u", action, goal, max_depth=3)
    assert result.answer == "yes"
    assert result.plan == ("flip",)
    nothing = parse_formula("K[i] false", SIG)
    assert bfs_plan(model, "u", action, nothing, max_depth=2).answer == "unknown"


def test_decide_and_bfs_agree_on_random_quantifier_free_instances():
    # the second draw adds non-modal preconditions, so refused histories
    # exercise the valid-history DFA of the history presentation
    import random
    for seed, random_action in ((131, oc.random_qf_action), (2024, oc.random_pre_action)):
        rng = random.Random(seed)
        for _ in range(25):
            model, _ = oc.random_kripke(rng)
            action = random_action(rng, model.signature, model.alphabet)
            action = ActionModel(
                events=action.events,
                access={agent: frozenset((e, e) for e in action.events)
                        for agent in model.agents},
                pre=action.pre,
                post=action.post,
            )
            goal = oc.random_foel(rng, model.signature, model.agents, modal_depth=1)
            world = model.worlds[0]
            quick = bfs_plan(model, world, action, goal, max_depth=3)
            settled = decide_plan(model, world, action, goal)
            if quick.answer == "yes":
                assert settled.answer == "yes"
                assert settled.depth == quick.depth
                assert settled.plan == quick.plan
            elif settled.answer == "no":
                assert quick.answer == "unknown"
            else:
                # a plan exists but only beyond the search horizon
                assert settled.depth > 3


def test_plan_inputs_are_validated(flang):
    model, action, goal = flang
    with pytest.raises(InputError):
        decide_plan(model, "zz", action, goal)
    open_goal = parse_formula("C(x)", model.signature)
    with pytest.raises(InputError):
        bfs_plan(model, "s", action, open_goal, max_depth=2)


def test_plan_result_to_json(flang):
    model, action, goal = flang
    obj = decide_plan(model, "s", action, goal).to_json()
    assert obj["answer"] == "yes"
    assert obj["plan"] == ["U0", "U1", "CP"]
    assert obj["depth"] == 3
    assert obj["classes"] == 12


# --- the automaton of all solutions -------------------------------------------------

def test_solution_automaton_matches_enumeration(flang, closure):
    model, action, goal = flang
    sol = solution_automaton(model, "s", action, goal)
    got = {w for (w,) in fa.enumerate_upto(sol, 5)}
    target = oc.atom_vector(oc.member_target)
    want = {("s",) + seq for seq in closure.plans_to.get(target, [])
            if len(seq) <= 4}
    assert got == want
    assert min(got, key=lambda w: (len(w), w)) == ("s", "U0", "U1", "CP")


def _compiled_solutions(model, world, action, goal):
    """The solutions of ``goal`` compiled from its standard translation over
    the history presentation, re-homed onto the world/event letters."""
    hp = history_presentation(model, action)
    y = fresh_history_var(goal)
    query = And(standard_translation(goal, y), Atom(origin_name(world), (y,)))
    compiled = fa.trim(compile_formula(hp.presentation, query, (y,)))
    return fa.Automaton(1, fa.Alphabet(model.worlds + action.events), compiled.states,
                        compiled.initial, compiled.accepting, compiled.transitions)


def test_non_modal_solutions_match_the_compiled_standard_translation():
    import random

    from epplan.cli import build_language_demo

    instances = [build_language_demo(["a*", "b*"], "(a|b)*·(a·b|b·a)·(a|b)*"),
                 build_language_demo(["a·a*", "b*", "a·b"], "a·b")]
    instances = [(model, model.worlds[0], action, goal)
                 for model, action, goal in instances]
    rng = random.Random(2205)
    for _ in range(12):
        model, _ = oc.random_kripke(rng, max_worlds=2)
        action = oc.random_qf_action(rng, model.signature, model.alphabet)
        goal = oc.random_foel(rng, model.signature, model.agents, modal_depth=0)
        instances.append((model, rng.choice(model.worlds), action, goal))
    for model, world, action, goal in instances:
        fast = solution_automaton(model, world, action, goal)
        slow = _compiled_solutions(model, world, action, goal)
        assert fa.equivalent(fast, slow), (world, str(goal))


def test_solution_automaton_alphabet_is_worlds_and_events(flang):
    model, action, goal = flang
    sol = solution_automaton(model, "s", action, goal)
    assert set(sol.alphabet.letters) == {"s", "U0", "U1", "CP"}
    assert sol.tracks == 1
