"""Planning over repeated applications of one action model.

A history is a start world followed by events whose preconditions all
held along the way.  Interpretations evolve deterministically with the
events, so histories fall into finitely many interpretation classes
whenever the postconditions are quantifier-free.  The class automaton
reads a history and lands in its class.  A non-modal goal sees only a
history's own interpretation, so its solutions are the histories whose
class satisfies it: one sentence check per class, then the class
automaton with those classes accepting.  Modal goals also see the
indistinguishable histories; for them the set of histories becomes an
automatic presentation, the goal compiles to an automaton via the
standard translation, and planning reduces to emptiness either way.
That presentation comes from the one history-structure builder,
``epistemic.history_structure``, run over the class automaton: element
tracks walk the minimal DFA of valid histories, and only the first track
of a lifted predicate walks the classes, coarsened to those that agree
on that predicate after every event sequence.

For goals or actions outside that fragment, ``bfs_plan`` searches the
history tree level by level instead: sound, never claiming "no".  A modal
goal is compiled once per level, over that level's updated model with
the history variable free, and each history is a membership test.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from . import automata as fa
from .errors import EmptyModelError, FragmentError, InputError, ResourceLimitError
from .logic import (
    And,
    Atom,
    Formula,
    Signature,
    check_nesting,
    fresh_history_var,
    origin_name,
    standard_translation,
    validate_against,
)
from .presentation import AutomaticPresentation, check_sentence, compile_formula
from .epistemic import (
    ActionModel,
    EpistemicModel,
    UpdateCache,
    WORLD_SEP,
    apply_event,
    history_structure,
    model_presentation,
    product_update,
)

# Quotient computation refuses to collect more classes than this unless
# told otherwise; with quantifier-free posts it always stops on its own.
DEFAULT_CLASS_CAP = 10_000


@dataclass(frozen=True)
class InterpClass:
    """An interpretation up to language equality.

    Members are canonical automata in signature order, so structural
    equality of two values coincides with per-predicate language
    equality, and the value is hashable.
    """

    predicates: tuple[tuple[str, fa.Automaton], ...]

    @property
    def id(self) -> str:
        digest = hashlib.sha1(
            repr(tuple(fa.fingerprint(a) for _, a in self.predicates)).encode()
        )
        return digest.hexdigest()[:12]

    def automaton(self, name: str) -> fa.Automaton:
        for n, a in self.predicates:
            if n == name:
                return a
        raise InputError(f"class has no predicate {name!r}")

    def as_interpretation(self) -> dict[str, fa.Automaton]:
        return dict(self.predicates)


def interp_class(signature: Signature, interp: dict[str, fa.Automaton],
                 cache: UpdateCache | None = None) -> InterpClass:
    """Canonicalize an interpretation into its class value."""
    cache = cache or UpdateCache()
    return InterpClass(
        tuple((name, cache.canon(interp[name])) for name, _ in signature.predicates)
    )


def apply_event_to_class(cls: InterpClass, event: str, action: ActionModel,
                         signature: Signature, alphabet: fa.Alphabet,
                         domain: fa.Automaton,
                         cache: UpdateCache | None = None) -> InterpClass | None:
    """The class reached by one more event, or None when the precondition
    fails there.  Well defined because preconditions and postconditions
    only see the languages."""
    cache = cache or UpdateCache()
    survives, updated = apply_event(signature, alphabet, domain, action, cache,
                                    cls.as_interpretation(), event)
    if not survives:
        return None
    return interp_class(signature, updated, cache)


@dataclass
class ClassAutomaton:
    """Deterministic map from histories to interpretation classes.

    Reading a history from the start symbol: the first letter must be a
    world and moves to that world's class; each event letter moves along
    ``delta`` when applicable.  A missing ``delta`` entry means the
    precondition fails there, i.e. no extension is a history.
    """

    worlds: tuple[str, ...]
    events: tuple[str, ...]
    initial: dict[str, str]
    delta: dict[tuple[str, str], str]
    classes: dict[str, InterpClass]

    def state_of(self, history: tuple[str, ...]) -> str | None:
        """Class id of a history; None when it is not a history at all."""
        if not history or history[0] not in self.initial:
            return None
        current = self.initial[history[0]]
        for event in history[1:]:
            nxt = self.delta.get((current, event))
            if nxt is None:
                return None
            current = nxt
        return current

    def reachable(self, world: str) -> set[str]:
        """Ids of the classes that some history from ``world`` lands in."""
        succ: dict[str, set[str]] = {}
        for (cid, _), nxt in self.delta.items():
            succ.setdefault(cid, set()).add(nxt)
        return fa._closure({self.initial[world]}, succ)

    def history_automaton(self, alphabet: fa.Alphabet,
                          start_world: str | None = None,
                          final_ids: frozenset[str] | None = None) -> fa.Automaton:
        """One-track automaton accepting the histories whose class lies in
        ``final_ids`` (all classes by default), optionally pinned to one
        start world."""
        bld = fa._Builder(alphabet, 1)
        START = "i"
        bld.state(START)
        worlds = (start_world,) if start_world is not None else self.worlds
        for w in worlds:
            bld.edge(START, (w,), ("c", self.initial[w]))
        for (cid, event), nxt in self.delta.items():
            bld.edge(("c", cid), (event,), ("c", nxt))
        finals = final_ids if final_ids is not None else frozenset(self.classes)
        return bld.trimmed([START], [("c", cid) for cid in finals])


@dataclass
class QuotientResult:
    classes: dict[str, InterpClass]
    automaton: ClassAutomaton
    cap_exceeded: bool
    stats: dict = field(default_factory=dict)


def class_quotient(model: EpistemicModel, action: ActionModel,
                   cap: int = DEFAULT_CLASS_CAP,
                   cache: UpdateCache | None = None) -> QuotientResult:
    """Close the world classes under the events of the action model.

    With quantifier-free postconditions the closure is finite and the
    cap is never reached.  Otherwise the cap stops the expansion and the
    result is marked ``cap_exceeded`` (a partial automaton, not an
    error: callers decide whether partial is useful).
    """
    action.check_against(model.signature)
    cache = cache or UpdateCache()
    classes: dict[str, InterpClass] = {}
    initial: dict[str, str] = {}
    delta: dict[tuple[str, str], str] = {}
    frontier: deque[InterpClass] = deque()
    cap_exceeded = False

    def register(cls: InterpClass) -> str | None:
        cid = cls.id
        if cid not in classes:
            nonlocal cap_exceeded
            if len(classes) >= cap:
                cap_exceeded = True
                return None
            classes[cid] = cls
            frontier.append(cls)
        return cid

    for w in model.worlds:
        cid = register(interp_class(model.signature, model.interpretations[w], cache))
        if cid is None:
            break
        initial[w] = cid
    applications = 0
    while frontier and not cap_exceeded:
        cls = frontier.popleft()
        for event in action.events:
            nxt = apply_event_to_class(cls, event, action, model.signature,
                                       model.alphabet, model.domain, cache)
            applications += 1
            if nxt is None:
                continue
            nid = register(nxt)
            if nid is None:
                break
            delta[(cls.id, event)] = nid
    automaton = ClassAutomaton(model.worlds, action.events, initial, delta, classes)
    return QuotientResult(classes, automaton, cap_exceeded,
                          stats={"classes": len(classes), "applications": applications})


@dataclass
class HistoryPresentation:
    """The history structure of a model/action pair, as automata (see
    ``epistemic.history_structure``)."""

    presentation: AutomaticPresentation


def _closed_quotient(model: EpistemicModel, action: ActionModel, cap: int,
                     quotient: QuotientResult | None) -> QuotientResult:
    """The given quotient, or a fresh one; either must have closed under the cap."""
    if quotient is None:
        quotient = class_quotient(model, action, cap=cap)
    if quotient.cap_exceeded:
        raise ResourceLimitError(
            f"interpretation classes exceeded the cap ({cap}); "
            "the history structure is not finitely presented this way"
        )
    return quotient


def history_presentation(model: EpistemicModel, action: ActionModel,
                         cap: int = DEFAULT_CLASS_CAP,
                         quotient: QuotientResult | None = None) -> HistoryPresentation:
    """Automatic presentation of all histories and their tagged elements,
    built over the class automaton.

    Raises ResourceLimitError when the quotient did not close under the
    cap, since only a finite quotient yields finite automata.
    """
    ca = _closed_quotient(model, action, cap, quotient).automaton
    classes = {cid: cls.as_interpretation() for cid, cls in ca.classes.items()}
    return HistoryPresentation(history_structure(
        model, action.events, action.access, ca.initial, ca.delta, classes))


def _history_letters_only(a: fa.Automaton, letters: tuple[str, ...]) -> fa.Automaton:
    """Re-home a one-track automaton onto the world/event alphabet.

    After trimming, every edge lies on some accepted word; solution
    languages contain histories only, so re-validation against the small
    alphabet fails loudly if a stray letter ever survives.
    """
    return fa._trimmed(fa.Alphabet(letters), 1, a.initial, a.accepting, a.transitions)


def _class_satisfies(model: EpistemicModel, cls: InterpClass, goal: Formula) -> bool:
    """Whether a non-modal sentence holds under the interpretation ``cls``,
    which is its truth at every history of that class."""
    pres = AutomaticPresentation(model.signature, model.alphabet,
                                 model.domain, cls.as_interpretation())
    return check_sentence(pres, goal)


def solution_automaton(model: EpistemicModel, world: str, action: ActionModel,
                       goal: Formula, cap: int = DEFAULT_CLASS_CAP,
                       quotient: QuotientResult | None = None) -> fa.Automaton:
    """Automaton over world/event letters accepting exactly the histories
    from ``world`` at which the goal holds.

    A non-modal goal is checked once per interpretation class reachable
    from ``world`` and the class automaton accepts the good classes.  A
    modal goal compiles over the history presentation.  Either way the
    quotient, given or computed here, must close under ``cap``.
    """
    if world not in model.worlds:
        raise InputError(f"unknown world {world!r}")
    info = validate_against(goal, model.signature)
    check_nesting(info)
    if not info.closed:
        raise InputError("a planning goal must be a closed formula")
    quotient = _closed_quotient(model, action, cap, quotient)
    letters = model.worlds + action.events
    if not info.modal:
        good = frozenset(cid for cid in quotient.automaton.reachable(world)
                         if _class_satisfies(model, quotient.classes[cid], goal))
        return quotient.automaton.history_automaton(
            fa.Alphabet(letters), start_world=world, final_ids=good)
    hp = history_presentation(model, action, cap=cap, quotient=quotient)
    y = fresh_history_var(goal)
    query = And(standard_translation(goal, y), Atom(origin_name(world), (y,)))
    compiled = compile_formula(hp.presentation, query, (y,))
    return _history_letters_only(compiled, letters)


@dataclass
class PlanResult:
    """Outcome of a planning call; ``plan`` is the event sequence (the
    start world stripped) when the answer is yes."""

    answer: str
    plan: tuple[str, ...] | None
    depth: int | None
    classes: int | None
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "answer": self.answer,
            "plan": list(self.plan) if self.plan is not None else None,
            "depth": self.depth,
            "classes": self.classes,
            "stats": self.stats,
        }


def _require_decidable_fragment(action: ActionModel):
    if not action.is_quantifier_free():
        raise FragmentError(
            "the decision procedure needs quantifier-free postconditions "
            "without native rewrites; use bfs_plan for the general case"
        )


def decide_plan(model: EpistemicModel, world: str, action: ActionModel,
                goal: Formula, cap: int = DEFAULT_CLASS_CAP) -> PlanResult:
    """Decide plan existence and return the length-lex minimal plan.

    Complete for quantifier-free postconditions; anything else raises a
    fragment error instead of risking a wrong answer.
    """
    action.check_against(model.signature)
    _require_decidable_fragment(action)
    quotient = class_quotient(model, action, cap=cap)
    sol = solution_automaton(model, world, action, goal, cap=cap, quotient=quotient)
    witness = fa.is_empty_witness(sol)
    classes = len(quotient.classes)
    stats = dict(quotient.stats)
    stats["solution_states"] = sol.states
    if witness is None:
        return PlanResult("no", None, None, classes, stats)
    history = witness[0]
    plan = history[1:]
    return PlanResult("yes", plan, len(plan), classes, stats)


def bfs_plan(model: EpistemicModel, world: str, action: ActionModel,
             goal: Formula, max_depth: int,
             cap: int = DEFAULT_CLASS_CAP) -> PlanResult:
    """Search histories from ``world`` level by level, length-lex within
    each level.  Sound for every expressible goal and action; answers
    yes with the minimal plan or unknown at the depth bound, never no.

    Non-modal goals only see the history's own interpretation, so the
    walk runs on interpretation classes with one truth check per class.
    Modal goals need the surrounding histories: the standard translation
    compiles once per level over that level's updated model, and each
    history of the level is tested for membership.
    """
    if world not in model.worlds:
        raise InputError(f"unknown world {world!r}")
    if max_depth < 0:
        raise InputError("max_depth must be >= 0")
    action.check_against(model.signature)
    info = validate_against(goal, model.signature)
    check_nesting(info)
    if not info.closed:
        raise InputError("a planning goal must be a closed formula")
    if info.modal:
        return _bfs_modal(model, world, action, goal, max_depth)
    return _bfs_classes(model, world, action, goal, max_depth)


def _bfs_classes(model: EpistemicModel, world: str, action: ActionModel,
                 goal: Formula, max_depth: int) -> PlanResult:
    cache = UpdateCache()
    start = interp_class(model.signature, model.interpretations[world], cache)
    # pruning same-class histories keeps the first (length-lex least)
    # representative, so the first hit is still the minimal plan
    seen = {start}
    level: list[tuple[tuple[str, ...], InterpClass]] = [((), start)]
    for depth in range(max_depth + 1):
        for plan, cls in level:
            if _class_satisfies(model, cls, goal):
                return PlanResult("yes", plan, len(plan), len(seen),
                                  {"visited_classes": len(seen), "levels": depth})
        if depth == max_depth:
            break
        nxt: list[tuple[tuple[str, ...], InterpClass]] = []
        for plan, cls in level:
            for event in action.events:
                out = apply_event_to_class(cls, event, action, model.signature,
                                           model.alphabet, model.domain, cache)
                if out is None or out in seen:
                    continue
                seen.add(out)
                nxt.append((plan + (event,), out))
        if not nxt:
            break
        level = nxt
    return PlanResult("unknown", None, None, len(seen),
                      {"visited_classes": len(seen), "levels": depth})


def _bfs_modal(model: EpistemicModel, world: str, action: ActionModel,
               goal: Formula, max_depth: int) -> PlanResult:
    cache = UpdateCache()
    y = fresh_history_var(goal)
    current = model
    # histories tracked structurally: world names after an update are
    # joined strings, which would be ambiguous to split
    level: list[tuple[tuple[str, ...], str]] = [((), world)]
    visited = 1
    translated = standard_translation(goal, y)
    for depth in range(max_depth + 1):
        holds = compile_formula(model_presentation(current), translated, (y,))
        for plan, name in level:
            if fa.accepts(holds, ((name,),)):
                return PlanResult("yes", plan, len(plan), None,
                                  {"visited_histories": visited, "levels": depth})
        if depth == max_depth:
            break
        try:
            current = product_update(current, action, cache)
        except EmptyModelError:
            break
        alive = set(current.worlds)
        nxt = []
        for plan, name in level:
            for event in action.events:
                child = f"{name}{WORLD_SEP}{event}"
                if child in alive:
                    nxt.append((plan + (event,), child))
                    visited += 1
        if not nxt:
            break
        level = nxt
    return PlanResult("unknown", None, None, None,
                      {"visited_histories": visited, "levels": depth})
