"""Epistemic models over a shared automatic domain, action models, and
the product update.

Every world carries its own interpretation of the signature while the
domain stays fixed, so an update only rewrites predicate automata.
Postconditions are non-modal formulas over designated variables
``x1..xk``; concatenation-style rewrites that first-order posts cannot
express are attached as native transformers per (event, predicate).

One builder, ``history_structure``, presents the histories over any
deterministic class map as automata.  ``model_presentation`` is its
event-free case, each world its own class; ``planner.history_presentation``
passes the class automaton.  Element tracks, ``ep^`` and ``dom^`` walk the
minimal DFA of valid histories; the first track of a lifted predicate
``P^`` walks the class map coarsened to the classes that agree on ``P``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import automata as fa
from .errors import (
    EmptyModelError,
    FragmentError,
    InputError,
    TrackMismatchError,
)
from .logic import (
    Atom,
    Formula,
    Signature,
    check_nesting,
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
    DOM_NAME,
)
from .presentation import (
    AutomaticPresentation,
    check_sentence,
    compile_formula,
    defined_relation,
)

WORLD_SEP = "·"  # joins world and event names after an update


def post_variables(arity: int) -> tuple[str, ...]:
    """The designated variables a postcondition for a k-ary predicate may use."""
    return tuple(f"x{i}" for i in range(1, arity + 1))


def identity_post(predicate: str, arity: int) -> Formula:
    return Atom(predicate, post_variables(arity))


@dataclass(frozen=True)
class NativeTransformer:
    """A built-in regular rewrite for one unary predicate.

    ``op`` is ``concat-right`` or ``concat-left``; ``generator`` is the
    one-track language glued onto the predicate.  ``source`` keeps the
    regex a JSON file used, so dumps reproduce their input.
    """

    op: str
    generator: fa.Automaton
    source: str | None = None

    def __post_init__(self):
        if self.op not in ("concat-right", "concat-left"):
            raise InputError(f"unknown native op {self.op!r}")
        if self.generator.tracks != 1:
            raise TrackMismatchError("native generators must be one-track automata")

    def apply(self, relation: fa.Automaton) -> fa.Automaton:
        if relation.tracks != 1:
            raise FragmentError("native transformers apply to unary predicates only")
        if self.op == "concat-right":
            return fa.concatenate(relation, self.generator)
        return fa.concatenate(self.generator, relation)


@dataclass
class EpistemicModel:
    """Finitely many worlds, per-agent accessibility, per-world relations."""

    agents: tuple[str, ...]
    worlds: tuple[str, ...]
    access: dict[str, frozenset[tuple[str, str]]]
    signature: Signature
    alphabet: fa.Alphabet
    domain: fa.Automaton
    interpretations: dict[str, dict[str, fa.Automaton]]

    def __post_init__(self):
        if not self.worlds:
            raise EmptyModelError("a model needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise InputError("duplicate world names")
        known = set(self.worlds)
        for agent in self.agents:
            for w, v in self.access.get(agent, frozenset()):
                if w not in known or v not in known:
                    raise InputError(f"accessibility of {agent!r} mentions unknown worlds")
        for w in self.worlds:
            if w not in self.interpretations:
                raise InputError(f"world {w!r} has no interpretation")

    def presentation_at(self, world: str) -> AutomaticPresentation:
        return AutomaticPresentation(
            self.signature, self.alphabet, self.domain, self.interpretations[world]
        )

    def validate(self):
        from .presentation import validate as validate_presentation

        issues = []
        for w in self.worlds:
            for diag in validate_presentation(self.presentation_at(w)):
                issues.append((w, diag))
        return issues


@dataclass
class ActionModel:
    """Events with closed non-modal preconditions and per-predicate posts."""

    events: tuple[str, ...]
    access: dict[str, frozenset[tuple[str, str]]]
    pre: dict[str, Formula]
    post: dict[str, dict[str, Formula]]
    native: dict[str, dict[str, NativeTransformer]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.events:
            raise InputError("an action model needs at least one event")
        if len(set(self.events)) != len(self.events):
            raise InputError("duplicate event names")
        for e in self.events:
            self.pre.setdefault(e, None)
            self.post.setdefault(e, {})

    def check_against(self, signature: Signature):
        """Validate formulas and fragments relative to a model signature."""
        for e in self.events:
            pre = self.pre.get(e)
            if pre is not None:
                info = validate_against(pre, signature)
                if info.modal:
                    raise FragmentError(f"precondition of {e!r} is modal")
                if not info.closed:
                    raise FragmentError(f"precondition of {e!r} has free variables")
            for p, phi in self.post.get(e, {}).items():
                if p not in signature:
                    raise InputError(f"post of {e!r} rewrites unknown predicate {p!r}")
                info = validate_against(phi, signature)
                if info.modal:
                    raise FragmentError(f"post of {e!r} for {p!r} is modal")
                allowed = set(post_variables(signature.arity(p)))
                stray = [v for v in info.free_vars if v not in allowed]
                if stray:
                    raise InputError(
                        f"post of {e!r} for {p!r} uses variables {stray} outside x1..xk"
                    )
            for p, nt in self.native.get(e, {}).items():
                if p not in signature:
                    raise InputError(f"native rewrite targets unknown predicate {p!r}")
                if signature.arity(p) != 1:
                    raise FragmentError("native transformers apply to unary predicates only")

    def is_quantifier_free(self) -> bool:
        """True when every post is quantifier-free and nothing is native."""
        if any(self.native.get(e) for e in self.events):
            return False
        return all(
            classify(phi).quantifier_free
            for e in self.events
            for phi in self.post.get(e, {}).values()
        )


class UpdateCache:
    """Memoizes per-(interpretation, event) work across update steps.

    Interpretations are keyed by the canonical forms of their predicate
    automata, so worlds whose relations define equal languages share one
    computation.
    """

    def __init__(self):
        self.canonical: dict[fa.Automaton, fa.Automaton] = {}
        self.outcomes: dict[tuple, tuple[bool, dict[str, fa.Automaton] | None]] = {}

    def canon(self, a: fa.Automaton) -> fa.Automaton:
        hit = self.canonical.get(a)
        if hit is None:
            hit = fa.canonicalize(a)
            self.canonical[a] = hit
            self.canonical[hit] = hit
        return hit

    def interp_key(self, signature: Signature, interp: dict[str, fa.Automaton]) -> tuple:
        return tuple(self.canon(interp[name]) for name, _ in signature.predicates)


def apply_event(signature: Signature, alphabet: fa.Alphabet, domain: fa.Automaton,
                action: ActionModel, cache: UpdateCache,
                interp: dict[str, fa.Automaton], event: str
                ) -> tuple[bool, dict[str, fa.Automaton] | None]:
    """Evaluate the precondition and rewrite one interpretation.

    Results are memoized by the canonical forms of the input relations,
    so language-equal interpretations share one computation.
    """
    key = (cache.interp_key(signature, interp), event)
    hit = cache.outcomes.get(key)
    if hit is not None:
        return hit
    pres = AutomaticPresentation(signature, alphabet, domain, interp)
    pre = action.pre.get(event)
    if pre is not None and not check_sentence(pres, pre):
        cache.outcomes[key] = (False, None)
        return False, None
    native = action.native.get(event, {})
    posts = action.post.get(event, {})
    updated: dict[str, fa.Automaton] = {}
    for name, arity in signature.predicates:
        if name in native:
            updated[name] = cache.canon(native[name].apply(interp[name]))
        else:
            phi = posts.get(name)
            if phi is None:
                updated[name] = interp[name]  # identity post
            else:
                rewritten = defined_relation(pres, phi, post_variables(arity))
                updated[name] = cache.canon(rewritten)
    cache.outcomes[key] = (True, updated)
    return True, updated


def product_update(model: EpistemicModel, action: ActionModel,
                   cache: UpdateCache | None = None) -> EpistemicModel:
    """The updated model: surviving (world, event) pairs, componentwise access."""
    action.check_against(model.signature)
    cache = cache or UpdateCache()
    worlds: list[str] = []
    interps: dict[str, dict[str, fa.Automaton]] = {}
    for w in model.worlds:
        for e in action.events:
            survives, updated = apply_event(model.signature, model.alphabet,
                                            model.domain, action, cache,
                                            model.interpretations[w], e)
            if survives:
                name = f"{w}{WORLD_SEP}{e}"
                worlds.append(name)
                interps[name] = updated
    if not worlds:
        raise EmptyModelError("no world survived the update")
    alive = set(worlds)
    access: dict[str, frozenset[tuple[str, str]]] = {}
    for agent in model.agents:
        world_pairs = model.access.get(agent, frozenset())
        event_pairs = action.access.get(agent, frozenset())
        access[agent] = frozenset(
            (f"{w1}{WORLD_SEP}{e1}", f"{w2}{WORLD_SEP}{e2}")
            for w1, w2 in world_pairs
            for e1, e2 in event_pairs
            if f"{w1}{WORLD_SEP}{e1}" in alive and f"{w2}{WORLD_SEP}{e2}" in alive
        )
    return EpistemicModel(
        agents=model.agents,
        worlds=tuple(worlds),
        access=access,
        signature=model.signature,
        alphabet=model.alphabet,
        domain=model.domain,
        interpretations=interps,
    )


def iterate_update(model: EpistemicModel, action: ActionModel, steps: int) -> EpistemicModel:
    """Apply the same action ``steps`` times, sharing one memo cache."""
    if steps < 0:
        raise InputError("step count must be >= 0")
    cache = UpdateCache()
    current = model
    for _ in range(steps):
        current = product_update(current, action, cache)
    return current


# --- the history structure as an automatic presentation -------------------

_START = -1  # the walkers' state before the world letter


def _blocks(classes, events: tuple[str, ...], delta: dict[tuple[str, str], str],
            key) -> dict[str, int]:
    """Coarsest partition of ``classes`` that separates classes of unequal
    ``key`` and is stable under every event, a missing move counting as
    its own outcome (Moore refinement).  Maps each class to a block id."""
    block = {c: key(c) for c in classes}
    count = len(set(block.values()))
    while True:
        ids: dict = {}
        refined = {c: ids.setdefault(
            (block[c],) + tuple(block.get(delta.get((c, e))) for e in events), len(ids))
            for c in classes}
        if len(ids) == count:
            return refined
        block, count = refined, len(ids)


def _walker(initial: dict[str, str], delta: dict[tuple[str, str], str],
            block: dict[str, int]) -> dict[int, dict[int, dict[str, None]]]:
    """The class map read through ``block``: state -> next state -> the
    letters that move there (an ordered set), from ``_START`` by world
    letters, then by event letters."""
    out: dict = {_START: {}}
    for w, c in initial.items():
        out[_START].setdefault(block[c], {})[w] = None
    for (c, e), d in delta.items():
        out.setdefault(block[c], {}).setdefault(block[d], {})[e] = None
    return out


def _spine(bld: fa._Builder, walkers: list, allowed=None) -> set:
    """Edges reading one history per track, all of the same length, each
    track on its own walker; ``allowed``, when given, filters the labels.
    Returns the states reached after the start."""
    def moves(state):
        rows = [walker.get(q, {}).items() for walker, q in zip(walkers, state)]
        for combo in itertools.product(*rows):
            nxt, letters = zip(*combo)
            for label in itertools.product(*letters):
                if allowed is None or label in allowed:
                    yield label, nxt

    start = (_START,) * len(walkers)
    # added key by key in numbering order: the tails are grouped in the
    # set's order, and a bulk copy of the keys would size it differently
    spine = set(iter(bld.explore([start], moves)))
    spine.discard(start)
    return spine


def _tail(bld: fa._Builder, sources, prefix: tuple, rel: fa.Automaton, tag) -> list:
    """Edges from each source into one copy of ``rel`` read behind the
    separator, the spine tracks padded by ``prefix``; returns its
    accepting states."""
    for s in sources:
        for i in rel.initial:
            bld.edge(s, prefix + ("#",) * rel.tracks, (tag, i))
    for s, lab, d in rel.transitions:
        bld.edge((tag, s), prefix + lab, (tag, d))
    return [(tag, q) for q in rel.accepting]


def history_structure(model: EpistemicModel, events: tuple[str, ...],
                      event_access: dict[str, frozenset[tuple[str, str]]],
                      initial: dict[str, str], delta: dict[tuple[str, str], str],
                      classes: dict[str, dict[str, fa.Automaton]]
                      ) -> AutomaticPresentation:
    """The history structure over a deterministic class map, as automata.

    A history is a world letter followed by event letters.  ``initial``
    gives each world's class, ``delta`` moves a class along an event (a
    missing entry: the precondition fails there), and ``classes`` gives
    each class's interpretation as automata.  Classes share a tail copy
    of a relation only when their automata for it are structurally equal,
    so canonical automata share the most, but any automata are sound.
    Universe words are histories ``h`` and tagged elements ``h # u``; the
    alphabet lists world letters, event letters, ``#``, then the domain
    letters.

    Each track walks only what it needs to know.  Element tracks, the
    ``ep^`` tracks and both ``dom^`` tracks only need to be histories,
    so they walk the minimal DFA of valid histories, a single state after
    the start when nothing is ever refused.  The first track of ``P^``
    picks the interpretation, so it walks the class map coarsened to the
    classes that agree on ``P`` now and after every event sequence.
    Element tracks accept every equally long history's copy of a domain
    word: without this, an element bound at one history would fail the
    dom-guards after crossing a knowledge operator.
    """
    letters = model.worlds + events + ("#",) + model.alphabet.letters
    if len(set(letters)) != len(letters):
        raise InputError("world, event, domain letters and '#' must all differ")
    if fa.PAD in letters:
        raise InputError(f"{fa.PAD!r} is reserved for padding")
    big = fa.Alphabet(letters)
    hist_sig = history_signature(model.signature, model.agents, model.worlds)
    valid = _walker(initial, delta, _blocks(classes, events, delta, lambda c: 0))
    domain = model.domain
    relations: dict[str, fa.Automaton] = {}

    bld = fa._Builder(big, 1)
    spine = _spine(bld, [valid])
    accepting = list(spine) + _tail(bld, spine, (), domain, "d")
    universe = bld.trimmed([(_START,)], accepting)

    # two histories an agent cannot tell apart: same length, pairwise
    # related letters.  Here and for from^ every spine state accepts, so
    # the result is already trim.
    for agent in model.agents:
        bld = fa._Builder(big, 2)
        pairs = model.access.get(agent, frozenset()) | event_access.get(agent, frozenset())
        spine = _spine(bld, [valid, valid], allowed=pairs)
        relations[knows_name(agent)] = bld.build([(_START,) * 2], spine)

    # lifted predicates; spine states whose automata for this predicate
    # coincide share one tail copy
    for name, arity in model.signature.predicates:
        prints = {c: fa.fingerprint(interp[name]) for c, interp in classes.items()}
        block = _blocks(classes, events, delta, prints.get)
        member = {b: c for c, b in block.items()}  # one class of each block
        bld = fa._Builder(big, arity + 1)
        spine = _spine(bld, [_walker(initial, delta, block)] + [valid] * arity)
        if arity == 0:
            accepting = [s for s in spine if not fa.is_empty(classes[member[s[0]]][name])]
        else:
            groups: dict[tuple, list] = {}
            for s in spine:
                groups.setdefault(prints[member[s[0]]], []).append(s)
            accepting = []
            for gid, sources in enumerate(groups.values()):
                rel = classes[member[sources[0][0]]][name]
                accepting += _tail(bld, sources, (fa.PAD,), rel, ("p", gid))
        relations[hat_name(name)] = bld.trimmed([(_START,) * (arity + 1)], accepting)

    # origin: histories beginning at one world
    for w in model.worlds:
        bld = fa._Builder(big, 1)
        spine = _spine(bld, [valid], allowed={(w,)} | {(e,) for e in events})
        relations[origin_name(w)] = bld.build([(_START,)], spine)

    # element-of: (h, g#u) for same-length histories h, g
    bld = fa._Builder(big, 2)
    spine = _spine(bld, [valid, valid])
    accepting = _tail(bld, spine, (fa.PAD,), domain, "d")
    relations[DOM_NAME] = bld.trimmed([(_START,) * 2], accepting)

    return AutomaticPresentation(hist_sig, big, universe, relations)


def model_presentation(model: EpistemicModel) -> AutomaticPresentation:
    """Present a model as the history structure of its bare worlds: each
    world is its own class and there are no events."""
    return history_structure(model, (), {}, {w: w for w in model.worlds}, {},
                             model.interpretations)


def element_word(world_letter: str, value: fa.Word) -> fa.Word:
    """The universe word encoding a domain element inside a world's copy."""
    return (world_letter, "#") + tuple(value)


def eval_on_presentation(pres: AutomaticPresentation, phi: Formula, hist_var: str,
                         bindings: dict[str, fa.Word]) -> bool:
    """Compile the translated formula over the history variable and the
    free variables, then test the bound tuple for membership."""
    scope = (hist_var,) + classify(phi).free_vars
    compiled = compile_formula(pres, standard_translation(phi, hist_var), scope)
    return fa.accepts(compiled, tuple(bindings[v] for v in scope))


def eval_foel(model: EpistemicModel, world: str, phi: Formula,
              assignment: dict[str, fa.Word] | None = None) -> bool:
    """Truth of an epistemic formula at a world, free variables supplied
    as domain words."""
    if world not in model.worlds:
        raise InputError(f"unknown world {world!r}")
    info = validate_against(phi, model.signature)
    check_nesting(info)
    assignment = assignment or {}
    for var in info.free_vars:
        if var not in assignment:
            raise InputError(f"no value for free variable {var!r}")
        if not fa.accepts(model.domain, (assignment[var],)):
            raise InputError(f"value for {var!r} is not a domain word")
    pres = model_presentation(model)
    y = fresh_history_var(phi)
    bindings = {y: (world,)}
    for var in info.free_vars:
        bindings[var] = element_word(world, assignment[var])
    return eval_on_presentation(pres, phi, y, bindings)


# --- JSON wire format -----------------------------------------------------

def _access_to_json(access: dict[str, frozenset[tuple[str, str]]]) -> dict:
    return {agent: sorted([list(p) for p in pairs]) for agent, pairs in access.items()}


def _access_from_json(obj: dict) -> dict[str, frozenset[tuple[str, str]]]:
    access = {}
    for agent, pairs in fa.json_object(obj, "an access map").items():
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in pairs):
            raise InputError(f"access of {agent!r} must be a list of [from, to] pairs")
        access[agent] = frozenset((p[0], p[1]) for p in pairs)
    return access


def model_to_json(model: EpistemicModel) -> dict:
    return {
        "agents": list(model.agents),
        "worlds": list(model.worlds),
        "access": _access_to_json(model.access),
        "signature": {n: k for n, k in model.signature.predicates},
        "alphabet": list(model.alphabet.letters),
        "domain": fa.automaton_to_json(model.domain),
        "interpretations": {
            w: {
                name: fa.automaton_to_json(model.interpretations[w][name])
                for name, _ in model.signature.predicates
            }
            for w in model.worlds
        },
    }


def model_from_json(obj: dict) -> EpistemicModel:
    fa.json_object(obj, "a model")
    try:
        alphabet = fa.Alphabet(tuple(obj["alphabet"]))
        signature = Signature(tuple(
            (n, int(k)) for n, k in fa.json_object(obj["signature"], "a signature").items()))
        model = EpistemicModel(
            agents=tuple(obj["agents"]),
            worlds=tuple(obj["worlds"]),
            access=_access_from_json(obj["access"]),
            signature=signature,
            alphabet=alphabet,
            domain=fa.automaton_or_regex(obj["domain"], alphabet),
            interpretations={
                w: {
                    name: fa.automaton_or_regex(value, alphabet)
                    for name, value in fa.json_object(interp, "an interpretation").items()
                }
                for w, interp in fa.json_object(obj["interpretations"],
                                                "the interpretations").items()
            },
        )
    except KeyError as missing:
        raise InputError(f"model object lacks field {missing}") from None
    except (TypeError, ValueError) as err:
        raise InputError(f"malformed model object: {err}") from None
    issues = model.validate()
    if issues:
        world, diag = issues[0]
        raise InputError(f"invalid model at world {world!r}: {diag}")
    return model


def action_to_json(action: ActionModel) -> dict:
    out: dict = {
        "events": list(action.events),
        "access": _access_to_json(action.access),
        "pre": {
            e: format_formula(action.pre[e])
            for e in action.events
            if action.pre.get(e) is not None
        },
        "post": {
            e: {p: format_formula(phi) for p, phi in action.post[e].items()}
            for e in action.events
            if action.post.get(e)
        },
    }
    native = {}
    for e in action.events:
        table = action.native.get(e)
        if table:
            native[e] = {
                p: {
                    "op": nt.op,
                    "with": nt.source
                    if nt.source is not None
                    else fa.automaton_to_json(nt.generator),
                }
                for p, nt in table.items()
            }
    if native:
        out["native"] = native
    return out


def action_from_json(obj: dict, signature: Signature, alphabet: fa.Alphabet) -> ActionModel:
    fa.json_object(obj, "an action")
    try:
        events = tuple(obj["events"])
        access = _access_from_json(obj.get("access", {}))
        pre = {
            e: parse_formula(text, signature)
            for e, text in fa.json_object(obj.get("pre", {}), "pre").items()
        }
        post = {
            e: {p: parse_formula(text, signature)
                for p, text in fa.json_object(table, "a post table").items()}
            for e, table in fa.json_object(obj.get("post", {}), "post").items()
        }
        native = {}
        for e, table in fa.json_object(obj.get("native", {}), "native").items():
            native[e] = {}
            for p, entry in fa.json_object(table, "a native table").items():
                fa.json_object(entry, "a native rewrite")
                generator = fa.automaton_or_regex(entry["with"], alphabet)
                source = entry["with"] if isinstance(entry["with"], str) else None
                native[e][p] = NativeTransformer(entry["op"], generator, source)
    except KeyError as missing:
        raise InputError(f"action object lacks field {missing}") from None
    except (TypeError, ValueError) as err:
        raise InputError(f"malformed action object: {err}") from None
    action = ActionModel(events=events, access=access, pre=pre, post=post, native=native)
    action.check_against(signature)
    return action
