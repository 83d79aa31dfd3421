"""The benchmark's three workloads, built from a seed.

Each workload is a fixed list of planning instances.  The seed picks an
order-preserving renaming of the domain letters and the order in which a
pass visits the instances.  The planner sees only the generated models,
actions and goals.  Renaming keeps every instance isomorphic to its
pinned twin, so verdicts and plans are seed independent while the
inputs still differ from seed to seed.

The random models, actions and goals come from the benchmark's own
copies of the test-suite generators, so an edit under ``tests/`` cannot
change a workload.  The ``random-qf`` draw has a heavy cost tail: a few
instances take seconds, most take milliseconds.  Drawing a fresh pool
per seed would make the pass time swing by several times between seeds,
so the pool is drawn once from ``POOL_SEED`` with the parameters below
and the run seed only renames it.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from epplan import automata as fa
from epplan import cli  # called through the module, so a traced run sees the builders
from epplan.epistemic import ActionModel, EpistemicModel, post_variables
from epplan.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    Signature,
    TrueFormula,
)

WORKLOADS = ("lang-decide", "random-qf", "update-bfs")

# Letters a renaming may use.  's' names the start world of the language
# demo, so it cannot be a domain letter there.
LETTER_POOL = "abcdefghijklmnopqrtuvwxyz"

# The random-qf draw.  Changing any of these changes the workload; the
# pinned answers in expected.json must then be regenerated with pin.py.
POOL_SEED = 131
POOL_SIZE = 20
MAX_WORLDS = 2
MAX_AGENTS = 2
MAX_DOMAIN_WORDS = 4
MAX_WORD_LENGTH = 2
GOAL_MODAL_DEPTH = 1
RANDOM_BFS_DEPTH = 3

MIXED = "(a|b)*·(a·b|b·a)·(a|b)*"

# name, generators, target, planner, bfs depth
LANG_DECIDE = (
    ("lang-mixed", ("a*", "b*"), MIXED, "decide", None),
    ("lang-a*b", ("a*", "b*"), "a*·b", "decide", None),
    ("lang-a*b-bfs10", ("a*", "b*"), "a*·b", "bfs", 10),
    ("lang-abc", ("a*", "b*", "c*"), "a*|b*|c*", "decide", None),
    ("lang-ab-word", ("a·a*", "b*", "a·b"), "a·b", "decide", None),
)


@dataclass
class Instance:
    """One planner call and what is needed to confirm its answer."""

    name: str
    planner: str                    # "decide" or "bfs"
    max_depth: int | None           # bfs only
    model: EpistemicModel
    world: str
    action: ActionModel
    goal: Formula
    target: fa.Automaton | None = None      # language demos: what C must become
    naive: NaiveModel | None = None       # random draws: explicit twin


def letter_map(rng: random.Random, letters: str) -> dict[str, str]:
    """Order-preserving map from ``letters`` onto a random sample of the pool."""
    chosen = sorted(rng.sample(LETTER_POOL, len(letters)))
    return dict(zip(sorted(letters), chosen))


def _rename(text: str, letters: dict[str, str]) -> str:
    return text.translate(str.maketrans(letters))


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances for ``seed``, in the order a pass runs them."""
    rng = random.Random(seed)
    if workload == "lang-decide":
        instances = _lang_decide(letter_map(rng, "abc"))
    elif workload == "random-qf":
        instances = _random_qf(letter_map(rng, "ab"))
    elif workload == "update-bfs":
        instances = _update_bfs(letter_map(rng, "ab"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(instances)
    return instances


def _lang_instance(name, generators, target, planner, depth, letters,
                   allow_concat=False) -> Instance:
    gens = [_rename(g, letters) for g in generators]
    model, action, goal = cli.build_language_demo(gens, _rename(target, letters),
                                                  allow_concat=allow_concat)
    world = model.worlds[0]
    return Instance(name, planner, depth, model, world, action, goal,
                    target=model.interpretations[world]["L"])


def _lang_decide(letters: dict[str, str]) -> list[Instance]:
    return [_lang_instance(*row, letters) for row in LANG_DECIDE]


def dead_tm(letter: str) -> cli.TmDescription:
    """A machine whose accepting state no transition reaches."""
    blank = "⊔"
    return cli.TmDescription(
        states=("q0", "q1", "qacc"),
        input=(letter,),
        tape=(letter, blank),
        blank=blank,
        delta={("q0", letter): ("q1", letter, "R"),
               ("q1", letter): ("q0", letter, "R"),
               ("q0", blank): ("q1", blank, "R"),
               ("q1", blank): ("q0", blank, "R")},
        initial="q0",
        accepting=frozenset({"qacc"}),
    )


def _update_bfs(letters: dict[str, str]) -> list[Instance]:
    model, action, goal = cli.build_tm_config_graph(dead_tm(letters["a"]))
    tm = Instance("tm-dead-bfs7", "bfs", 7, model, model.worlds[0], action, goal)
    concat = _lang_instance("concat-bfs5", ("a*", "b*", "a·b"), MIXED + "·a·b",
                            "bfs", 5, letters, allow_concat=True)
    return [tm, concat]


def _random_qf(letters: dict[str, str]) -> list[Instance]:
    rng = random.Random(POOL_SEED)
    alphabet = (letters["a"], letters["b"])
    out = []
    for index in range(POOL_SIZE):
        model, naive = random_kripke(rng, alphabet)
        action = random_qf_action(rng, model.signature, model.agents)
        goal = random_foel(rng, model.signature, model.agents, GOAL_MODAL_DEPTH)
        world = model.worlds[0]
        stem = f"rq{index:02d}"
        out.append(Instance(f"{stem}-bfs{RANDOM_BFS_DEPTH}", "bfs", RANDOM_BFS_DEPTH,
                            model, world, action, goal, naive=naive))
        out.append(Instance(f"{stem}-decide", "decide", None,
                            model, world, action, goal, naive=naive))
    return out


# --- generators: seeded copies of the test-suite oracles ---------------------

Word = tuple[str, ...]


def convolve_words(words: tuple[Word, ...]) -> list[tuple[str, ...]]:
    length = max((len(w) for w in words), default=0)
    return [tuple(w[i] if i < len(w) else fa.PAD for w in words)
            for i in range(length)]


def trie_relation(alphabet: fa.Alphabet, tracks: int, tuples) -> fa.Automaton:
    """Automaton for an explicit finite relation, built as a label trie."""
    states: dict[tuple, int] = {(): 0}
    accepting = set()
    transitions = set()
    for tup in tuples:
        labels = tuple(convolve_words(tup))
        for i in range(len(labels)):
            src = states.setdefault(labels[:i], len(states))
            dst = states.setdefault(labels[: i + 1], len(states))
            transitions.add((src, labels[i], dst))
        accepting.add(states[labels])
    return fa.Automaton(tracks, alphabet, len(states), frozenset({0}),
                        frozenset(accepting), frozenset(transitions),
                        deterministic=True)


def random_words(rng, letters: tuple[str, ...], count: int, max_len: int) -> list[Word]:
    pool = [()]
    for n in range(1, max_len + 1):
        pool.extend(itertools.product(letters, repeat=n))
    rng.shuffle(pool)
    return sorted(pool[:count])


@dataclass
class NaiveModel:
    """A Kripke model with one explicit finite structure per world.

    Worlds are named by histories: a start world ``(w,)``, extended by one
    event name per update.
    """

    domain: list[Word]
    worlds: dict[str, dict[str, set[tuple[Word, ...]]]]
    access: dict[str, set[tuple[str, str]]]


def random_kripke(rng, letters: tuple[str, str]):
    """Paired automatic/explicit epistemic models over a small domain."""
    alphabet = fa.Alphabet(letters)
    domain = random_words(rng, letters, rng.randint(1, MAX_DOMAIN_WORDS),
                          MAX_WORD_LENGTH)
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, MAX_WORLDS)))
    agents = tuple("ab"[i] for i in range(rng.randint(1, MAX_AGENTS)))
    preds = (("P", 1), ("Q", rng.randint(1, 2)))
    access = {}
    for agent in agents:
        pairs = {(w, w) for w in worlds}
        for w in worlds:
            for v in worlds:
                if rng.random() < 0.4:
                    pairs.add((w, v))
        access[agent] = frozenset(pairs)
    interps, explicit_worlds = {}, {}
    for w in worlds:
        interps[w], explicit_worlds[(w,)] = {}, {}
        for name, arity in preds:
            tuples = {tup for tup in itertools.product(domain, repeat=arity)
                      if rng.random() < 0.4}
            explicit_worlds[(w,)][name] = tuples
            interps[w][name] = trie_relation(alphabet, arity, tuples)
    model = EpistemicModel(
        agents=agents,
        worlds=worlds,
        access=access,
        signature=Signature(preds),
        alphabet=alphabet,
        domain=trie_relation(alphabet, 1, [(w,) for w in domain]),
        interpretations=interps,
    )
    naive = NaiveModel(domain, explicit_worlds,
                       {a: {((w,), (v,)) for w, v in p} for a, p in access.items()})
    return model, naive


def random_qf_action(rng, signature: Signature, agents: tuple[str, ...]) -> ActionModel:
    """Quantifier-free posts, no preconditions, reflexive event access."""

    def qf(vars_: tuple[str, ...], fuel: int) -> Formula:
        kind = rng.choice(["atom", "atom", "not", "bin", "const"]
                          if fuel > 0 else ["atom", "const"])
        if kind == "atom":
            name, arity = rng.choice(signature.predicates)
            return Atom(name, tuple(rng.choice(vars_) for _ in range(arity)))
        if kind == "not":
            return Not(qf(vars_, fuel - 1))
        if kind == "bin":
            cls = rng.choice([And, Or, Iff])
            return cls(qf(vars_, fuel - 1), qf(vars_, fuel - 1))
        return TRUE if rng.random() < 0.5 else FALSE

    events = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
    post = {}
    for e in events:
        post[e] = {name: qf(post_variables(arity), 3)
                   for name, arity in signature.predicates if rng.random() < 0.7}
    return ActionModel(
        events=events,
        access={agent: frozenset((e, e) for e in events) for agent in agents},
        pre={},
        post=post,
    )


def random_foel(rng, signature: Signature, agents: tuple[str, ...],
                modal_depth: int) -> Formula:
    """A closed formula mixing quantifiers with knowledge operators."""

    def go(scope: tuple[str, ...], md: int, qr: int, fuel: int) -> Formula:
        choices = []
        if scope:
            choices.append("atom")
        if qr > 0:
            choices.append("quant")
        if md > 0:
            choices.append("know")
        if fuel > 0:
            choices.extend(["not", "bin"])
        choices.append("const")
        kind = rng.choice(choices)
        if kind == "atom":
            name, arity = rng.choice(signature.predicates)
            return Atom(name, tuple(rng.choice(scope) for _ in range(arity)))
        if kind == "quant":
            var = f"v{len(scope)}"
            body = go(scope + (var,), md, qr - 1, fuel - 1)
            return Forall(var, body) if rng.random() < 0.5 else Exists(var, body)
        if kind == "know":
            return Know(rng.choice(agents), go(scope, md - 1, qr, fuel - 1))
        if kind == "not":
            return Not(go(scope, md, qr, fuel - 1))
        if kind == "bin":
            cls = rng.choice([And, Or, Implies, Iff])
            return cls(go(scope, md, qr, fuel - 1), go(scope, md, qr, fuel - 1))
        return TRUE if rng.random() < 0.5 else FALSE

    body = go(("v0",), modal_depth, 1, 4)
    return Forall("v0", body) if rng.random() < 0.5 else Exists("v0", body)


# --- naive semantics, for confirming random-qf answers -----------------------

def naive_eval(model: NaiveModel, world: tuple, phi: Formula,
               env: dict[str, Word] | None = None) -> bool:
    env = env or {}
    if isinstance(phi, TrueFormula):
        return True
    if isinstance(phi, FalseFormula):
        return False
    if isinstance(phi, Atom):
        return tuple(env[v] for v in phi.args) in model.worlds[world][phi.predicate]
    if isinstance(phi, Not):
        return not naive_eval(model, world, phi.operand, env)
    if isinstance(phi, And):
        return naive_eval(model, world, phi.left, env) and \
            naive_eval(model, world, phi.right, env)
    if isinstance(phi, Or):
        return naive_eval(model, world, phi.left, env) or \
            naive_eval(model, world, phi.right, env)
    if isinstance(phi, Implies):
        return not naive_eval(model, world, phi.left, env) or \
            naive_eval(model, world, phi.right, env)
    if isinstance(phi, Iff):
        return naive_eval(model, world, phi.left, env) == \
            naive_eval(model, world, phi.right, env)
    if isinstance(phi, Exists):
        return any(naive_eval(model, world, phi.body, {**env, phi.var: d})
                   for d in model.domain)
    if isinstance(phi, Forall):
        return all(naive_eval(model, world, phi.body, {**env, phi.var: d})
                   for d in model.domain)
    if isinstance(phi, Know):
        return all(naive_eval(model, v, phi.body, env)
                   for (w, v) in model.access.get(phi.agent, set()) if w == world)
    raise TypeError(f"unknown node {phi!r}")


def naive_update(model: NaiveModel, action: ActionModel, event: str,
                 signature: Signature) -> NaiveModel:
    """The histories of a product update that end in ``event``.

    Event access in the draw is reflexive only, so knowledge never relates
    histories whose last events differ: this submodel is closed under
    every agent's accessibility, and truth at its worlds is as in the full
    update.  Only for actions without preconditions, which is all the draw
    makes.
    """
    worlds = {}
    for w, structure in model.worlds.items():
        updated = {}
        for name, arity in signature.predicates:
            phi = action.post[event].get(name)
            if phi is None:
                updated[name] = structure[name]
                continue
            vars_ = post_variables(arity)
            updated[name] = {
                tup for tup in itertools.product(model.domain, repeat=arity)
                if naive_eval(model, w, phi, dict(zip(vars_, tup)))
            }
        worlds[w + (event,)] = updated
    related = (event, event)
    access = {
        agent: {(h1 + (event,), h2 + (event,)) for h1, h2 in pairs
                if related in action.access.get(agent, frozenset())}
        for agent, pairs in model.access.items()
    }
    return NaiveModel(model.domain, worlds, access)


def naive_holds(model: NaiveModel, action: ActionModel, signature: Signature,
                world: str, plan: tuple[str, ...], goal: Formula) -> bool:
    """Truth of the goal after ``plan`` from ``world``, by enumeration."""
    for event in plan:
        model = naive_update(model, action, event, signature)
    return naive_eval(model, (world,) + tuple(plan), goal)


def naive_minimal_plan(model: NaiveModel, action: ActionModel,
                       signature: Signature, world: str, goal: Formula,
                       max_depth: int) -> tuple[str, ...] | None:
    """The length-lex least plan of at most ``max_depth`` events, in event order."""
    for depth in range(max_depth + 1):
        for plan in itertools.product(action.events, repeat=depth):
            if naive_holds(model, action, signature, world, plan, goal):
                return plan
    return None
