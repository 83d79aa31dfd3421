"""Command-line front end and the two bundled demo constructions.

Exit codes: 0 yes/true, 1 no/false, 2 unknown, 3 outside the decidable
fragment, 4 resource cap hit, 5 malformed input.  All results go to
stdout as JSON; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import automata as fa
from .errors import (
    EppError,
    FragmentError,
    InputError,
    ParseError,
    ResourceLimitError,
)
from .logic import Formula, Signature, parse_formula, format_formula
from .presentation import AutomaticPresentation, domain_power
from .epistemic import (
    ActionModel,
    EpistemicModel,
    NativeTransformer,
    UpdateCache,
    action_from_json,
    action_to_json,
    eval_foel,
    model_from_json,
    model_to_json,
    product_update,
)
from .planner import (
    DEFAULT_CLASS_CAP,
    bfs_plan,
    class_quotient,
    decide_plan,
    solution_automaton,
)

# --- language demo ----------------------------------------------------------

_REGEX_OPERATORS = set("()|*·") | {"ε", "∅"}


def _regex_letters(patterns: list[str]) -> tuple[str, ...]:
    letters = set()
    for pattern in patterns:
        for ch in pattern:
            if ch.isspace() or ch in _REGEX_OPERATORS:
                continue
            letters.add(ch)
    if "#" in letters or fa.PAD in letters:
        raise InputError("regex letters may not use the reserved symbols '#' or '_'")
    return tuple(sorted(letters))


def build_language_demo(generators: list[str], target: str,
                        allow_concat: bool = False
                        ) -> tuple[EpistemicModel, ActionModel, Formula]:
    """One-world model whose C starts empty, with events that fold the
    generator languages into C (union), complement C, and optionally
    concatenate a generator onto C; the goal asks C to reach the target."""
    if not generators:
        raise InputError("need at least one generator regex")
    letters = _regex_letters(list(generators) + [target])
    if not letters:
        raise InputError("the regexes use no letters at all")
    if "s" in letters:
        raise InputError("the letter 's' is reserved for the start world here")
    alphabet = fa.Alphabet(letters)
    names = [f"L{i}" for i in range(len(generators))]
    signature = Signature(
        (("L", 1),) + tuple((n, 1) for n in names) + (("C", 1),)
    )
    interp = {"L": fa.regex_to_automaton(target, alphabet),
              "C": fa.empty_automaton(alphabet, 1)}
    for name, pattern in zip(names, generators):
        interp[name] = fa.regex_to_automaton(pattern, alphabet)
    model = EpistemicModel(
        agents=("a",),
        worlds=("s",),
        access={"a": frozenset({("s", "s")})},
        signature=signature,
        alphabet=alphabet,
        domain=fa.universal_words(alphabet),
        interpretations={"s": interp},
    )
    events = [f"U{i}" for i in range(len(generators))] + ["CP"]
    post = {f"U{i}": {"C": parse_formula(f"C(x1) | {names[i]}(x1)", signature)}
            for i in range(len(generators))}
    post["CP"] = {"C": parse_formula("!C(x1)", signature)}
    native = {}
    if allow_concat:
        for i, pattern in enumerate(generators):
            event = f"concat{i}"
            events.append(event)
            native[event] = {
                "C": NativeTransformer(
                    "concat-right", fa.regex_to_automaton(pattern, alphabet), pattern
                )
            }
    action = ActionModel(
        events=tuple(events),
        access={"a": frozenset((e, e) for e in events)},
        pre={},
        post=post,
        native=native,
    )
    action.check_against(signature)
    goal = parse_formula("forall x. (C(x) <-> L(x))", signature)
    return model, action, goal


# --- Turing machine demo ----------------------------------------------------

@dataclass(frozen=True)
class TmDescription:
    """A deterministic one-tape machine; the head stays put when told to
    move left at the left edge."""

    states: tuple[str, ...]
    input: tuple[str, ...]
    tape: tuple[str, ...]
    blank: str
    delta: dict[tuple[str, str], tuple[str, str, str]]
    initial: str
    accepting: frozenset[str]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise InputError("duplicate machine states")
        if self.blank in self.input:
            raise InputError("the blank symbol may not be an input symbol")
        tape = set(self.tape)
        if not set(self.input) <= tape or self.blank not in tape:
            raise InputError("the tape alphabet must contain the input alphabet and blank")
        if tape & set(self.states):
            raise InputError("state names may not collide with tape symbols")
        for sym in list(self.tape) + list(self.states):
            if sym in ("#", fa.PAD) or not sym:
                raise InputError(f"{sym!r} is reserved and cannot name a state or symbol")
        if self.initial not in self.states or not self.accepting <= set(self.states):
            raise InputError("initial/accepting states must be declared states")
        for (q, a), (q2, b, move) in self.delta.items():
            if q not in self.states or q2 not in self.states:
                raise InputError(f"transition ({q},{a}) uses undeclared states")
            if a not in tape or b not in tape:
                raise InputError(f"transition ({q},{a}) uses undeclared tape symbols")
            if move not in ("L", "R"):
                raise InputError(f"transition ({q},{a}) has move {move!r}, expected L or R")


def tm_from_json(obj: dict) -> TmDescription:
    fa.json_object(obj, "a machine")
    try:
        delta = {}
        for key, value in obj.get("delta", {}).items():
            parts = key.split(",")
            if len(parts) != 2:
                raise InputError(f"delta key {key!r} is not 'state,symbol'")
            q2, b, move = value
            delta[(parts[0], parts[1])] = (q2, b, move)
        return TmDescription(
            states=tuple(obj["states"]),
            input=tuple(obj["input"]),
            tape=tuple(obj["tape"]),
            blank=obj["blank"],
            delta=delta,
            initial=obj["initial"],
            accepting=frozenset(obj["accepting"]),
        )
    except KeyError as missing:
        raise InputError(f"machine object lacks field {missing}") from None
    except (TypeError, ValueError):
        raise InputError("malformed machine object") from None


def tm_to_json(tm: TmDescription) -> dict:
    return {
        "states": list(tm.states),
        "input": list(tm.input),
        "tape": list(tm.tape),
        "blank": tm.blank,
        "delta": {f"{q},{a}": list(v) for (q, a), v in sorted(tm.delta.items())},
        "initial": tm.initial,
        "accepting": sorted(tm.accepting),
    }


def _config_shape(tm: TmDescription, alphabet: fa.Alphabet,
                  states: tuple[str, ...]) -> fa.Automaton:
    """Configurations u q v with q restricted to ``states``: tape content
    left of the head, the state, then the rest of the tape with trailing
    blanks trimmed (the trim keeps encodings unique)."""
    bld = fa._Builder(alphabet, 1)
    L, CLEAN, DIRTY = "left", "clean", "dirty"
    bld.state(L)
    for t in tm.tape:
        bld.edge(L, (t,), L)
    for q in states:
        bld.edge(L, (q,), CLEAN)
    for t in tm.tape:
        if t == tm.blank:
            bld.edge(CLEAN, (t,), DIRTY)
            bld.edge(DIRTY, (t,), DIRTY)
        else:
            bld.edge(CLEAN, (t,), CLEAN)
            bld.edge(DIRTY, (t,), CLEAN)
    return bld.trimmed([L], [CLEAN])


def _initial_configs(tm: TmDescription, alphabet: fa.Alphabet) -> fa.Automaton:
    bld = fa._Builder(alphabet, 1)
    bld.edge("i", (tm.initial,), "w")
    for c in tm.input:
        bld.edge("w", (c,), "w")
    return bld.build(["i"], ["w"])


def _tm_step_relation(tm: TmDescription, alphabet: fa.Alphabet) -> fa.Automaton:
    """The one-step relation on encoded configurations.

    A move only touches a bounded window at the head, so each transition
    contributes a pattern: copy the untouched prefix, read the rewritten
    window, copy the untouched suffix.  Variants where the head sits on
    an implicit blank (empty right part) or where writing a blank at the
    end shrinks the encoding get their own windows, since the encoding
    trims trailing blanks.
    """
    bld = fa._Builder(alphabet, 2)
    PRE, EDGE, POST = "pre", "edge", "post"
    bld.state(PRE)
    bld.state(EDGE)  # head at the left end: no copied prefix allowed
    for t in tm.tape:
        bld.edge(PRE, (t, t), PRE)
        bld.edge(POST, (t, t), POST)
    accepting = [POST]
    counter = 0

    def window(labels: list[tuple[str, str]], tail: bool, start: str = PRE):
        """A label path out of the prefix; ``tail`` continues into the
        copied suffix, otherwise the pair ends with the window."""
        nonlocal counter
        counter += 1
        prev = start
        for i, label in enumerate(labels):
            last = i == len(labels) - 1
            nxt = POST if (last and tail) else ("w", counter, i)
            bld.edge(prev, label, nxt)
            prev = nxt
        if not tail:
            accepting.append(prev)

    blank = tm.blank
    for (q, a), (q2, b, move) in sorted(tm.delta.items()):
        if move == "R":
            # u q a v2  ->  u b q' v2
            window([(q, b), (a, q2)], tail=True)
            if a == blank:
                # u q  ->  u b q'   (head past the written content)
                window([(q, b), (fa.PAD, q2)], tail=False)
        else:
            for z in tm.tape:
                # u' z q a v2  ->  u' q' z b v2
                window([(z, q2), (q, z), (a, b)], tail=True)
                if b == blank:
                    if z != blank:
                        # u' z q a  ->  u' q' z    (written blank trimmed)
                        window([(z, q2), (q, z), (a, fa.PAD)], tail=False)
                    else:
                        # u' z q a  ->  u' q'      (z and b both blank)
                        window([(z, q2), (q, fa.PAD), (a, fa.PAD)], tail=False)
                if a == blank:
                    if b != blank:
                        # u' z q  ->  u' q' z b
                        window([(z, q2), (q, z), (fa.PAD, b)], tail=False)
                    elif z != blank:
                        # u' z q  ->  u' q' z
                        window([(z, q2), (q, z)], tail=False)
                    else:
                        # u' z q  ->  u' q'
                        window([(z, q2), (q, fa.PAD)], tail=False)
            # stay-put at the left edge instead of falling off
            # q a v2  ->  q' b v2
            window([(q, q2), (a, b)], tail=True, start=EDGE)
            if b == blank:
                # q a  ->  q'
                window([(q, q2), (a, fa.PAD)], tail=False, start=EDGE)
            if a == blank:
                if b != blank:
                    # q  ->  q' b
                    window([(q, q2), (fa.PAD, b)], tail=False, start=EDGE)
                else:
                    # q  ->  q'
                    window([(q, q2)], tail=False, start=EDGE)
    return bld.trimmed([PRE, EDGE], accepting)


def build_tm_config_graph(tm: TmDescription
                          ) -> tuple[EpistemicModel, ActionModel, Formula]:
    """The configuration graph of a machine as a one-world model, with a
    single event that widens the step relation by self-composition, and
    the goal that some initial configuration reaches acceptance."""
    letters = tm.tape + tuple(q for q in tm.states)
    alphabet = fa.Alphabet(letters)

    def fresh_name(stem: str) -> str:
        if stem not in letters:
            return stem
        n = 0
        while f"{stem}{n}" in letters:
            n += 1
        return f"{stem}{n}"

    world = fresh_name("s")
    event = fresh_name("close")
    signature = Signature((("p", 2), ("i", 1), ("f", 1)))
    domain = _config_shape(tm, alphabet, tm.states)
    step = fa.boolean_combine(
        _tm_step_relation(tm, alphabet), domain_power(domain, 2), "and"
    )
    interp = {
        "p": step,
        "i": _initial_configs(tm, alphabet),
        "f": _config_shape(tm, alphabet, tuple(sorted(tm.accepting))),
    }
    model = EpistemicModel(
        agents=("a",),
        worlds=(world,),
        access={"a": frozenset({(world, world)})},
        signature=signature,
        alphabet=alphabet,
        domain=domain,
        interpretations={world: interp},
    )
    action = ActionModel(
        events=(event,),
        access={"a": frozenset({(event, event)})},
        pre={},
        post={event: {"p": parse_formula(
            "p(x1,x2) | exists y. (p(x1,y) & p(y,x2))", signature)}},
    )
    action.check_against(signature)
    goal = parse_formula("exists x. exists y. (i(x) & p(x,y) & f(y))", signature)
    return model, action, goal


# --- command implementations -------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None


def _load_model(path: str) -> EpistemicModel:
    return model_from_json(_load_json(path))


def _load_action(path: str, model: EpistemicModel) -> ActionModel:
    return action_from_json(_load_json(path), model.signature, model.alphabet)


def _emit(obj: dict):
    try:
        json.dump(obj, sys.stdout, ensure_ascii=False, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: send the rest, and the exit flush, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


_ANSWER_CODES = {"yes": 0, "no": 1, "unknown": 2, "true": 0, "false": 1}


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    phi = parse_formula(args.formula, model.signature)
    holds = eval_foel(model, args.world, phi)
    _emit({"world": args.world, "formula": format_formula(phi),
           "holds": holds})
    return 0 if holds else 1


def _cmd_update(args) -> int:
    model = _load_model(args.model)
    action = _load_action(args.action, model)
    cache = UpdateCache()
    current = model
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for step in range(1, args.steps + 1):
        current = product_update(current, action, cache)
        if out_dir is not None:
            path = out_dir / f"step_{step}.json"
            path.write_text(
                json.dumps(model_to_json(current), ensure_ascii=False, indent=2),
                encoding="utf-8",
            )
    if out_dir is not None:
        _emit({"steps": args.steps, "worlds": list(current.worlds),
               "out": str(out_dir)})
    else:
        _emit(model_to_json(current))
    return 0


def _cmd_classes(args) -> int:
    model = _load_model(args.model)
    action = _load_action(args.action, model)
    result = class_quotient(model, action, cap=args.cap)
    ca = result.automaton
    _emit({
        "count": len(result.classes),
        "cap_exceeded": result.cap_exceeded,
        "initial": dict(sorted(ca.initial.items())),
        "classes": sorted(result.classes),
        "delta": sorted([cid, event, nxt] for (cid, event), nxt in ca.delta.items()),
        "stats": result.stats,
    })
    return 4 if result.cap_exceeded else 0


def _plan_args(args, model: EpistemicModel):
    action = _load_action(args.action, model)
    goal = parse_formula(args.goal, model.signature)
    return action, goal


def _cmd_plan(args) -> int:
    model = _load_model(args.model)
    action, goal = _plan_args(args, model)
    if args.bfs:
        result = bfs_plan(model, args.world, action, goal, args.max_depth,
                          cap=args.cap)
    else:
        result = decide_plan(model, args.world, action, goal, cap=args.cap)
    _emit(result.to_json())
    return _ANSWER_CODES[result.answer]


def _cmd_solutions(args) -> int:
    model = _load_model(args.model)
    action, goal = _plan_args(args, model)
    sol = solution_automaton(model, args.world, action, goal, cap=args.cap)
    payload = fa.automaton_to_json(sol)
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, ensure_ascii=False, indent=2), encoding="utf-8"
        )
        _emit({"out": args.out, "states": sol.states,
               "alphabet": list(sol.alphabet.letters)})
    else:
        _emit(payload)
    return 0


def _emit_demo(args, model: EpistemicModel, action: ActionModel, goal: Formula):
    if getattr(args, "emit", None):
        out_dir = Path(args.emit)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "model.json").write_text(
            json.dumps(model_to_json(model), ensure_ascii=False, indent=2),
            encoding="utf-8",
        )
        (out_dir / "action.json").write_text(
            json.dumps(action_to_json(action), ensure_ascii=False, indent=2),
            encoding="utf-8",
        )
        (out_dir / "goal.txt").write_text(format_formula(goal) + "\n", encoding="utf-8")


def _cmd_demo_lang(args) -> int:
    generators = [g.strip() for g in args.generators.split(",") if g.strip()]
    model, action, goal = build_language_demo(generators, args.target,
                                              allow_concat=args.concat)
    _emit_demo(args, model, action, goal)
    world = model.worlds[0]
    if args.bfs:
        result = bfs_plan(model, world, action, goal, args.max_depth)
    else:
        result = decide_plan(model, world, action, goal)
    payload = result.to_json()
    payload["generators"] = generators
    payload["target"] = args.target
    _emit(payload)
    return _ANSWER_CODES[result.answer]


def _cmd_demo_tm(args) -> int:
    tm = tm_from_json(_load_json(args.machine))
    model, action, goal = build_tm_config_graph(tm)
    _emit_demo(args, model, action, goal)
    world = model.worlds[0]
    if args.decide:
        result = decide_plan(model, world, action, goal)
    else:
        result = bfs_plan(model, world, action, goal, args.bfs_depth)
    _emit(result.to_json())
    return _ANSWER_CODES[result.answer]


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epp",
        description="Model checking and planning for epistemic models "
                    "presented by finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a world")
    p.add_argument("model")
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("update", help="apply an action model repeatedly")
    p.add_argument("model")
    p.add_argument("action")
    p.add_argument("-n", "--steps", type=int, default=1)
    p.add_argument("--out", help="directory for per-step model files")
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("classes", help="interpretation classes of a pair")
    p.add_argument("model")
    p.add_argument("action")
    p.add_argument("--cap", type=int, default=DEFAULT_CLASS_CAP)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("plan", help="search for a plan reaching a goal")
    p.add_argument("model")
    p.add_argument("action")
    p.add_argument("--world", required=True)
    p.add_argument("--goal", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--decide", action="store_true",
                      help="complete decision (quantifier-free posts only)")
    mode.add_argument("--bfs", action="store_true",
                      help="bounded sound search, any expressible action")
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--cap", type=int, default=DEFAULT_CLASS_CAP)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("solutions", help="automaton of all achieving histories")
    p.add_argument("model")
    p.add_argument("action")
    p.add_argument("--world", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--out", help="file for the automaton JSON")
    p.add_argument("--cap", type=int, default=DEFAULT_CLASS_CAP)
    p.set_defaults(func=_cmd_solutions)

    demo = sub.add_parser("demo", help="built-in constructions")
    demo_sub = demo.add_subparsers(dest="demo", required=True)

    p = demo_sub.add_parser("lang", help="grow a language from generators")
    p.add_argument("--generators", required=True,
                   help="comma-separated regexes")
    p.add_argument("--target", required=True)
    p.add_argument("--concat", action="store_true",
                   help="also offer concatenation events")
    p.add_argument("--bfs", action="store_true",
                   help="bounded search instead of the decision procedure")
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--emit", help="directory to dump model/action/goal")
    p.set_defaults(func=_cmd_demo_lang)

    p = demo_sub.add_parser("tm", help="machine acceptance as reachability")
    p.add_argument("machine", help="machine description JSON")
    p.add_argument("--bfs-depth", type=int, default=5)
    p.add_argument("--decide", action="store_true",
                   help="attempt the decision procedure (rejected: the "
                        "closure post is quantified)")
    p.add_argument("--emit", help="directory to dump model/action/goal")
    p.set_defaults(func=_cmd_demo_tm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5
    except FragmentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except EppError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
