"""First-order model checking over automata-presented structures.

A presentation gives the domain as a one-track automaton and each k-ary
predicate as a k-track automaton over convolutions of domain words.
Non-modal formulas compile to automata over assignment tuples, so
sentences are decided by an emptiness test even when the domain is
infinite.  ``brute_force_check`` is the independent finite-domain
evaluator used to cross-check the compiled route.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import automata as fa
from .errors import (MAX_NESTING, FragmentError, InfiniteDomainError, InputError,
                     TrackMismatchError)
from .logic import (
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
    check_nesting,
    classify,
    validate_against,
)

# Intermediate results are minimized once they exceed this many states.
CANON_THRESHOLD = 5_000


@dataclass
class AutomaticPresentation:
    """Domain plus one relation automaton per signature predicate."""

    signature: Signature
    alphabet: fa.Alphabet
    domain: fa.Automaton
    relations: dict[str, fa.Automaton]

    def __post_init__(self):
        if self.domain.tracks != 1:
            raise TrackMismatchError("the domain must be a one-track automaton")
        if self.domain.alphabet != self.alphabet:
            raise TrackMismatchError("domain alphabet differs from the presentation's")
        for name, arity in self.signature.predicates:
            if name not in self.relations:
                raise InputError(f"no automaton for predicate {name!r}")
            rel = self.relations[name]
            if rel.tracks != arity:
                raise TrackMismatchError(
                    f"predicate {name!r} has arity {arity} but its automaton "
                    f"reads {rel.tracks} tracks"
                )
            if rel.alphabet != self.alphabet:
                raise TrackMismatchError(f"predicate {name!r} uses a foreign alphabet")
        extra = set(self.relations) - set(self.signature.names())
        if extra:
            raise InputError(f"relations not in the signature: {sorted(extra)}")


@dataclass(frozen=True)
class Diagnostic:
    relation: str | None
    message: str
    witness: tuple | None = None

    def __str__(self):
        subject = "" if self.relation is None else f"predicate {self.relation!r} "
        if self.witness is None:
            return subject + self.message
        words = ", ".join("·".join(w) or "ε" for w in self.witness)
        return f"{subject}{self.message}, e.g. ({words})"


def domain_power(domain: fa.Automaton, tracks: int) -> fa.Automaton:
    """All k-tuples of domain words, as a k-track automaton."""
    if tracks == 0:
        return fa.epsilon_automaton(domain.alphabet, 0)
    if tracks == 1:
        return domain  # the identity substitution; one track has no pads to filter
    # one fused join; building the power track by track squares the work
    return fa.substitute_tracks(domain, (1,), tracks, domain)


def validate(pres: AutomaticPresentation) -> list[Diagnostic]:
    """Diagnose violations of the presentation contract; empty means valid."""
    found: list[Diagnostic] = []
    if fa.is_empty(pres.domain):
        found.append(Diagnostic(None, "the domain language is empty"))
    for name, arity in pres.signature.predicates:
        rel = pres.relations[name]
        junk = fa.boolean_combine(rel, domain_power(pres.domain, arity), "minus")
        witness = fa.is_empty_witness(junk)
        if witness is not None:
            found.append(
                Diagnostic(name, "accepts a tuple outside the domain", witness)
            )
        # raw strings: is_empty would filter out exactly what is sought here
        stray = fa.boolean_combine(rel, fa._pad_filter(rel), "minus")
        if stray.initial and stray.accepting:
            found.append(
                Diagnostic(name, "accepts a string that is not a valid convolution")
            )
    return found


class _Compiler:
    """Compiles each subformula over its own free variables and lifts at
    the joins; the track count then follows the formula's width, not its
    nesting depth, which is what keeps deeply nested binders affordable.

    Every compiled subformula accepts only tuples of domain words: atoms
    do by the presentation contract that ``validate`` checks, and each
    step below keeps it.  Two rewrites rest on this.  A conjunction over
    different variables is one synchronous product of the two operands,
    each reading its own tracks, with no lift to the domain power.  And
    a complement against the domain power costs a determinization, so
    negation is pushed inward first: ``¬¬φ`` is ``φ``, ``¬(a → b)`` is
    ``a ∧ ¬b`` and ``¬(a ∨ b)`` is ``¬a ∧ ¬b``.  Through the double
    negation of ``∀``, a guarded ``∀y. g → ψ`` thus compiles as
    ``¬∃y. (g ∧ ¬ψ)``, complementing only ``ψ`` and the projection.

    An atom with distinct arguments compiles to its relation automaton
    as it stands: its tracks already are its free variables in order of
    first occurrence.  Substituting that identity would only drop the
    strings that are not valid convolutions and trim, and by the
    presentation contract the relation accepts no such string.
    Nothing downstream needs it done: the pad mask of ``track_join``,
    ``project``, ``is_empty``, ``canonicalize`` and the difference from
    the domain power all read valid convolutions only.
    """

    def __init__(self, pres: AutomaticPresentation):
        self.pres = pres
        self.powers: dict[int, fa.Automaton] = {}

    def power(self, k: int) -> fa.Automaton:
        if k not in self.powers:
            self.powers[k] = domain_power(self.pres.domain, k)
        return self.powers[k]

    def shrink(self, a: fa.Automaton) -> fa.Automaton:
        if a.states > CANON_THRESHOLD:
            return fa.canonicalize(a)
        return a

    def lift(self, a: fa.Automaton, frm: tuple[str, ...],
             to: tuple[str, ...]) -> fa.Automaton:
        """Re-home tracks onto ``to``; new positions range over the domain."""
        if frm == to:
            return a
        sigma = tuple(to.index(v) + 1 for v in frm)
        return self.shrink(
            fa.substitute_tracks(a, sigma, len(to), self.pres.domain)
        )

    def narrow(self, node: Formula) -> tuple[fa.Automaton, tuple[str, ...]]:
        """The automaton of satisfying assignments over exactly free(node),
        tracks in first-occurrence order."""
        if isinstance(node, TrueFormula):
            return self.power(0), ()
        if isinstance(node, FalseFormula):
            return fa.empty_automaton(self.pres.alphabet, 0), ()
        if isinstance(node, Atom):
            rel = self.pres.relations[node.predicate]
            vars_ = tuple(dict.fromkeys(node.args))
            if vars_ == node.args:  # distinct: the identity substitution, see above
                return self.shrink(rel), vars_
            sigma = tuple(vars_.index(v) + 1 for v in node.args)
            a = self.shrink(
                fa.substitute_tracks(rel, sigma, len(vars_), self.pres.domain)
            )
            return a, vars_
        if isinstance(node, Not):
            inner = node.operand
            if isinstance(inner, Not):
                return self.narrow(inner.operand)
            if isinstance(inner, Implies):
                return self.narrow(And(inner.left, Not(inner.right)))
            if isinstance(inner, Or):
                return self.narrow(And(Not(inner.left), Not(inner.right)))
            a, vs = self.narrow(inner)
            return self.shrink(fa.boolean_combine(self.power(len(vs)), a, "minus")), vs
        if isinstance(node, (And, Or, Iff)):
            a, va = self.narrow(node.left)
            b, vb = self.narrow(node.right)
            vs = va + tuple(v for v in vb if v not in va)
            if isinstance(node, Or):
                out = fa.boolean_combine(self.lift(a, va, vs), self.lift(b, vb, vs), "or")
            elif isinstance(node, Iff):
                # (a ∧ b) ∨ (Dᵏ ∖ (a ∨ b)), so each side compiles once
                a, b = self.lift(a, va, vs), self.lift(b, vb, vs)
                either = self.shrink(fa.boolean_combine(a, b, "or"))
                neither = self.shrink(
                    fa.boolean_combine(self.power(len(vs)), either, "minus"))
                both = self.shrink(fa.boolean_combine(a, b, "and"))
                out = fa.boolean_combine(both, neither, "or")
            elif va == vb:
                out = fa.boolean_combine(a, b, "and")
            else:
                out = fa.track_join(self.pres.alphabet, len(vs),
                                    [(a, tuple(range(len(va)))),
                                     (b, tuple(vs.index(v) for v in vb))])
            return self.shrink(out), vs
        if isinstance(node, Implies):
            return self.narrow(Or(Not(node.left), node.right))
        if isinstance(node, Exists):
            a, vb = self.narrow(node.body)
            if node.var in vb:
                pos = vb.index(node.var) + 1
                return self.shrink(fa.project(a, pos)), vb[:pos - 1] + vb[pos:]
            # vacuous binder still asserts the domain is inhabited
            ext = vb + (node.var,)
            return self.shrink(fa.project(self.lift(a, vb, ext), len(ext))), vb
        if isinstance(node, Forall):
            return self.narrow(Not(Exists(node.var, Not(node.body))))
        if isinstance(node, Know):
            raise FragmentError("knowledge operators cannot be compiled over a presentation")
        raise InputError(f"not a formula node: {node!r}")

    def compile(self, node: Formula, scope: tuple[str, ...]) -> fa.Automaton:
        a, vs = self.narrow(node)
        return self.lift(a, vs, tuple(scope))


def compile_formula(pres: AutomaticPresentation, node: Formula,
                    scope: tuple[str, ...]) -> fa.Automaton:
    """Automaton of satisfying assignments, one track per scope variable.

    Universal quantifiers go through double negation; every track of the
    result is restricted to domain words.

    Compiling recurses per level, so nothing taller than the standard
    translation of a ``MAX_NESTING``-level goal is taken: with two levels per
    binder and ``K``, ``dom^`` conjuncts per atom argument and the planner's
    one conjunction, 2 * MAX_NESTING + 1 + the largest arity.
    """
    info = validate_against(node, pres.signature)
    limit = 2 * MAX_NESTING + 1 + max((k for _, k in pres.signature.predicates), default=0)
    if info.height > limit:
        raise InputError(f"formula nests deeper than {limit} levels")
    if len(set(scope)) != len(scope):
        raise InputError("scope variables must be distinct")
    missing = [v for v in info.free_vars if v not in scope]
    if missing:
        raise InputError(f"free variables {missing} are not in the scope")
    return _Compiler(pres).compile(node, tuple(scope))


# the query surface

def defined_relation(pres: AutomaticPresentation, node: Formula,
                     scope: tuple[str, ...]) -> fa.Automaton:
    """The relation a formula defines, with tracks ordered by ``scope``."""
    return compile_formula(pres, node, scope)


def check_sentence(pres: AutomaticPresentation, node: Formula) -> bool:
    """Truth of a closed non-modal formula in the presented structure."""
    info = classify(node)
    check_nesting(info)
    if not info.closed:
        raise InputError(f"not a sentence; free variables {info.free_vars}")
    if info.modal:
        raise FragmentError("check_sentence handles non-modal sentences only")
    return not fa.is_empty(compile_formula(pres, node, ()))


def enumerate_domain(domain: fa.Automaton, limit: int = 10_000) -> list[fa.Word]:
    """All domain words, when the (trimmed) domain automaton is acyclic."""
    t = fa.trim(domain)
    # Kahn: peel off states without incoming edges; a cycle never peels
    targets: dict[int, list[int]] = {}
    incoming = [0] * t.states
    for s, _, d in t.transitions:
        targets.setdefault(s, []).append(d)
        incoming[d] += 1
    ready = [q for q in range(t.states) if not incoming[q]]
    peeled = 0
    while ready:
        peeled += 1
        for d in targets.get(ready.pop(), ()):
            incoming[d] -= 1
            if not incoming[d]:
                ready.append(d)
    if peeled < t.states:
        raise InfiniteDomainError("the domain automaton has a reachable cycle")
    # depth first, least letter first, so each word is met once; every
    # prefix on the stack leads to a word, so the walk stops at limit + 1
    out, key = fa._out_map(t), t.alphabet.label_key
    words: list[fa.Word] = []
    stack = [((), frozenset(t.initial))]
    while stack:
        word, states = stack.pop()
        if states & t.accepting:
            words.append(word)
            if len(words) > limit:
                raise InfiniteDomainError(f"domain enumeration exceeded {limit} words")
        moves = fa._grouped(out, states)
        stack.extend((word + label, frozenset(moves[label]))
                     for label in sorted(moves, key=key, reverse=True) if label != (fa.PAD,))
    return sorted(words, key=len)  # length-lex


def brute_force_check(pres: AutomaticPresentation, node: Formula,
                      assignment: dict[str, fa.Word] | None = None) -> bool:
    """Naive evaluation over an explicitly enumerated finite domain.

    This is the oracle route: it never builds formula automata, it just
    recurses over the syntax with an environment.
    """
    info = validate_against(node, pres.signature)
    check_nesting(info)
    if info.modal:
        raise FragmentError("brute_force_check handles non-modal formulas only")
    domain = enumerate_domain(pres.domain)
    env = dict(assignment or {})
    for v in info.free_vars:
        if v not in env:
            raise InputError(f"no value for free variable {v!r}")

    def ev(phi: Formula, env: dict[str, fa.Word]) -> bool:
        if isinstance(phi, TrueFormula):
            return True
        if isinstance(phi, FalseFormula):
            return False
        if isinstance(phi, Atom):
            words = tuple(env[v] for v in phi.args)
            return fa.accepts(pres.relations[phi.predicate], words)
        if isinstance(phi, Not):
            return not ev(phi.operand, env)
        if isinstance(phi, And):
            return ev(phi.left, env) and ev(phi.right, env)
        if isinstance(phi, Or):
            return ev(phi.left, env) or ev(phi.right, env)
        if isinstance(phi, Implies):
            return not ev(phi.left, env) or ev(phi.right, env)
        if isinstance(phi, Iff):
            return ev(phi.left, env) == ev(phi.right, env)
        if isinstance(phi, Exists):
            return any(ev(phi.body, {**env, phi.var: d}) for d in domain)
        if isinstance(phi, Forall):
            return all(ev(phi.body, {**env, phi.var: d}) for d in domain)
        raise InputError(f"not a formula node: {phi!r}")

    return ev(node, env)


# --- JSON wire format -----------------------------------------------------

def presentation_to_json(pres: AutomaticPresentation) -> dict:
    return {
        "signature": {name: arity for name, arity in pres.signature.predicates},
        "alphabet": list(pres.alphabet.letters),
        "domain": fa.automaton_to_json(pres.domain),
        "relations": {
            name: fa.automaton_to_json(pres.relations[name])
            for name, _ in pres.signature.predicates
        },
    }


def presentation_from_json(obj: dict) -> AutomaticPresentation:
    try:
        alphabet = fa.Alphabet(tuple(obj["alphabet"]))
        signature = Signature(tuple((n, int(k)) for n, k in obj["signature"].items()))
        domain = fa.automaton_or_regex(obj["domain"], alphabet)
        relations = {
            name: fa.automaton_or_regex(value, alphabet)
            for name, value in obj["relations"].items()
        }
    except KeyError as missing:
        raise InputError(f"presentation object lacks field {missing}") from None
    pres = AutomaticPresentation(signature, alphabet, domain, relations)
    found = validate(pres)
    if found:
        raise InputError(f"invalid presentation: {found[0]}")
    return pres
