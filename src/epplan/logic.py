"""First-order epistemic formulas: AST, parser, printer, classification,
and the standard translation into the one-free-variable history encoding.

Core constructors are Atom, Not, And, Forall, and Know; Or, Implies, Iff,
Exists, and the two constants are kept as first-class nodes so that
parsing and printing round-trip exactly.

``children`` is the one place that knows the shape of a node.  Every fact
the rest of the package asks of a formula (free and bound variables,
atoms, modal depth, quantifiers, nesting height) comes from one walk over
it, ``classify``; ``validate_against`` checks the atoms that walk found.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    MAX_NESTING,
    InputError,
    ParseError,
    VariableCaptureError,
)


@dataclass(frozen=True)
class Signature:
    """Ordered predicate names with arities (arity 0 is allowed)."""

    predicates: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.predicates]
        if len(set(names)) != len(names):
            raise InputError("duplicate predicate name in signature")
        for name, arity in self.predicates:
            if arity < 0:
                raise InputError(f"negative arity for {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.predicates)

    def arity(self, name: str) -> int:
        for n, k in self.predicates:
            if n == name:
                return k
        raise InputError(f"unknown predicate {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.predicates)


class Formula:
    """Base class; concrete nodes are frozen dataclasses below."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Know(Formula):
    agent: str
    body: Formula


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


TRUE = TrueFormula()
FALSE = FalseFormula()


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow2><->)|(?P<arrow>->)|(?P<sym>[!&|().,\[\]])|(?P<name>[A-Za-z_][A-Za-z0-9_']*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("arrow2"):
            tokens.append(("<->", "<->", m.start("arrow2")))
        elif m.group("arrow"):
            tokens.append(("->", "->", m.start("arrow")))
        elif m.group("sym"):
            tokens.append((m.group("sym"), m.group("sym"), m.start("sym")))
        else:
            tokens.append(("name", m.group("name"), m.start("name")))
        pos = m.end()
    return tokens


class _FormulaParser:
    """Precedence climbing: ! binds tightest, then &, |, ->, <->.

    Quantifiers and K[agent] grab everything to their right.
    """

    def __init__(self, tokens, signature: Signature):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature
        self.depth = 0

    def nested(self, parse) -> Formula:
        """Run ``parse`` for a subformula one level deeper."""
        if self.depth == MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels",
                             tok[2] if tok else None)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str):
        tok = self.peek()
        if tok is None or tok[0] != kind:
            where = tok[2] if tok else None
            raise ParseError(f"expected {kind!r}", where)
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        node = self.iff()
        if self.peek() is not None:
            raise ParseError("unexpected trailing input", self.peek()[2])
        # chains of & and | parse in a loop but still nest to the left
        if classify(node).height > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels")
        return node

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek() and self.peek()[0] == "<->":
            self.pos += 1
            return Iff(left, self.nested(self.iff))
        return left

    def implies(self) -> Formula:
        left = self.or_()
        if self.peek() and self.peek()[0] == "->":
            self.pos += 1
            return Implies(left, self.nested(self.implies))
        return left

    def or_(self) -> Formula:
        node = self.and_()
        while self.peek() and self.peek()[0] == "|":
            self.pos += 1
            node = Or(node, self.and_())
        return node

    def and_(self) -> Formula:
        node = self.unary()
        while self.peek() and self.peek()[0] == "&":
            self.pos += 1
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("formula ended unexpectedly", None)
        kind, value, at = tok
        if kind == "!":
            self.pos += 1
            return Not(self.nested(self.unary))
        if kind == "name" and value in ("forall", "exists"):
            self.pos += 1
            var = self.take("name")[1]
            self.take(".")
            body = self.nested(self.iff)  # scope extends maximally rightward
            return Forall(var, body) if value == "forall" else Exists(var, body)
        if kind == "name" and value == "K":
            self.pos += 1
            self.take("[")
            agent = self.take("name")[1]
            self.take("]")
            return Know(agent, self.nested(self.iff))
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("formula ended unexpectedly", None)
        kind, value, at = tok
        if kind == "(":
            self.pos += 1
            inner = self.nested(self.iff)
            self.take(")")
            return inner
        if kind != "name":
            raise ParseError(f"unexpected {value!r}", at)
        self.pos += 1
        if value == "true":
            return TRUE
        if value == "false":
            return FALSE
        args: tuple[str, ...] = ()
        if self.peek() and self.peek()[0] == "(":
            self.pos += 1
            names = []
            if self.peek() and self.peek()[0] != ")":
                names.append(self.take("name")[1])
                while self.peek() and self.peek()[0] == ",":
                    self.pos += 1
                    names.append(self.take("name")[1])
            self.take(")")
            args = tuple(names)
        if value not in self.signature:
            raise ParseError(f"unknown predicate {value!r}", at)
        expected = self.signature.arity(value)
        if expected != len(args):
            raise ParseError(
                f"predicate {value!r} expects {expected} arguments, got {len(args)}", at
            )
        return Atom(value, args)


def parse_formula(text: str, signature: Signature) -> Formula:
    """Parse the surface syntax; atoms are checked against the signature."""
    return _FormulaParser(_tokenize(text), signature).parse()


# --- printing ---------------------------------------------------------------

_LEVELS = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4}


def _level(node: Formula) -> int:
    if isinstance(node, (Forall, Exists, Know)):
        return 0  # binders reparse only from the lowest level
    return _LEVELS.get(type(node), 5)


def format_formula(node: Formula) -> str:
    check_nesting(classify(node))
    return _format(node)


def _format(node: Formula) -> str:
    def wrap(child: Formula, minimum: int) -> str:
        text = _format(child)
        return f"({text})" if _level(child) < minimum else text

    if isinstance(node, Atom):
        return node.predicate if not node.args else f"{node.predicate}({','.join(node.args)})"
    if isinstance(node, TrueFormula):
        return "true"
    if isinstance(node, FalseFormula):
        return "false"
    if isinstance(node, Not):
        return f"!{wrap(node.operand, 4)}"
    if isinstance(node, And):
        return f"{wrap(node.left, 3)} & {wrap(node.right, 4)}"
    if isinstance(node, Or):
        return f"{wrap(node.left, 2)} | {wrap(node.right, 3)}"
    if isinstance(node, Implies):
        return f"{wrap(node.left, 2)} -> {wrap(node.right, 1)}"
    if isinstance(node, Iff):
        return f"{wrap(node.left, 1)} <-> {wrap(node.right, 0)}"
    if isinstance(node, Forall):
        return f"forall {node.var}. {_format(node.body)}"
    if isinstance(node, Exists):
        return f"exists {node.var}. {_format(node.body)}"
    if isinstance(node, Know):
        return f"K[{node.agent}] {_format(node.body)}"
    raise InputError(f"not a formula node: {node!r}")


# --- classification ----------------------------------------------------------

def children(node: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of a node, left to right."""
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, (And, Or, Implies, Iff)):
        return (node.left, node.right)
    if isinstance(node, (Forall, Exists, Know)):
        return (node.body,)
    if isinstance(node, (Atom, TrueFormula, FalseFormula)):
        return ()
    raise InputError(f"not a formula node: {node!r}")


@dataclass(frozen=True)
class FormulaInfo:
    """What one walk over a formula learns about it."""

    free_vars: tuple[str, ...]  # in order of first free occurrence
    variables: frozenset[str]  # bound or free
    atoms: tuple[Atom, ...]  # in pre-order
    modal_depth: int
    quantifier_free: bool
    height: int  # how deeply operators nest

    @property
    def modal(self) -> bool:
        return self.modal_depth > 0

    @property
    def closed(self) -> bool:
        return not self.free_vars


def classify(node: Formula) -> FormulaInfo:
    """Every fact above in one pre-order walk, left to right; the walk
    keeps its own stack, so deep formulas cost no recursion."""
    free: dict[str, None] = {}
    variables: set[str] = set()
    atoms: list[Atom] = []
    modal_depth = height = 0
    quantifier_free = True
    stack = [(node, frozenset(), 0, 0)]  # node, bound variables, depth, K depth
    while stack:
        node, bound, depth, k_depth = stack.pop()
        height = max(height, depth)
        if isinstance(node, Atom):
            atoms.append(node)
            variables.update(node.args)
            free.update((v, None) for v in node.args if v not in bound)
        elif isinstance(node, (Forall, Exists)):
            quantifier_free = False
            variables.add(node.var)
            bound = bound | {node.var}
        elif isinstance(node, Know):
            k_depth += 1
            modal_depth = max(modal_depth, k_depth)
        stack.extend((c, bound, depth + 1, k_depth) for c in reversed(children(node)))
    return FormulaInfo(tuple(free), frozenset(variables), tuple(atoms),
                       modal_depth, quantifier_free, height)


def validate_against(node: Formula, signature: Signature) -> FormulaInfo:
    """Check every atom's predicate and arity, raising InputError at the
    first mismatch; returns the formula's ``classify`` facts."""
    info = classify(node)
    for atom in info.atoms:
        if atom.predicate not in signature:
            raise InputError(f"unknown predicate {atom.predicate!r}")
        expected = signature.arity(atom.predicate)
        if expected != len(atom.args):
            raise InputError(
                f"predicate {atom.predicate!r} expects {expected} arguments, "
                f"got {len(atom.args)}"
            )
    return info


def check_nesting(info: FormulaInfo) -> None:
    """Refuse a formula that nests deeper than ``MAX_NESTING`` levels, as
    the parser does; the translation and compilation passes recurse once
    per level.  For formulas built through the API, at the calls that
    take them in: formulas derived from them, such as a standard
    translation, may nest deeper."""
    if info.height > MAX_NESTING:
        raise InputError(f"formula nests deeper than {MAX_NESTING} levels")


# --- the history vocabulary ---------------------------------------------------

# Derived predicate names use "^", which the surface syntax cannot produce,
# so they can never collide with a parsed base signature.

def hat_name(predicate: str) -> str:
    return predicate + "^"


def knows_name(agent: str) -> str:
    return "ep^" + agent


def origin_name(world: str) -> str:
    return "from^" + world


DOM_NAME = "dom^"


def history_signature(base: Signature, agents: tuple[str, ...],
                      worlds: tuple[str, ...]) -> Signature:
    """Signature of the history structure: one lifted copy of each base
    predicate plus accessibility, origin, and element-of-copy relations."""
    entries: list[tuple[str, int]] = []
    entries.extend((knows_name(a), 2) for a in agents)
    entries.extend((hat_name(p), k + 1) for p, k in base.predicates)
    entries.extend((origin_name(w), 1) for w in worlds)
    entries.append((DOM_NAME, 2))
    taken = set(base.names())
    clash = [n for n, _ in entries if n in taken]
    if clash:
        raise InputError(f"history predicate names collide with the base signature: {clash}")
    return Signature(tuple(entries))


def standard_translation(node: Formula, hist_var: str) -> Formula:
    """Translate an epistemic formula into first-order form over histories.

    ``hist_var`` names the current history; each K nesting introduces a
    primed copy.  The history variables must not occur in the formula.
    """
    info = classify(node)
    needed = {hist_var + "'" * i for i in range(info.modal_depth + 1)}
    if needed & info.variables:
        raise VariableCaptureError(
            f"history variable {hist_var!r} (or a primed copy) occurs in the formula"
        )

    def st(phi: Formula, y: str) -> Formula:
        if isinstance(phi, Atom):
            lifted: Formula = Atom(hat_name(phi.predicate), (y,) + phi.args)
            for v in phi.args:
                lifted = And(lifted, Atom(DOM_NAME, (y, v)))
            return lifted
        if isinstance(phi, (Not, And, Or, Implies, Iff)):
            return type(phi)(*(st(c, y) for c in children(phi)))
        if isinstance(phi, Forall):
            return Forall(phi.var, Implies(Atom(DOM_NAME, (y, phi.var)), st(phi.body, y)))
        if isinstance(phi, Exists):
            return Exists(phi.var, And(Atom(DOM_NAME, (y, phi.var)), st(phi.body, y)))
        if isinstance(phi, Know):
            nxt = y + "'"
            return Forall(nxt, Implies(Atom(knows_name(phi.agent), (y, nxt)),
                                       st(phi.body, nxt)))
        return phi  # the constants; classify refused anything else

    return st(node, hist_var)


def fresh_history_var(node: Formula, base: str = "y") -> str:
    """A variable name whose primed copies avoid everything in ``node``."""
    info = classify(node)
    candidates = [base] + [f"{base}{i}" for i in range(10)]
    for cand in candidates:
        if all(cand + "'" * i not in info.variables for i in range(info.modal_depth + 1)):
            return cand
    raise VariableCaptureError("could not find a collision-free history variable")
