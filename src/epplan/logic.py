"""First-order epistemic formulas: AST, parser, printer, classification,
and the standard translation into the one-free-variable history encoding.

Core constructors are Atom, Not, And, Forall, and Know; Or, Implies, Iff,
Exists, and the two constants are kept as first-class nodes so that
parsing and printing round-trip exactly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    MAX_NESTING,
    FragmentError,
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


def _height(node: Formula) -> int:
    """How deeply operators nest in a formula, found without recursion."""
    height, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        if isinstance(node, Not):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, (Forall, Exists, Know)):
            stack.append((node.body, depth + 1))
    return height


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
        if _height(node) > MAX_NESTING:
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
    def wrap(child: Formula, minimum: int) -> str:
        text = format_formula(child)
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
        return f"forall {node.var}. {format_formula(node.body)}"
    if isinstance(node, Exists):
        return f"exists {node.var}. {format_formula(node.body)}"
    if isinstance(node, Know):
        return f"K[{node.agent}] {format_formula(node.body)}"
    raise InputError(f"not a formula node: {node!r}")


# --- classification ----------------------------------------------------------

@dataclass(frozen=True)
class FormulaInfo:
    free_vars: tuple[str, ...]
    modal: bool
    quantifier_free: bool
    closed: bool


def _walk_free(node: Formula, bound: frozenset[str], acc: list[str]):
    if isinstance(node, Atom):
        for v in node.args:
            if v not in bound and v not in acc:
                acc.append(v)
    elif isinstance(node, Not):
        _walk_free(node.operand, bound, acc)
    elif isinstance(node, (And, Or, Implies, Iff)):
        _walk_free(node.left, bound, acc)
        _walk_free(node.right, bound, acc)
    elif isinstance(node, (Forall, Exists)):
        _walk_free(node.body, bound | {node.var}, acc)
    elif isinstance(node, Know):
        _walk_free(node.body, bound, acc)


def free_variables(node: Formula) -> tuple[str, ...]:
    """Free variables in order of first free occurrence."""
    acc: list[str] = []
    _walk_free(node, frozenset(), acc)
    return tuple(acc)


def all_variables(node: Formula) -> frozenset[str]:
    if isinstance(node, Atom):
        return frozenset(node.args)
    if isinstance(node, Not):
        return all_variables(node.operand)
    if isinstance(node, (And, Or, Implies, Iff)):
        return all_variables(node.left) | all_variables(node.right)
    if isinstance(node, (Forall, Exists)):
        return all_variables(node.body) | {node.var}
    if isinstance(node, Know):
        return all_variables(node.body)
    return frozenset()


def _is_modal(node: Formula) -> bool:
    if isinstance(node, Know):
        return True
    if isinstance(node, Not):
        return _is_modal(node.operand)
    if isinstance(node, (And, Or, Implies, Iff)):
        return _is_modal(node.left) or _is_modal(node.right)
    if isinstance(node, (Forall, Exists)):
        return _is_modal(node.body)
    return False


def _has_quantifier(node: Formula) -> bool:
    if isinstance(node, (Forall, Exists)):
        return True
    if isinstance(node, Not):
        return _has_quantifier(node.operand)
    if isinstance(node, (And, Or, Implies, Iff)):
        return _has_quantifier(node.left) or _has_quantifier(node.right)
    if isinstance(node, Know):
        return _has_quantifier(node.body)
    return False


def modal_depth(node: Formula) -> int:
    if isinstance(node, Know):
        return 1 + modal_depth(node.body)
    if isinstance(node, Not):
        return modal_depth(node.operand)
    if isinstance(node, (And, Or, Implies, Iff)):
        return max(modal_depth(node.left), modal_depth(node.right))
    if isinstance(node, (Forall, Exists)):
        return modal_depth(node.body)
    return 0


def classify(node: Formula) -> FormulaInfo:
    free = free_variables(node)
    return FormulaInfo(
        free_vars=free,
        modal=_is_modal(node),
        quantifier_free=not _has_quantifier(node),
        closed=not free,
    )


def validate_against(node: Formula, signature: Signature):
    """Check every atom's predicate and arity; raises InputError on mismatch."""
    if isinstance(node, Atom):
        if node.predicate not in signature:
            raise InputError(f"unknown predicate {node.predicate!r}")
        expected = signature.arity(node.predicate)
        if expected != len(node.args):
            raise InputError(
                f"predicate {node.predicate!r} expects {expected} arguments, "
                f"got {len(node.args)}"
            )
    elif isinstance(node, Not):
        validate_against(node.operand, signature)
    elif isinstance(node, (And, Or, Implies, Iff)):
        validate_against(node.left, signature)
        validate_against(node.right, signature)
    elif isinstance(node, (Forall, Exists)):
        validate_against(node.body, signature)
    elif isinstance(node, Know):
        validate_against(node.body, signature)
    elif not isinstance(node, (TrueFormula, FalseFormula)):
        raise InputError(f"not a formula node: {node!r}")


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
    depth = modal_depth(node)
    needed = {hist_var + "'" * i for i in range(depth + 1)}
    if needed & all_variables(node):
        raise VariableCaptureError(
            f"history variable {hist_var!r} (or a primed copy) occurs in the formula"
        )

    def st(phi: Formula, y: str) -> Formula:
        if isinstance(phi, Atom):
            lifted: Formula = Atom(hat_name(phi.predicate), (y,) + phi.args)
            for v in phi.args:
                lifted = And(lifted, Atom(DOM_NAME, (y, v)))
            return lifted
        if isinstance(phi, Not):
            return Not(st(phi.operand, y))
        if isinstance(phi, And):
            return And(st(phi.left, y), st(phi.right, y))
        if isinstance(phi, Or):
            return Or(st(phi.left, y), st(phi.right, y))
        if isinstance(phi, Implies):
            return Implies(st(phi.left, y), st(phi.right, y))
        if isinstance(phi, Iff):
            return Iff(st(phi.left, y), st(phi.right, y))
        if isinstance(phi, Forall):
            return Forall(phi.var, Implies(Atom(DOM_NAME, (y, phi.var)), st(phi.body, y)))
        if isinstance(phi, Exists):
            return Exists(phi.var, And(Atom(DOM_NAME, (y, phi.var)), st(phi.body, y)))
        if isinstance(phi, Know):
            nxt = y + "'"
            return Forall(nxt, Implies(Atom(knows_name(phi.agent), (y, nxt)),
                                       st(phi.body, nxt)))
        if isinstance(phi, (TrueFormula, FalseFormula)):
            return phi
        raise InputError(f"not a formula node: {phi!r}")

    return st(node, hist_var)


def require_non_modal(node: Formula, context: str):
    if _is_modal(node):
        raise FragmentError(f"{context} must not contain knowledge operators")


def fresh_history_var(node: Formula, base: str = "y") -> str:
    """A variable name whose primed copies avoid everything in ``node``."""
    used = all_variables(node)
    depth = modal_depth(node)
    candidates = [base] + [f"{base}{i}" for i in range(10)]
    for cand in candidates:
        if all(cand + "'" * i not in used for i in range(depth + 1)):
            return cand
    raise VariableCaptureError("could not find a collision-free history variable")
