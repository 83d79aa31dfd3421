"""Finite-state acceptors over multi-track padded alphabets.

A k-ary relation on words is recognized by reading the convolution of a
k-tuple: tracks are aligned position by position and shorter tracks are
filled at the end with the reserved pad symbol ``_``.  A convolution is
valid when pads form a suffix on every track and no position is all-pad.
All operations are pure; automata are immutable values.

States are integers ``0..states-1``.  Nondeterminism is allowed
everywhere; ``canonicalize`` produces the minimal trim DFA with a
breadth-first state numbering, so two automata denote the same relation
exactly when their canonical forms are equal.

Every construction that discovers its states runs one breadth-first
loop, ``_Builder.explore``, bounded by one cap: past ``STATE_CAP`` states
it raises ``ResourceLimitError``.  Each builds one automaton, its result;
``_Builder.trimmed`` emits only the live states.  One pad walk on (state,
tracks padded so far) keys, ``_pad_walk``, keeps the filter, projection,
emptiness and witnesses to valid convolutions, and ``canonicalize`` tracks
pads in its subset construction.  Every reachability closure is ``_closure``.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .errors import (
    MAX_NESTING,
    InputError,
    ParseError,
    ResourceLimitError,
    TrackMismatchError,
)

PAD = "_"

# No construction grows beyond this many states (``_Builder.explore``).
STATE_CAP = 1_000_000

Word = tuple[str, ...]
Label = tuple[str, ...]
Transition = tuple[int, Label, int]

_SRC, _LABEL, _DST = itemgetter(0), itemgetter(1), itemgetter(2)
_SOURCE_LABEL = itemgetter(0, 1)


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of letters; the pad symbol is reserved and implicit."""

    letters: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if len(set(letters)) != len(letters):
            raise InputError("alphabet letters must be distinct")
        if PAD in letters:
            raise InputError(f"the pad symbol {PAD!r} may not be an alphabet letter")
        if any(not isinstance(x, str) or not x for x in letters):
            raise InputError("alphabet letters must be non-empty strings")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(letters)})

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def key(self, symbol: str) -> int:
        """Sort index of a symbol; the pad sorts after every letter."""
        if symbol == PAD:
            return len(self.letters)
        try:
            return self._index[symbol]
        except KeyError:
            raise InputError(f"unknown letter {symbol!r}") from None

    def label_key(self, label: Label) -> tuple[int, ...]:
        return tuple(self.key(s) for s in label)

    def tuples(self, tracks: int):
        """All non-all-pad k-tuples over letters plus pad, in sort order."""
        symbols = self.letters + (PAD,)
        for combo in itertools.product(symbols, repeat=tracks):
            if any(s != PAD for s in combo):
                yield combo


@dataclass(frozen=True)
class Automaton:
    """An NFA over k-track labels.  The all-pad label is forbidden.

    The intended invariant, preserved by every operation here, is that
    only valid convolutions are accepted; ``validate`` on a presentation
    checks it for hand-built or deserialized automata.
    """

    tracks: int
    alphabet: Alphabet
    states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions: frozenset[Transition]
    deterministic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        if self.tracks < 0:
            raise InputError("track count must be >= 0")
        # every construction is checked, so the checks run as C-level
        # passes; only a failing one walks the edges again, to name the fault
        try:
            sound = self._sound()
        except (TypeError, IndexError):  # odd values: let the loop judge them
            sound = False
        if not sound:
            self._check_one_by_one()
        if self.deterministic and len(self.initial) != 1:
            raise InputError("deterministic flag requires exactly one initial state")

    def _sound(self) -> bool:
        """Whether every state and edge is well formed, without a per-edge
        Python loop and without collecting the distinct labels."""
        ends = self.initial | self.accepting
        if ends and not (min(ends) >= 0 and max(ends) < self.states):
            return False
        edges = self.transitions
        if not edges:
            return True
        if not (min(map(_SRC, edges)) >= 0 and max(map(_SRC, edges)) < self.states
                and min(map(_DST, edges)) >= 0 and max(map(_DST, edges)) < self.states):
            return False
        if (set(map(type, map(_LABEL, edges))) != {tuple}
                or set(map(len, map(_LABEL, edges))) != {self.tracks}):
            return False
        symbols = set(itertools.chain.from_iterable(map(_LABEL, edges)))
        symbols.discard(PAD)
        if not symbols <= self.alphabet._index.keys():
            return False
        if (PAD,) * self.tracks in map(_LABEL, edges):
            return False
        return not self.deterministic or len(set(map(_SOURCE_LABEL, edges))) == len(edges)

    def _check_one_by_one(self):
        """The same checks state by state and edge by edge; raises for the
        first fault in iteration order."""
        for s in self.initial | self.accepting:
            if not 0 <= s < self.states:
                raise InputError(f"state {s} out of range")
        seen = set()
        for src, label, dst in self.transitions:
            if not (0 <= src < self.states and 0 <= dst < self.states):
                raise InputError("transition endpoint out of range")
            if len(label) != self.tracks:
                raise TrackMismatchError(
                    f"label {label!r} has {len(label)} tracks, automaton has {self.tracks}"
                )
            if all(s == PAD for s in label):
                raise InputError("the all-pad tuple may not label a transition")
            for sym in label:
                if sym != PAD and sym not in self.alphabet:
                    raise InputError(f"label symbol {sym!r} not in alphabet")
            if self.deterministic:
                if (src, label) in seen:
                    raise InputError("deterministic flag set but transitions branch")
                seen.add((src, label))

    def __repr__(self):  # keep test failure output readable
        return (
            f"Automaton(tracks={self.tracks}, states={self.states}, "
            f"initial={sorted(self.initial)}, accepting={sorted(self.accepting)}, "
            f"transitions={len(self.transitions)})"
        )


def _out_map(a: Automaton) -> dict[int, dict[Label, set[int]]]:
    out: dict[int, dict[Label, set[int]]] = {}
    for src, label, dst in a.transitions:
        out.setdefault(src, {}).setdefault(label, set()).add(dst)
    return out


class _Builder:
    """Collects states keyed by arbitrary hashables, then emits an Automaton."""

    def __init__(self, alphabet: Alphabet, tracks: int):
        self.alphabet = alphabet
        self.tracks = tracks
        self.ids: dict = {}
        self.edges: set[Transition] = set()

    def state(self, key) -> int:
        if key not in self.ids:
            self.ids[key] = len(self.ids)
        return self.ids[key]

    def edge(self, src_key, label: Label, dst_key):
        self.edges.add((self.state(src_key), label, self.state(dst_key)))

    def explore(self, start, moves):
        """Walk breadth first from the ``start`` keys, adding the edges
        that ``moves(key)`` yields as ``(label, next_key)``.  Keys are
        numbered in order of first mention; returns the keys seen.  Raises
        ResourceLimitError once the construction passes ``STATE_CAP`` states.
        """
        ids, edges, cap = self.ids, self.edges, STATE_CAP
        queue: deque = deque()
        for key in start:
            if key not in ids:
                ids[key] = len(ids)
                queue.append(key)
        while queue:
            if len(ids) > cap:
                raise ResourceLimitError(
                    f"automaton construction exceeded the state cap ({cap})")
            key = queue.popleft()
            src = ids[key]
            for label, nxt in moves(key):
                dst = ids.get(nxt)
                if dst is None:
                    dst = ids[nxt] = len(ids)
                    queue.append(nxt)
                edges.add((src, label, dst))
        return ids.keys()

    def build(self, initial_keys, accepting_keys, deterministic=False) -> Automaton:
        return Automaton(
            tracks=self.tracks,
            alphabet=self.alphabet,
            states=max(len(self.ids), 1),
            initial=frozenset(self.state(k) for k in initial_keys),
            accepting=frozenset(self.state(k) for k in accepting_keys if k in self.ids),
            transitions=frozenset(self.edges),
            deterministic=deterministic,
        )

    def trimmed(self, initial_keys, accepting_keys) -> Automaton:
        """``trim(self.build(initial_keys, accepting_keys))``, built once."""
        initial = {self.state(k) for k in initial_keys}
        accepting = {self.ids[k] for k in accepting_keys if k in self.ids}
        return _trimmed(self.alphabet, self.tracks, initial, accepting, self.edges)


def empty_automaton(alphabet: Alphabet, tracks: int) -> Automaton:
    return Automaton(tracks, alphabet, 1, frozenset({0}), frozenset(), frozenset())


def epsilon_automaton(alphabet: Alphabet, tracks: int) -> Automaton:
    """Accepts exactly the tuple of empty words."""
    return Automaton(tracks, alphabet, 1, frozenset({0}), frozenset({0}), frozenset())


def universal_words(alphabet: Alphabet) -> Automaton:
    """One-track automaton accepting every word."""
    edges = frozenset((0, (x,), 0) for x in alphabet.letters)
    return Automaton(1, alphabet, 1, frozenset({0}), frozenset({0}), edges, deterministic=True)


def _pads(label: Label) -> frozenset[int]:
    """The positions of ``label`` that read the pad."""
    return frozenset(i for i, s in enumerate(label) if s == PAD)


@lru_cache(maxsize=None)
def valid_convolutions(alphabet: Alphabet, tracks: int) -> Automaton:
    """Accepts every valid k-track convolution: pads only as per-track suffixes.

    Cached: the label set grows as |letters|^k, and intersection guards
    request the same instance constantly.  Automata are immutable, so
    sharing is safe.
    """
    if tracks == 0:
        return epsilon_automaton(alphabet, 0)
    pads = [(label, _pads(label)) for label in alphabet.tuples(tracks)]
    b = _Builder(alphabet, tracks)
    seen = b.explore([frozenset()], lambda padded: (
        (label, now) for label, now in pads if padded <= now))
    return b.build([frozenset()], seen)


def _pad_walk(a: Automaton) -> tuple[_Builder, list, list]:
    """Walk ``a`` on ``(state, tracks padded so far)`` keys along the labels
    that keep a convolution valid, never proportional to |letters|^k.
    Returns the builder, the start keys and the accepting keys reached."""
    out = _out_map(a)

    def moves(key):
        q, padded = key
        for label, dsts in out.get(q, {}).items():
            pads = _pads(label)
            if padded <= pads:  # a padded track may not resume
                for dst in dsts:
                    yield label, (dst, pads)

    bld = _Builder(a.alphabet, a.tracks)
    start = [(q, frozenset()) for q in a.initial]
    seen = bld.explore(start, moves)
    return bld, start, [key for key in seen if key[0] in a.accepting]


def _pad_filter(a: Automaton) -> Automaton:
    """``a`` intersected with the valid convolutions."""
    if a.tracks == 0:
        return a
    bld, start, accepting = _pad_walk(a)
    return bld.build(start, accepting)


def convolve(words: tuple[Word, ...]) -> list[Label]:
    length = max((len(w) for w in words), default=0)
    return [
        tuple(w[i] if i < len(w) else PAD for w in words) for i in range(length)
    ]


def deconvolve(labels: list[Label], tracks: int) -> tuple[Word, ...]:
    words = []
    for t in range(tracks):
        col = [lab[t] for lab in labels]
        while col and col[-1] == PAD:
            col.pop()
        if PAD in col:
            raise InputError("pad occurs before the end of a track")
        words.append(tuple(col))
    return tuple(words)


def accepts(a: Automaton, words: tuple[Word, ...]) -> bool:
    """Membership of a tuple of words, by direct NFA simulation."""
    if len(words) != a.tracks:
        raise TrackMismatchError(f"expected {a.tracks} words, got {len(words)}")
    for w in words:
        for sym in w:
            if sym not in a.alphabet:
                raise InputError(f"unknown letter {sym!r}")
    out = _out_map(a)
    current = set(a.initial)
    for label in convolve(words):
        current = {q for s in current for q in out.get(s, {}).get(label, ())}
        if not current:
            return False
    return bool(current & a.accepting)


def _closure(seeds, adjacency: dict) -> set:
    """Everything reachable from ``seeds`` along ``adjacency``, seeds included."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _trimmed(alphabet: Alphabet, tracks: int, initial, accepting, edges) -> Automaton:
    """The automaton of these parts cut down to the states that are
    reachable and can reach acceptance, renumbered in sorted order."""
    fwd: dict[int, set[int]] = {}
    bwd: dict[int, set[int]] = {}
    for src, _, dst in edges:
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)
    alive = sorted(_closure(initial, fwd) & _closure(accepting, bwd))
    if not alive:
        return empty_automaton(alphabet, tracks)
    ids = {q: i for i, q in enumerate(alive)}
    return Automaton(
        tracks, alphabet, len(alive),
        frozenset(ids[q] for q in initial if q in ids),
        frozenset(ids[q] for q in accepting if q in ids),
        frozenset((ids[s], lab, ids[d]) for s, lab, d in edges if s in ids and d in ids),
    )


def trim(a: Automaton) -> Automaton:
    """Drop states that are unreachable or cannot reach acceptance."""
    return _trimmed(a.alphabet, a.tracks, a.initial, a.accepting, a.transitions)


def _check_compatible(a: Automaton, b: Automaton):
    if a.tracks != b.tracks:
        raise TrackMismatchError(f"track mismatch: {a.tracks} vs {b.tracks}")
    if a.alphabet != b.alphabet:
        raise TrackMismatchError("operands use different alphabets")


def _product_and(a: Automaton, b: Automaton) -> Automaton:
    _check_compatible(a, b)
    out_a, out_b = _out_map(a), _out_map(b)

    def moves(key):
        p, q = key
        row_a = out_a.get(p, {})
        row_b = out_b.get(q, {})
        small, large = (row_a, row_b) if len(row_a) <= len(row_b) else (row_b, row_a)
        for label in small:
            if label in large:
                for p2 in row_a[label]:
                    for q2 in row_b[label]:
                        yield label, (p2, q2)

    bld = _Builder(a.alphabet, a.tracks)
    start = [(p, q) for p in a.initial for q in b.initial]
    seen = bld.explore(start, moves)
    accepting = [k for k in seen if k[0] in a.accepting and k[1] in b.accepting]
    return bld.trimmed(start, accepting)


def _union(a: Automaton, b: Automaton) -> Automaton:
    _check_compatible(a, b)
    off = a.states
    edges = set(a.transitions)
    edges |= {(s + off, lab, d + off) for s, lab, d in b.transitions}
    return Automaton(
        a.tracks,
        a.alphabet,
        a.states + b.states,
        a.initial | frozenset(q + off for q in b.initial),
        a.accepting | frozenset(q + off for q in b.accepting),
        frozenset(edges),
    )


def boolean_combine(a: Automaton, b: Automaton, op: str) -> Automaton:
    """Intersection, union, or difference of two same-shape automata."""
    if op == "and":
        return _product_and(a, b)
    if op == "or":
        return _union(a, b)
    if op == "minus":
        return _minus(a, b)
    raise InputError(f"unknown boolean op {op!r}")


def _minus(a: Automaton, b: Automaton) -> Automaton:
    """Exact difference L(a) \\ L(b), walking only labels ``a`` actually has.

    ``b`` is determinized and read with an implicit sink, so the label
    space is never enumerated; the cost is bounded by the edges of ``a``.
    """
    _check_compatible(a, b)
    det = determinize(b)
    out_a, out_d = _out_map(a), _out_map(det)
    SINK = -1  # not a state of ``det``: no moves, not accepting

    def moves(key):
        p, dq = key
        row_d = out_d.get(dq, {})
        for label, pdsts in out_a.get(p, {}).items():
            dd = row_d.get(label)
            d2 = next(iter(dd)) if dd else SINK
            for p2 in pdsts:
                yield label, (p2, d2)

    bld = _Builder(a.alphabet, a.tracks)
    start = [(p, q) for p in a.initial for q in det.initial]
    seen = bld.explore(start, moves)
    accepting = [(p, dq) for p, dq in seen if p in a.accepting and dq not in det.accepting]
    return bld.trimmed(start, accepting)


def _grouped(out: dict[int, dict[Label, set[int]]], subset) -> dict[Label, set[int]]:
    """The moves of every state in ``subset``, merged by label."""
    moves: dict[Label, set[int]] = {}
    for q in subset:
        for label, dsts in out.get(q, {}).items():
            moves.setdefault(label, set()).update(dsts)
    return moves


def determinize(a: Automaton) -> Automaton:
    """Subset construction; only labels with outgoing moves are materialized."""
    out = _out_map(a)
    start = frozenset(a.initial)
    bld = _Builder(a.alphabet, a.tracks)
    seen = bld.explore([start], lambda subset: (
        (label, frozenset(dsts)) for label, dsts in _grouped(out, subset).items()))
    accepting = [s for s in seen if s & a.accepting]
    return bld.build([start], accepting, deterministic=True)


def complement(a: Automaton) -> Automaton:
    """Valid convolutions of the same shape not accepted by ``a``.

    Complementation is relative to the valid-convolution language, so
    the result again satisfies the padding invariant.
    """
    return _minus(valid_convolutions(a.alphabet, a.tracks), a)


_JOIN_DONE = -1  # a component whose tracks have all run out of letters


def _picker(indices: tuple[int, ...]):
    """A function taking a sequence to the tuple of its items at ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def track_join(alphabet: Alphabet, tracks: int,
               components: list[tuple[Automaton, tuple[int, ...]]]) -> Automaton:
    """Synchronous product of automata each reading its own 0-based track
    positions; every position must be read by some component.

    A hash join at each product state: a component's moves are indexed by
    the symbols they put on positions an earlier component already fixed,
    and a partial label is extended only by the moves that agree with it,
    in the order the full product of moves would list them.  Walks only
    labels the components actually have, so nothing here is proportional
    to |alphabet|^tracks.  Suffix-only padding is enforced with a
    per-position mask, and a finished component keeps consuming all-pad
    sub-labels.
    """
    outs = [_out_map(c) for c, _ in components]
    # A partial label holds one symbol per slot, slots in the order their
    # positions are first read.  Per component: which of its symbols form
    # the join key and which slots they must match, which pairs of its
    # symbols read one position twice, and which symbols fill new slots.
    slot_of: dict[int, int] = {}
    shapes = []
    for _, positions in components:
        keyed, slots, twice, fresh, first = [], [], [], [], {}
        for j, pos in enumerate(positions):
            if pos in first:
                twice.append((j, first[pos]))
                continue
            first[pos] = j
            if pos in slot_of:
                keyed.append(j)
                slots.append(slot_of[pos])
            else:
                slot_of[pos] = len(slot_of)
                fresh.append(j)
        shapes.append((_picker(tuple(keyed)), _picker(tuple(slots)), twice,
                       _picker(tuple(fresh))))
    arrange = _picker(tuple(slot_of[p] for p in range(tracks)))
    indexes: dict[tuple[int, int], dict] = {}

    def index(i: int, state: int) -> dict:
        """Component ``i``'s moves at ``state`` as ``(fresh symbols, next
        state)``, bucketed by join key; built once per call."""
        if (i, state) in indexes:
            return indexes[i, state]
        auto, positions = components[i]
        key_of, _, twice, fresh_of = shapes[i]
        pad_sub = (PAD,) * len(positions)
        if state == _JOIN_DONE:
            steps = [(pad_sub, _JOIN_DONE)]
        else:
            steps = [(lab, dst)
                     for lab, dsts in outs[i].get(state, {}).items()
                     for dst in dsts]
            if state in auto.accepting:
                steps.append((pad_sub, _JOIN_DONE))
        buckets: dict = {}
        for sub, dst in steps:
            if all(sub[j] == sub[k] for j, k in twice):
                buckets.setdefault(key_of(sub), []).append((fresh_of(sub), dst))
        indexes[i, state] = buckets
        return buckets

    pad_all = (PAD,) * tracks
    pads_of: dict[Label, frozenset[int]] = {}

    def moves(key):
        combo, padded = key
        partial = [((), ())]
        for i, q in enumerate(combo):
            buckets, wanted = index(i, q), shapes[i][1]
            partial = [(syms + fresh, nxt + (dst,))
                       for syms, nxt in partial
                       for fresh, dst in buckets.get(wanted(syms), ())]
        for syms, nxt in partial:
            label = arrange(syms)
            pads = pads_of.get(label)
            if pads is None:
                pads = pads_of[label] = _pads(label)
            if padded <= pads and label != pad_all:  # a padded track may not resume
                yield label, (nxt, pads)

    bld = _Builder(alphabet, tracks)
    start = [(combo, frozenset())
             for combo in itertools.product(*(c.initial for c, _ in components))]
    seen = bld.explore(start, moves)
    accepting = [key for key in seen if all(q == _JOIN_DONE or q in c.accepting
                                            for q, (c, _) in zip(key[0], components))]
    return bld.trimmed(start, accepting)


def substitute_tracks(a: Automaton, sigma: tuple[int, ...], tracks: int,
                      universe: Automaton | None = None) -> Automaton:
    """Reindex tracks: the result accepts (w1..wk) iff (w_sigma(1)..w_sigma(m))
    is accepted by ``a``.

    ``sigma`` is 1-based and need not be injective.  Tracks outside its
    range are constrained only by membership in ``universe``, which must
    be given when there are any.
    """
    if len(sigma) != a.tracks:
        raise TrackMismatchError(f"sigma has {len(sigma)} entries, automaton {a.tracks} tracks")
    if any(not 1 <= t <= tracks for t in sigma):
        raise InputError("sigma entry out of range")
    if universe is not None and universe.tracks != 1:
        raise TrackMismatchError("universe must be a one-track automaton")

    free = tuple(p for p in range(tracks) if (p + 1) not in sigma)
    if free and universe is None:
        raise InputError(f"sigma leaves tracks {[p + 1 for p in free]} unmapped "
                         "and no universe ranges over them")
    components = [(a, tuple(t - 1 for t in sigma))]
    components.extend((universe, (p,)) for p in free)
    return track_join(a.alphabet, tracks, components)


def project(a: Automaton, position: int) -> Automaton:
    """Drop one track, closing over the pads the removed track leaves behind.

    A surviving tuple is accepted iff some word can be reinserted at
    ``position`` to make ``a`` accept; runs where only the dropped track
    kept going are folded into the accepting set first.
    """
    if a.tracks < 1:
        raise TrackMismatchError("cannot project a 0-track automaton")
    if not 1 <= position <= a.tracks:
        raise InputError(f"no track at position {position}")
    bld, start, accepting = _pad_walk(a)
    pos = position - 1
    # acceptance saturates back along moves where every remaining track pads
    tail: dict[int, set[int]] = {}
    edges = set()
    for s, lab, d in bld.edges:
        new = lab[:pos] + lab[pos + 1:]
        if any(x != PAD for x in new):
            edges.add((s, new, d))
        else:
            tail.setdefault(d, set()).add(s)
    saturated = _closure({bld.ids[k] for k in accepting}, tail)
    return _trimmed(a.alphabet, a.tracks - 1, {bld.ids[k] for k in start}, saturated,
                    edges)


def _label_ranks(alphabet: Alphabet, edges) -> dict[Label, int]:
    """Each distinct label's place in sort order, keying every label once."""
    labels = {lab for _, lab, _ in edges}
    return {lab: i for i, lab in enumerate(sorted(labels, key=alphabet.label_key))}


def _sorted_transitions(a: Automaton) -> list[Transition]:
    """Transitions by source, label sort order, then target."""
    rank = _label_ranks(a.alphabet, a.transitions)
    return sorted(a.transitions, key=lambda t: (t[0], rank[t[1]], t[2]))


def _valid_subsets(a: Automaton) -> tuple[set[Transition], set[int]]:
    """Edges and accepting states of ``determinize(_pad_filter(a))``, initial
    state 0, with no automaton built: all states of one subset there carry
    the pads of the last label, so keys here are (subset, those pads)."""
    out = _out_map(a)

    def moves(key):
        subset, padded = key
        for label, dsts in _grouped(out, subset).items():
            pads = _pads(label)
            if padded <= pads:  # a padded track may not resume
                yield label, (frozenset(dsts), pads)

    bld = _Builder(a.alphabet, a.tracks)
    seen = bld.explore([(frozenset(a.initial), frozenset())], moves)
    return bld.edges, {bld.ids[key] for key in seen if key[0] & a.accepting}


def canonicalize(a: Automaton) -> Automaton:
    """Minimal trim DFA of the accepted tuple set, BFS-numbered.

    Minimization is Hopcroft partition refinement, O(m log n) in the m
    edges and n live states of the determinized automaton.  Missing
    transitions mean rejection; the sink is implicit and never stored,
    so the label space is not enumerated.  Equal relations yield
    structurally identical results, so canonical forms can be compared
    or hashed directly.
    """
    # the subset keys are gone once this returns: refinement needs none
    edges, accepting = _valid_subsets(a)
    bwd: dict[int, set[int]] = {}
    for s, _, d in edges:
        bwd.setdefault(d, set()).add(s)
    # every determinized state is reachable, so live = co-reachable
    live = _closure(accepting, bwd)
    if 0 not in live:  # the initial state
        return Automaton(a.tracks, a.alphabet, 1, frozenset({0}), frozenset(),
                         frozenset(), deterministic=True)

    rank = _label_ranks(a.alphabet, edges)
    rows: dict[int, list[tuple[int, Label, int]]] = {q: [] for q in live}
    inv: dict[int, list[tuple[int, int]]] = {q: [] for q in live}
    for s, lab, d in edges:
        if s in live and d in live:
            rows[s].append((rank[lab], lab, d))
            inv[d].append((rank[lab], s))

    # Hopcroft refinement.  Edges into dead states lead to the implicit
    # sink block, which is never split and never a splitter; so, unlike
    # the total-DFA variant, both initial blocks start as splitters.
    blocks = [blk for blk in (live & accepting, live - accepting) if blk]
    part = {q: i for i, blk in enumerate(blocks) for q in blk}
    pending = list(range(len(blocks)))
    waiting = set(pending)
    while pending:
        splitter = pending.pop()
        waiting.discard(splitter)
        preds: dict[int, list[int]] = {}
        for q in blocks[splitter]:
            for lab, p in inv[q]:
                preds.setdefault(lab, []).append(p)
        for sources in preds.values():
            hit: dict[int, list[int]] = {}
            for p in sources:
                hit.setdefault(part[p], []).append(p)
            for b, moved in hit.items():
                if len(moved) == len(blocks[b]):
                    continue
                new = len(blocks)
                blocks[b].difference_update(moved)
                blocks.append(set(moved))
                for p in moved:
                    part[p] = new
                # a waiting b now waits as both halves; once blocks are
                # stable against the old b, stability against one half
                # gives it against the other, so the smaller one will do
                half = new if b in waiting or len(moved) < len(blocks[b]) else b
                pending.append(half)
                waiting.add(half)

    # BFS numbering from the initial block, labels in sort order
    first = part[0]
    bld = _Builder(a.alphabet, a.tracks)
    bld.explore([first], lambda blk: (
        (lab, part[d]) for _, lab, d in sorted(rows[next(iter(blocks[blk]))])))
    return bld.build([first], {part[q] for q in live & accepting},
                     deterministic=True)


def fingerprint(a: Automaton) -> tuple:
    """Hashable structural summary; canonical automata with equal languages collide."""
    return (
        a.tracks,
        a.alphabet.letters,
        a.states,
        tuple(sorted(a.initial)),
        tuple(sorted(a.accepting)),
        tuple(_sorted_transitions(a)),
    )


def is_empty(a: Automaton) -> bool:
    """True iff no valid convolution is accepted."""
    return not _pad_walk(a)[2]


def equivalent(a: Automaton, b: Automaton) -> bool:
    """Language equality, via emptiness of both differences."""
    _check_compatible(a, b)
    return is_empty(boolean_combine(a, b, "minus")) and is_empty(
        boolean_combine(b, a, "minus"))


def is_empty_witness(a: Automaton) -> tuple[Word, ...] | None:
    """The length-lex least accepted tuple, or None if the language is empty.

    Convolutions are compared by length first, then letter by letter in
    alphabet order with the pad sorting last.
    """
    bld, start, accepting = _pad_walk(a)
    src = bld.trimmed(start, accepting)
    out = _out_map(src)
    key = src.alphabet.label_key
    heap = [(0, (), q, ()) for q in sorted(src.initial)]  # sorted: a heap already
    visited: set[int] = set()
    while heap:
        length, path_keys, q, path = heapq.heappop(heap)
        if q in visited:
            continue
        visited.add(q)
        if q in src.accepting:
            return deconvolve(list(path), src.tracks)
        for label, dsts in out.get(q, {}).items():
            for d in dsts:
                if d not in visited:
                    heapq.heappush(heap, (length + 1, path_keys + (key(label),), d,
                                          path + (label,)))
    return None


def enumerate_upto(a: Automaton, max_length: int) -> list[tuple[Word, ...]]:
    """All accepted tuples whose convolution is at most ``max_length`` long,
    in length-lex order."""
    bld, start, accepting = _pad_walk(a)
    src = bld.trimmed(start, accepting)
    found: list[tuple[Word, ...]] = []
    if src.initial & src.accepting:
        found.append(deconvolve([], src.tracks))
    out = _out_map(src)
    key = src.alphabet.label_key
    level: list[tuple[tuple[Label, ...], frozenset[int]]] = [((), frozenset(src.initial))]
    for _ in range(max_length):
        nxt: list[tuple[tuple[Label, ...], frozenset[int]]] = []
        for path, states in level:
            moves = _grouped(out, states)
            for label in sorted(moves, key=key):
                reached = frozenset(moves[label])
                nxt.append((path + (label,), reached))
                if reached & src.accepting:
                    found.append(deconvolve(list(path + (label,)), src.tracks))
        level = nxt
        if not level:
            break
    return found


def concatenate(a: Automaton, b: Automaton) -> Automaton:
    """Concatenation of one-track languages (pads make this unsound for k > 1)."""
    _check_compatible(a, b)
    if a.tracks != 1:
        raise TrackMismatchError("concatenation is defined for one-track automata")
    off = a.states
    edges = set(a.transitions)
    edges |= {(s + off, lab, d + off) for s, lab, d in b.transitions}
    b_initial = {q + off for q in b.initial}
    for f in a.accepting:
        for s, lab, d in b.transitions:
            if s in b.initial:
                edges.add((f, lab, d + off))
    accepting = {q + off for q in b.accepting}
    if b.initial & b.accepting:
        accepting |= set(a.accepting)
    initial = set(a.initial)
    if a.initial & a.accepting:
        initial |= b_initial
    return _trimmed(a.alphabet, 1, initial, accepting, edges)


# --- regular expressions -------------------------------------------------

_REGEX_OPS = set("()|*·")


def _regex_tokens(pattern: str, alphabet: Alphabet):
    tokens: list[tuple[str, str, int]] = []
    i = 0
    letters = sorted(alphabet.letters, key=len, reverse=True)
    while i < len(pattern):
        ch = pattern[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REGEX_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        for letter in letters:  # explicit letters win over the constants below
            if pattern.startswith(letter, i):
                tokens.append(("letter", letter, i))
                i += len(letter)
                break
        else:
            if ch == "ε":  # epsilon
                tokens.append(("eps", ch, i))
                i += 1
            elif ch == "∅":  # empty set
                tokens.append(("void", ch, i))
                i += 1
            else:
                raise ParseError(f"unknown symbol {ch!r} in regex", i)
    return tokens


class _RegexParser:
    """Recursive descent over |, concatenation (juxtaposition or ·), and *.

    Only parentheses recurse, so their depth is bounded by ``MAX_NESTING``.
    """

    def __init__(self, tokens, alphabet: Alphabet):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.counter = itertools.count()
        self.depth = 0  # open parentheses around the current position
        self.eps_edges: list[tuple[int, str | None, int]] = []

    def fresh(self) -> int:
        return next(self.counter)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> tuple[int, int]:
        frag = self.alternation()
        if self.peek() is not None:
            raise ParseError("unexpected trailing input in regex", self.peek()[2])
        return frag

    def alternation(self):
        frags = [self.sequence()]
        while self.peek() and self.peek()[:2] == ("op", "|"):
            self.pos += 1
            frags.append(self.sequence())
        if len(frags) == 1:
            return frags[0]
        start, end = self.fresh(), self.fresh()
        for s, e in frags:
            self.eps_edges.append((start, None, s))
            self.eps_edges.append((e, None, end))
        return start, end

    def sequence(self):
        frags = []
        pending_dot = None
        while True:
            tok = self.peek()
            if tok is None or tok[:2] in {("op", "|"), ("op", ")")}:
                break
            if tok[:2] == ("op", "·"):
                if not frags:
                    raise ParseError("concatenation needs a left operand", tok[2])
                pending_dot = tok[2]
                self.pos += 1
                continue
            frags.append(self.starred())
            pending_dot = None
        if pending_dot is not None:
            raise ParseError("concatenation needs a right operand", pending_dot)
        if not frags:
            at = self.peek()[2] if self.peek() else None
            raise ParseError("empty pattern here; write ε for the empty word", at)
        start, end = frags[0]
        for s, e in frags[1:]:
            self.eps_edges.append((end, None, s))
            end = e
        return start, end

    def starred(self):
        frag = self.primary()
        while self.peek() and self.peek()[:2] == ("op", "*"):
            self.pos += 1
            s, e = frag
            hub = self.fresh()
            self.eps_edges.append((hub, None, s))
            self.eps_edges.append((e, None, hub))
            frag = (hub, hub)
        return frag

    def primary(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("regex ended unexpectedly", None)
        kind, value, at = tok
        if kind == "letter":
            self.pos += 1
            s, e = self.fresh(), self.fresh()
            self.eps_edges.append((s, value, e))
            return s, e
        if kind == "eps":
            self.pos += 1
            s = self.fresh()
            return s, s
        if kind == "void":
            self.pos += 1
            return self.fresh(), self.fresh()
        if (kind, value) == ("op", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(f"regex nests deeper than {MAX_NESTING} levels", at)
            self.pos += 1
            self.depth += 1
            frag = self.alternation()
            self.depth -= 1
            tok = self.peek()
            if not tok or tok[:2] != ("op", ")"):
                raise ParseError("unbalanced parenthesis in regex", at)
            self.pos += 1
            return frag
        raise ParseError(f"unexpected {value!r} in regex", at)


def regex_to_automaton(pattern: str, alphabet: Alphabet) -> Automaton:
    """Compile a regex over the alphabet's letters into a one-track automaton.

    Supported syntax: letters, ``|``, juxtaposition or ``·`` for
    concatenation, ``*``, parentheses, ``ε`` and ``∅``.
    """
    parser = _RegexParser(_regex_tokens(pattern, alphabet), alphabet)
    start, end = parser.parse()

    eps: dict[int, set[int]] = {}
    out: dict[int, dict[Label, set[int]]] = {}
    for s, sym, d in parser.eps_edges:
        if sym is None:
            eps.setdefault(s, set()).add(d)
        else:
            out.setdefault(s, {}).setdefault((sym,), set()).add(d)

    def closure(qs: frozenset[int]) -> frozenset[int]:
        return frozenset(_closure(qs, eps))

    bld = _Builder(alphabet, 1)
    init = closure(frozenset({start}))
    seen = bld.explore([init], lambda cur: (
        (label, closure(frozenset(dsts))) for label, dsts in _grouped(out, cur).items()))
    accepting = [qs for qs in seen if end in qs]
    return bld.trimmed([init], accepting)


# --- JSON wire format -----------------------------------------------------

def automaton_to_json(a: Automaton) -> dict:
    return {
        "tracks": a.tracks,
        "alphabet": list(a.alphabet.letters),
        "states": a.states,
        "initial": sorted(a.initial),
        "accepting": sorted(a.accepting),
        "transitions": [[s, list(lab), d] for s, lab, d in _sorted_transitions(a)],
    }


def json_object(value, what: str) -> dict:
    """``value`` when it decoded from a JSON object; InputError otherwise."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def automaton_from_json(obj: dict) -> Automaton:
    json_object(obj, "an automaton")
    try:
        alphabet = Alphabet(tuple(obj["alphabet"]))
        return Automaton(
            tracks=int(obj["tracks"]),
            alphabet=alphabet,
            states=int(obj["states"]),
            initial=frozenset(int(q) for q in obj["initial"]),
            accepting=frozenset(int(q) for q in obj["accepting"]),
            transitions=frozenset(
                (int(s), tuple(lab), int(d)) for s, lab, d in obj["transitions"]
            ),
        )
    except KeyError as missing:
        raise InputError(f"automaton object lacks field {missing}") from None
    except (TypeError, ValueError) as err:
        raise InputError(f"malformed automaton object: {err}") from None


def automaton_or_regex(value, alphabet: Alphabet) -> Automaton:
    """Decode an automaton object, or a regex string as one-track shorthand."""
    if isinstance(value, str):
        return regex_to_automaton(value, alphabet)
    if isinstance(value, dict):
        a = automaton_from_json(value)
        if a.alphabet != alphabet:
            raise InputError("embedded automaton disagrees with the declared alphabet")
        return a
    raise InputError(f"expected a regex string or automaton object, got {type(value).__name__}")
