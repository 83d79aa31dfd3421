"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive: explicit enumeration over small
finite sets, hand-written membership predicates, direct simulation of
machine steps.  Nothing routes through the package's automata algebra
beyond the raw ``Automaton`` constructor, so agreement is meaningful.
The exceptions are ``product_track_join`` and the staged constructions,
which number their states with the package's builder and helpers so
that results compare with ``==``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from epplan import automata as fa
from epplan.errors import InputError, TrackMismatchError
from epplan.logic import (
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

Word = tuple[str, ...]


# --- explicit finite automata ------------------------------------------------

def convolve_words(words: tuple[Word, ...]) -> list[tuple[str, ...]]:
    """Reference convolution: tracks aligned left, short ones padded at
    the end with the pad symbol."""
    length = max((len(w) for w in words), default=0)
    out = []
    for i in range(length):
        out.append(tuple(w[i] if i < len(w) else fa.PAD for w in words))
    return out


def trie_relation(alphabet: fa.Alphabet, tracks: int,
                  tuples: set[tuple[Word, ...]] | list[tuple[Word, ...]]) -> fa.Automaton:
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
    return fa.Automaton(
        tracks=tracks,
        alphabet=alphabet,
        states=len(states),
        initial=frozenset({0}),
        accepting=frozenset(accepting),
        transitions=frozenset(transitions),
        deterministic=True,
    )


def finite_domain(alphabet: fa.Alphabet, words: list[Word]) -> fa.Automaton:
    return trie_relation(alphabet, 1, [(w,) for w in words])


# --- canonical form, the slow way ----------------------------------------------

def moore_canonicalize(a: fa.Automaton) -> fa.Automaton:
    """Reference for ``automata.canonicalize``: the minimal trim DFA of the
    valid convolutions ``a`` accepts, numbered breadth-first from the
    initial state with each state's labels in sort order.

    A subset construction over (state, tracks padded so far) pairs keeps
    only valid convolutions.  Moore rounds then refine the live subsets by
    their full edge signatures until the block count stops growing, one
    round per extra word length needed to tell states apart.
    """
    out: dict[int, dict[tuple, set[int]]] = {}
    for s, lab, d in a.transitions:
        out.setdefault(s, {}).setdefault(lab, set()).add(d)
    start = frozenset((q, frozenset()) for q in a.initial)
    rows: dict[frozenset, dict[tuple, frozenset]] = {}
    todo = [start]
    while todo:
        subset = todo.pop()
        if subset in rows:
            continue
        row: dict[tuple, set] = {}
        for q, padded in subset:
            for lab, dsts in out.get(q, {}).items():
                pads = frozenset(i for i, s in enumerate(lab) if s == fa.PAD)
                if padded <= pads:  # a padded track may not resume
                    row.setdefault(lab, set()).update((d, pads) for d in dsts)
        rows[subset] = {lab: frozenset(nxt) for lab, nxt in row.items()}
        todo.extend(rows[subset].values())
    accepting = {sub for sub in rows if any(q in a.accepting for q, _ in sub)}

    live = set(accepting)
    grew = True
    while grew:
        grew = False
        for sub, row in rows.items():
            if sub not in live and any(d in live for d in row.values()):
                live.add(sub)
                grew = True
    if start not in live:
        return fa.Automaton(a.tracks, a.alphabet, 1, frozenset({0}), frozenset(),
                            frozenset(), deterministic=True)

    key = a.alphabet.label_key
    lrows = {sub: {lab: d for lab, d in rows[sub].items() if d in live}
             for sub in live}
    part = {sub: int(sub in accepting) for sub in live}
    blocks = len(set(part.values()))
    while True:
        sigs: dict = {}
        new = {}
        for sub in live:
            sig = (part[sub],
                   tuple(sorted((key(lab), part[d]) for lab, d in lrows[sub].items())))
            new[sub] = sigs.setdefault(sig, len(sigs))
        part = new
        if len(sigs) == blocks:
            break
        blocks = len(sigs)

    rep = {}
    for sub in live:
        rep.setdefault(part[sub], sub)
    order = {part[start]: 0}
    queue = [part[start]]
    edges = set()
    for blk in queue:  # grows while it is walked: breadth-first
        for lab, d in sorted(lrows[rep[blk]].items(), key=lambda e: key(e[0])):
            if part[d] not in order:
                order[part[d]] = len(order)
                queue.append(part[d])
            edges.add((order[blk], lab, order[part[d]]))
    return fa.Automaton(a.tracks, a.alphabet, len(order), frozenset({0}),
                        frozenset(order[part[s]] for s in live & accepting),
                        frozenset(edges), deterministic=True)


def random_nfa(rng, tracks: int, max_states: int = 7) -> fa.Automaton:
    """A random partial NFA over ``a``, ``b`` and the pad, with any number
    of initial states; unreachable and dead states are left in."""
    alphabet = fa.Alphabet(("a", "b"))
    labels = [lab for lab in itertools.product(("a", "b", fa.PAD), repeat=tracks)
              if any(s != fa.PAD for s in lab)]
    n = rng.randint(1, max_states)
    edges = {(rng.randrange(n), rng.choice(labels), rng.randrange(n))
             for _ in range(rng.randint(0, 3 * n))}
    return fa.Automaton(
        tracks, alphabet, n,
        frozenset(rng.sample(range(n), rng.randint(1, min(2, n)))),
        frozenset(q for q in range(n) if rng.random() < 0.3),
        frozenset(edges),
    )


def renumber_states(a: fa.Automaton, perm: list[int]) -> fa.Automaton:
    """The same automaton with state ``q`` renamed ``perm[q]``."""
    return fa.Automaton(
        a.tracks, a.alphabet, a.states,
        frozenset(perm[q] for q in a.initial),
        frozenset(perm[q] for q in a.accepting),
        frozenset((perm[s], lab, perm[d]) for s, lab, d in a.transitions),
    )


def product_track_join(alphabet: fa.Alphabet, tracks: int,
                       components: list[tuple[fa.Automaton, tuple[int, ...]]],
                       wild: tuple[int, ...] = ()) -> fa.Automaton:
    """Synchronous product of automata each reading its own 0-based track
    positions; ``wild`` positions range over every symbol.

    The reference for ``automata.track_join``: every combination of the
    components' moves, then a filter on the positions they share.  It
    explores and trims with the package's own builder, so its result can
    be compared with ``==``.

    Walks only labels the components actually have, so nothing here is
    proportional to |alphabet|^tracks.  Suffix-only padding is enforced
    with a per-position mask, and a finished component keeps consuming
    all-pad sub-labels.
    """
    outs = [fa._out_map(c) for c, _ in components]
    symbols = alphabet.letters + (fa.PAD,)

    def steps(index: int, state: int):
        auto, positions = components[index]
        pad_sub = (fa.PAD,) * len(positions)
        if state == fa._JOIN_DONE:
            return [(pad_sub, fa._JOIN_DONE)]
        found = [(lab, dst)
                 for lab, dsts in outs[index].get(state, {}).items()
                 for dst in dsts]
        if state in auto.accepting:
            found.append((pad_sub, fa._JOIN_DONE))
        return found

    def placed(choice) -> list[str | None] | None:
        """The chosen sub-labels at their positions; None when repeated
        positions disagree."""
        label: list[str | None] = [None] * tracks
        for (sub, _), (_, positions) in zip(choice, components):
            for sym, pos in zip(sub, positions):
                if label[pos] not in (None, sym):
                    return None
                label[pos] = sym
        return label

    def moves(key):
        combo, padded = key
        for choice in itertools.product(*(steps(i, q) for i, q in enumerate(combo))):
            base = placed(choice)
            if base is None:
                continue
            nxt_combo = tuple(dst for _, dst in choice)
            for fill in itertools.product(symbols, repeat=len(wild)):
                full = list(base)
                for sym, pos in zip(fill, wild):
                    full[pos] = sym
                if all(s == fa.PAD for s in full):
                    continue
                if any(full[pos] != fa.PAD for pos in padded):
                    continue  # a padded track may not resume
                new_padded = padded | {p for p, s in enumerate(full) if s == fa.PAD}
                yield tuple(full), (nxt_combo, new_padded)

    bld = fa._Builder(alphabet, tracks)
    start = [(combo, frozenset())
             for combo in itertools.product(*(c.initial for c, _ in components))]
    seen = bld.explore(start, moves)
    accepting = [key for key in seen if all(q == fa._JOIN_DONE or q in c.accepting
                                            for q, (c, _) in zip(key[0], components))]
    return fa.trim(bld.build(start, accepting))


# --- staged constructions ------------------------------------------------------
#
# The package's constructions as they were when each one emitted an
# intermediate automaton and trimmed it afterwards: canonical forms by
# determinizing an emitted pad filter, projection, emptiness and witnesses
# on a trimmed pad filter, and ``trim`` of a built automaton in place of
# ``_Builder.trimmed``.  The one-walk constructions must agree with ``==``.

def staged_pad_filter(a: fa.Automaton) -> fa.Automaton:
    """``automata._pad_filter``: a walk on (state, tracks padded so far)
    keys, emitted as an automaton."""
    if a.tracks == 0:
        return a
    out = fa._out_map(a)

    def moves(key):
        q, padded = key
        for label, dsts in out.get(q, {}).items():
            pads = fa._pads(label)
            if padded <= pads:  # a padded track may not resume
                for dst in dsts:
                    yield label, (dst, pads)

    bld = fa._Builder(a.alphabet, a.tracks)
    start = [(q, frozenset()) for q in a.initial]
    seen = bld.explore(start, moves)
    return bld.build(start, [key for key in seen if key[0] in a.accepting])


def staged_trim(a: fa.Automaton) -> fa.Automaton:
    """``automata.trim``: reachable and co-reachable states, renumbered in
    sorted order."""
    fwd: dict[int, set[int]] = {}
    bwd: dict[int, set[int]] = {}
    for src, _, dst in a.transitions:
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)
    reach = fa._closure(a.initial, fwd)
    co = fa._closure(a.accepting, bwd)
    alive = sorted(reach & co)
    if not alive:
        return fa.empty_automaton(a.alphabet, a.tracks)
    ids = {q: i for i, q in enumerate(alive)}
    return fa.Automaton(
        a.tracks,
        a.alphabet,
        len(alive),
        frozenset(ids[q] for q in a.initial if q in ids),
        frozenset(ids[q] for q in a.accepting if q in ids),
        frozenset(
            (ids[s], lab, ids[d]) for s, lab, d in a.transitions if s in ids and d in ids
        ),
    )


def staged_project(a: fa.Automaton, position: int) -> fa.Automaton:
    """``automata.project`` on the emitted pad filter, with its own trim."""
    if a.tracks < 1:
        raise TrackMismatchError("cannot project a 0-track automaton")
    if not 1 <= position <= a.tracks:
        raise InputError(f"no track at position {position}")
    src = staged_pad_filter(a)
    pos = position - 1
    rest = a.tracks - 1

    def drop(label: Word) -> Word:
        return label[:pos] + label[pos + 1:]

    # states from which acceptance is reachable while every remaining track pads
    tail: dict[int, set[int]] = {}
    for s, lab, d in src.transitions:
        if all(x == fa.PAD for x in drop(lab)):
            tail.setdefault(d, set()).add(s)
    saturated = fa._closure(src.accepting, tail)

    edges = set()
    for s, lab, d in src.transitions:
        new = drop(lab)
        if any(x != fa.PAD for x in new):
            edges.add((s, new, d))
    return staged_trim(
        fa.Automaton(rest, a.alphabet, src.states, src.initial, frozenset(saturated),
                     frozenset(edges))
    )


def staged_canonicalize(a: fa.Automaton) -> fa.Automaton:
    """``automata.canonicalize``: Hopcroft refinement of
    ``determinize(_pad_filter(a))``, BFS-numbered with labels in sort order."""
    det = fa.determinize(staged_pad_filter(a))
    bwd: dict[int, set[int]] = {}
    for s, _, d in det.transitions:
        bwd.setdefault(d, set()).add(s)
    # every determinized state is reachable, so live = co-reachable
    live = fa._closure(det.accepting, bwd)
    start = next(iter(det.initial))
    if start not in live:
        return fa.Automaton(a.tracks, a.alphabet, 1, frozenset({0}), frozenset(),
                            frozenset(), deterministic=True)

    rank = {lab: i for i, lab in enumerate(sorted({lab for _, lab, _ in det.transitions},
                                                    key=det.alphabet.label_key))}
    rows: dict[int, list[tuple[int, Word, int]]] = {q: [] for q in live}
    inv: dict[int, list[tuple[int, int]]] = {q: [] for q in live}
    for s, lab, d in det.transitions:
        if s in live and d in live:
            rows[s].append((rank[lab], lab, d))
            inv[d].append((rank[lab], s))

    # Hopcroft refinement.  Edges into dead states lead to the implicit
    # sink block, which is never split and never a splitter; so, unlike
    # the total-DFA variant, both initial blocks start as splitters.
    blocks = [blk for blk in (live & det.accepting, live - det.accepting) if blk]
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
    first = part[start]
    bld = fa._Builder(a.alphabet, a.tracks)
    bld.explore([first], lambda blk: (
        (lab, part[d]) for _, lab, d in sorted(rows[next(iter(blocks[blk]))])))
    return bld.build([first], {part[q] for q in live & det.accepting},
                     deterministic=True)


def staged_is_empty(a: fa.Automaton) -> bool:
    """``automata.is_empty``: the trimmed pad filter has no accepting state."""
    t = staged_trim(staged_pad_filter(a))
    return not (t.accepting and t.initial)


def staged_is_empty_witness(a: fa.Automaton) -> tuple[Word, ...] | None:
    """``automata.is_empty_witness``: Dijkstra in length-lex order over the
    trimmed pad filter."""
    src = staged_trim(staged_pad_filter(a))
    if not (src.initial and src.accepting):
        return None
    if src.tracks == 0:
        return ()
    out = fa._out_map(src)
    key = src.alphabet.label_key
    heap = [(0, (), q, ()) for q in sorted(src.initial)]
    heapq.heapify(heap)
    visited: set[int] = set()
    while heap:
        length, path_keys, q, path = heapq.heappop(heap)
        if q in visited:
            continue
        visited.add(q)
        if q in src.accepting:
            return fa.deconvolve(list(path), src.tracks)
        for label, dsts in out.get(q, {}).items():
            for d in dsts:
                if d not in visited:
                    heapq.heappush(
                        heap,
                        (length + 1, path_keys + (key(label),), d, path + (label,)),
                    )
    return None


def staged_enumerate_upto(a: fa.Automaton, max_length: int) -> list[tuple[Word, ...]]:
    """``automata.enumerate_upto``: every path up to ``max_length`` over the
    trimmed pad filter, in length-lex order."""
    src = staged_trim(staged_pad_filter(a))
    found: list[tuple[Word, ...]] = []
    if not src.initial:
        return found
    if src.initial & src.accepting:
        found.append(fa.deconvolve([], src.tracks))
    if src.tracks == 0:
        return found
    out = fa._out_map(src)
    key = src.alphabet.label_key
    level: list[tuple[tuple[Word, ...], frozenset[int]]] = [
        ((), frozenset(src.initial))]
    for _ in range(max_length):
        nxt: list[tuple[tuple[Word, ...], frozenset[int]]] = []
        for path, states in level:
            moves = fa._grouped(out, states)
            for label in sorted(moves, key=key):
                reached = frozenset(moves[label])
                nxt.append((path + (label,), reached))
                if reached & src.accepting:
                    found.append(fa.deconvolve(list(path + (label,)), src.tracks))
        level = nxt
        if not level:
            break
    return found


# --- naive semantics over explicit structures --------------------------------

@dataclass
class NaiveModel:
    """A Kripke model with one explicit finite FO structure per world."""

    domain: list[Word]
    worlds: dict[str, dict[str, set[tuple[Word, ...]]]]
    access: dict[str, set[tuple[str, str]]]


def naive_eval(model: NaiveModel, world: str, phi: Formula,
               env: dict[str, Word] | None = None) -> bool:
    env = env or {}
    if isinstance(phi, TrueFormula):
        return True
    if isinstance(phi, FalseFormula):
        return False
    if isinstance(phi, Atom):
        tup = tuple(env[v] for v in phi.args)
        return tup in model.worlds[world].get(phi.predicate, set())
    if isinstance(phi, Not):
        return not naive_eval(model, world, phi.operand, env)
    if isinstance(phi, And):
        return naive_eval(model, world, phi.left, env) and \
            naive_eval(model, world, phi.right, env)
    if isinstance(phi, Or):
        return naive_eval(model, world, phi.left, env) or \
            naive_eval(model, world, phi.right, env)
    if isinstance(phi, Implies):
        return (not naive_eval(model, world, phi.left, env)) or \
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
                   for (w, v) in model.access.get(phi.agent, set())
                   if w == world)
    raise TypeError(f"unknown node {phi!r}")


# --- the language-growth algebra, twice over ----------------------------------
#
# Starting from the empty language over {a, b}, the three operations
# "union a*", "union b*", "complement" only ever produce unions of the
# four atoms {eps}, a+, b+, mixed: the generators are such unions and
# all three operations preserve that shape.  A 4-bit vector over the
# atoms is therefore an exact representation of every reachable
# language, and a membership mask over words up to length >= 2 already
# separates the atoms.  Both codings are computed and cross-checked.

EPS, APLUS, BPLUS, MIXED = 1, 2, 4, 8
FULL = EPS | APLUS | BPLUS | MIXED


def atom_of(word: str) -> int:
    if not word:
        return EPS
    if set(word) == {"a"}:
        return APLUS
    if set(word) == {"b"}:
        return BPLUS
    return MIXED


def atom_vector(member) -> int:
    """4-bit coding of a language given by a membership predicate,
    valid only for unions of the four atoms."""
    bits = 0
    for probe, bit in (("", EPS), ("a", APLUS), ("b", BPLUS), ("ab", MIXED)):
        if member(probe):
            bits |= bit
    return bits


def words_upto(letters: tuple[str, ...], max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(p) for p in itertools.product(letters, repeat=n))
    return out


@dataclass
class ClosureOracle:
    """Breadth-first closure of the empty language under the event
    operations, in both codings, with minimal-depth bookkeeping."""

    count: int
    depth_of: dict[int, int]          # atom vector -> first depth reached
    plans_to: dict[int, list[tuple[str, ...]]]  # event sequences per target


def close_language_algebra(max_plan_len: int = 5) -> ClosureOracle:
    # exact atom-vector closure
    union_ops = {"U0": EPS | APLUS, "U1": EPS | BPLUS}

    def step(vec: int, event: str) -> int:
        if event == "CP":
            return vec ^ FULL
        return vec | union_ops[event]

    events = sorted(union_ops) + ["CP"]
    depth_of = {0: 0}
    frontier = [0]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for vec in frontier:
            for e in events:
                v2 = step(vec, e)
                if v2 not in depth_of:
                    depth_of[v2] = depth
                    nxt.append(v2)
        frontier = nxt

    # word-mask closure over all words up to length 6, cross-checked
    probes = words_upto(("a", "b"), 6)
    mask_of_vec = {vec: frozenset(w for w in probes if vec & atom_of(w))
                   for vec in depth_of}
    masks = {frozenset(): 0}
    frontier_m = [frozenset()]
    full_mask = frozenset(probes)
    a_star = frozenset(w for w in probes if set(w) <= {"a"})
    b_star = frozenset(w for w in probes if set(w) <= {"b"})
    gen_masks = {"U0": a_star, "U1": b_star}
    d = 0
    while frontier_m:
        d += 1
        nxt = []
        for m in frontier_m:
            for e in events:
                m2 = full_mask - m if e == "CP" else m | gen_masks[e]
                if m2 not in masks:
                    masks[m2] = d
                    nxt.append(m2)
        frontier_m = nxt
    assert len(masks) == len(depth_of), "the two closure codings disagree"
    for vec, dv in depth_of.items():
        assert masks[mask_of_vec[vec]] == dv

    # every event sequence up to max_plan_len, grouped by reached vector
    plans_to: dict[int, list[tuple[str, ...]]] = {}
    for n in range(max_plan_len + 1):
        for seq in itertools.product(events, repeat=n):
            vec = 0
            for e in seq:
                vec = step(vec, e)
            plans_to.setdefault(vec, []).append(seq)
    return ClosureOracle(len(depth_of), depth_of, plans_to)


# membership predicates for the fixed languages the tests reason about
def member_target(word: str) -> bool:
    """Complement of a* | b* over {a,b}: words using both letters."""
    return "a" in word and "b" in word


def member_target_concat_ab(word: str) -> bool:
    """(complement of a* | b*) concatenated with the single word ab."""
    return word.endswith("ab") and member_target(word[:-2])


# --- machine stepping ---------------------------------------------------------

def tm_step(tm, config: Word) -> Word | None:
    """Direct simulation of one move on a trimmed configuration
    u state v (v never ends in the blank); None when the machine halts
    or the word is not a configuration at all."""
    idx = [i for i, c in enumerate(config) if c in tm.states]
    if len(idx) != 1:
        return None
    i = idx[0]
    u, q, v = config[:i], config[i], config[i + 1:]
    if any(c not in tm.tape for c in u) or any(c not in tm.tape for c in v):
        return None
    if v and v[-1] == tm.blank:
        return None
    scanned = v[0] if v else tm.blank
    if (q, scanned) not in tm.delta:
        return None
    q2, written, move = tm.delta[(q, scanned)]
    rest = list(v[1:])
    if move == "R":
        u2, nv = u + (written,), rest
    elif u:
        u2, nv = u[:-1], [u[-1], written] + rest
    else:  # stay put at the left edge
        u2, nv = (), [written] + rest
    while nv and nv[-1] == tm.blank:
        nv.pop()
    return u2 + (q2,) + tuple(nv)


def tm_configs(tm, max_side: int):
    """All trimmed configurations with both tape sides of length <= max_side."""
    for un in range(max_side + 1):
        for u in itertools.product(tm.tape, repeat=un):
            for q in tm.states:
                for vn in range(max_side + 1):
                    for v in itertools.product(tm.tape, repeat=vn):
                        if v and v[-1] == tm.blank:
                            continue
                        yield u + (q,) + v


# --- random instances ----------------------------------------------------------

def random_words(rng, letters: tuple[str, ...], count: int,
                 max_len: int) -> list[Word]:
    pool = [()]
    for n in range(1, max_len + 1):
        pool.extend(itertools.product(letters, repeat=n))
    rng.shuffle(pool)
    return sorted(pool[:count])


def random_structure(rng, max_elements: int = 12, max_arity: int = 3):
    """A random explicit FO structure and its automatic presentation."""
    letters = ("a", "b")
    alphabet = fa.Alphabet(letters)
    size = rng.randint(1, max_elements)
    domain = random_words(rng, letters, size, 3)
    preds = []
    relations = {}
    explicit = {}
    for name in ("P", "Q", "R")[: rng.randint(1, 3)]:
        arity = rng.randint(1, max_arity)
        preds.append((name, arity))
        tuples = set()
        # denser for low arity so both empty and full relations show up
        want = rng.randint(0, max(1, min(20, len(domain) ** arity)))
        for _ in range(want):
            tuples.add(tuple(rng.choice(domain) for _ in range(arity)))
        explicit[name] = tuples
        relations[name] = trie_relation(alphabet, arity, tuples)
    signature = Signature(tuple(preds))
    from epplan.presentation import AutomaticPresentation
    pres = AutomaticPresentation(signature, alphabet,
                                 finite_domain(alphabet, domain), relations)
    return pres, domain, explicit


def random_formula(rng, signature: Signature, scope: tuple[str, ...],
                   qr: int, fuel: int) -> Formula:
    """A formula whose free variables lie in ``scope``, with quantifier
    rank <= qr and at most ``fuel`` nested connectives."""
    choices = ["quant"] if qr > 0 else []
    if scope:
        choices.append("atom")
    if fuel > 0:
        choices.extend(["not", "bin"])
    choices.append("const")
    kind = rng.choice(choices)
    if kind == "quant":
        var = f"v{len(scope)}"
        body = random_formula(rng, signature, scope + (var,), qr - 1, fuel - 1)
        return Forall(var, body) if rng.random() < 0.5 else Exists(var, body)
    if kind == "atom":
        name, arity = rng.choice(signature.predicates)
        args = tuple(rng.choice(scope) for _ in range(arity))
        return Atom(name, args)
    if kind == "not":
        return Not(random_formula(rng, signature, scope, qr, fuel - 1))
    if kind == "bin":
        cls = rng.choice([And, Or, Implies, Iff])
        return cls(random_formula(rng, signature, scope, qr, fuel - 1),
                   random_formula(rng, signature, scope, qr, fuel - 1))
    from epplan.logic import FALSE, TRUE
    return TRUE if rng.random() < 0.5 else FALSE


def random_sentence(rng, signature: Signature, max_qr: int = 3) -> Formula:
    """A closed formula with quantifier rank <= max_qr."""
    # force at least one quantifier so the sentence inspects the domain
    var = "v0"
    body = random_formula(rng, signature, (var,), max_qr - 1, 5)
    return Forall(var, body) if rng.random() < 0.5 else Exists(var, body)


def random_kripke(rng, max_worlds: int = 3, max_agents: int = 2):
    """Paired explicit/automatic epistemic models over a small domain."""
    from epplan.epistemic import EpistemicModel

    letters = ("a", "b")
    alphabet = fa.Alphabet(letters)
    domain = random_words(rng, letters, rng.randint(1, 4), 2)
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, max_worlds)))
    agents = tuple("ab"[i] for i in range(rng.randint(1, max_agents)))
    preds = [("P", 1), ("Q", rng.randint(1, 2))]
    signature = Signature(tuple(preds))
    access = {}
    for agent in agents:
        pairs = {(w, w) for w in worlds}
        for w in worlds:
            for v in worlds:
                if rng.random() < 0.4:
                    pairs.add((w, v))
        access[agent] = frozenset(pairs)
    interps = {}
    explicit_worlds = {}
    for w in worlds:
        per = {}
        explicit = {}
        for name, arity in preds:
            tuples = set()
            for tup in itertools.product(domain, repeat=arity):
                if rng.random() < 0.4:
                    tuples.add(tup)
            explicit[name] = tuples
            per[name] = trie_relation(alphabet, arity, tuples)
        interps[w] = per
        explicit_worlds[w] = explicit
    model = EpistemicModel(
        agents=agents,
        worlds=worlds,
        access=access,
        signature=signature,
        alphabet=alphabet,
        domain=finite_domain(alphabet, domain),
        interpretations=interps,
    )
    naive = NaiveModel(domain=domain, worlds=explicit_worlds,
                       access={a: set(p) for a, p in access.items()})
    return model, naive


def random_foel(rng, signature: Signature, agents: tuple[str, ...],
                modal_depth: int = 2) -> Formula:
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
        from epplan.logic import FALSE, TRUE
        return TRUE if rng.random() < 0.5 else FALSE

    var = "v0"
    body = go((var,), modal_depth, 1, 4)
    return Forall(var, body) if rng.random() < 0.5 else Exists(var, body)


def random_qf_action(rng, signature: Signature, alphabet: fa.Alphabet):
    """An action model whose posts are random quantifier-free formulas."""
    from epplan.epistemic import ActionModel, post_variables

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
        from epplan.logic import FALSE, TRUE
        return TRUE if rng.random() < 0.5 else FALSE

    events = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
    post = {}
    for e in events:
        per = {}
        for name, arity in signature.predicates:
            if rng.random() < 0.7:
                vars_ = post_variables(arity)
                per[name] = qf(vars_, 3)
        post[e] = per
    return ActionModel(
        events=events,
        access={"a": frozenset((e, e) for e in events)},
        pre={},
        post=post,
    )


def random_pre_action(rng, signature: Signature, alphabet: fa.Alphabet):
    """Like ``random_qf_action``, but most events also carry a random closed
    non-modal precondition, so some histories are refused."""
    from epplan.epistemic import ActionModel

    action = random_qf_action(rng, signature, alphabet)
    pre = {e: random_foel(rng, signature, ("a",), modal_depth=0)
           for e in action.events if rng.random() < 0.7}
    return ActionModel(events=action.events, access=action.access, pre=pre,
                       post=action.post)


# --- formula facts, one recursive walker each --------------------------------
# The reference for ``logic.classify``, which gathers all of them in one
# walk, and for ``logic.validate_against``.

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


def is_modal(node: Formula) -> bool:
    if isinstance(node, Know):
        return True
    if isinstance(node, Not):
        return is_modal(node.operand)
    if isinstance(node, (And, Or, Implies, Iff)):
        return is_modal(node.left) or is_modal(node.right)
    if isinstance(node, (Forall, Exists)):
        return is_modal(node.body)
    return False


def has_quantifier(node: Formula) -> bool:
    if isinstance(node, (Forall, Exists)):
        return True
    if isinstance(node, Not):
        return has_quantifier(node.operand)
    if isinstance(node, (And, Or, Implies, Iff)):
        return has_quantifier(node.left) or has_quantifier(node.right)
    if isinstance(node, Know):
        return has_quantifier(node.body)
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


def nesting_height(node: Formula) -> int:
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
