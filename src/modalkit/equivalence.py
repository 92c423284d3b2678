"""Simulations and bisimulations for every dialect, as greatest fixpoints
over configuration pairs.

A *configuration* is a (memory set, world) pair; for dialects without memory
operators the memory component never changes and the configuration space
collapses to plain world pairs.  The defining conditions of a dialect's
(bi)simulation are represented explicitly as a SimConditions record derived
from the LogicSpec.  Related points always satisfy the same propositions
(one-directional for negation-free dialects); the record says which of the
other conditions are active:

  - kagree     : related points agree on membership in their memories;
  - nagree     : related points name the same nominals;
  - forth/back : the relational zig and zag for the plain modality;
  - mforth/mback: the zig/zag for the double modality (successors taken after
                 memorizing the current points);
  - remember/forget/erase: closure under the corresponding simultaneous memory
                 update of both sides;
  - nom        : closure under jumping both sides to a nominal's worlds.

A (bi)simulation under these conditions is an ordinary one of the
configuration transition system: its states are each side's configurations,
labelled by their signature ints, and its labels the closure updates and the
plain and traced steps.  So the largest relation is found on the states of
each side, never on pairs.  Each model's states are interned in a
``configs.ConfigTable`` and walked there (``ConfigTable.walk``): every world
under the model's memory when no memory moves, else the configurations the
point reaches, at most ``max_pairs`` per side.  The engines index the moves
the walk records, and read predecessors from the tables (``predecessors``,
``pre_masks``) and left preimages through ``configs.preimage``.  Symmetric
conditions refine the blocks of the two sides' disjoint union (Kanellakis &
Smolka, Inf. & Comp. 86(1) 1990; Paige & Tarjan, SIAM J. Comput. 16(6)
1987); directed ones refine one bit row per right state, the left states it
still relates to (Henzinger, Henzinger & Kopke, FOCS 1995).  Two states are
related after r rounds of
either exactly when their pair survives r synchronous rounds of the pair
fixpoint, which re-checks every live pair against the live set as the round
found it.  A pair that dies has that round (the modal depth
``fixpoint_separator`` reads), and as its reason the first condition it
fails against the round before.  A pair is the one int ``p = c1 * K + c2``,
K the right side's state count.

Only a related answer builds pairs, for its witness.  Without memory the
witness is every related pair of worlds, so ``max_pairs`` bounds |W1|·|W2|
before any work.  With memory it is the related part of the pairs the start
pair reaches, walked through dead pairs too, and a walk past ``max_pairs``
raises.  A pair that is not related gets a distinguisher traced from the
reasons by pair id, or, for memory dialects, ``separating_formula``'s.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter

from .configs import (
    CLAUSES,
    MEMORY_UPDATES,
    Config,  # re-exported: the pairs of a relation given to verify_relation
    Pair,
    PairSpace,
    closure_formula,
    initial_pair,
    pair_key,
    preimage,
)
from .errors import InvariantViolationError, StateSpaceExceededError
from .kripke import KripkeModel
from .syntax import _DUALS, Formula, LogicSpec, Not, _walk, conjoin, disjoin, modality

DEFAULT_MAX_PAIRS = 2**20


@dataclass(frozen=True)
class SimConditions:
    """Which defining conditions are active (see module docstring)."""

    kagree: bool = False
    remember: bool = False
    forget: bool = False
    erase: bool = False
    forth: bool = False
    back: bool = False
    mforth: bool = False
    mback: bool = False
    nagree: bool = False
    nom: bool = False
    atomic_one_directional: bool = False

    @property
    def memory_active(self) -> bool:
        """Do any active conditions move the memory component?"""
        return self.remember or self.forget or self.erase or self.mforth or self.mback


def conditions_for(spec: LogicSpec) -> SimConditions:
    """The dialect's canonical condition set.

    Negation forces symmetry (two-directional atomic agreement and the
    back-type clauses); the box alone forces the back clause even without
    negation, dually for the diamond and forth.
    """
    ops, neg = spec.operators, spec.has_negation
    return SimConditions(
        atomic_one_directional=not neg,
        kagree="known" in ops,
        nagree="nominal" in ops,
        nom="at" in ops,
        **{kind: kind in ops for kind in MEMORY_UPDATES},
        **{
            name: op in ops or (neg and _DUALS[op] in ops)
            for name, (_, _, op) in CLAUSES.items()
        },
    )


def directed_conditions(conds: SimConditions) -> SimConditions:
    """The one-directional (simulation) variant: drop back-type clauses and
    weaken the atomic conditions to left-to-right implications."""
    return replace(conds, back=False, mback=False, atomic_one_directional=True)


@dataclass(frozen=True)
class SimulationOutcome:
    related: bool
    witness: frozenset[Pair] | None
    distinguisher: Formula | None


def serialize_witness(witness: frozenset[Pair]) -> str:
    """One '((mem1|w1),(mem2|w2))' line per pair, sorted; memory sets are
    comma-joined sorted world ids."""
    lines = sorted(f"({c1.render()},{c2.render()})" for c1, c2 in witness)
    return "\n".join(lines)


class _Refinement(PairSpace):
    """What the two engines share.  A state is a configuration of its side's
    table: every world under the side's fixed memory when no memory moves,
    else every configuration the side's initial one reaches.  A state's value
    (its block, or its row of related partners) is ``first[s]`` at round 0
    and the last ``history[s]`` entry (round, value) at or before a later
    round; verdicts and the witness read the final value.  The engine is its
    own ``dead`` mapping of pair ids p = c1 * K + c2: a pair's death round is
    found by binary search over the rounds and its reason is recomputed
    against the round before, closures first and then each relation's
    clauses, for ``_distinguisher`` to read."""

    def __init__(self, conds: SimConditions, left: KripkeModel, right: KripkeModel, max_pairs: int):
        super().__init__(conds, left, right)
        if not conds.memory_active and len(left.worlds) * len(right.worlds) > max_pairs:
            raise StateSpaceExceededError(max_pairs)  # the witness can be that large
        self.max_pairs = max_pairs
        self.tables = self.config_tables()
        self.history: dict[int, list[tuple[int, int]]] = {}

    dead = property(lambda self: self)

    def _start(self, initial: Pair) -> int:
        """Walks each side from its seeds (every world under the fixed memory,
        or the initial configuration, id 0, if memory moves); the start pair's id."""
        (t1, t2), (c1, c2) = self.tables, initial
        for table, c in zip(self.tables, initial):
            for w in (c.world,) if self.conds.memory_active else table.model.worlds:
                table.intern(c.mem, w)
            table.walk(self.ops, self.max_pairs)
        self.n1, self.K = len(t1.configs), len(t2.configs)
        return t1.intern(c1.mem, c1.world) * self.K + t2.intern(c2.mem, c2.world)

    def witness(self) -> frozenset[Pair]:
        """The related pairs: without memory moves, every related pair of
        states; with them, the related ones among the pairs the start pair
        reaches, walked breadth-first through dead pairs too, up to ``max_pairs``."""
        if not self.conds.memory_active:
            return self._all_related()
        (t1, t2), K = self.tables, self.K
        rows = [(t1.moves[op], t2.moves[op]) for op in self.ops]
        order = [0]  # the start pair: each side's initial configuration is id 0
        seen = set(order)
        for p in order:  # grows while walked: breadth-first
            c1, c2 = divmod(p, K)
            for row1, row2 in rows:
                replies = row2[c2]
                for a in row1[c1]:
                    base = a * K
                    for b in replies:
                        q = base + b
                        if q not in seen:
                            if len(seen) >= self.max_pairs:
                                raise StateSpaceExceededError(self.max_pairs)
                            seen.add(q)
                            order.append(q)
        pairs = (divmod(p, K) for p in order)
        return frozenset((t1.configs[a], t2.configs[b]) for a, b in pairs if self._related(a, b))

    def _at(self, s: int, rnd: int) -> int:
        history = self.history.get(s, ())
        i = bisect_right(history, rnd, key=itemgetter(0))
        return history[i - 1][1] if i else self.first[s]

    def __contains__(self, p: int) -> bool:
        return not self._related(*divmod(p, self.K))

    def __getitem__(self, p: int) -> tuple[int, tuple | None]:
        """(death round, reason) of a pair id that is not related."""
        if p not in self:
            raise KeyError(p)
        c1, c2 = divmod(p, self.K)
        lo = bisect_left(range(self.rounds), True, key=lambda rnd: not self._related_at(c1, c2, rnd))
        return (lo, self._reason(c1, c2, lo - 1) if lo else None)

    def _reason(self, c1: int, c2: int, rnd: int) -> tuple:
        """``violation`` of pair (c1, c2) against the round-``rnd`` relation."""
        (t1, t2), K, related = self.tables, self.K, self._related_at
        for kind, nom in self.closures:
            op = ("close", kind, nom)
            (a,), (b,) = t1.moves[op][c1], t2.moves[op][c2]
            if not related(a, b, rnd):
                return (kind, nom, a * K + b)
        for rel in self.rels:
            for name, side, traced in self.clauses:
                op = ("step", rel, traced)
                succ1, succ2 = t1.moves[op][c1], t2.moves[op][c2]
                if side == "left":
                    for t in succ1:
                        if not any(related(t, u, rnd) for u in succ2):
                            return (name, rel, t)
                else:
                    for t in succ2:
                        if not any(related(u, t, rnd) for u in succ1):
                            return (name, rel, t)
        raise AssertionError(f"pair {c1 * K + c2} has no violation at round {rnd}")


class _Blocks(_Refinement):
    """Block refinement of the disjoint union of both sides' states, for
    symmetric conditions.  State s < n1 is left configuration s, state
    n1 + c right configuration c.  Round 0 groups the states by signature;
    round r re-keys the states whose closure image or step successor changed
    block in round r - 1, a key being the set of round r - 1 blocks each
    operator leads to, and splits a block by key.  A block keeps its id
    unless it splits, and then the part of its unchanged states (else its
    largest part) keeps it, so that only moved states make their
    predecessors dirty.  Two states share a round-r block exactly when
    their pair survives r synchronous rounds of the fixpoint."""

    def run(self, initial: Pair) -> int:
        start = self._start(initial)
        (t1, t2), n1, ops = self.tables, self.n1, self.ops
        # per state, its targets under each op and its predecessors (right states + n1)
        succ = [[t1.moves[op][c] for op in ops] for c in range(n1)]
        succ += [[[n1 + d for d in t2.moves[op][c]] for op in ops] for c in range(self.K)]
        pre = t1.predecessors(ops) + [[n1 + c for c in cs] for cs in t2.predecessors(ops)]
        numbers: dict[int, int] = {}
        block = [numbers.setdefault(sig, len(numbers)) for sig in t1.sig + t2.sig]
        self.first = block[:]
        size = [0] * len(numbers)
        for b in block:
            size[b] += 1
        keys: list[tuple | None] = [None] * len(numbers)
        block_of = block.__getitem__
        dirty, rnd = range(len(succ)), 0
        self.keyed = 0  # key computations, over all rounds
        while dirty:
            rnd += 1
            self.keyed += len(dirty)
            split: dict[int, dict[tuple, list[int]]] = {}
            for s in dirty:
                key = tuple([frozenset(map(block_of, targets)) for targets in succ[s]])
                split.setdefault(block[s], {}).setdefault(key, []).append(s)
            moved = []
            for b, parts in split.items():
                if size[b] > sum(map(len, parts.values())):
                    stay = keys[b]  # the key of the states not re-keyed
                elif len(parts) == 1:
                    stay = keys[b] = next(iter(parts))
                else:
                    stay = keys[b] = max(parts, key=lambda k: len(parts[k]))
                parts.pop(stay, None)
                for key, part in parts.items():
                    new = len(keys)
                    keys.append(key)
                    size.append(len(part))
                    size[b] -= len(part)
                    for s in part:
                        block[s] = new
                        self.history.setdefault(s, []).append((rnd, new))
                    moved += part
            dirty = {p for s in moved for p in pre[s]}
        self.block, self.rounds = block, rnd
        return start

    def _related_at(self, c1: int, c2: int, rnd: int) -> bool:
        return self._at(c1, rnd) == self._at(self.n1 + c2, rnd)

    def _related(self, c1: int, c2: int) -> bool:
        return self.block[c1] == self.block[self.n1 + c2]

    def _all_related(self) -> frozenset[Pair]:
        """The union of the block products (B ∩ W1) × (B ∩ W2)."""
        (t1, t2), block, n1 = self.tables, self.block, self.n1
        lefts: dict[int, list[Config]] = {}
        for c, b in zip(t1.configs, block):
            lefts.setdefault(b, []).append(c)
        return frozenset((c1, c2) for c2, b in zip(t2.configs, block[n1:]) for c1 in lefts.get(b, ()))


class _Memo(dict):
    """m -> read(m), read on first use."""

    def __init__(self, read):
        self.read = read

    def __missing__(self, m: int) -> int:
        return self.setdefault(m, self.read(m))


class _Rows(_Refinement):
    """Row refinement for directed conditions: the greatest simulation as
    one bit row per right state (Henzinger, Henzinger & Kopke, FOCS 1995).
    Bit c1 of ``rows[c2]`` is set while pair (c1, c2) is alive.  Round 0
    sets the left states whose signature has no ``disagreement`` with c2's.
    Round r recomputes only the rows of the right states whose closure image
    or step successor changed row in round r - 1, each against the round
    r - 1 rows, so every pair dies in its synchronous round.  Over c2's
    images t under one operator, the closures and a step with a back-type
    clause keep the left states with an image in ``rows[t]``; a step with a
    forth-type clause keeps the left states whose successors all lie in the
    union of those rows.  Each op's left preimages are read by
    ``configs.preimage`` over the left table's ``pre_masks``, memoized by
    mask.  A row's history holds its value after each change.  The rows
    belong to right states because a right state's row often loses its bits
    in one round: along two chains each row changes once, where a left
    state's row would change in every round."""

    def run(self, initial: Pair) -> int:
        start = self._start(initial)
        (t1, t2), n1, n2 = self.tables, self.n1, self.K
        full, disagreement = (1 << n1) - 1, self.disagreement
        groups: dict[int, int] = {}  # left signature -> its states
        for c1, sig in enumerate(t1.sig):
            groups[sig] = groups.get(sig, 0) | 1 << c1
        by_sig = {sig: sum(m for s, m in groups.items() if not disagreement(s, sig)) for sig in set(t2.sig)}
        rows = [by_sig[sig] for sig in t2.sig]
        self.first = rows[:]
        sides = {(side, traced) for _, side, traced in self.clauses}  # who picks first, per step
        # per op: c2's images, the two clause shapes and the memoized reader
        # of left preimages
        terms = []
        for op in self.ops:
            close = op[0] == "close"
            exists = close or ("right", op[2]) in sides
            forall = not close and ("left", op[2]) in sides
            terms.append((t2.moves[op], exists, forall, _Memo(preimage(t1.pre_masks(op)))))
        readers = t2.predecessors(self.ops)

        def update(c2: int) -> int:
            row = rows[c2]
            for succ, exists, forall, pre in terms:
                targets = succ[c2]
                if exists:
                    for t in targets:
                        row &= pre[rows[t]]
                if forall:
                    union = 0
                    for t in targets:
                        union |= rows[t]
                    if union != full:
                        row &= ~pre[full & ~union]
            return row

        history, dirty, rnd = self.history, range(n2), 0
        self.recomputed = 0  # row recomputations, over all rounds
        while dirty:
            rnd += 1
            self.recomputed += len(dirty)
            changed = [(c2, row) for c2 in dirty if (row := update(c2)) != rows[c2]]
            for c2, row in changed:
                rows[c2] = row
                history.setdefault(c2, []).append((rnd, row))
            dirty = {r for c2, _ in changed for r in readers[c2]}
        self.rows, self.rounds = rows, rnd
        return start

    def _related_at(self, c1: int, c2: int, rnd: int) -> bool:
        return self._at(c2, rnd) >> c1 & 1

    def _related(self, c1: int, c2: int) -> bool:
        return self.rows[c2] >> c1 & 1

    def _all_related(self) -> frozenset[Pair]:
        """The set bits of the rows."""
        t1, t2 = self.tables
        bits = [[c1 for c1, ch in enumerate(bin(row)[:1:-1]) if ch == "1"] for row in self.rows]
        return frozenset((t1.configs[c1], c2) for c2, ones in zip(t2.configs, bits) for c1 in ones)


# ---------------------------------------------------------------------------
# Distinguisher extraction by refinement tracing (non-memory dialects)


def _distinguisher(spec: LogicSpec, engine: _Refinement, start: int) -> Formula:
    """Rebuild a distinguishing formula of a deleted pair id (true on the
    left, false on the right) from the fixpoint's deletion reasons.  Each
    pair's ``build`` yields the pair ids whose formulas it needs, each built
    once.  ``conjoin`` and ``disjoin`` print the parts to sort them, so each
    part is printed as it is built, over printed parts."""
    (t1, t2), K = engine.tables, engine.K

    def build(p: int):
        c1, c2 = divmod(p, K)
        _, reason = engine.dead[p]
        if reason is None:  # the atom is asserted where the left side holds it
            atom, left = engine.static_atom(t1.sig[c1], t2.sig[c2])
            return atom if left else Not(atom)
        match reason:
            case (("remember" | "forget" | "erase" | "nom") as kind, info, image):
                return closure_formula(kind, info, (yield image))
            case (("forth" | "back" | "mforth" | "mback") as name, rel, target):
                side, traced, operator = CLAUSES[name]
                op = ("step", rel, traced)
                if side == "left":
                    replies = [target * K + u for u in t2.moves[op][c2]]
                else:
                    replies = [u * K + target for u in t1.moves[op][c1]]
                parts = []
                for q in replies:
                    parts.append((yield q))
                sub = conjoin(parts) if side == "left" else disjoin(parts)
                return modality(spec, operator, rel, sub)
        raise AssertionError(f"unknown deletion reason {reason!r}")

    return _walk(build, start, {})


# ---------------------------------------------------------------------------
# Public API


def _engine(conds: SimConditions, left: KripkeModel, right: KripkeModel, max_pairs: int):
    """Block refinement for symmetric conditions, row refinement for
    directed ones."""
    symmetric = not conds.atomic_one_directional and conds.forth == conds.back
    return (_Blocks if symmetric else _Rows)(conds, left, right, max_pairs)


def _solve(
    spec: LogicSpec,
    conds: SimConditions,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    max_pairs: int,
    distinguisher_depth: int,
) -> SimulationOutcome:
    if distinguisher_depth < 0:
        raise InvariantViolationError(f"depth must be at least 0, got {distinguisher_depth}")
    left.require_world(w)
    right.require_world(v)
    engine = _engine(conds, left, right, max_pairs)
    start = engine.run(initial_pair(left, w, right, v))
    if start not in engine.dead:
        return SimulationOutcome(True, engine.witness(), None)
    if conds.memory_active:
        if distinguisher_depth <= 0:
            return SimulationOutcome(False, None, None)
        from .enumeration import separating_formula

        phi = separating_formula(spec, left, w, right, v, depth=distinguisher_depth)
        return SimulationOutcome(False, None, phi)
    return SimulationOutcome(False, None, _distinguisher(spec, engine, start))


def fixpoint_separator(
    spec: LogicSpec,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    depth: int,
    max_pairs: int,
) -> Formula | None:
    """For dialects without memory or jump operators, whose deletion rounds
    count modal depth: the traced distinguisher when the canonical fixpoint
    deletes the initial pair within ``depth`` rounds, else None."""
    engine = _engine(conditions_for(spec), left, right, max_pairs)
    start = engine.run(initial_pair(left, w, right, v))
    if start not in engine.dead or engine.dead[start][0] > depth:
        return None
    return _distinguisher(spec, engine, start)


def bisimilar(
    spec: LogicSpec,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    distinguisher_depth: int = 4,
) -> SimulationOutcome:
    """Are the pointed models related by the dialect's canonical notion?

    For dialects with negation this is a bisimulation-style symmetric notion;
    for negation-free dialects the canonical notion is already directed.
    ``max_pairs`` bounds the witness's pairs and, for memory dialects, each
    side's reachable configurations (see the module docstring).
    ``distinguisher_depth`` caps the bounded search used to synthesize a
    separating formula for memory dialects; pass 0 to skip that search.
    """
    return _solve(spec, conditions_for(spec), left, w, right, v, max_pairs, distinguisher_depth)


def simulated_by(
    spec: LogicSpec,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    distinguisher_depth: int = 4,
) -> SimulationOutcome:
    """Is the left pointed model simulated by the right one (directed
    conditions: no back-type clauses, one-directional atomic agreement)?"""
    conds = directed_conditions(conditions_for(spec))
    return _solve(spec, conds, left, w, right, v, max_pairs, distinguisher_depth)


def verify_relation(
    conds: SimConditions,
    left: KripkeModel,
    right: KripkeModel,
    relation: frozenset[Pair] | set[Pair],
) -> tuple[Pair | None, str] | None:
    """Check a purported (bi)simulation directly against the defining
    conditions; None if it passes, otherwise (offending pair, reason).  The
    relation is interned into two fresh tables of its own and each pair is
    checked once, in ``pair_key`` order.  A pair naming a world its model
    lacks, current or remembered, raises ``UnknownWorldError``."""
    if not relation:
        return (None, "a simulation must be non-empty")
    space = PairSpace(conds, left, right)
    t1, t2 = space.config_tables()

    def ids(pair: Pair) -> tuple[int, int]:
        c1, c2 = pair
        for w in (c1.world, *sorted(c1.mem)):
            left.require_world(w)
        for w in (c2.world, *sorted(c2.mem)):
            right.require_world(w)
        return t1.intern(c1.mem, c1.world), t2.intern(c2.mem, c2.world)

    related = {ids(pair) for pair in relation}
    for pair in sorted(relation, key=pair_key):
        a, b = ids(pair)
        reason = space.static_reason(t1.sig[a], t2.sig[b])
        if reason is not None:
            return (pair, f"static condition fails: {reason}")
        for kind, info in space.closures:
            op = ("close", kind, info)
            if t1.move(op, a) + t2.move(op, b) not in related:
                label = f"{kind} {info}" if info else kind
                return (pair, f"closure condition {label} leads outside the relation")
        for rel in space.rels:
            for name, side, traced in space.clauses:
                op = ("step", rel, traced)
                succ1, succ2 = t1.move(op, a), t2.move(op, b)
                if side == "left":
                    failed = [t for t in succ1 if all((t, u) not in related for u in succ2)]
                else:
                    failed = [t for t in succ2 if all((u, t) not in related for u in succ1)]
                if failed:
                    table = t1 if side == "left" else t2
                    return (pair, f"{name} fails for {rel}:{table.configs[failed[0]].world}")
    return None


# ---------------------------------------------------------------------------
# Partition refinement (plain modal fragment)


def bml_partition_refinement(model: KripkeModel) -> tuple[frozenset[str], ...]:
    """Coarsest partition of the worlds stable under propositional agreement
    and block-successor signatures, by iterated splitting.  Memory and
    nominals are outside this fragment and are ignored."""
    rels = sorted(model.rels)
    props = sorted(model.val)

    def initial_key(w: str):
        return tuple(w in model.val[p] for p in props)

    block_of = _normalize({w: initial_key(w) for w in model.worlds}, model.worlds)
    while True:
        def signature(w: str):
            succ_sig = tuple(
                frozenset(block_of[b] for b in model.successors(rel, w)) for rel in rels
            )
            return (block_of[w], succ_sig)

        refined = _normalize({w: signature(w) for w in model.worlds}, model.worlds)
        if len(set(refined.values())) == len(set(block_of.values())):
            break
        block_of = refined
    blocks: dict[int, set[str]] = {}
    for w, b in block_of.items():
        blocks.setdefault(b, set()).add(w)
    return tuple(sorted((frozenset(b) for b in blocks.values()), key=min))


def _normalize(keyed: dict[str, tuple], worlds) -> dict[str, int]:
    ids: dict[tuple, int] = {}
    out = {}
    for w in sorted(worlds):
        key = keyed[w]
        if key not in ids:
            ids[key] = len(ids)
        out[w] = ids[key]
    return out
