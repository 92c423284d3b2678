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

The pair engine starts from every materialized pair satisfying the static
conditions and deletes violating pairs in rounds until stable; the survivors
are the largest relation closed under the conditions, so the returned
witness contains every valid hand-built relation over the same space.  It
serves memory dialects, whose configuration space is materialized lazily
from the initial pair's closure (with a hard cap).  Conditions that move no
memory are decided without pair ids.  Symmetric ones refine the blocks of
the disjoint union of the two models' worlds; two worlds share a round-r
block exactly when their pair survives r rounds (Kanellakis & Smolka, Inf.
& Comp. 86(1) 1990; Paige & Tarjan, SIAM J. Comput. 16(6) 1987).  Directed
ones refine one bit row per right world, the left worlds whose pair with it
survives r rounds (Henzinger, Henzinger & Kopke, FOCS 1995).  Both give the
pair engine's verdicts, death rounds, reasons and witnesses.  Their
witnesses have up to |W1|·|W2| pairs, so ``max_pairs`` bounds that product.

The pair engine runs on integers.  Each model's configurations are
interned in a ``configs.ConfigTable``, and a pair of ids is the one int
``p = c1 * K + c2``, K bounding the right table's size.  A pair passes the
static check when ``PairSpace.disagreement`` of its two signature ints is 0
(``sig1 == sig2``, or ``sig1 & ~sig2 == 0`` when atomic agreement is
one-directional).  Round 1 checks every statically live pair; round r + 1
checks only the live predecessors of the pairs round r deleted, found
through inverse maps of the tables' moves, since a pair none of whose closure images
or modal successor pairs died keeps the verdict it had.  Every check of a
round reads the live set as the round found it and the round's deletions
are applied after its last check, so each deleted pair's round (the modal
depth ``fixpoint_separator`` reads) and reason are exactly those of
synchronous rounds that re-check every live pair (Kanellakis & Smolka, Inf.
& Comp. 86(1) 1990).  The distinguisher tracer reads the reasons and the
tables' moves by id; configurations are rebuilt only for the witness.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _inverse(moves: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    """d -> the ids whose entry in one op's ``moves`` contains d."""
    pre: dict[int, list[int]] = {}
    for c, targets in moves.items():
        for d in targets:
            pre.setdefault(d, []).append(c)
    return pre


class _Engine(PairSpace):
    """The fixpoint on pair ids p = c1 * K + c2 over the two models'
    ``ConfigTable``s; ``alive`` and ``dead`` (p -> (round, reason)) are keyed
    by pair id; a pair that fails the static conditions has reason None,
    and ``static_reason`` names its failure from the two signatures."""

    def __init__(
        self,
        conds: SimConditions,
        left: KripkeModel,
        right: KripkeModel,
        max_pairs: int,
    ):
        super().__init__(conds, left, right)
        self.max_pairs = max_pairs
        self.tables = self.config_tables()
        # K bounds the right model's configuration count: |W| without
        # memory moves, |W| * 2^|W| with them.
        n = len(right.worlds)
        self.K = n << n if conds.memory_active else n
        self.dead: dict[int, tuple[int, tuple | None]] = {}
        self.alive: set[int] = set()

    # -- materialization -----------------------------------------------------

    def materialize(self, initial: Pair) -> list[int]:
        """The pair ids of the space, with every move of their configurations
        cached in the tables."""
        t1, t2 = self.tables
        K = self.K
        if not self.conds.memory_active:
            if len(self.left.worlds) * len(self.right.worlds) > self.max_pairs:
                raise StateSpaceExceededError(self.max_pairs)
            ids1 = [t1.intern(initial[0].mem, a) for a in self.left.worlds]
            ids2 = [t2.intern(initial[1].mem, b) for b in self.right.worlds]
            for op in self.ops:
                for c in ids1:
                    t1.targets(op, c)
                for c in ids2:
                    t2.targets(op, c)
            return [a * K + b for a in ids1 for b in ids2]
        c1, c2 = initial
        order = [t1.intern(c1.mem, c1.world) * K + t2.intern(c2.mem, c2.world)]
        seen = set(order)
        for p in order:  # grows while walked: breadth-first
            c1, c2 = divmod(p, K)
            for op in self.ops:
                replies = t2.targets(op, c2)
                for a in t1.targets(op, c1):
                    base = a * K
                    for b in replies:
                        q = base + b
                        if q not in seen:
                            if len(seen) >= self.max_pairs:
                                raise StateSpaceExceededError(self.max_pairs)
                            seen.add(q)
                            order.append(q)
        return order

    # -- the fixpoint --------------------------------------------------------

    def run(self, initial: Pair) -> int:
        """Round 1 checks every statically live pair; round r + 1 checks only
        the live predecessors of the pairs round r deleted, the only ones
        whose check can have changed.  Each round's checks all read
        ``alive`` as the round found it.  Returns the initial pair's id."""
        pairs = self.materialize(initial)
        (t1, t2), K = self.tables, self.K
        sig1, sig2, disagreement = t1.sig, t2.sig, self.disagreement
        alive, dead = self.alive, self.dead
        for p in pairs:
            if disagreement(sig1[p // K], sig2[p % K]):
                dead[p] = (0, None)
            else:
                alive.add(p)
        self._closure_rows = [
            (kind, nom, t1.moves[("close", kind, nom)], t2.moves[("close", kind, nom)])
            for kind, nom in self.closures
        ]
        self._clause_rows = [
            (name, rel, side == "left", t1.moves[("step", rel, traced)], t2.moves[("step", rel, traced)])
            for rel in self.rels
            for name, side, traced in self.clauses
        ]
        pre_rows = [(_inverse(t1.moves[op]), _inverse(t2.moves[op])) for op in self.ops]
        rnd = 0
        frontier = set(alive)
        while frontier:
            rnd += 1
            doomed = [(p, reason) for p in frontier if (reason := self.violation(p)) is not None]
            for p, reason in doomed:
                alive.discard(p)
                dead[p] = (rnd, reason)
            deleted: dict[int, list[int]] = {}
            for q, _ in doomed:
                d1, d2 = divmod(q, K)
                deleted.setdefault(d1, []).append(d2)
            frontier = set()
            for pre1, pre2 in pre_rows:
                for d1, d2s in deleted.items():
                    sources = pre1.get(d1)
                    if sources:
                        replies = set().union(*[pre2.get(d2, ()) for d2 in d2s])
                        for a in sources:
                            frontier.update(map((a * K).__add__, replies))
            frontier &= alive
        c1, c2 = initial
        return t1.intern(c1.mem, c1.world) * K + t2.intern(c2.mem, c2.world)

    def violation(self, p: int) -> tuple | None:
        """The first failed condition of pair p against ``alive``: a closure
        update with its image's pair id, or a modal clause with the target's
        configuration id."""
        K, alive = self.K, self.alive
        c1, c2 = divmod(p, K)
        for kind, nom, row1, row2 in self._closure_rows:
            (a,), (b,) = row1[c1], row2[c2]
            if a * K + b not in alive:
                return (kind, nom, a * K + b)
        for name, rel, left_first, row1, row2 in self._clause_rows:
            succ1, succ2 = row1[c1], row2[c2]
            if left_first:
                for t in succ1:
                    if alive.isdisjoint(map((t * K).__add__, succ2)):
                        return (name, rel, t)
            elif succ2:
                bases = [u * K for u in succ1]
                for t in succ2:
                    if alive.isdisjoint(map(t.__add__, bases)):
                        return (name, rel, t)
        return None

    # -- the edges -----------------------------------------------------------

    def witness(self) -> frozenset[Pair]:
        (t1, t2), K = self.tables, self.K
        return frozenset((t1.configs[p // K], t2.configs[p % K]) for p in self.alive)


class _Refinement(PairSpace):
    """What the two engines without pairs share.  Every world is one state
    of its side's table under the side's fixed memory; a state's value (its
    block, or its row of related partners) is ``first[s]`` at round 0 and
    the last ``history[s]`` entry (round, value) at or before a later round.
    The engine is its own ``dead`` mapping of pair ids: a pair's death round
    is found by binary search over the rounds and its reason is recomputed
    against the round before, in ``violation``'s clause order, so that
    ``_distinguisher`` reads it as it reads ``_Engine``'s."""

    def __init__(self, conds: SimConditions, left: KripkeModel, right: KripkeModel, max_pairs: int):
        super().__init__(conds, left, right)
        if len(left.worlds) * len(right.worlds) > max_pairs:  # the witness can be that large
            raise StateSpaceExceededError(max_pairs)
        self.tables = self.config_tables()
        self.n1, self.K = len(left.worlds), len(right.worlds)
        self.history: dict[int, list[tuple[int, int]]] = {}

    dead = property(lambda self: self)

    def _start(self, initial: Pair) -> int:
        """Interns every world of both sides; the initial pair's id."""
        (t1, t2), (c1, c2) = self.tables, initial
        for a in self.left.worlds:
            t1.intern(c1.mem, a)
        for b in self.right.worlds:
            t2.intern(c2.mem, b)
        return t1.intern(c1.mem, c1.world) * self.K + t2.intern(c2.mem, c2.world)

    def _at(self, s: int, rnd: int) -> int:
        history = self.history.get(s, ())
        i = bisect_right(history, rnd, key=itemgetter(0))
        return history[i - 1][1] if i else self.first[s]

    def __contains__(self, p: int) -> bool:
        return not self._related_at(*divmod(p, self.K), self.rounds)

    def __getitem__(self, p: int) -> tuple[int, tuple | None]:
        """(death round, reason) of a pair id that is not related."""
        if p not in self:
            raise KeyError(p)
        c1, c2 = divmod(p, self.K)
        lo, hi = 0, self.rounds
        while lo < hi:
            mid = (lo + hi) // 2
            if self._related_at(c1, c2, mid):
                lo = mid + 1
            else:
                hi = mid
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
    """Block refinement of W1 ⊎ W2 for symmetric conditions that move no
    memory.  State s < n1 is left configuration s, state n1 + c right
    configuration c.  Round 0 groups the states by signature; round r
    re-keys the states whose closure image or step successor changed block
    in round r - 1, a key being the set of round r - 1 blocks each operator
    leads to, and splits a block by key.  A block keeps its id unless it
    splits, and then the part of its unchanged states (else its largest
    part) keeps it, so that only moved states make their predecessors
    dirty.  Two states share a round-r block exactly when their pair
    survives r synchronous rounds of the fixpoint."""

    def run(self, initial: Pair) -> int:
        start = self._start(initial)
        (t1, t2), n1, ops = self.tables, self.n1, self.ops
        # per state, its targets under each op, right states offset by n1
        succ = [[t1.targets(op, c) for op in ops] for c in range(n1)]
        succ += [[[n1 + d for d in t2.targets(op, c)] for op in ops] for c in range(self.K)]
        pre: list[list[int]] = [[] for _ in succ]
        for s, row in enumerate(succ):
            for targets in row:
                for t in targets:
                    pre[t].append(s)
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

    def witness(self) -> frozenset[Pair]:
        """The union of the block products (B ∩ W1) × (B ∩ W2)."""
        (t1, t2), block, n1 = self.tables, self.block, self.n1
        lefts: dict[int, list[Config]] = {}
        for c, b in zip(t1.configs, block):
            lefts.setdefault(b, []).append(c)
        return frozenset((c1, c2) for c2, b in zip(t2.configs, block[n1:]) for c1 in lefts.get(b, ()))


def _bits(m: int) -> list[int]:
    """The set bits of m, lowest first."""
    return [i for i, ch in enumerate(reversed(bin(m))) if ch == "1"]


class _Rows(_Refinement):
    """Row refinement for directed conditions that move no memory: the
    greatest simulation as one bit row per right state (Henzinger, Henzinger
    & Kopke, FOCS 1995).  Bit c1 of ``rows[c2]`` is set while pair (c1, c2)
    is alive.  Round 0 sets the left states whose signature has no
    ``disagreement`` with c2's.  Round r recomputes only the rows of the
    right states whose closure image or step successor changed row in round
    r - 1, each against the round r - 1 rows, so every pair dies in its
    synchronous round.  Over c2's images t under one operator, back and the
    closures keep the left states with an image in ``rows[t]`` (a preimage
    kept per row until the row changes); forth keeps the left states whose
    successors all lie in the union of those rows.  Left preimages are
    memoized by mask.  A row's history holds its value after each change.
    The rows belong to right states because a right state's row often
    loses its bits in one round: along two chains each row changes once,
    where a left state's row would change in every round."""

    def run(self, initial: Pair) -> int:
        start = self._start(initial)
        (t1, t2), n1, n2 = self.tables, self.n1, self.K
        full, disagreement = (1 << n1) - 1, self.disagreement
        groups: dict[int, int] = {}  # left signature -> its states
        for c1, sig in enumerate(t1.sig):
            groups[sig] = groups.get(sig, 0) | 1 << c1
        by_sig: dict[int, int] = {}
        for sig in t2.sig:
            if sig not in by_sig:
                by_sig[sig] = sum(m for s, m in groups.items() if not disagreement(s, sig))
        rows = [by_sig[sig] for sig in t2.sig]
        self.first = rows[:]
        sides = {side for _, side, _ in self.clauses}  # which side picks first
        # per op: c2's images, the two clause shapes, the kept preimages of
        # the rows, the left inverse (bit c1 of inverse[d]: op moves c1 to d)
        # and the preimage memo
        terms = []
        readers: list[list[int]] = [[] for _ in range(n2)]
        for op in self.ops:
            succ = [t2.targets(op, c2) for c2 in range(n2)]
            for c2, targets in enumerate(succ):
                for t in targets:
                    readers[t].append(c2)
            inverse = [0] * n1
            for c1 in range(n1):
                for d in t1.targets(op, c1):
                    inverse[d] |= 1 << c1
            close = op[0] == "close"
            exists, forall = close or "right" in sides, not close and "left" in sides
            terms.append((succ, exists, forall, [None] * n2, inverse, {}))

        def pre(inverse: list[int], memo: dict[int, int], m: int) -> int:
            out = memo.get(m)
            if out is None:
                out = 0
                for c1 in _bits(m):
                    out |= inverse[c1]
                memo[m] = out
            return out

        def update(c2: int) -> int:
            row = rows[c2]
            for succ, exists, forall, images, inverse, memo in terms:
                targets = succ[c2]
                if exists:
                    for t in targets:
                        m = images[t]
                        if m is None:
                            m = images[t] = pre(inverse, memo, rows[t])
                        row &= m
                if forall:
                    union = 0
                    for t in targets:
                        union |= rows[t]
                    if union != full:
                        row &= ~pre(inverse, memo, full & ~union)
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
                for _, _, _, images, _, _ in terms:
                    images[c2] = None
            dirty = {r for c2, _ in changed for r in readers[c2]}
        self.rows, self.rounds = rows, rnd
        return start

    def _related_at(self, c1: int, c2: int, rnd: int) -> bool:
        return self._at(c2, rnd) >> c1 & 1

    def witness(self) -> frozenset[Pair]:
        """The set bits of the rows."""
        t1, t2 = self.tables
        configs1 = t1.configs
        return frozenset((configs1[c1], c2) for c2, row in zip(t2.configs, self.rows) for c1 in _bits(row))


# ---------------------------------------------------------------------------
# Distinguisher extraction by refinement tracing (non-memory dialects)


def _distinguisher(spec: LogicSpec, engine: _Engine | _Refinement, start: int) -> Formula:
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
    """The pair fixpoint when memory moves; else block refinement for
    symmetric conditions and row refinement for directed ones."""
    if conds.memory_active:
        return _Engine(conds, left, right, max_pairs)
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
