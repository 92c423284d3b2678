"""Canonical formula streams and algebraic theory comparison.

Everything here works over a *joint evaluation context*: the configurations
(memory set, world) of one or more models, one ``configs.ConfigTable`` per
model, laid out as bit positions, so that the meaning of a formula in the
context is a single integer bitmask.  Two formulas with the same bitmask are
indistinguishable by any of the context's models, which makes deduplication
exact rather than heuristic.

Each operator that moves a configuration (a diamond or double diamond along
a relation, remember, forget, erase, a jump ``@i``) is a ``configs.Op``
whose meaning is the preimage of its argument (the bottom-up labelling of
Clarke, Emerson & Sistla, TOPLAS 1986); a box is the dual of its diamond.
Configuration (memory block B, world index i) of model k is bit
``offsets[k] + B*|W_k| + i``, so an operator that keeps the memory acts
alike on every block (I ⊗ R, the Kronecker structure of Plateau,
SIGMETRICS 1985), erase sends every block to block 0 (the empty memory)
whatever the world, and their preimages are computed by shifts: a plain
step ORs, for each world-index offset of its edges, the argument shifted
by that offset and masked to the edges' sources in every block; erase
spreads each model's block 0 over all its blocks, and ``@i`` each block's
bit of world i over that block, one multiplication per model.  Remember,
forget and the traced steps move between blocks by world: ``configs.preimage``
reads the tables' ``pre_masks`` (row t: the configurations one application
moves to t), each at its model's offset.  The context lists its atoms and
its depth-0 updates (negation, then the closures) once, with, per outer
operator of a formula, the updates that operator absorbs
(``configs.ABSORBED``) left out: both engines read them, and neither
computes a mask it knows to be the formula's own.

Two engines share the context:

- ``enumerate_formulas`` produces the canonical stream: formulas grouped by
  modal depth, within a depth stratum ordered by node count and rendered
  text, each yielded formula having a meaning not seen before.  A formula
  is built only when its meaning is new, and is printed over its printed
  operand in one step.  The stream is conjunction-free; it is a sound basis
  for theory comparison (related points agree on all of it) and a practical
  basis for small-definition synthesis, but it does not enumerate every
  boolean combination.

- ``JointPartition`` refines the configuration space into meaning classes
  wave by wave (one wave per unit of modal depth) and is *complete* for
  dialects with full boolean connectives: two configurations land in the
  same class after wave d exactly when no formula of modal depth at most d
  tells them apart.  The key facts are that the diamonds distribute over
  unions (so refining by the image of each partition class captures every
  refinement any formula could make) and that the memory and jump operators
  are preimage maps on configurations that add no modal depth (so each wave
  closes under them before the next wave of diamonds).  Each class keeps the
  signed tests that split it off, in order; their conjunction is the class's
  characteristic formula, and the entry where two classes' paths part is a
  formula that separates them (the split-history construction of Cleaveland,
  CAV 1990).

``separating_formula`` and ``equivalent_up_to`` route dialects without
memory or jump operators to the relational fixpoint (whose deletion rounds
count exactly modal depth there) and the rest to the partition, stopped at
the split that parts the two points: a ``max_tests`` budget that only a
later split would exceed raises no ``BudgetExceededError``.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import suppress
from functools import partial
from itertools import accumulate, combinations
from typing import Callable

from .configs import ABSORBED, ConfigTable, Op, closure_formula, closures, preimage, vocabulary
from .equivalence import DEFAULT_MAX_PAIRS, conditions_for, fixpoint_separator
from .errors import (
    BudgetExceededError,
    InvariantViolationError,
    OperatorNotInDialectError,
    StateSpaceExceededError,
    UnassignedNominalError,
    UnsupportedFeaturesError,
)
from .kripke import KripkeModel, PointedModel
from .syntax import (
    MEMORY_OPERATORS,
    MODALITIES,
    And,
    At,
    Bottom,
    Box,
    DBox,
    DDiamond,
    Diamond,
    Erase,
    Forget,
    Formula,
    Iff,
    Implies,
    Known,
    LogicSpec,
    Nom,
    Not,
    Or,
    Prop,
    Remember,
    Top,
    _walk,
    conjoin,
    modality,
    print_formula,
)

MEMORY_CHANGING = MEMORY_OPERATORS - {"known"}

MAX_CONFIGS = 2**20


def _mem_subsets(worlds: tuple[str, ...]) -> list[frozenset[str]]:
    return [frozenset(c) for k in range(len(worlds) + 1) for c in combinations(worlds, k)]


def _rep(n: int, blocks: int) -> int:
    """Bit 0 of each of the blocks of n bits."""
    return ((1 << blocks * n) - 1) // ((1 << n) - 1)


def _plan(tables: list[ConfigTable], offsets: list[int], op: Op) -> Callable[[int], int]:
    """op's preimage as a function of the argument mask.  A plain step and
    ``@i`` act alike on every memory block of |W| bits, and erase sends
    every block to block 0: a plain step shifts m once per world-index
    offset of its edges, erase spreads block 0 over every block, ``@i``
    each block's bit of world i over its block.  The rest (remember,
    forget, the traced steps) map blocks to other blocks by world and read
    nibble tables."""
    tag, a, b = op
    if b if tag == "step" else a in ("remember", "forget"):  # traced, remember, forget
        return _nibble_tables(tables, offsets, op)
    sources: dict[int, int] = {}  # a plain step's offset t - s -> the bits of sources s
    parts = []  # erase's and @i's (shift, pick, spread, offset) per model
    for table, off in zip(tables, offsets):
        worlds = table.model.worlds
        n = len(worlds)
        rep, ones = _rep(n, len(table.configs) // n), (1 << n) - 1
        if tag == "step":
            index = {w: i for i, w in enumerate(worlds)}
            for i, s in enumerate(worlds):
                for t in table.model.successors(a, s):
                    d = index[t] - i
                    sources[d] = sources.get(d, 0) | rep << (off + i)
        elif a == "erase":
            parts.append((off, ones, rep, off))
        else:
            parts.append((off + worlds.index(table.model.noms[b]), rep, ones, off))
    if tag == "step":
        return partial(
            _read_shifts,
            [(d, s) for d, s in sources.items() if d >= 0],
            [(-d, s) for d, s in sources.items() if d < 0],
        )
    return partial(_read_blocks, parts)


def _read_shifts(down: list[tuple[int, int]], up: list[tuple[int, int]], m: int) -> int:
    out = 0
    for d, s in down:
        out |= m >> d & s
    for d, s in up:
        out |= m << d & s
    return out


def _read_blocks(parts: list[tuple[int, int, int, int]], m: int) -> int:
    out = 0
    for shift, pick, spread, off in parts:
        out |= (m >> shift & pick) * spread << off
    return out


def _nibble_tables(tables: list[ConfigTable], offsets: list[int], op: Op) -> Callable[[int], int]:
    """op's ``configs.preimage`` over the tables' ``pre_masks``, each at its offset."""
    return preimage([m << off for table, off in zip(tables, offsets) for m in table.pre_masks(op)])


class EvalContext:
    """Configuration tables and bitmask semantics over a tuple of models.

    Each model's configurations live in one ``configs.ConfigTable``; for
    dialects with memory-changing operators it holds every (memory subset,
    world) configuration, otherwise only the model's own fixed memory.  The
    tables are interned in bit order (model, then memory subset, then world),
    so configuration c of model k is bit ``offsets[k] + c``.  Nominal-aware
    dialects require all models to assign exactly the same nominal names.

    ``atoms`` lists (formula, meaning) for the propositions, then ``known``,
    then the nominals, as the dialect allows; ``updates`` lists (formula
    builder, mask transform) for negation, then the closure updates in
    ``configs.closures`` order; ``updates_after`` maps a formula node type
    to the updates that type does not absorb.  ``pre`` is the one preimage
    routine behind every operator, keyed by ``configs.Op``: a plain step,
    erase and ``@i`` read shift plans, remember, forget and the traced
    steps nibble tables.  No transform refers back to the context, which
    frees it without a cycle.
    """

    def __init__(self, spec: LogicSpec, models: list[KripkeModel] | tuple[KripkeModel, ...]):
        self.spec = spec
        self.models = tuple(models)
        nominal = spec.allows("nominal") or spec.allows("at")
        self.props, self.rels, self.noms = vocabulary(self.models, nominal)
        conds = conditions_for(spec)
        self.memory_table = conds.memory_active

        # Checked before building: each model contributes 2^|W|*|W|
        # configurations with a memory table, |W| without.
        size = sum(
            (2 ** len(m.worlds) if self.memory_table else 1) * len(m.worlds) for m in self.models
        )
        if size > MAX_CONFIGS:
            raise StateSpaceExceededError(MAX_CONFIGS, "configuration space")
        atoms = (*map(Prop, self.props), Known(), *map(Nom, self.noms))
        self.tables = [ConfigTable(m, atoms) for m in self.models]
        blocks = [_mem_subsets(m.worlds) if self.memory_table else [frozenset(m.mem)] for m in self.models]
        for m, table, mems in zip(self.models, self.tables, blocks):
            for mem in mems:
                for w in m.worlds:
                    table.intern(mem, w)
        self.offsets = [0, *accumulate(len(table.configs) for table in self.tables)]
        self.configs: list[tuple[int, frozenset[str], str]] = [
            (k, c.mem, c.world) for k, table in enumerate(self.tables) for c in table.configs
        ]
        self.full = (1 << len(self.configs)) - 1
        # op, m -> the configurations op moves into m, by op's plan (``_plan``)
        plans, tables, offsets = {}, self.tables, self.offsets
        self.pre = lambda op, m: (plans.get(op) or plans.setdefault(op, _plan(tables, offsets, op)))(m)

        # signature bit j -> the mask of the configurations that have it: a
        # world's atoms other than known hold at its bit of every block, and
        # known at each block's memory
        known = len(self.props)
        masks = [0] * len(atoms)
        for m, table, mems, off in zip(self.models, self.tables, blocks, self.offsets):
            n = len(m.worlds)
            rep = _rep(n, len(mems))
            for i, s in enumerate(table.sig[:n]):
                s &= ~(1 << known)
                while s:
                    j = s.bit_length() - 1
                    masks[j] |= rep << (off + i)
                    s ^= 1 << j
            index = {w: i for i, w in enumerate(m.worlds)}
            for b, mem in enumerate(mems):
                masks[known] |= sum(1 << index[w] for w in mem) << (off + b * n)
        mask_of = dict(zip(atoms, masks))
        self.prop_mask = {p: mask_of[Prop(p)] for p in self.props}
        self.known_mask = mask_of[Known()]
        self.nom_mask = {i: mask_of[Nom(i)] for i in self.noms}
        allowed = {Prop: True, Known: spec.allows("known"), Nom: spec.allows("nominal")}
        self.atoms: list[tuple[Formula, int]] = [
            (atom, mask) for atom, mask in zip(atoms, masks) if allowed[type(atom)]
        ]
        negation = [(Not, self.full.__xor__)] if spec.has_negation else []
        active = closures(conds, self.noms)
        self.updates: list[tuple[Callable[[Formula], Formula], Callable[[int], int]]] = negation + [
            (partial(closure_formula, kind, nom), partial(self.pre, ("close", kind, nom)))
            for kind, nom in active
        ]
        kinds = [None] * len(negation) + [kind for kind, _ in active]
        self.updates_after = {
            node: [u for kind, u in zip(kinds, self.updates) if kind not in absorbed]
            for node, absorbed in ABSORBED.items()
        }

    def bit_of(self, model_index: int, mem: frozenset[str], world: str) -> int:
        """The bit of (mem, world) in model ``model_index``.  An unknown world,
        current or remembered, raises ``UnknownWorldError``, any other miss
        ``InvariantViolationError``."""
        model = self._model(model_index)
        for w in (world, *sorted(mem)):
            model.require_world(w)
        c = self.tables[model_index].ids.get((frozenset(mem), world))
        if c is None:
            raise InvariantViolationError(f"memory {sorted(mem)} is not in the context")
        return self.offsets[model_index] + c

    def start_bit(self, model_index: int, world: str) -> int:
        """The bit of (the model's own memory, world), checked as ``bit_of``."""
        return self.bit_of(model_index, self._model(model_index).mem, world)

    def _model(self, k: int) -> KripkeModel:
        if not 0 <= k < len(self.models):
            raise InvariantViolationError(f"model index {k} outside the context's {len(self.models)} models")
        return self.models[k]

    # -- mask transforms ------------------------------------------------------

    def modal_t(self, operator: str, rel: str, m: int) -> int:
        """The meaning of operator (diamond, box, ddiamond, dbox) along rel
        applied to a formula meaning m: a step along rel, traced for the
        double modalities; the boxes are the dual diamonds."""
        op = ("step", rel, self._checked(operator) in ("ddiamond", "dbox"))
        if operator in ("box", "dbox"):
            return self.full ^ self.pre(op, self.full ^ m)
        return self.pre(op, m)

    # -- full evaluator --------------------------------------------------------

    def meaning(self, phi: Formula) -> int:
        """The formula's bitmask over the whole configuration table."""
        return _walk(self._meaning, phi)

    def _meaning(self, phi: Formula):
        match phi:
            case Nom(nom) | At(nom, _) if nom not in self.nom_mask or any(
                nom not in m.noms for m in self.models
            ):
                raise UnassignedNominalError(nom)
            case Top():
                return self.full
            case Bottom():
                return 0
            case Prop(name):
                return self.prop_mask.get(name, 0)
            case Nom(name):
                return self.nom_mask[name]
            case Known():
                return self.known_mask
            case Not(sub):
                return self.full ^ (yield sub)
            case And(a, b):
                return (yield a) & (yield b)
            case Or(a, b):
                return (yield a) | (yield b)
            case Implies(a, b):
                return self.full ^ (yield a) | (yield b)
            case Iff(a, b):
                return self.full ^ (yield a) ^ (yield b)
            case Diamond(rel, sub) | Box(rel, sub) | DDiamond(rel, sub) | DBox(rel, sub):
                return self.modal_t(type(phi).__name__.lower(), rel, (yield sub))
            case Remember(sub) | Forget(sub) | Erase(sub):
                kind = self._checked(type(phi).__name__.lower())
                return self.pre(("close", kind, None), (yield sub))
            case At(nom, sub):
                return self.pre(("close", "nom", nom), (yield sub))
        raise TypeError(f"not a formula: {phi!r}")

    def _checked(self, name: str) -> str:
        """The operator name, checked against the configuration table."""
        if name in MEMORY_CHANGING and not self.memory_table:
            raise OperatorNotInDialectError(name, self.spec.name)
        return name


# ---------------------------------------------------------------------------
# The canonical stream


def stream_with_meanings(ctx: EvalContext, max_depth: int, budget: int):
    """Yield (formula, meaning mask) pairs of the canonical stream; raise
    BudgetExceededError when more than ``budget`` distinct meanings would be
    produced before the depth bound is exhausted.  Only formulas of unseen
    masks are built: ``seen`` only grows, so the rest would be dropped."""
    modal = [
        (partial(MODALITIES[op], r), partial(ctx.modal_t, op, r))
        for r in ctx.rels
        for op in MODALITIES
        if ctx.spec.allows(op)
    ]
    seen: set[int] = set()
    tick = iter(range(10**12))

    # (node count, formula, meaning); the atoms have one node each
    seeds = [(1, phi, mask) for phi, mask in [(Top(), ctx.full), (Bottom(), 0), *ctx.atoms]]
    for depth in range(max_depth + 1):
        heap = [(size, print_formula(phi), next(tick), phi, mask) for size, phi, mask in seeds]
        heapq.heapify(heap)
        accepted = []
        while heap:
            size, _, _, phi, mask = heapq.heappop(heap)
            if mask in seen:
                continue
            if len(seen) >= budget:
                raise BudgetExceededError(budget)
            seen.add(mask)
            accepted.append((size, phi, mask))
            yield phi, mask
            for build, transform in ctx.updates_after.get(type(phi), ctx.updates):
                if (m := transform(mask)) not in seen:
                    psi = build(phi)
                    heapq.heappush(heap, (size + 1, print_formula(psi), next(tick), psi, m))
        if not accepted:
            return
        seeds = [
            (size + 1, build(phi), m)
            for size, phi, mask in accepted
            for build, transform in modal
            if (m := transform(mask)) not in seen
        ]


def enumerate_formulas(
    spec: LogicSpec,
    models: list[KripkeModel] | tuple[KripkeModel, ...],
    *,
    max_depth: int,
    budget: int = 6000,
):
    """The canonical stream of meaning-distinct formulas over the models (see
    module docstring for the ordering guarantees)."""
    ctx = EvalContext(spec, models)
    for phi, _ in stream_with_meanings(ctx, max_depth, budget):
        yield phi


def joint_theories(
    spec: LogicSpec,
    pointed: list[PointedModel] | tuple[PointedModel, ...],
    *,
    depth: int,
    budget: int = 6000,
) -> list[frozenset[str]]:
    """For each pointed model, the set of canonical-stream formulas (rendered)
    true at its point.  One stream is built over all the models jointly, so
    the returned sets are directly comparable."""
    ctx = EvalContext(spec, [pm.model for pm in pointed])
    bits = [ctx.start_bit(k, pm.world) for k, pm in enumerate(pointed)]
    out: list[set[str]] = [set() for _ in pointed]
    for phi, mask in stream_with_meanings(ctx, depth, budget):
        for k, b in enumerate(bits):
            if (mask >> b) & 1:
                out[k].add(print_formula(phi))
    return [frozenset(s) for s in out]


# ---------------------------------------------------------------------------
# Meaning partition (complete engine for boolean dialects)


class JointPartition:
    """Partition of the joint configuration space into meaning classes,
    refined in modal-depth waves until saturation or ``max_depth``.

    Requires a dialect with negation: completeness rests on the meanings of
    bounded-depth formulas forming a boolean algebra, generated at each
    depth by the diamond images of the previous partition's classes (plus
    the depth-zero operators, which close within a wave).

    ``tests`` lists the formulas that split some class, with their meanings,
    in split order; ``paths`` maps each class to the signed tests (the test
    where the class fell inside, its negation where it fell outside) on its
    way down from the whole space, in split order.  The first test that
    tells two classes apart is the one that split their last common
    ancestor, so both queries below read a path instead of searching the
    tests.  As in the stream, a wave builds a formula only for a mask it has
    not seen.
    """

    def __init__(
        self,
        spec: LogicSpec,
        models: list[KripkeModel] | tuple[KripkeModel, ...],
        *,
        max_depth: int | None = None,
        max_tests: int = 500_000,
    ):
        if not spec.has_negation:
            raise UnsupportedFeaturesError(
                f"the meaning partition needs a boolean dialect; {spec.name!r} has no negation"
            )
        self.spec = spec
        self.ctx = EvalContext(spec, models)
        self.tests: list[tuple[Formula, int]] = []
        self.cells: list[int] = [self.ctx.full] if self.ctx.full else []
        # cell -> the signed tests that carved it out, in split order
        self.paths: dict[int, tuple[Formula, ...]] = {cell: () for cell in self.cells}
        self.depth = 0
        self.saturated = False
        self._run(max_depth, max_tests)

    # -- construction ----------------------------------------------------------

    def _run(self, max_depth: int | None, max_tests: int) -> None:
        ctx = self.ctx
        seen: set[int] = set()

        def wave(batch: list[tuple[Formula, int]]) -> bool:
            split_any = False
            queue = deque(batch)
            while queue:
                phi, mask = queue.popleft()
                if mask in seen:
                    continue
                if len(seen) >= max_tests:
                    raise BudgetExceededError(max_tests)
                seen.add(mask)
                if self._apply(phi, mask):
                    split_any = True
                for build, transform in ctx.updates_after.get(type(phi), ctx.updates):
                    if (m := transform(mask)) not in seen:
                        queue.append((build(phi), m))
            return split_any

        diamonds = [
            (partial(modality, self.spec, op, r), partial(ctx.modal_t, op, r))
            for r in ctx.rels
            for op, dual in (("diamond", "box"), ("ddiamond", "dbox"))
            if self.spec.allows(op) or self.spec.allows(dual)
        ]
        # A cell seeded at an earlier wave still yields the masks it yielded
        # then, all of them in ``seen`` already.
        seeded: set[int] = set()
        changed = wave(ctx.atoms)
        while True:
            if max_depth is not None and self.depth >= max_depth:
                self.saturated = not changed
                return
            if not changed and self.depth > 0:
                self.saturated = True
                return
            self.depth += 1
            seeds = []
            for cell in self.cells:
                if cell in seeded:
                    continue
                seeded.add(cell)
                chi = conjoin(self.paths[cell])
                seeds.extend(
                    (build(chi), m)
                    for build, transform in diamonds
                    if (m := transform(cell)) not in seen
                )
            changed = wave(seeds)

    def _apply(self, phi: Formula, mask: int) -> bool:
        rest = ~mask
        for cell in self.cells:
            if cell & mask and cell & rest:
                break
        else:
            return False
        neg = Not(phi)
        new_cells = []
        for cell in self.cells:
            inside = cell & mask
            outside = cell & rest
            if inside and outside:
                new_cells.extend((inside, outside))
                path = self.paths.pop(cell)
                self.paths[inside], self.paths[outside] = (*path, phi), (*path, neg)
            else:
                new_cells.append(cell)
        self.cells = sorted(new_cells, key=lambda c: c & -c)
        self.tests.append((phi, mask))
        return True

    # -- queries ---------------------------------------------------------------

    def cell_index_of(self, bit: int) -> int:
        """The index of the bit's cell; ``InvariantViolationError`` outside."""
        if not 0 <= bit < len(self.ctx.configs):
            raise InvariantViolationError(f"bit {bit} outside the configuration space")
        return next(idx for idx, cell in enumerate(self.cells) if cell >> bit & 1)

    def characteristic(self, bit: int) -> Formula:
        """A formula true exactly on the bit's meaning class: the conjunction
        of the signed tests on its split path."""
        return conjoin(self.paths[self.cells[self.cell_index_of(bit)]])

    def separator_between(self, bit_true: int, bit_false: int) -> Formula | None:
        """A minimal-wave formula true at the first configuration and false
        at the second, or None if they share a class: the entry of the first
        configuration's split path where the two paths part."""
        mine = self.paths[self.cells[self.cell_index_of(bit_true)]]
        theirs = self.paths[self.cells[self.cell_index_of(bit_false)]]
        # paths share their common prefix object for object
        return next((a for a, b in zip(mine, theirs) if a is not b), None)


class _Parted(Exception):
    """The two points of a ``_PointPartition`` have parted."""


class _PointPartition(JointPartition):
    """Two models' partition, stopped at the split that parts (left, w) and
    (right, v).  Later splits would only extend both paths, so ``separator``
    is the full partition's ``separator_between`` of the two start bits."""

    def __init__(self, spec: LogicSpec, left: KripkeModel, w: str, right: KripkeModel, v: str, **bounds):
        self.points, self.separator = (w, v), None
        super().__init__(spec, [left, right], **bounds)

    def _run(self, max_depth: int | None, max_tests: int) -> None:
        self.bits = [self.ctx.start_bit(k, point) for k, point in enumerate(self.points)]
        with suppress(_Parted):
            super()._run(max_depth, max_tests)

    def _apply(self, phi: Formula, mask: int) -> bool:
        b0, b1 = self.bits
        if ((mask >> b0) ^ (mask >> b1)) & 1:
            self.separator = phi if (mask >> b0) & 1 else Not(phi)
            raise _Parted
        return super()._apply(phi, mask)


# ---------------------------------------------------------------------------
# Dialect-routed entry points


def separating_formula(
    spec: LogicSpec,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    *,
    depth: int = 4,
    max_tests: int = 500_000,
) -> Formula | None:
    """A formula of modal depth <= depth true at (left, w) and false at
    (right, v), or None when no such formula exists within the bound.

    For negation-free dialects the question is inherently one-directional:
    None only says nothing separates in this direction at this depth.
    """
    if depth < 0:
        raise InvariantViolationError(f"depth must be at least 0, got {depth}")
    left.require_world(w)
    right.require_world(v)
    conds = conditions_for(spec)
    if not (conds.memory_active or conds.nom):
        return fixpoint_separator(spec, left, w, right, v, depth, DEFAULT_MAX_PAIRS)
    if not spec.has_negation:
        raise UnsupportedFeaturesError(
            "bounded search for memory or jump dialects needs negation in the dialect"
        )
    return _PointPartition(spec, left, w, right, v, max_depth=depth, max_tests=max_tests).separator


def equivalent_up_to(
    spec: LogicSpec,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    depth: int,
    *,
    max_tests: int = 500_000,
) -> bool:
    """Do the two points satisfy exactly the same formulas of the dialect up
    to the given modal depth?  Always the symmetric question: for
    negation-free dialects ``separating_formula`` is asked both ways."""
    directions = [(left, w, right, v)] + ([] if spec.has_negation else [(right, v, left, w)])
    return all(
        separating_formula(spec, a, x, b, y, depth=depth, max_tests=max_tests) is None
        for a, x, b, y in directions
    )
