"""Canonical formula streams and algebraic theory comparison.

Everything here works over a *joint evaluation context*: the configurations
(memory set, world) of one or more models laid out as bit positions, so that
the meaning of a formula in the context is a single integer bitmask.  Two
formulas with the same bitmask are indistinguishable by any of the context's
models, which makes deduplication exact rather than heuristic.

Each operator that moves a configuration (a diamond or double diamond along
a relation, remember, forget, erase, a jump ``@i``) is compiled on first use
into one predecessor table: entry t is the mask of the configurations that
one application of the operator moves to t.  The operator's meaning is the
preimage of its argument, the union of the entries at the argument's bits
(the bottom-up labelling of Clarke, Emerson & Sistla, TOPLAS 1986); a box is
the dual of its diamond.  The context lists its atoms and its depth-0
updates (negation, then the closures) once, and both engines read them.

Two engines share the context:

- ``enumerate_formulas`` produces the canonical stream: formulas grouped by
  modal depth, within a depth stratum ordered by node count and rendered
  text, each yielded formula having a meaning not seen before.  The stream
  is conjunction-free; it is a sound basis for theory comparison (related
  points agree on all of it) and a practical basis for small-definition
  synthesis, but it does not enumerate every boolean combination.

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

``separating_formula`` and ``equivalent_up_to`` route to the partition for
dialects with memory or jump operators and to the relational fixpoint (whose
deletion rounds count exactly modal depth when no such operators exist) for
the rest.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from functools import partial
from itertools import combinations
from typing import Callable

from .configs import close, closure_formula, closures, step_memory
from .equivalence import conditions_for, fixpoint_separator
from .errors import (
    BudgetExceededError,
    InvariantViolationError,
    OperatorNotInDialectError,
    StateSpaceExceededError,
    UnsupportedFeaturesError,
)
from .kripke import KripkeModel, PointedModel
from .syntax import (
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
    conjoin_sorted,
    formula_size,
    modality,
    print_formula,
)

MEMORY_CHANGING = frozenset({"remember", "forget", "erase", "ddiamond", "dbox"})

# Each box is evaluated as the dual of its diamond.
_DIAMOND_OF = {"box": "diamond", "dbox": "ddiamond"}

MAX_CONFIGS = 2**20


def _needs_memory_table(spec: LogicSpec) -> bool:
    return bool(spec.operators & MEMORY_CHANGING)


def _mem_subsets(worlds: tuple[str, ...]) -> list[frozenset[str]]:
    out = [frozenset()]
    for k in range(1, len(worlds) + 1):
        out.extend(frozenset(c) for c in combinations(worlds, k))
    return out


class EvalContext:
    """Configuration tables and bitmask semantics over a tuple of models.

    For dialects with memory-changing operators the table holds every
    (memory subset, world) configuration of each model; otherwise each model
    contributes only its own fixed memory.  Nominal-aware dialects require
    all models to assign exactly the same nominal names.

    ``atoms`` lists (formula, meaning) for the propositions, then ``known``,
    then the nominals, as the dialect allows; ``updates`` lists (formula
    builder, mask transform) for negation, then the closure updates in
    ``configs.closures`` order.  ``pre`` is the one preimage routine behind
    every operator.
    """

    def __init__(self, spec: LogicSpec, models: list[KripkeModel] | tuple[KripkeModel, ...]):
        self.spec = spec
        self.models = tuple(models)
        self.props = sorted(set().union(*(m.val.keys() for m in self.models)) if self.models else [])
        self.rels = sorted(set().union(*(m.rels.keys() for m in self.models)) if self.models else [])
        if spec.allows("nominal") or spec.allows("at"):
            nom_sets = {tuple(sorted(m.noms)) for m in self.models}
            if len(nom_sets) > 1:
                raise InvariantViolationError(
                    "nominal comparison requires all models to assign the same nominals"
                )
        self.noms = sorted(self.models[0].noms) if self.models else []
        self.memory_table = _needs_memory_table(spec)

        # Checked before building: each model contributes 2^|W|*|W|
        # configurations with a memory table, |W| without.
        size = sum(
            (2 ** len(m.worlds) if self.memory_table else 1) * len(m.worlds) for m in self.models
        )
        if size > MAX_CONFIGS:
            raise StateSpaceExceededError(MAX_CONFIGS)
        self.configs: list[tuple[int, frozenset[str], str]] = []
        self.index: dict[tuple[int, frozenset[str], str], int] = {}
        for k, m in enumerate(self.models):
            mems = _mem_subsets(m.worlds) if self.memory_table else [frozenset(m.mem)]
            for mem in mems:
                for w in m.worlds:
                    self.index[(k, mem, w)] = len(self.configs)
                    self.configs.append((k, mem, w))
        n = len(self.configs)
        self.full = (1 << n) - 1

        self.prop_mask = {
            p: self._mask_of(lambda k, mem, w, p=p: w in self.models[k].val.get(p, frozenset()))
            for p in self.props
        }
        self.known_mask = self._mask_of(lambda k, mem, w: w in mem)
        self.nom_mask = {
            i: self._mask_of(lambda k, mem, w, i=i: self.models[k].noms.get(i) == w)
            for i in self.noms
        }
        self.atoms: list[tuple[Formula, int]] = [(Prop(p), self.prop_mask[p]) for p in self.props]
        if spec.allows("known"):
            self.atoms.append((Known(), self.known_mask))
        if spec.allows("nominal"):
            self.atoms.extend((Nom(i), self.nom_mask[i]) for i in self.noms)
        self.updates: list[tuple[Callable[[Formula], Formula], Callable[[int], int]]] = []
        if spec.has_negation:
            self.updates.append((Not, self.not_t))
        for op in closures(conditions_for(spec), self.noms):
            self.updates.append((partial(closure_formula, *op), partial(self.pre, op)))
        self._tables: dict[tuple[str, str | None], list[int]] = {}

    def _mask_of(self, pred) -> int:
        out = 0
        for b, (k, mem, w) in enumerate(self.configs):
            if pred(k, mem, w):
                out |= 1 << b
        return out

    def bit_of(self, model_index: int, mem: frozenset[str], world: str) -> int:
        return self.index[(model_index, frozenset(mem), world)]

    def start_bit(self, model_index: int, world: str) -> int:
        """The bit of (the model's own memory, world)."""
        m = self.models[model_index]
        return self.index[(model_index, frozenset(m.mem), world)]

    # -- mask transforms ------------------------------------------------------

    def _table(self, op: tuple[str, str | None]) -> list[int]:
        """The operator's predecessor table, built on first use: entry t is
        the mask of the configurations one application of op moves to t.
        op is ("diamond" | "ddiamond", rel), ("remember" | "forget" |
        "erase", None) or ("nom", i)."""
        table = self._tables.get(op)
        if table is None:
            kind, arg = op
            table = [0] * len(self.configs)
            for b, (k, mem, w) in enumerate(self.configs):
                model = self.models[k]
                if kind in ("diamond", "ddiamond"):
                    after = step_memory(mem, w, kind == "ddiamond")
                    targets = [(after, v) for v in model.successors(arg, w)]
                else:
                    targets = [close(kind, arg, model, mem, w)]
                for target in targets:
                    table[self.index[(k, *target)]] |= 1 << b
            self._tables[op] = table
        return table

    def pre(self, op: tuple[str, str | None], m: int) -> int:
        """The configurations that op moves into m: the meaning of op's
        diamond or closure operator applied to a formula meaning m."""
        table = self._table(op)
        out = 0
        bits = bin(m)[:1:-1]  # least significant bit first
        t = bits.find("1")
        while t >= 0:
            out |= table[t]
            t = bits.find("1", t + 1)
        return out

    def not_t(self, m: int) -> int:
        return self.full & ~m

    def modal_t(self, operator: str, rel: str, m: int) -> int:
        """The meaning of operator (diamond, box, ddiamond, dbox) along rel
        applied to a formula meaning m; the boxes are the dual diamonds."""
        if operator in _DIAMOND_OF:
            return self.not_t(self.pre((_DIAMOND_OF[operator], rel), self.not_t(m)))
        return self.pre((operator, rel), m)

    # -- full evaluator --------------------------------------------------------

    def meaning(self, phi: Formula) -> int:
        """The formula's bitmask over the whole configuration table."""
        match phi:
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
                return self.not_t(self.meaning(sub))
            case And(a, b):
                return self.meaning(a) & self.meaning(b)
            case Or(a, b):
                return self.meaning(a) | self.meaning(b)
            case Implies(a, b):
                return self.not_t(self.meaning(a)) | self.meaning(b)
            case Iff(a, b):
                return self.not_t(self.meaning(a) ^ self.meaning(b))
            case Diamond(rel, sub) | Box(rel, sub) | DDiamond(rel, sub) | DBox(rel, sub):
                return self.modal_t(self._operator(phi), rel, self.meaning(sub))
            case Remember(sub) | Forget(sub) | Erase(sub) | At(_, sub):
                op = ("nom", phi.nom) if isinstance(phi, At) else (self._operator(phi), None)
                return self.pre(op, self.meaning(sub))
        raise TypeError(f"not a formula: {phi!r}")

    def _operator(self, phi: Formula) -> str:
        """The operator's name, checked against the configuration table."""
        name = type(phi).__name__.lower()
        if name in MEMORY_CHANGING and not self.memory_table:
            raise OperatorNotInDialectError(name, self.spec.name)
        return name


# ---------------------------------------------------------------------------
# The canonical stream


def stream_with_meanings(ctx: EvalContext, max_depth: int, budget: int):
    """Yield (formula, meaning mask) pairs of the canonical stream; raise
    BudgetExceededError when more than ``budget`` distinct meanings would be
    produced before the depth bound is exhausted."""
    modal = [(op, r) for r in ctx.rels for op in MODALITIES if ctx.spec.allows(op)]
    seen: set[int] = set()
    tick = iter(range(10**12))

    seeds: list[tuple[Formula, int]] = [(Top(), ctx.full), (Bottom(), 0), *ctx.atoms]
    for depth in range(max_depth + 1):
        heap = [
            (formula_size(phi), print_formula(phi), next(tick), phi, mask) for phi, mask in seeds
        ]
        heapq.heapify(heap)
        accepted: list[tuple[Formula, int]] = []
        while heap:
            _, _, _, phi, mask = heapq.heappop(heap)
            if mask in seen:
                continue
            if len(seen) >= budget:
                raise BudgetExceededError(budget)
            seen.add(mask)
            accepted.append((phi, mask))
            yield phi, mask
            for build, transform in ctx.updates:
                psi = build(phi)
                heapq.heappush(
                    heap,
                    (formula_size(psi), print_formula(psi), next(tick), psi, transform(mask)),
                )
        if not accepted:
            return
        seeds = [
            (MODALITIES[op](r, phi), ctx.modal_t(op, r, mask))
            for phi, mask in accepted
            for op, r in modal
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
        text = print_formula(phi)
        for k, b in enumerate(bits):
            if (mask >> b) & 1:
                out[k].add(text)
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
    way down from the whole space, and ``conjuncts`` the same tests as
    (rendered text, formula) entries sorted by text, each rendered once at
    its split.  The first test that tells two classes apart is the one that
    split their last common ancestor, so both queries below read a path
    instead of searching the tests.
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
        self.conjuncts: dict[int, tuple[tuple[str, Formula], ...]] = {
            cell: () for cell in self.cells
        }
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
                for build, transform in ctx.updates:
                    queue.append((build(phi), transform(mask)))
            return split_any

        diamonds = [
            (op, r)
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
                chi = conjoin_sorted(self.conjuncts[cell])
                seeds.extend(
                    (modality(self.spec, op, r, chi), ctx.pre((op, r), cell)) for op, r in diamonds
                )
            changed = wave(seeds)
            if not changed:
                self.saturated = True
                return

    def _apply(self, phi: Formula, mask: int) -> bool:
        split_any = False
        new_cells = []
        for cell in self.cells:
            inside = cell & mask
            outside = cell & ~mask
            if inside and outside:
                if not split_any:
                    neg = Not(phi)
                    signed = ((print_formula(phi), phi), (print_formula(neg), neg))
                    split_any = True
                new_cells.extend((inside, outside))
                path = self.paths.pop(cell)
                entries = self.conjuncts.pop(cell)
                for child, entry in zip((inside, outside), signed):
                    self.paths[child] = (*path, entry[1])
                    self.conjuncts[child] = _with_entry(entries, entry)
            else:
                new_cells.append(cell)
        if split_any:
            self.cells = sorted(new_cells, key=lambda c: c & -c)
            self.tests.append((phi, mask))
        return split_any

    # -- queries ---------------------------------------------------------------

    def cell_index_of(self, bit: int) -> int:
        for idx, cell in enumerate(self.cells):
            if (cell >> bit) & 1:
                return idx
        raise ValueError(f"bit {bit} outside the configuration space")

    def characteristic(self, bit: int) -> Formula:
        """A formula true exactly on the bit's meaning class: the conjunction
        of the signed tests on its split path."""
        return conjoin_sorted(self.conjuncts[self.cells[self.cell_index_of(bit)]])

    def separator_between(self, bit_true: int, bit_false: int) -> Formula | None:
        """A minimal-wave formula true at the first configuration and false
        at the second, or None if they share a class: the entry of the first
        configuration's split path where the two paths part."""
        mine = self.paths[self.cells[self.cell_index_of(bit_true)]]
        theirs = self.paths[self.cells[self.cell_index_of(bit_false)]]
        # paths share their common prefix object for object
        return next((a for a, b in zip(mine, theirs) if a is not b), None)


def _with_entry(entries: tuple, entry: tuple[str, Formula]) -> tuple:
    """The sorted (text, formula) entries with one more, which replaces an
    entry of the same text as ``conjoin`` keeps the last of equal texts."""
    i = bisect_left(entries, entry[0], key=lambda e: e[0])
    j = i + 1 if i < len(entries) and entries[i][0] == entry[0] else i
    return (*entries[:i], entry, *entries[j:])


# ---------------------------------------------------------------------------
# Dialect-routed entry points


def _relational_route(spec: LogicSpec) -> bool:
    return not (_needs_memory_table(spec) or spec.allows("at"))


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
    left.require_world(w)
    right.require_world(v)
    if _relational_route(spec):
        return fixpoint_separator(spec, left, w, right, v, depth, MAX_CONFIGS)
    if not spec.has_negation:
        raise UnsupportedFeaturesError(
            "bounded search for memory or jump dialects needs negation in the dialect"
        )
    part = JointPartition(spec, [left, right], max_depth=depth, max_tests=max_tests)
    return part.separator_between(part.ctx.start_bit(0, w), part.ctx.start_bit(1, v))


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
    to the given modal depth?  Always the symmetric question, including for
    negation-free dialects (both directed inclusions are checked)."""
    left.require_world(w)
    right.require_world(v)
    if not _relational_route(spec):
        if not spec.has_negation:
            raise UnsupportedFeaturesError(
                "bounded comparison for memory or jump dialects needs negation in the dialect"
            )
        part = JointPartition(spec, [left, right], max_depth=depth, max_tests=max_tests)
        a = part.cell_index_of(part.ctx.start_bit(0, w))
        b = part.cell_index_of(part.ctx.start_bit(1, v))
        return a == b

    def separated(a: KripkeModel, x: str, b: KripkeModel, y: str) -> bool:
        return fixpoint_separator(spec, a, x, b, y, depth, MAX_CONFIGS) is not None

    if spec.has_negation:
        return not separated(left, w, right, v)
    return not separated(left, w, right, v) and not separated(right, v, left, w)
