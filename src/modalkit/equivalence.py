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

The engine starts from every materialized pair satisfying the static
conditions and deletes violating pairs in synchronous rounds until stable;
the survivors are the largest relation closed under the conditions, so the
returned witness contains every valid hand-built relation over the same
space.  For memory dialects the configuration space is materialized lazily
from the initial pair's closure (with a hard cap); for the others the full
world-pair space is used.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from .configs import (
    CLAUSES,
    Config,
    Pair,
    PairSpace,
    closure_formula,
    initial_pair,
    pair_key,
)
from .errors import StateSpaceExceededError
from .kripke import KripkeModel
from .syntax import (
    Formula,
    Known,
    LogicSpec,
    Nom,
    Not,
    Prop,
    conjoin,
    disjoin,
    modality,
)

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
    ops = spec.operators
    neg = spec.has_negation
    return SimConditions(
        atomic_one_directional=not neg,
        kagree="known" in ops,
        remember="remember" in ops,
        forget="forget" in ops,
        erase="erase" in ops,
        forth="diamond" in ops or (neg and "box" in ops),
        back="box" in ops or (neg and "diamond" in ops),
        mforth="ddiamond" in ops or (neg and "dbox" in ops),
        mback="dbox" in ops or (neg and "ddiamond" in ops),
        nagree="nominal" in ops,
        nom="at" in ops,
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


class _Engine(PairSpace):
    def __init__(
        self,
        conds: SimConditions,
        left: KripkeModel,
        right: KripkeModel,
        max_pairs: int,
    ):
        super().__init__(conds, left, right)
        self.max_pairs = max_pairs
        self.dead: dict[Pair, tuple[int, tuple]] = {}
        self.alive: set[Pair] = set()

    # -- materialization -----------------------------------------------------

    def materialize(self, initial: Pair) -> Iterable[Pair]:
        if not self.conds.memory_active:
            if len(self.left.worlds) * len(self.right.worlds) > self.max_pairs:
                raise StateSpaceExceededError(self.max_pairs)
            mem1, mem2 = initial[0].mem, initial[1].mem
            return [
                (Config(mem1, a), Config(mem2, b))
                for a in self.left.worlds
                for b in self.right.worlds
            ]
        steps = sorted({traced for _, _, traced in self.clauses})
        seen = {initial}
        queue = [initial]
        while queue:
            pair = queue.pop()
            neighbours: list[Pair] = [img for _, _, img in self.closure_images(pair)]
            for rel in self.rels:
                for traced in steps:
                    targets, replies, join = self.moves(pair, rel, "left", traced)
                    neighbours.extend(join(t, u) for t in targets for u in replies)
            for nxt in neighbours:
                if nxt not in seen:
                    if len(seen) >= self.max_pairs:
                        raise StateSpaceExceededError(self.max_pairs)
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    # -- the fixpoint --------------------------------------------------------

    def run(self, initial: Pair) -> None:
        space = self.materialize(initial)
        for pair in space:
            reason = self.static_violation(pair)
            if reason is None:
                self.alive.add(pair)
            else:
                self.dead[pair] = (0, reason)
        rnd = 0
        while True:
            rnd += 1
            doomed = []
            for pair in self.alive:
                reason = self.violation(pair)
                if reason is not None:
                    doomed.append((pair, reason))
            if not doomed:
                break
            for pair, reason in doomed:
                self.alive.discard(pair)
                self.dead[pair] = (rnd, reason)

    def violation(self, pair: Pair) -> tuple | None:
        for kind, info, image in self.closure_images(pair):
            if image not in self.alive:
                return (kind, info, image)
        return self.modal_violation(pair, self.alive)


# ---------------------------------------------------------------------------
# Distinguisher extraction by refinement tracing (non-memory dialects)

# The operator whose truth a failed clause's distinguisher asserts.
_CLAUSE_OPERATOR = {"forth": "diamond", "back": "box", "mforth": "ddiamond", "mback": "dbox"}


class _Tracer:
    """Rebuild a distinguishing formula (true on the left, false on the
    right) from the fixpoint's deletion reasons."""

    def __init__(self, spec: LogicSpec, engine: _Engine):
        self.spec = spec
        self.engine = engine
        self.memo: dict[Pair, Formula] = {}

    def trace(self, pair: Pair) -> Formula:
        if pair in self.memo:
            return self.memo[pair]
        _, reason = self.engine.dead[pair]
        phi = self._build(pair, reason)
        self.memo[pair] = phi
        return phi

    def _build(self, pair: Pair, reason: tuple) -> Formula:
        match reason:
            case ("agree", p, "left"):
                return Prop(p)
            case ("agree", p, "right"):
                return Not(Prop(p))
            case ("kagree", "left"):
                return Known()
            case ("kagree", "right"):
                return Not(Known())
            case ("nagree", i, "left"):
                return Nom(i)
            case ("nagree", i, "right"):
                return Not(Nom(i))
            case (("remember" | "forget" | "erase" | "nom") as kind, info, image):
                return closure_formula(kind, info, self.trace(image))
            case (("forth" | "back" | "mforth" | "mback") as name, rel, target):
                side, traced = CLAUSES[name]
                _, replies, join = self.engine.moves(pair, rel, side, traced)
                parts = [self.trace(join(target, u)) for u in replies]
                sub = conjoin(parts) if side == "left" else disjoin(parts)
                return modality(self.spec, _CLAUSE_OPERATOR[name], rel, sub)
        raise AssertionError(f"unknown deletion reason {reason!r}")


# ---------------------------------------------------------------------------
# Public API


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
    left.require_world(w)
    right.require_world(v)
    engine = _Engine(conds, left, right, max_pairs)
    initial = initial_pair(left, w, right, v)
    engine.run(initial)
    if initial in engine.alive:
        return SimulationOutcome(True, frozenset(engine.alive), None)
    if conds.memory_active:
        if distinguisher_depth <= 0:
            return SimulationOutcome(False, None, None)
        from .enumeration import separating_formula

        phi = separating_formula(spec, left, w, right, v, depth=distinguisher_depth)
        return SimulationOutcome(False, None, phi)
    return SimulationOutcome(False, None, _Tracer(spec, engine).trace(initial))


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
    engine = _Engine(conditions_for(spec), left, right, max_pairs)
    initial = initial_pair(left, w, right, v)
    engine.run(initial)
    if initial in engine.alive or engine.dead[initial][0] > depth:
        return None
    return _Tracer(spec, engine).trace(initial)


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
    conditions; None if it passes, otherwise (offending pair, reason)."""
    if not relation:
        return (None, "a simulation must be non-empty")
    space = PairSpace(conds, left, right)
    pairs = set(relation)
    for pair in sorted(pairs, key=pair_key):
        reason = space.static_violation(pair)
        if reason is not None:
            return (pair, f"static condition fails: {reason}")
        for kind, info, image in space.closure_images(pair):
            if image not in pairs:
                label = f"{kind} {info}" if info else kind
                return (pair, f"closure condition {label} leads outside the relation")
        failed = space.modal_violation(pair, pairs)
        if failed is not None:
            name, rel, target = failed
            return (pair, f"{name} fails for {rel}:{target}")
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
