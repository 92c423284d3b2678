"""Model analysis on top of the equivalence and enumeration engines:
quotient minimization, pointed-model universes, bounded theories, an
invariance probe, and definability checks over finite universes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .enumeration import (
    EvalContext,
    JointPartition,
    equivalent_up_to,
    joint_theories,
    stream_with_meanings,
)
from .equivalence import bisimilar, bml_partition_refinement
from .errors import (
    BudgetExceededError,
    InvariantViolationError,
    ModelFormatError,
    StateSpaceExceededError,
    UnknownNameError,
    UnsupportedFeaturesError,
)
from .kripke import KripkeModel, PointedModel, load_model_file
from .semantics import check
from .syntax import Formula, LogicSpec, disjoin, print_formula

__all__ = [
    "DefinabilityResult",
    "ProbeReport",
    "Universe",
    "bounded_theory",
    "definability_check",
    "equivalent_up_to",
    "invariance_probe",
    "load_universe",
    "minimize",
    "minimize_map",
]


# ---------------------------------------------------------------------------
# Minimization


def minimize_map(model: KripkeModel) -> tuple[KripkeModel, dict[str, str]]:
    """The quotient of the model by its coarsest stable partition, plus the
    world-to-representative map.  Block representatives are the least world
    ids, so the result is canonical and minimization is idempotent."""
    if model.mem or model.noms:
        raise UnsupportedFeaturesError(
            "minimization is defined for plain relational models (no memory, no nominals)"
        )
    rep: dict[str, str] = {}
    for block in bml_partition_refinement(model):
        leader = min(block)
        for w in block:
            rep[w] = leader
    worlds = tuple(sorted(set(rep.values())))
    rels = {
        name: frozenset((rep[a], rep[b]) for a, b in pairs) for name, pairs in model.rels.items()
    }
    val = {name: frozenset(rep[w] for w in ws) for name, ws in model.val.items()}
    return KripkeModel(worlds, rels, val), rep


def minimize(model: KripkeModel) -> KripkeModel:
    """minimize_map without the map."""
    return minimize_map(model)[0]


# ---------------------------------------------------------------------------
# Universes of pointed models


@dataclass(frozen=True)
class Universe:
    """A finite, named collection of pointed models (the search space for
    definability questions)."""

    names: tuple[str, ...]
    members: tuple[PointedModel, ...]

    def __len__(self) -> int:
        return len(self.members)

    def member(self, name: str) -> PointedModel:
        try:
            return self.members[self.names.index(name)]
        except ValueError:
            raise UnknownNameError(name, "universe member") from None


def load_universe(directory: str | Path) -> Universe:
    """Load every .km file in the directory (sorted by filename) as a pointed
    model; files must carry a point directive.  Structural duplicates (same
    model and point) keep only the first occurrence."""
    directory = Path(directory)
    if not directory.is_dir():
        raise InvariantViolationError(f"no universe directory {str(directory)!r}")
    names: list[str] = []
    members: list[PointedModel] = []
    seen: set[tuple[KripkeModel, str]] = set()
    for path in sorted(directory.glob("*.km")):
        model, point = load_model_file(path)
        if point is None:
            raise ModelFormatError(1, f"{path.name}: universe members need a point directive")
        key = (model, point)
        if key in seen:
            continue
        seen.add(key)
        names.append(path.stem)
        members.append(PointedModel(model, point))
    return Universe(tuple(names), tuple(members))


# ---------------------------------------------------------------------------
# Theories


def bounded_theory(
    spec: LogicSpec, pointed: PointedModel, *, depth: int, budget: int = 6000
) -> frozenset[str]:
    """The canonical-stream formulas (rendered) true at the point, up to the
    given modal depth.  Raises BudgetExceededError rather than silently
    truncating."""
    return joint_theories(spec, [pointed], depth=depth, budget=budget)[0]


# ---------------------------------------------------------------------------
# Invariance probe


@dataclass(frozen=True)
class ProbeReport:
    ok: bool
    text: str


def _probe_battery() -> list[tuple[str, PointedModel, PointedModel]]:
    reflexive = KripkeModel(("a",), {"r": frozenset({("a", "a")})})
    two_cycle = KripkeModel(("b", "c"), {"r": frozenset({("b", "c"), ("c", "b")})})
    chain = KripkeModel(
        ("a", "b", "c", "d"),
        {"r": frozenset({("a", "b"), ("b", "a"), ("a", "c"), ("b", "d")})},
        {"p": frozenset({"c", "d"})},
    )
    chain_quotient = minimize(chain)
    fork = KripkeModel(
        ("u1", "w0"), {"r": frozenset({("w0", "u1")})}, {"p": frozenset({"u1"})}
    )
    fork_dup = KripkeModel(
        ("u1", "u2", "w0"),
        {"r": frozenset({("w0", "u1"), ("w0", "u2")})},
        {"p": frozenset({"u1", "u2"})},
    )
    lit = KripkeModel(("a",), val={"p": frozenset({"a"})})
    unlit = KripkeModel(("a",))
    return [
        ("reflexive point vs two-cycle", PointedModel(reflexive, "a"), PointedModel(two_cycle, "b")),
        ("four-world model vs its quotient", PointedModel(chain, "a"), PointedModel(chain_quotient, "a")),
        ("successor duplication", PointedModel(fork, "w0"), PointedModel(fork_dup, "w0")),
        ("proposition flip", PointedModel(lit, "a"), PointedModel(unlit, "a")),
    ]


def invariance_probe(spec: LogicSpec, *, depth: int = 4) -> ProbeReport:
    """Run the built-in battery of model pairs through the relation engine
    and cross-check each verdict semantically.

    A finite battery can only refute an invariance claim (by exhibiting a
    related pair that disagrees on a formula, or a verdict the bounded
    theory comparison contradicts); agreement on all cases proves nothing
    beyond the cases themselves.
    """
    lines = [f"invariance probe for {spec.name}", ""]
    ok = True
    for name, lhs, rhs in _probe_battery():
        outcome = bisimilar(spec, lhs.model, lhs.world, rhs.model, rhs.world)
        if outcome.related:
            agreed = equivalent_up_to(spec, lhs.model, lhs.world, rhs.model, rhs.world, depth)
            if spec.has_negation:
                confirmed = agreed
            else:
                # the canonical notion is directed: only the left-to-right
                # theory inclusion is promised
                t1, t2 = joint_theories(spec, [lhs, rhs], depth=depth, budget=20000)
                confirmed = t1 <= t2
            status = "confirmed" if confirmed else "CONTRADICTED"
            ok = ok and confirmed
            lines.append(f"- {name}: related; depth-{depth} theory comparison {status}")
        else:
            phi = outcome.distinguisher
            if phi is None:
                lines.append(f"- {name}: unrelated; no separator within depth {depth}")
                continue
            holds_left = check(lhs.model, lhs.world, phi)
            holds_right = check(rhs.model, rhs.world, phi)
            confirmed = holds_left and not holds_right
            status = "verified" if confirmed else "NOT VERIFIED"
            ok = ok and confirmed
            lines.append(f"- {name}: unrelated by {print_formula(phi)} ({status})")
    return ProbeReport(ok, "\n".join(lines))


# ---------------------------------------------------------------------------
# Definability over a finite universe


@dataclass(frozen=True)
class DefinabilityResult:
    status: str  # "defined", "not_closed" or "exhausted"
    formula: Formula | None = None
    witness: tuple[str, str] | None = None


def definability_check(
    spec: LogicSpec,
    universe: Universe,
    members: set[str] | frozenset[str] | list[str] | tuple[str, ...],
    *,
    max_depth: int = 6,
    budget: int = 20_000,
) -> DefinabilityResult:
    """Is the named subset of the universe the truth set of some formula of
    the dialect (on the universe)?

    First the subset is checked for closure under the dialect's canonical
    relation: the first member inside (in universe order) related to a
    member outside is returned with the first such outside member as a
    not_closed witness.  For a dialect with negation, related means sharing
    a cell of the saturated meaning partition of the universe; without
    negation (the notion is directed), or when the partition exceeds its
    budget or cap, each pair is asked of ``bisimilar``.  Then a definer is
    searched for in the canonical stream; failing that, the disjunction of
    the partition's characteristics of the members inside completes the
    search.
    """
    for bound, value in (("depth", max_depth), ("budget", budget)):
        if value < 0:
            raise InvariantViolationError(f"{bound} must be at least 0, got {value}")
    wanted = set(members)
    for name in wanted:
        if name not in universe.names:
            raise UnknownNameError(name, "universe member")
    names, pointed = universe.names, universe.members
    models = [pm.model for pm in pointed]

    part = cell = None
    if spec.has_negation:
        try:
            part = JointPartition(spec, models, max_depth=None, max_tests=budget)
        except (BudgetExceededError, StateSpaceExceededError, InvariantViolationError):
            pass  # a context that cannot be built raises again below, after the pairs
        else:
            cell = [part.cell_index_of(part.ctx.start_bit(k, pm.world)) for k, pm in enumerate(pointed)]

    def related(i: int, o: int) -> bool:
        if cell is not None:
            return cell[i] == cell[o]
        a, b = pointed[i], pointed[o]
        return bisimilar(spec, a.model, a.world, b.model, b.world).related

    inside = [k for k, n in enumerate(names) if n in wanted]
    outside = [k for k, n in enumerate(names) if n not in wanted]
    for i in inside:
        for o in outside:
            if related(i, o):
                return DefinabilityResult("not_closed", witness=(names[i], names[o]))

    ctx = part.ctx if part is not None else EvalContext(spec, models)
    bits = [ctx.start_bit(k, pm.world) for k, pm in enumerate(pointed)]
    in_bits = [bits[k] for k in inside]
    out_bits = [bits[k] for k in outside]
    try:
        for phi, mask in stream_with_meanings(ctx, max_depth, budget):
            if all((mask >> b) & 1 for b in in_bits) and not any(
                (mask >> b) & 1 for b in out_bits
            ):
                return DefinabilityResult("defined", formula=phi)
    except BudgetExceededError:
        pass

    if part is None:
        return DefinabilityResult("exhausted")
    phi = disjoin([part.characteristic(b) for b in in_bits])
    _verify_definer(spec, universe, wanted, phi)
    return DefinabilityResult("defined", formula=phi)


def _verify_definer(spec, universe: Universe, wanted: set[str], phi: Formula) -> None:
    for name, pm in zip(universe.names, universe.members):
        if check(pm.model, pm.world, phi) != (name in wanted):
            raise InvariantViolationError(
                f"synthesized definer misclassifies universe member {name!r}"
            )
