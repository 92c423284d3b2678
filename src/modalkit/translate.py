"""Compositional translation of modal formulas into first-order logic, and
the matching model translation.

The classical clauses: propositions become unary predicates applied to the
current term, the diamond becomes a guarded existential with a fresh
variable, the box its universal dual; nominals become equality with a
constant and @ re-centres the translation on that constant.

Memory operators have no classical clause, so the translator carries a
*trail*: an ordered record of memory effects applied on the path from the
root — ``add``/``del`` entries tagged with the term that was current when the
effect happened, and ``barrier`` entries for full erasure.  ``known`` then
unwinds the trail from the most recent entry: the latest add/del whose tag is
provably the current term decides membership, a barrier decides negatively,
and an exhausted trail falls back to the memory predicate K.  Because "the
same term" is world equality, the unwinding is a nested conditional built
from equalities, which is exactly first-order.

Fresh variables are y0, y1, ... allocated left-to-right over the formula.
"""

from __future__ import annotations

from itertools import count

from . import fo
from .errors import InvariantViolationError, ShapeMismatchError
from .kripke import KripkeModel, PointedModel
from .syntax import (
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
    Nom,
    Not,
    Or,
    Prop,
    Remember,
    Signature,
    Top,
)

# The unary predicate reserved for the memory set.
MEMORY_PRED = "K"

# Trail entries: ("add", term), ("del", term), ("barrier",).
_Trail = tuple


def translate_formula(phi: Formula) -> fo.FOFormula:
    """The first-order equivalent of phi, in one free variable x."""
    counter = count()

    def fresh() -> str:
        return f"y{next(counter)}"

    def known_at(term: fo.Term, trail: _Trail) -> fo.FOFormula:
        for i in range(len(trail) - 1, -1, -1):
            entry = trail[i]
            if entry[0] == "barrier":
                return fo.Bottom()
            rest = known_at(term, trail[:i])
            if entry[0] == "add":
                return fo.Or(fo.Eq(term, entry[1]), rest)
            return fo.And(fo.Not(fo.Eq(term, entry[1])), rest)
        return fo.Pred(MEMORY_PRED, term)

    def go(phi: Formula, term: fo.Term, trail: _Trail) -> fo.FOFormula:
        match phi:
            case Top():
                return fo.Top()
            case Bottom():
                return fo.Bottom()
            case Prop(name):
                return fo.Pred(name, term)
            case Nom(name):
                return fo.Eq(term, fo.Const(name))
            case Known():
                return known_at(term, trail)
            case Not(sub):
                return fo.Not(go(sub, term, trail))
            case And(a, b):
                return fo.And(go(a, term, trail), go(b, term, trail))
            case Or(a, b):
                return fo.Or(go(a, term, trail), go(b, term, trail))
            case Implies(a, b):
                return fo.Implies(go(a, term, trail), go(b, term, trail))
            case Iff(a, b):
                return fo.Iff(go(a, term, trail), go(b, term, trail))
            case Diamond(rel, sub):
                y = fresh()
                return fo.Exists(y, fo.And(fo.Rel(rel, term, fo.Var(y)), go(sub, fo.Var(y), trail)))
            case Box(rel, sub):
                y = fresh()
                return fo.Forall(y, fo.Implies(fo.Rel(rel, term, fo.Var(y)), go(sub, fo.Var(y), trail)))
            case DDiamond(rel, sub):
                y = fresh()
                pushed = trail + (("add", term),)
                return fo.Exists(y, fo.And(fo.Rel(rel, term, fo.Var(y)), go(sub, fo.Var(y), pushed)))
            case DBox(rel, sub):
                y = fresh()
                pushed = trail + (("add", term),)
                return fo.Forall(y, fo.Implies(fo.Rel(rel, term, fo.Var(y)), go(sub, fo.Var(y), pushed)))
            case Remember(sub):
                return go(sub, term, trail + (("add", term),))
            case Forget(sub):
                return go(sub, term, trail + (("del", term),))
            case Erase(sub):
                return go(sub, term, trail + (("barrier",),))
            case At(nom, sub):
                return go(sub, fo.Const(nom), trail)
        raise TypeError(f"not a formula: {phi!r}")

    return go(phi, fo.Var("x"), ())


def translate_model(
    model: KripkeModel, world: str, sig: Signature | None = None
) -> tuple[fo.FOStructure, fo.XAssignment]:
    """The first-order twin of a pointed model: worlds become the domain,
    propositions unary predicates, relations binary relations, the memory set
    the K predicate, nominal assignments constants, and the point an
    x-assignment."""
    model.require_world(world)
    props = sig.props if sig is not None else tuple(sorted(model.val))
    rels = sig.rels if sig is not None else tuple(sorted(model.rels))
    noms = sig.noms if sig is not None else tuple(sorted(model.noms))
    if MEMORY_PRED in props:
        raise InvariantViolationError(
            f"proposition name {MEMORY_PRED!r} is reserved for the memory predicate"
        )
    unary = {p: model.val.get(p, frozenset()) for p in props}
    unary[MEMORY_PRED] = model.mem
    binary = {r: model.rels.get(r, frozenset()) for r in rels}
    consts = {}
    for n in noms:
        if n not in model.noms:
            raise InvariantViolationError(f"nominal {n!r} is not assigned by the model")
        consts[n] = model.noms[n]
    structure = fo.FOStructure(model.worlds, unary, binary, consts)
    return structure, {"x": world}


def untranslate_model(
    structure: fo.FOStructure, assignment: fo.XAssignment, sig: Signature | None = None
) -> PointedModel:
    """Inverse of translate_model on image shapes.

    With a signature, the structure's vocabulary must match it exactly (plus
    the K predicate); without one, the vocabulary is taken at face value.
    """
    if MEMORY_PRED not in structure.unary:
        raise ShapeMismatchError(f"structure lacks the memory predicate {MEMORY_PRED!r}")
    if sig is not None:
        want_unary = set(sig.props) | {MEMORY_PRED}
        if set(structure.unary) != want_unary:
            raise ShapeMismatchError(
                f"unary predicates {sorted(structure.unary)} do not match {sorted(want_unary)}"
            )
        if set(structure.binary) != set(sig.rels):
            raise ShapeMismatchError(
                f"binary relations {sorted(structure.binary)} do not match {sorted(sig.rels)}"
            )
        if set(structure.consts) != set(sig.noms):
            raise ShapeMismatchError(
                f"constants {sorted(structure.consts)} do not match {sorted(sig.noms)}"
            )
    if len(assignment) != 1 or "x" not in assignment:
        raise ShapeMismatchError("expected a one-variable assignment for x")
    val = {p: xs for p, xs in structure.unary.items() if p != MEMORY_PRED}
    model = KripkeModel(
        structure.domain,
        dict(structure.binary),
        val,
        structure.unary[MEMORY_PRED],
        dict(structure.consts),
    )
    return PointedModel(model, assignment["x"])
