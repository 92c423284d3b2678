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
    _walk,
)

# The unary predicate reserved for the memory set.
MEMORY_PRED = "K"

# Trail entries: ("add", term), ("del", term), ("barrier",).  A trail is ()
# or (its latest entry, the trail before it), so a push copies nothing.
_Trail = tuple


def translate_formula(phi: Formula) -> fo.FOFormula:
    """The first-order equivalent of phi, in one free variable x."""
    counter = count()

    def fresh() -> str:
        return f"y{next(counter)}"

    def known_at(term: fo.Term, trail: _Trail) -> fo.FOFormula:
        entries = []  # latest first, up to the latest barrier
        while trail and trail[0][0] != "barrier":
            (tag, tagged), trail = trail
            entries.append((tag, tagged))
        out = fo.Bottom() if trail else fo.Pred(MEMORY_PRED, term)
        for tag, tagged in reversed(entries):
            if tag == "add":
                out = fo.Or(fo.Eq(term, tagged), out)
            else:
                out = fo.And(fo.Not(fo.Eq(term, tagged)), out)
        return out

    def go(need: tuple[Formula, fo.Term, _Trail]):
        phi, term, trail = need
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
                return fo.Not((yield sub, term, trail))
            case And(a, b):
                return fo.And((yield a, term, trail), (yield b, term, trail))
            case Or(a, b):
                return fo.Or((yield a, term, trail), (yield b, term, trail))
            case Implies(a, b):
                return fo.Implies((yield a, term, trail), (yield b, term, trail))
            case Iff(a, b):
                return fo.Iff((yield a, term, trail), (yield b, term, trail))
            case Diamond(rel, sub) | DDiamond(rel, sub):
                y = fresh()
                inner = (("add", term), trail) if type(phi) is DDiamond else trail
                return fo.Exists(y, fo.And(fo.Rel(rel, term, fo.Var(y)), (yield sub, fo.Var(y), inner)))
            case Box(rel, sub) | DBox(rel, sub):
                y = fresh()
                inner = (("add", term), trail) if type(phi) is DBox else trail
                return fo.Forall(y, fo.Implies(fo.Rel(rel, term, fo.Var(y)), (yield sub, fo.Var(y), inner)))
            case Remember(sub):
                return (yield sub, term, (("add", term), trail))
            case Forget(sub):
                return (yield sub, term, (("del", term), trail))
            case Erase(sub):
                return (yield sub, term, (("barrier",), trail))
            case At(nom, sub):
                return (yield sub, fo.Const(nom), trail)
        raise TypeError(f"not a formula: {phi!r}")

    # no memo: a shared subformula gets fresh variables at each occurrence
    return _walk(go, (phi, fo.Var("x"), ()))


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
