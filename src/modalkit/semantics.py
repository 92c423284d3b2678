"""Truth in a pointed model, for every dialect the workbench speaks.

Memory effects (remember/forget/erase and the double modalities) are threaded
through the evaluation as an explicit memory-set argument instead of
materializing modified models; @-jumps keep the current memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnassignedNominalError
from .kripke import KripkeModel
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
    LogicSpec,
    Nom,
    Not,
    Or,
    Prop,
    Remember,
    Signature,
    Top,
    _walk,
    validate_formula,
)


@dataclass(frozen=True)
class EvalConfig:
    """The active dialect and signature; passing one to check() validates the
    formula before evaluation."""

    spec: LogicSpec
    sig: Signature


def check(model: KripkeModel, world: str, phi: Formula, config: EvalConfig | None = None) -> bool:
    """Does phi hold at world in model (starting from the model's own memory)?"""
    model.require_world(world)
    if config is not None:
        validate_formula(phi, config.sig, config.spec)
    return eval_at(model, model.mem, world, phi)


def eval_at(model: KripkeModel, mem: frozenset[str], world: str, phi: Formula) -> bool:
    """Truth of phi at (mem, world); the workhorse behind check()."""
    return _evaluator(model)(mem, world, phi)


def _evaluator(model: KripkeModel):
    """Truth in model, memoized on (subformula object, memory, world).  Each
    node yields the (memory, world, subformula) triples it needs, in the
    plain recursion's order, and returns its truth."""
    memo: dict[tuple, bool] = {}

    def node(need: tuple[frozenset[str], str, Formula]):
        mem, world, phi = need
        match phi:
            case Top():
                return True
            case Bottom():
                return False
            case Prop(name):
                return world in model.val.get(name, frozenset())
            case Nom(name):
                try:
                    return model.noms[name] == world
                except KeyError:
                    raise UnassignedNominalError(name) from None
            case Known():
                return world in mem
            case Not(sub):
                return not (yield mem, world, sub)
            case And(a, b):
                return (yield mem, world, a) and (yield mem, world, b)
            case Or(a, b):
                return (yield mem, world, a) or (yield mem, world, b)
            case Implies(a, b):
                return (not (yield mem, world, a)) or (yield mem, world, b)
            case Iff(a, b):
                return (yield mem, world, a) == (yield mem, world, b)
            case Diamond(rel, sub) | DDiamond(rel, sub):
                inner = mem | {world} if type(phi) is DDiamond else mem
                for w2 in model.successors(rel, world):
                    if (yield inner, w2, sub):
                        return True
                return False
            case Box(rel, sub) | DBox(rel, sub):
                inner = mem | {world} if type(phi) is DBox else mem
                for w2 in model.successors(rel, world):
                    if not (yield inner, w2, sub):
                        return False
                return True
            case Remember(sub):
                return (yield mem | {world}, world, sub)
            case Forget(sub):
                return (yield mem - {world}, world, sub)
            case Erase(sub):
                return (yield frozenset(), world, sub)
            case At(nom, sub):
                try:
                    target = model.noms[nom]
                except KeyError:
                    raise UnassignedNominalError(nom) from None
                return (yield mem, target, sub)
        raise TypeError(f"not a formula: {phi!r}")

    return lambda mem, world, phi: _walk(node, (mem, world, phi), memo, _memo_key)


def _memo_key(need: tuple[frozenset[str], str, Formula]) -> tuple:
    mem, world, phi = need
    return id(phi), mem, world


def check_global(model: KripkeModel, phi: Formula, config: EvalConfig | None = None) -> bool:
    """True iff phi holds at every world of the model."""
    if config is not None:
        validate_formula(phi, config.sig, config.spec)
    ev = _evaluator(model)
    return all(ev(model.mem, w, phi) for w in model.worlds)


def satisfying_set(model: KripkeModel, phi: Formula, config: EvalConfig | None = None) -> frozenset[str]:
    """The worlds at which phi holds (each evaluated from the model's memory)."""
    if config is not None:
        validate_formula(phi, config.sig, config.spec)
    ev = _evaluator(model)
    return frozenset(w for w in model.worlds if ev(model.mem, w, phi))
