"""Truth in a pointed model, for every dialect the workbench speaks.

Memory effects (remember/forget/erase and the double modalities) are threaded
through the recursion as an explicit memory-set argument instead of
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
    """Truth in model, memoized on (subformula object, memory, world) and
    computed in the plain recursion's order, so it raises where that does."""
    memo: dict[tuple, bool] = {}

    def ev(mem: frozenset[str], world: str, phi: Formula) -> bool:
        key = (id(phi), mem, world)
        if key in memo:
            return memo[key]
        match phi:
            case Top():
                out = True
            case Bottom():
                out = False
            case Prop(name):
                out = world in model.val.get(name, frozenset())
            case Nom(name):
                try:
                    out = model.noms[name] == world
                except KeyError:
                    raise UnassignedNominalError(name) from None
            case Known():
                out = world in mem
            case Not(sub):
                out = not ev(mem, world, sub)
            case And(a, b):
                out = ev(mem, world, a) and ev(mem, world, b)
            case Or(a, b):
                out = ev(mem, world, a) or ev(mem, world, b)
            case Implies(a, b):
                out = (not ev(mem, world, a)) or ev(mem, world, b)
            case Iff(a, b):
                out = ev(mem, world, a) == ev(mem, world, b)
            case Diamond(rel, sub):
                out = any(ev(mem, w2, sub) for w2 in model.successors(rel, world))
            case Box(rel, sub):
                out = all(ev(mem, w2, sub) for w2 in model.successors(rel, world))
            case DDiamond(rel, sub):
                traced = mem | {world}
                out = any(ev(traced, w2, sub) for w2 in model.successors(rel, world))
            case DBox(rel, sub):
                traced = mem | {world}
                out = all(ev(traced, w2, sub) for w2 in model.successors(rel, world))
            case Remember(sub):
                out = ev(mem | {world}, world, sub)
            case Forget(sub):
                out = ev(mem - {world}, world, sub)
            case Erase(sub):
                out = ev(frozenset(), world, sub)
            case At(nom, sub):
                try:
                    target = model.noms[nom]
                except KeyError:
                    raise UnassignedNominalError(nom) from None
                out = ev(mem, target, sub)
            case _:
                raise TypeError(f"not a formula: {phi!r}")
        memo[key] = out
        return out

    return ev


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
