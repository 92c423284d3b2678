"""Configurations and how they move.

A *configuration* is a (memory set, world) pair.  This module is the one
place that says how a configuration changes:

  - the closure updates, in their fixed order remember, forget, erase, then
    ``@i`` for each nominal: remember adds the current world to memory,
    forget removes it, erase empties the memory, and ``@i`` jumps to the
    world named i keeping the memory;
  - the modal step along a relation, plain (memory unchanged) or traced
    (the current world committed to memory first, as the double modality
    does);
  - the modal clauses forth, back, mforth and mback, as data
    ``(name, side, traced)``: the side whose successor is chosen first and
    whether the step is traced.

``ConfigTable`` compiles one model's configurations: it interns each as an
int in first-seen order, keeps its atomic signature as an int (the
proposition bits in ``PairSpace.props`` order, then the ``known`` bit, then
the nominal bits, each group only where its condition is on), caches on
first use where each closure update and each modal step moves it, and keeps
the inverse of each of those maps.  ``PairSpace`` holds what two tables
share under one condition set (see ``equivalence.SimConditions``): the
vocabulary, the active closures and clauses, and the static conditions on
two signatures (``disagreement``, and ``static_reason`` naming its first
bit).  The fixpoint, its distinguisher, ``verify_relation`` and the game run
on table ids; a ``Config`` is built only by ``ConfigTable.intern`` and
``initial_pair``.  ``EvalContext`` lays out one ``ConfigTable`` per model as
its bit positions, reads its atom masks from the signatures and fills its
per-operator predecessor tables from the tables' moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import InvariantViolationError
from .kripke import KripkeModel
from .syntax import At, Erase, Forget, Formula, Remember

if TYPE_CHECKING:
    from .equivalence import SimConditions


@dataclass(frozen=True)
class Config:
    """One side of a simulation pair: a memory state and a current world."""

    mem: frozenset[str]
    world: str

    def render(self) -> str:
        return f"({','.join(sorted(self.mem))}|{self.world})"


Pair = tuple[Config, Config]


def pair_key(pair: Pair) -> tuple:
    """The canonical order of configuration pairs."""
    c1, c2 = pair
    return (c1.world, tuple(sorted(c1.mem)), c2.world, tuple(sorted(c2.mem)))


def initial_pair(left: KripkeModel, w: str, right: KripkeModel, v: str) -> Pair:
    """Both points, each with its model's own memory."""
    return (Config(frozenset(left.mem), w), Config(frozenset(right.mem), v))


# -- closure updates ----------------------------------------------------------


def remember(mem: frozenset[str], world: str) -> frozenset[str]:
    """The memory with the current world added (rem, and the traced step)."""
    return mem | {world}


MEMORY_UPDATES: dict[str, Callable[[frozenset[str], str], frozenset[str]]] = {
    "remember": remember,
    "forget": lambda mem, world: mem - {world},
    "erase": lambda mem, world: frozenset(),
}

_CLOSURE_FORMULAS = {"remember": Remember, "forget": Forget, "erase": Erase}


def closures(conds: SimConditions, noms) -> tuple[tuple[str, str | None], ...]:
    """The active closure updates as (kind, nominal), in the fixed order."""
    table = [(kind, None) for kind in MEMORY_UPDATES if getattr(conds, kind)]
    if conds.nom:
        table.extend(("nom", i) for i in noms)
    return tuple(table)


def close(
    kind: str, nominal: str | None, model: KripkeModel, mem: frozenset[str], world: str
) -> tuple[frozenset[str], str]:
    """The (memory, world) a closure update leads to."""
    if kind == "nom":
        return mem, model.noms[nominal]
    return MEMORY_UPDATES[kind](mem, world), world


def closure_formula(kind: str, nominal: str | None, sub: Formula) -> Formula:
    """The operator that performs the closure update before evaluating sub."""
    if kind == "nom":
        return At(nominal, sub)
    return _CLOSURE_FORMULAS[kind](sub)


# -- modal clauses ------------------------------------------------------------

# name -> (side whose successor is chosen first, traced step); the order
# fixes deletion reasons and the order of Spoiler's moves.
CLAUSES = {
    "forth": ("left", False),
    "back": ("right", False),
    "mforth": ("left", True),
    "mback": ("right", True),
}


def step_memory(mem: frozenset[str], world: str, traced: bool) -> frozenset[str]:
    """The memory after a modal step from (mem, world)."""
    return remember(mem, world) if traced else mem


# An operator of a ConfigTable: ("close", kind, nominal) for a closure update,
# ("step", rel, traced) for a modal step.
Op = tuple[str, str | None, object]


class ConfigTable:
    """One model's configurations as ints, with their signatures and moves.

    ``configs[c]`` is the configuration with id c, ``sig[c]`` its atomic
    signature; ``moves[op][c]`` is the tuple of ids one application of op
    leads to from c (one id for a closure update, the successors for a step)
    and ``pre[op][d]`` lists the ids whose ``moves[op]`` entry contains d.
    Both are filled by ``targets``, entry by entry, on first use; ``move``
    computes an entry without recording it.  A nominal the model does not
    assign sets no signature bit.
    """

    def __init__(self, model: KripkeModel, props: list[str], known: bool, noms):
        self.model = model
        self.configs: list[Config] = []
        self.sig: list[int] = []
        self.ids: dict[tuple[frozenset[str], str], int] = {}
        self.moves: dict[Op, dict[int, tuple[int, ...]]] = {}
        self.pre: dict[Op, dict[int, list[int]]] = {}
        bits: dict[str, int] = dict.fromkeys(model.worlds, 0)
        for k, p in enumerate(props):
            for w in model.val.get(p, ()):
                bits[w] |= 1 << k
        self._known_bit = 1 << len(props) if known else 0
        base = len(props) + bool(known)
        for k, i in enumerate(noms):
            if i in model.noms:  # a dialect without nominals may mix models
                bits[model.noms[i]] |= 1 << (base + k)
        self._world_bits = bits

    def intern(self, mem: frozenset[str], world: str) -> int:
        key = (mem, world)
        c = self.ids.get(key)
        if c is None:
            c = self.ids[key] = len(self.configs)
            self.configs.append(Config(mem, world))
            sig = self._world_bits[world]
            if world in mem:
                sig |= self._known_bit
            self.sig.append(sig)
        return c

    def move(self, op: Op, c: int) -> tuple[int, ...]:
        """The ids op moves configuration c to, interning them as needed."""
        tag, a, b = op
        config = self.configs[c]
        if tag == "step":
            mem = step_memory(config.mem, config.world, b)
            return tuple(self.intern(mem, t) for t in self.model.successors(a, config.world))
        return (self.intern(*close(a, b, self.model, config.mem, config.world)),)

    def targets(self, op: Op, c: int) -> tuple[int, ...]:
        """``move``, computed once and recorded in ``moves`` and ``pre``."""
        row = self.moves.get(op)
        if row is None:
            row = self.moves[op] = {}
            self.pre[op] = {}
        out = row.get(c)
        if out is None:
            out = row[c] = self.move(op, c)
            pre = self.pre[op]
            for d in out:
                pre.setdefault(d, []).append(c)
        return out


class PairSpace:
    """Configuration pairs over two models under one condition set."""

    def __init__(self, conds: SimConditions, left: KripkeModel, right: KripkeModel):
        self.conds = conds
        self.left = left
        self.right = right
        self.props = sorted(set(left.val) | set(right.val))
        self.rels = sorted(set(left.rels) | set(right.rels))
        if conds.nagree or conds.nom:
            if sorted(left.noms) != sorted(right.noms):
                raise InvariantViolationError(
                    "nominal comparison requires both models to assign the same nominals"
                )
        self.noms = sorted(set(left.noms) & set(right.noms))
        self.closures = closures(conds, self.noms)
        # the active modal clauses as (name, side, traced)
        self.clauses = tuple(
            (name, side, traced) for name, (side, traced) in CLAUSES.items() if getattr(conds, name)
        )
        # The signature bits on which a pair fails the static conditions:
        # where the sides differ, or only where the left side holds a bit
        # when atomic agreement is one-directional.  No bits, no violation.
        one_way = conds.atomic_one_directional
        self.disagreement = (lambda s1, s2: s1 & ~s2) if one_way else int.__xor__

    def config_tables(self) -> tuple[ConfigTable, ...]:
        """A new ``ConfigTable`` per side, with the signature bits that the
        static conditions compare."""
        known, noms = self.conds.kagree, self.noms if self.conds.nagree else ()
        return tuple(ConfigTable(m, self.props, known, noms) for m in (self.left, self.right))

    def static_reason(self, sig1: int, sig2: int) -> tuple | None:
        """The first atomic disagreement of two signatures, or None: the
        lowest bit of their ``disagreement``, named ("agree", p, side),
        ("kagree", side) or ("nagree", i, side) by the signature's bit order,
        side being the one that holds the bit."""
        bits = self.disagreement(sig1, sig2)
        if not bits:
            return None
        low = bits & -bits
        side = "left" if sig1 & low else "right"
        k = low.bit_length() - 1
        if k < len(self.props):
            return ("agree", self.props[k], side)
        k -= len(self.props)
        if self.conds.kagree:
            if k == 0:
                return ("kagree", side)
            k -= 1
        return ("nagree", self.noms[k], side)
