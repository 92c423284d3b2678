"""Configurations, how they move, and what a space of them compares.

A *configuration* is a (memory set, world) pair.  This module is the one
place that says how a configuration changes:

  - the closure updates, in their fixed order remember, forget, erase, then
    ``@i`` for each nominal: remember adds the current world to memory,
    forget removes it, erase empties the memory, and ``@i`` jumps to the
    world named i keeping the memory; ``ABSORBED`` names, per update's
    formula type, the updates that change nothing just before it
    (remember, forget or erase before erase; remember or forget before
    either; any ``@j`` before ``@i``);
  - the modal step along a relation, plain (memory unchanged) or traced
    (the current world committed to memory first, as the double modality
    does);
  - the modal clauses forth, back, mforth and mback, as data
    ``(name, side, traced, operator)``: the side whose successor is chosen
    first, whether the step is traced, and the modality a failed clause's
    distinguisher asserts.

``vocabulary`` names what a space over some models compares.  A
``ConfigTable`` interns one model's configurations as ints, keeps each one's
signature int (bit k: it satisfies the k-th *signature atom*, a ``Prop``,
``Known`` or ``Nom``), records its moves and gives their predecessors;
``preimage`` is the one reader of a union of predecessor masks.
``PairSpace`` holds what two tables share under one condition set (see
``equivalence.SimConditions``): the vocabulary, the ``atoms`` its static
conditions compare, the active closures and clauses, the operators ``ops``
(the closures, then a step per relation and traced flag), and the static
conditions on two signatures (``disagreement``, with ``static_atom`` naming
its lowest bit).  The fixpoint, its distinguisher, ``verify_relation``, the
game and ``EvalContext`` all read them from here and run on table ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from .errors import InvariantViolationError, StateSpaceExceededError
from .kripke import KripkeModel
from .syntax import At, Erase, Forget, Formula, Known, Nom, Prop, Remember, _values

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


def vocabulary(models, nominal: bool) -> tuple[list[str], list[str], list[str]]:
    """The models' sorted propositions and relations, and the first model's
    nominals; with ``nominal`` set, all models must assign the same ones."""
    if nominal and len({tuple(sorted(m.noms)) for m in models}) > 1:
        raise InvariantViolationError(
            "nominal comparison requires all models to assign the same nominals"
        )
    props = sorted(set().union(*(m.val for m in models)))
    rels = sorted(set().union(*(m.rels for m in models)))
    return props, rels, sorted(models[0].noms) if models else []


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

# formula node type k -> the closure kinds j it absorbs: close_k after
# close_j is close_k, so j applied to a formula whose outer operator is k
# means that formula again.
ABSORBED: dict[type, frozenset[str]] = {
    Erase: frozenset(MEMORY_UPDATES),
    Remember: frozenset({"remember", "forget"}),
    Forget: frozenset({"remember", "forget"}),
    At: frozenset({"nom"}),
}


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

# name -> (side whose successor is chosen first, traced step, the modality
# a failed clause's distinguisher asserts); the order fixes deletion reasons
# and the order of Spoiler's moves.
CLAUSES = {
    "forth": ("left", False, "diamond"),
    "back": ("right", False, "box"),
    "mforth": ("left", True, "ddiamond"),
    "mback": ("right", True, "dbox"),
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
    signature (bit k set when it satisfies ``atoms[k]``); ``moves[op][c]``
    is the tuple of ids one application of op leads to from c (one id for a
    closure update, the successors for a step), filled by ``targets``,
    entry by entry, on first use, or by ``walk`` for every configuration
    the interned ones reach; ``move`` computes an entry without recording
    it.  A nominal the model does not assign sets no signature bit.
    """

    def __init__(self, model: KripkeModel, atoms: tuple[Formula, ...]):
        self.model = model
        self.configs: list[Config] = []
        self.sig: list[int] = []
        self.ids: dict[tuple[frozenset[str], str], int] = {}
        self.moves: dict[Op, dict[int, tuple[int, ...]]] = {}
        bits: dict[str, int] = dict.fromkeys(model.worlds, 0)
        self._known_bit = 0
        for k, atom in enumerate(atoms):
            match atom:
                case Prop(p):
                    for w in model.val.get(p, ()):
                        bits[w] |= 1 << k
                case Known():
                    self._known_bit = 1 << k
                case Nom(i) if i in model.noms:  # a dialect without nominals may mix models
                    bits[model.noms[i]] |= 1 << k
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
        """``move``, computed once and recorded in ``moves``."""
        row = self.moves.get(op)
        if row is None:
            row = self.moves[op] = {}
        out = row.get(c)
        if out is None:
            out = row[c] = self.move(op, c)
        return out

    def walk(self, ops: list[Op], cap: int) -> None:
        """Records every op's move from all the interned ones reach, up to cap."""
        rows = [(op, self.moves.setdefault(op, {})) for op in ops]
        for c, _ in enumerate(self.configs):  # grows while walked
            for op, row in rows:
                row[c] = self.move(op, c)
            if len(self.configs) > cap:
                raise StateSpaceExceededError(cap, "configuration space")

    def pre_masks(self, op: Op) -> list[int]:
        """Entry d: the ids op moves to d as a mask, from ``moves`` or by ``move`` unrecorded."""
        recorded = self.moves.get(op, {})
        masks = [0] * len(self.configs)
        for c in range(len(masks)):
            for d in recorded[c] if c in recorded else self.move(op, c):
                masks[d] |= 1 << c
        return masks

    def predecessors(self, ops: list[Op]) -> list[list[int]]:
        """Entry d: the ids some walked op moves to d, once per such move."""
        pre: list[list[int]] = [[] for _ in self.configs]
        for op in ops:
            for c, targets in self.moves[op].items():
                for d in targets:
                    pre[d].append(c)
        return pre


def preimage(rows: list[int]) -> Callable[[int], int]:
    """The reader m -> the union of ``rows[t]`` over m's set bits t (each
    below ``len(rows)``): each four rows folded into a table of the unions
    at its index's bits (the Method of Four Russians, Arlazarov et al.,
    1970), two lookups per nonzero byte of m."""
    nibs = []
    for j in range(0, len(rows) + 7 & -8, 4):
        nib = [0]
        for row in rows[j : j + 4]:
            nib += [x | row for x in nib]
        nibs.append(nib)
    return partial(_read_nibbles, nibs[::2], nibs[1::2])


def _read_nibbles(lows: list[list[int]], highs: list[list[int]], m: int) -> int:
    out = 0
    for b, low, high in zip(m.to_bytes((m.bit_length() + 7) >> 3, "little"), lows, highs):
        if b:
            out |= low[b & 15] | high[b >> 4]
    return out


class PairSpace:
    """Configuration pairs over two models under one condition set."""

    def __init__(self, conds: SimConditions, left: KripkeModel, right: KripkeModel):
        self.conds = conds
        self.left = left
        self.right = right
        self.props, self.rels, self.noms = vocabulary((left, right), conds.nagree or conds.nom)
        # the signature atoms, in bit order: what the static conditions compare
        self.atoms = (
            *map(Prop, self.props),
            *(Known(),) * conds.kagree,
            *map(Nom, self.noms if conds.nagree else ()),
        )
        self.closures = closures(conds, self.noms)
        # the active modal clauses as (name, side, traced)
        self.clauses = tuple(
            (name, side, traced) for name, (side, traced, _) in CLAUSES.items() if getattr(conds, name)
        )
        steps = sorted({traced for _, _, traced in self.clauses})
        self.ops: list[Op] = [("close", kind, nom) for kind, nom in self.closures] + [
            ("step", rel, traced) for rel in self.rels for traced in steps
        ]
        # The signature bits on which a pair fails the static conditions:
        # where the sides differ, or only where the left side holds a bit
        # when atomic agreement is one-directional.  No bits, no violation.
        one_way = conds.atomic_one_directional
        self.disagreement = (lambda s1, s2: s1 & ~s2) if one_way else int.__xor__

    def config_tables(self) -> tuple[ConfigTable, ...]:
        """A new ``ConfigTable`` per side, over ``atoms``."""
        return tuple(ConfigTable(m, self.atoms) for m in (self.left, self.right))

    def static_atom(self, sig1: int, sig2: int) -> tuple[Formula, bool] | None:
        """The atom of the lowest bit of two signatures' ``disagreement``
        and whether the left side holds it, or None if they agree."""
        bits = self.disagreement(sig1, sig2)
        if not bits:
            return None
        low = bits & -bits
        return self.atoms[low.bit_length() - 1], bool(sig1 & low)

    def static_reason(self, sig1: int, sig2: int) -> tuple | None:
        """``static_atom`` named ("agree", p, side), ("kagree", side) or
        ("nagree", i, side), side being the one that holds the atom."""
        found = self.static_atom(sig1, sig2)
        if found is None:
            return None
        atom, left = found
        kind = {Prop: "agree", Known: "kagree", Nom: "nagree"}[type(atom)]
        return (kind, *_values(atom), "left" if left else "right")
