"""First-order structures over unary/binary vocabularies with constants,
Tarskian evaluation, quantifier rank, and the bounded back-and-forth game.

Formulas print in a Lisp-like normal form, e.g.
``(exists y (and (R x y) (P y)))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InvariantViolationError,
    StateSpaceExceededError,
    UnboundVariableError,
    UnknownSymbolError,
)
from .syntax import _join, _Node, _frozen, _parts, _walk, _walker

# The most game positions back_and_forth explores before it gives up.
MAX_POSITIONS = 100_000

# ---------------------------------------------------------------------------
# Terms and formulas


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@_frozen
class FOFormula(_Node):
    def __str__(self) -> str:
        return fo_print(self)


@_frozen
class Top(FOFormula):
    pass


@_frozen
class Bottom(FOFormula):
    pass


@_frozen
class Pred(FOFormula):
    name: str
    arg: Term


@_frozen
class Rel(FOFormula):
    name: str
    left: Term
    right: Term


@_frozen
class Eq(FOFormula):
    left: Term
    right: Term


@_frozen
class Not(FOFormula):
    sub: FOFormula


@_frozen
class And(FOFormula):
    left: FOFormula
    right: FOFormula


@_frozen
class Or(FOFormula):
    left: FOFormula
    right: FOFormula


@_frozen
class Implies(FOFormula):
    left: FOFormula
    right: FOFormula


@_frozen
class Iff(FOFormula):
    left: FOFormula
    right: FOFormula


@_frozen
class Exists(FOFormula):
    var: str
    sub: FOFormula


@_frozen
class Forall(FOFormula):
    var: str
    sub: FOFormula


# An x-assignment (or any variable assignment): variable name -> element.
XAssignment = dict


@dataclass(frozen=True)
class FOStructure:
    """A finite relational structure with unary and binary predicates,
    constants, and built-in equality."""

    domain: tuple[str, ...]
    unary: dict[str, frozenset[str]] = field(default_factory=dict)
    binary: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    consts: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        domain = tuple(sorted(self.domain))
        if not domain or len(set(domain)) != len(domain):
            raise InvariantViolationError("domain must be nonempty and duplicate-free")
        dom = set(domain)
        unary = {name: frozenset(xs) for name, xs in self.unary.items()}
        binary = {name: frozenset(tuple(p) for p in ps) for name, ps in self.binary.items()}
        consts = dict(self.consts)
        for name, xs in unary.items():
            if not xs <= dom:
                raise InvariantViolationError(f"predicate {name!r} leaves the domain")
        for name, ps in binary.items():
            for a, b in ps:
                if a not in dom or b not in dom:
                    raise InvariantViolationError(f"relation {name!r} leaves the domain")
        for name, x in consts.items():
            if x not in dom:
                raise InvariantViolationError(f"constant {name!r} leaves the domain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "binary", binary)
        object.__setattr__(self, "consts", consts)

    def __hash__(self):
        return hash(
            (
                self.domain,
                tuple((n, tuple(sorted(self.unary[n]))) for n in sorted(self.unary)),
                tuple((n, tuple(sorted(self.binary[n]))) for n in sorted(self.binary)),
                tuple(sorted(self.consts.items())),
            )
        )


# ---------------------------------------------------------------------------
# Evaluation


def _term_value(structure: FOStructure, env: dict, term: Term) -> str:
    match term:
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        case Const(name):
            try:
                return structure.consts[name]
            except KeyError:
                raise UnknownSymbolError(name) from None
    raise TypeError(f"not a term: {term!r}")


def fo_check(structure: FOStructure, assignment: XAssignment, phi: FOFormula) -> bool:
    """Tarskian truth of phi in the structure under the assignment.  A
    quantifier binds its variable in one shared environment for each
    instance and restores the outer binding after."""
    s, env = structure, dict(assignment)

    def node(phi: FOFormula):
        match phi:
            case Top():
                return True
            case Bottom():
                return False
            case Pred(name, arg):
                if name not in s.unary:
                    raise UnknownSymbolError(name)
                return _term_value(s, env, arg) in s.unary[name]
            case Rel(name, left, right):
                if name not in s.binary:
                    raise UnknownSymbolError(name)
                return (_term_value(s, env, left), _term_value(s, env, right)) in s.binary[name]
            case Eq(left, right):
                return _term_value(s, env, left) == _term_value(s, env, right)
            case Not(sub):
                return not (yield sub)
            case And(a, b):
                return (yield a) and (yield b)
            case Or(a, b):
                return (yield a) or (yield b)
            case Implies(a, b):
                return (not (yield a)) or (yield b)
            case Iff(a, b):
                return (yield a) == (yield b)
            case Exists(var, sub) | Forall(var, sub):
                # a true instance settles Exists, a false one Forall
                settle, out = type(phi) is Exists, type(phi) is Forall
                outer = {var: env[var]} if var in env else {}
                for d in s.domain:
                    env[var] = d
                    if (yield sub) == settle:
                        out = settle
                        break
                del env[var]
                env.update(outer)
                return out
        raise TypeError(f"not a first-order formula: {phi!r}")

    return _walk(node, phi)


@_walker
def quantifier_rank(phi: FOFormula) -> int:
    """Maximum nesting depth of quantifiers."""
    rank = 0
    for part in _parts(phi):
        rank = max(rank, (yield part))
    return rank + (type(phi) in (Exists, Forall))


# ---------------------------------------------------------------------------
# Printing


def _term_str(term: Term) -> str:
    match term:
        case Var(name) | Const(name):
            return name
    raise TypeError(f"not a term: {term!r}")


def fo_print(phi: FOFormula) -> str:
    """phi's text, built in one join over ``_pieces``."""
    return _join(_pieces, phi)


def _pieces(phi: FOFormula) -> list:
    """The pieces of phi's text: strings, and the subformulas whose texts go
    between them."""
    match phi:
        case Top():
            return ["true"]
        case Bottom():
            return ["false"]
        case Pred(name, arg):
            return [f"({name} {_term_str(arg)})"]
        case Rel(name, left, right):
            return [f"({name} {_term_str(left)} {_term_str(right)})"]
        case Eq(left, right):
            return [f"(= {_term_str(left)} {_term_str(right)})"]
        case Not(sub):
            return ["(not ", sub, ")"]
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return [f"({type(phi).__name__.lower()} ", a, " ", b, ")"]
        case Exists(var, sub) | Forall(var, sub):
            return [f"({type(phi).__name__.lower()} {var} ", sub, ")"]
    raise TypeError(f"not a first-order formula: {phi!r}")


# ---------------------------------------------------------------------------
# Bounded back-and-forth games


def _sole_element(assignment: XAssignment) -> str:
    if len(assignment) != 1:
        raise InvariantViolationError("the game starts from a one-variable assignment")
    return next(iter(assignment.values()))


def back_and_forth(
    a: FOStructure,
    g: XAssignment,
    b: FOStructure,
    h: XAssignment,
    rounds: int | None = None,
) -> bool:
    """Can Duplicator survive ``rounds`` rounds of the back-and-forth game
    between (a, g) and (b, h)?

    True iff the two pointed structures agree on all first-order formulas of
    quantifier rank <= rounds in one free variable.  The default,
    min(|a|, |b|) + 1 rounds, decides agreement on every formula: Spoiler
    can pick each element of the smaller structure, which Duplicator must
    match one to one preserving the atoms, and then one of the larger
    outside the match, if any; so Duplicator survives them only between
    isomorphic pointed structures, where it survives any number of rounds.
    Past ``MAX_POSITIONS`` explored positions it raises
    ``StateSpaceExceededError``.
    """
    if any(set(getattr(a, f)) != set(getattr(b, f)) for f in ("unary", "binary", "consts")):
        raise UnknownSymbolError("structures must share a vocabulary")
    if rounds is None:
        rounds = min(len(a.domain), len(b.domain)) + 1
    if rounds < 0:
        raise InvariantViolationError(f"rounds must be at least 0, got {rounds}")
    unary = [(a.unary[p], b.unary[p]) for p in sorted(a.unary)]
    binary = [(a.binary[r], b.binary[r]) for r in sorted(a.binary)]
    # each pick of Spoiler's as the correspondences Duplicator may answer with
    picks = [[(x, y) for y in b.domain] for x in a.domain]
    picks += [[(x, y) for x in a.domain] for y in b.domain]

    def fits(pairs: frozenset[tuple[str, str]], x: str, y: str) -> bool:
        """Does (x, y), one of pairs, agree on the atoms with all of them?"""
        if any((x in pa) != (y in pb) for pa, pb in unary):
            return False
        for u, v in pairs:
            if (x == u) != (y == v):
                return False
            for ra, rb in binary:
                if ((x, u) in ra) != ((y, v) in rb) or ((u, x) in ra) != ((v, y) in rb):
                    return False
        return True

    # An item is a position and the correspondence last added; a position is
    # the set of chosen correspondences, the constants' among them (order and
    # repetition do not matter to the atoms), and the rounds left.
    def survive(item):
        pairs, k, added = item
        if len(memo) >= MAX_POSITIONS:
            raise StateSpaceExceededError(MAX_POSITIONS, "game position space")
        if not fits(pairs, *added):
            return False
        if k == 0:
            return True
        for replies in picks:
            for pair in replies:
                if (yield (pairs | {pair}, k - 1, pair)):
                    break
            else:
                return False
        return True

    start = frozenset({(_sole_element(g), _sole_element(h))}) | frozenset(
        (a.consts[c], b.consts[c]) for c in sorted(a.consts)
    )
    if not all(fits(start, x, y) for x, y in start):
        return False
    memo: dict = {}
    return _walk(survive, (start, rounds, next(iter(start))), memo, key=lambda item: item[:2])
