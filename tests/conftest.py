"""Shared fixtures and hypothesis strategies.

The model and formula strategies are deliberately small (a handful of worlds,
two propositions, one relation): every engine in the package does exhaustive
or fixpoint work over the model, so small inputs already exercise every code
path and keep shrinking fast.
"""

from __future__ import annotations

import sys
from dataclasses import fields, make_dataclass
from functools import lru_cache, reduce
from itertools import count
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from modalkit import fo
from modalkit.configs import Config, Pair, PairSpace, close, step_memory
from modalkit.equivalence import SimConditions
from modalkit.errors import (
    OperatorNotInDialectError,
    StateSpaceExceededError,
    UnassignedNominalError,
    UnknownNameError,
    UnknownSymbolError,
)
from modalkit.kripke import KripkeModel, PointedModel, SplitMix64
from modalkit.kripke import load_model as _load_model
from modalkit.syntax import (
    DIALECTS,
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
)
from modalkit.translate import MEMORY_PRED

settings.register_profile(
    "workbench",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("workbench")

FIXTURES = Path(__file__).parent / "fixtures"

SIG = Signature(props=("p", "q"), rels=("r",))
SIG_NOM = Signature(props=("p", "q"), rels=("r",), noms=("i",))

ALL_DIALECTS = tuple(sorted(DIALECTS))


def fixture_model(name: str) -> tuple[KripkeModel, str]:
    model, point = _load_model((FIXTURES / name).read_text(encoding="utf-8"))
    assert point is not None, f"fixture {name} must carry a point directive"
    return model, point


def chain_model(n: int, prefix: str = "w") -> KripkeModel:
    """An r-path through n worlds prefix0, prefix1, ...: against a path one
    world longer, its distinguisher nests n modalities."""
    worlds = tuple(f"{prefix}{k}" for k in range(n))
    return KripkeModel(worlds, {"r": frozenset(zip(worlds, worlds[1:]))}, {})


def sig_for(spec: LogicSpec) -> Signature:
    return SIG_NOM if spec.allows("nominal") else SIG


# shape -> formula text over SIG nested n levels deep
NESTED = {
    "negation": lambda n: "~" * n + "true",
    "diamond": lambda n: "<r>" * n + "true",
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "conjunction chain": lambda n: " & ".join(["p"] * (n + 1)),
    "implication chain": lambda n: " -> ".join(["p"] * (n + 1)),
}


@pytest.fixture(params=ALL_DIALECTS)
def spec(request) -> LogicSpec:
    """Parametrizes a test over every named dialect."""
    return DIALECTS[request.param]


@pytest.fixture
def low_recursion_limit():
    """Runs one test under a recursion limit of 100, far below any formula
    depth it builds, and restores the old limit after."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    yield
    sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def models(
    draw,
    sig: Signature = SIG,
    max_worlds: int = 4,
    allow_mem: bool = False,
):
    """A model over the signature with 1..max_worlds worlds.

    Nominals in the signature are always assigned (the evaluator treats an
    unassigned nominal as an error, which is tested separately)."""
    n = draw(st.integers(1, max_worlds))
    worlds = tuple(f"w{k}" for k in range(n))
    pairs = [(a, b) for a in worlds for b in worlds]
    rels = {r: frozenset(draw(st.sets(st.sampled_from(pairs)))) for r in sig.rels}
    val = {p: frozenset(draw(st.sets(st.sampled_from(worlds)))) for p in sig.props}
    mem = frozenset(draw(st.sets(st.sampled_from(worlds)))) if allow_mem else frozenset()
    noms = {i: draw(st.sampled_from(worlds)) for i in sig.noms}
    return KripkeModel(worlds, rels, val, mem, noms)


@st.composite
def pointed_models(draw, **kwargs):
    model = draw(models(**kwargs))
    return PointedModel(model, draw(st.sampled_from(model.worlds)))


def formulas(spec: LogicSpec, sig: Signature | None = None, max_leaves: int = 6):
    """Random formulas of the dialect over the signature."""
    if sig is None:
        sig = sig_for(spec)
    leaves = [st.just(Top()), st.just(Bottom())]
    if sig.props:
        leaves.append(st.sampled_from([Prop(p) for p in sig.props]))
    if spec.allows("known"):
        leaves.append(st.just(Known()))
    if spec.allows("nominal") and sig.noms:
        leaves.append(st.sampled_from([Nom(i) for i in sig.noms]))

    def extend(sub):
        opts = [
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            st.tuples(sub, sub).map(lambda ab: Or(*ab)),
        ]
        if spec.has_negation:
            opts.append(sub.map(Not))
            opts.append(st.tuples(sub, sub).map(lambda ab: Implies(*ab)))
            opts.append(st.tuples(sub, sub).map(lambda ab: Iff(*ab)))
        for op, mk in (
            ("diamond", Diamond),
            ("box", Box),
            ("ddiamond", DDiamond),
            ("dbox", DBox),
        ):
            if spec.allows(op) and sig.rels:
                opts.append(
                    st.tuples(st.sampled_from(sig.rels), sub).map(lambda rs, mk=mk: mk(*rs))
                )
        for op, mk in (("remember", Remember), ("forget", Forget), ("erase", Erase)):
            if spec.allows(op):
                opts.append(sub.map(mk))
        if spec.allows("at") and sig.noms:
            opts.append(
                st.tuples(st.sampled_from(sig.noms), sub).map(lambda ns: At(*ns))
            )
        return st.one_of(opts)

    return st.recursive(st.one_of(leaves), extend, max_leaves=max_leaves)


# ---------------------------------------------------------------------------
# Reference printer

# The printer as it was before each node kept its printed text: a plain
# recursion over the tree, kept verbatim as the reference for print_formula.

# precedence: <-> 0, -> 1, | 2, & 3, unary/atoms 4
_PREC = {Iff: 0, Implies: 1, Or: 2, And: 3}


def reference_print(phi: Formula) -> str:
    """The text print_formula must produce, rendered from scratch."""
    return _render(phi, 0)


def wrap(prefix: str, sub: Formula, text: str) -> str:
    """The printer's text of a unary operator written ``prefix`` applied to
    sub, whose own text is ``text``: the operand goes in parentheses when it
    is a binary connective."""
    return f"{prefix}({text})" if type(sub) in _PREC else prefix + text


def _render(phi: Formula, ctx: int) -> str:
    match phi:
        case Top():
            return "true"
        case Bottom():
            return "false"
        case Known():
            return "known"
        case Prop(name):
            return name
        case Nom(name):
            return f"'{name}"
        case Not(sub):
            return wrap("~", sub, _render(sub, 0))
        case Diamond(rel, sub):
            return wrap(f"<{rel}>", sub, _render(sub, 0))
        case Box(rel, sub):
            return wrap(f"[{rel}]", sub, _render(sub, 0))
        case DDiamond(rel, sub):
            return wrap(f"<<{rel}>>", sub, _render(sub, 0))
        case DBox(rel, sub):
            return wrap(f"[[{rel}]]", sub, _render(sub, 0))
        case At(nom, sub):
            return wrap(f"@{nom} ", sub, _render(sub, 0))
        case Remember(sub):
            return wrap("rem ", sub, _render(sub, 0))
        case Forget(sub):
            return wrap("forg ", sub, _render(sub, 0))
        case Erase(sub):
            return wrap("erase ", sub, _render(sub, 0))
        case And(a, b):
            out = f"{_render(a, 3)} & {_render(b, 4)}"
            return f"({out})" if ctx > 3 else out
        case Or(a, b):
            out = f"{_render(a, 2)} | {_render(b, 3)}"
            return f"({out})" if ctx > 2 else out
        case Implies(a, b):
            out = f"{_render(a, 2)} -> {_render(b, 1)}"
            return f"({out})" if ctx > 1 else out
        case Iff(a, b):
            out = f"{_render(a, 1)} <-> {_render(b, 0)}"
            return f"({out})" if ctx > 0 else out
    raise TypeError(f"not a formula: {phi!r}")


def reference_fold(parts, cls, empty: Formula) -> Formula:
    """conjoin (cls And, empty true) or disjoin (Or, false) with the parts
    sorted and deduplicated by their reference texts."""
    uniq = sorted({reference_print(p): p for p in parts}.items())
    return reduce(cls, (p for _, p in uniq)) if uniq else empty


# ---------------------------------------------------------------------------
# Reference walkers

# The formula walkers as plain recursions, as they were before they moved
# onto syntax._walk: kept verbatim but for their names (and the fo. prefix on
# first-order names, which share their names with the modal nodes) as the
# references for the walkers of the same name.  EvalContext.meaning is a
# function of the context, passed as self.


def reference_modal_depth(phi: Formula) -> int:
    """Maximum nesting of relation-traversing modalities.

    Remember/Forget/Erase/At and the boolean connectives contribute 0;
    Diamond/Box/DDiamond/DBox contribute 1.
    """
    match phi:
        case Top() | Bottom() | Prop() | Nom() | Known():
            return 0
        case Not(sub) | Remember(sub) | Forget(sub) | Erase(sub) | At(_, sub):
            return reference_modal_depth(sub)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return max(reference_modal_depth(a), reference_modal_depth(b))
        case Diamond(_, sub) | Box(_, sub) | DDiamond(_, sub) | DBox(_, sub):
            return 1 + reference_modal_depth(sub)
    raise TypeError(f"not a formula: {phi!r}")


def reference_formula_size(phi: Formula) -> int:
    """Node count of the syntax tree."""
    match phi:
        case Top() | Bottom() | Prop(_) | Nom(_) | Known():
            return 1
        case Not(sub) | Diamond(_, sub) | Box(_, sub) | DDiamond(_, sub) | DBox(_, sub):
            return 1 + reference_formula_size(sub)
        case Remember(sub) | Forget(sub) | Erase(sub) | At(_, sub):
            return 1 + reference_formula_size(sub)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return 1 + reference_formula_size(a) + reference_formula_size(b)
    raise TypeError(f"not a formula: {phi!r}")


def reference_validate_formula(phi: Formula, sig: Signature, spec: LogicSpec) -> None:
    """Raise UnknownNameError/OperatorNotInDialectError if phi is not a
    well-formed formula of the dialect over the signature."""

    def need(op: str) -> None:
        if not spec.allows(op):
            raise OperatorNotInDialectError(op, spec.name)

    match phi:
        case Top() | Bottom():
            pass
        case Prop(name):
            if name not in sig.props:
                raise UnknownNameError(name, "proposition")
        case Nom(name):
            need("nominal")
            if name not in sig.noms:
                raise UnknownNameError(name, "nominal")
        case Known():
            need("known")
        case Not(sub):
            if not spec.has_negation:
                raise OperatorNotInDialectError("negation", spec.name)
            reference_validate_formula(sub, sig, spec)
        case Implies(a, b) | Iff(a, b):
            # material implication smuggles in negation
            if not spec.has_negation:
                raise OperatorNotInDialectError("negation", spec.name)
            reference_validate_formula(a, sig, spec)
            reference_validate_formula(b, sig, spec)
        case And(a, b) | Or(a, b):
            reference_validate_formula(a, sig, spec)
            reference_validate_formula(b, sig, spec)
        case Diamond(rel, sub) | Box(rel, sub) | DDiamond(rel, sub) | DBox(rel, sub):
            need({Diamond: "diamond", Box: "box", DDiamond: "ddiamond", DBox: "dbox"}[type(phi)])
            if rel not in sig.rels:
                raise UnknownNameError(rel, "relation")
            reference_validate_formula(sub, sig, spec)
        case Remember(sub):
            need("remember")
            reference_validate_formula(sub, sig, spec)
        case Forget(sub):
            need("forget")
            reference_validate_formula(sub, sig, spec)
        case Erase(sub):
            need("erase")
            reference_validate_formula(sub, sig, spec)
        case At(nom, sub):
            need("at")
            if nom not in sig.noms:
                raise UnknownNameError(nom, "nominal")
            reference_validate_formula(sub, sig, spec)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def reference_translate_formula(phi: Formula) -> fo.FOFormula:
    """The first-order equivalent of phi, in one free variable x."""
    counter = count()

    def fresh() -> str:
        return f"y{next(counter)}"

    def known_at(term: fo.Term, trail: tuple) -> fo.FOFormula:
        for i in range(len(trail) - 1, -1, -1):
            entry = trail[i]
            if entry[0] == "barrier":
                return fo.Bottom()
            rest = known_at(term, trail[:i])
            if entry[0] == "add":
                return fo.Or(fo.Eq(term, entry[1]), rest)
            return fo.And(fo.Not(fo.Eq(term, entry[1])), rest)
        return fo.Pred(MEMORY_PRED, term)

    def go(phi: Formula, term: fo.Term, trail: tuple) -> fo.FOFormula:
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


def reference_eval(s: fo.FOStructure, env: dict, phi: fo.FOFormula) -> bool:
    match phi:
        case fo.Top():
            return True
        case fo.Bottom():
            return False
        case fo.Pred(name, arg):
            if name not in s.unary:
                raise UnknownSymbolError(name)
            return fo._term_value(s, env, arg) in s.unary[name]
        case fo.Rel(name, left, right):
            if name not in s.binary:
                raise UnknownSymbolError(name)
            return (fo._term_value(s, env, left), fo._term_value(s, env, right)) in s.binary[name]
        case fo.Eq(left, right):
            return fo._term_value(s, env, left) == fo._term_value(s, env, right)
        case fo.Not(sub):
            return not reference_eval(s, env, sub)
        case fo.And(a, b):
            return reference_eval(s, env, a) and reference_eval(s, env, b)
        case fo.Or(a, b):
            return reference_eval(s, env, a) or reference_eval(s, env, b)
        case fo.Implies(a, b):
            return (not reference_eval(s, env, a)) or reference_eval(s, env, b)
        case fo.Iff(a, b):
            return reference_eval(s, env, a) == reference_eval(s, env, b)
        case fo.Exists(var, sub):
            return any(reference_eval(s, {**env, var: d}, sub) for d in s.domain)
        case fo.Forall(var, sub):
            return all(reference_eval(s, {**env, var: d}, sub) for d in s.domain)
    raise TypeError(f"not a first-order formula: {phi!r}")


def reference_quantifier_rank(phi: fo.FOFormula) -> int:
    """Maximum nesting depth of quantifiers."""
    match phi:
        case fo.Top() | fo.Bottom() | fo.Pred() | fo.Rel() | fo.Eq():
            return 0
        case fo.Not(sub):
            return reference_quantifier_rank(sub)
        case fo.And(a, b) | fo.Or(a, b) | fo.Implies(a, b) | fo.Iff(a, b):
            return max(reference_quantifier_rank(a), reference_quantifier_rank(b))
        case fo.Exists(_, sub) | fo.Forall(_, sub):
            return 1 + reference_quantifier_rank(sub)
    raise TypeError(f"not a first-order formula: {phi!r}")


def reference_fo_print(phi: fo.FOFormula) -> str:
    match phi:
        case fo.Top():
            return "true"
        case fo.Bottom():
            return "false"
        case fo.Pred(name, arg):
            return f"({name} {fo._term_str(arg)})"
        case fo.Rel(name, left, right):
            return f"({name} {fo._term_str(left)} {fo._term_str(right)})"
        case fo.Eq(left, right):
            return f"(= {fo._term_str(left)} {fo._term_str(right)})"
        case fo.Not(sub):
            return f"(not {reference_fo_print(sub)})"
        case fo.And(a, b):
            return f"(and {reference_fo_print(a)} {reference_fo_print(b)})"
        case fo.Or(a, b):
            return f"(or {reference_fo_print(a)} {reference_fo_print(b)})"
        case fo.Implies(a, b):
            return f"(implies {reference_fo_print(a)} {reference_fo_print(b)})"
        case fo.Iff(a, b):
            return f"(iff {reference_fo_print(a)} {reference_fo_print(b)})"
        case fo.Exists(var, sub):
            return f"(exists {var} {reference_fo_print(sub)})"
        case fo.Forall(var, sub):
            return f"(forall {var} {reference_fo_print(sub)})"
    raise TypeError(f"not a first-order formula: {phi!r}")


def reference_meaning(self, phi: Formula) -> int:
    """The formula's bitmask over the whole configuration table."""
    match phi:
        case Nom(nom) | At(nom, _) if nom not in self.nom_mask or any(
            nom not in m.noms for m in self.models
        ):
            raise UnassignedNominalError(nom)
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
            return self.full & ~reference_meaning(self, sub)
        case And(a, b):
            return reference_meaning(self, a) & reference_meaning(self, b)
        case Or(a, b):
            return reference_meaning(self, a) | reference_meaning(self, b)
        case Implies(a, b):
            return self.full & ~reference_meaning(self, a) | reference_meaning(self, b)
        case Iff(a, b):
            return self.full & ~(reference_meaning(self, a) ^ reference_meaning(self, b))
        case Diamond(rel, sub) | Box(rel, sub) | DDiamond(rel, sub) | DBox(rel, sub):
            return self.modal_t(type(phi).__name__.lower(), rel, reference_meaning(self, sub))
        case Remember(sub) | Forget(sub) | Erase(sub):
            kind = self._checked(type(phi).__name__.lower())
            return self.pre(("close", kind, None), reference_meaning(self, sub))
        case At(nom, sub):
            return self.pre(("close", "nom", nom), reference_meaning(self, sub))
    raise TypeError(f"not a formula: {phi!r}")



# ---------------------------------------------------------------------------
# Reference generator

# suite.random_formula as it was before it built the drawn class from its
# dataclass fields: kept verbatim but for its name as the reference for the
# generator's draws.


def reference_random_formula(spec: LogicSpec, sig: Signature, rng: SplitMix64, depth: int) -> Formula:
    """A uniform-ish random formula of the dialect with syntax-tree depth at
    most ``depth``, driven entirely by the given generator."""
    leaves = ["top", "bottom"]
    if sig.props:
        leaves.extend(["prop", "prop"])
    if spec.allows("known"):
        leaves.append("known")
    if spec.allows("nominal") and sig.noms:
        leaves.append("nominal")
    options = list(leaves)
    if depth > 0:
        options.extend(["and", "and", "or", "or"])
        if spec.has_negation:
            options.extend(["not", "not", "implies", "iff"])
        for op in ("diamond", "box", "ddiamond", "dbox"):
            if spec.allows(op) and sig.rels:
                options.extend([op, op])
        for op in ("remember", "forget", "erase"):
            if spec.allows(op):
                options.append(op)
        if spec.allows("at") and sig.noms:
            options.append("at")
    pick = options[rng.next_below(len(options))]
    sub = depth - 1
    match pick:
        case "top":
            return Top()
        case "bottom":
            return Bottom()
        case "prop":
            return Prop(sig.props[rng.next_below(len(sig.props))])
        case "known":
            return Known()
        case "nominal":
            return Nom(sig.noms[rng.next_below(len(sig.noms))])
        case "not":
            return Not(reference_random_formula(spec, sig, rng, sub))
        case "and":
            return And(reference_random_formula(spec, sig, rng, sub), reference_random_formula(spec, sig, rng, sub))
        case "or":
            return Or(reference_random_formula(spec, sig, rng, sub), reference_random_formula(spec, sig, rng, sub))
        case "implies":
            return Implies(
                reference_random_formula(spec, sig, rng, sub), reference_random_formula(spec, sig, rng, sub)
            )
        case "iff":
            return Iff(reference_random_formula(spec, sig, rng, sub), reference_random_formula(spec, sig, rng, sub))
        case "diamond":
            return Diamond(sig.rels[rng.next_below(len(sig.rels))], reference_random_formula(spec, sig, rng, sub))
        case "box":
            return Box(sig.rels[rng.next_below(len(sig.rels))], reference_random_formula(spec, sig, rng, sub))
        case "ddiamond":
            return DDiamond(
                sig.rels[rng.next_below(len(sig.rels))], reference_random_formula(spec, sig, rng, sub)
            )
        case "dbox":
            return DBox(sig.rels[rng.next_below(len(sig.rels))], reference_random_formula(spec, sig, rng, sub))
        case "remember":
            return Remember(reference_random_formula(spec, sig, rng, sub))
        case "forget":
            return Forget(reference_random_formula(spec, sig, rng, sub))
        case "erase":
            return Erase(reference_random_formula(spec, sig, rng, sub))
        case "at":
            return At(sig.noms[rng.next_below(len(sig.noms))], reference_random_formula(spec, sig, rng, sub))
    raise AssertionError(pick)


# ---------------------------------------------------------------------------
# Mirrored nodes

# Plain frozen dataclasses with the names and fields of every modal and
# first-order node class: their ==, hash and repr are the ones dataclasses
# generates, the reference for the nodes' own explicit-stack methods.

MIRRORS = {
    cls: make_dataclass(cls.__name__, [(f.name, object) for f in fields(cls)], frozen=True)
    for base in (Formula, fo.FOFormula)
    for cls in base.__subclasses__()
}


def mirror(phi):
    """phi rebuilt from the mirrored dataclasses (terms and names as they are)."""
    if type(phi) not in MIRRORS:
        return phi
    return MIRRORS[type(phi)](*(mirror(getattr(phi, f.name)) for f in fields(phi)))


# ---------------------------------------------------------------------------
# Reference pair space

# PairSpace's rules as it stated them on Config pairs before the fixpoint,
# the distinguisher and verify_relation moved to table ids: kept verbatim as
# the reference for static_reason, the synchronous rounds and the game.


class RefSpace(PairSpace):
    """The static check, closure images and modal moves on ``Config``
    pairs."""

    def static_violation(self, pair: Pair) -> tuple | None:
        """The first atomic disagreement of the pair, or None."""
        c1, c2 = pair
        one_way = self.conds.atomic_one_directional
        for p in self.props:
            a = c1.world in self.left.val.get(p, frozenset())
            b = c2.world in self.right.val.get(p, frozenset())
            if a and not b:
                return ("agree", p, "left")
            if b and not a and not one_way:
                return ("agree", p, "right")
        if self.conds.kagree:
            a = c1.world in c1.mem
            b = c2.world in c2.mem
            if a and not b:
                return ("kagree", "left")
            if b and not a and not one_way:
                return ("kagree", "right")
        if self.conds.nagree:
            for i in self.noms:
                a = self.left.noms[i] == c1.world
                b = self.right.noms[i] == c2.world
                if a and not b:
                    return ("nagree", i, "left")
                if b and not a and not one_way:
                    return ("nagree", i, "right")
        return None

    def closure_images(self, pair: Pair) -> list[tuple[str, str | None, Pair]]:
        """Each closure update with the pair it leads to."""
        sides = list(zip((self.left, self.right), pair))
        return [
            (kind, nom, tuple(Config(*close(kind, nom, m, c.mem, c.world)) for m, c in sides))
            for kind, nom in self.closures
        ]

    def moves(self, pair: Pair, rel: str, side: str, traced: bool):
        """A modal step along rel with ``side`` choosing first: its targets,
        the other side's replies, and join(target, reply) -> the new pair."""
        c1, c2 = pair
        mem1 = step_memory(c1.mem, c1.world, traced)
        mem2 = step_memory(c2.mem, c2.world, traced)
        succ1 = self.left.successors(rel, c1.world)
        succ2 = self.right.successors(rel, c2.world)
        if side == "left":
            return succ1, succ2, lambda t, u: (Config(mem1, t), Config(mem2, u))
        return succ2, succ1, lambda t, u: (Config(mem1, u), Config(mem2, t))

    def modal_violation(self, pair: Pair, related) -> tuple | None:
        """The first modal clause the pair fails with respect to ``related``,
        as (clause name, relation, unmatched target), or None."""
        for rel in self.rels:
            for name, side, traced in self.clauses:
                targets, replies, join = self.moves(pair, rel, side, traced)
                for t in targets:
                    if not any(join(t, u) in related for u in replies):
                        return (name, rel, t)
        return None


# ---------------------------------------------------------------------------
# Reference pair engine

# The greatest fixpoint on configuration pair ids that decided memory
# dialects before block and row refinement took over every condition set:
# kept verbatim as the reference for their verdicts, death rounds, reasons,
# witnesses and distinguishers.


def _inverse(moves: dict[int, tuple[int, ...]]) -> dict[int, list[int]]:
    """d -> the ids whose entry in one op's ``moves`` contains d."""
    pre: dict[int, list[int]] = {}
    for c, targets in moves.items():
        for d in targets:
            pre.setdefault(d, []).append(c)
    return pre


class _Engine(PairSpace):
    """The fixpoint on pair ids p = c1 * K + c2 over the two models'
    ``ConfigTable``s; ``alive`` and ``dead`` (p -> (round, reason)) are keyed
    by pair id; a pair that fails the static conditions has reason None,
    and ``static_reason`` names its failure from the two signatures."""

    def __init__(
        self,
        conds: SimConditions,
        left: KripkeModel,
        right: KripkeModel,
        max_pairs: int,
    ):
        super().__init__(conds, left, right)
        self.max_pairs = max_pairs
        self.tables = self.config_tables()
        # K bounds the right model's configuration count: |W| without
        # memory moves, |W| * 2^|W| with them.
        n = len(right.worlds)
        self.K = n << n if conds.memory_active else n
        self.dead: dict[int, tuple[int, tuple | None]] = {}
        self.alive: set[int] = set()

    # -- materialization -----------------------------------------------------

    def materialize(self, initial: Pair) -> list[int]:
        """The pair ids of the space, with every move of their configurations
        cached in the tables."""
        t1, t2 = self.tables
        K = self.K
        if not self.conds.memory_active:
            if len(self.left.worlds) * len(self.right.worlds) > self.max_pairs:
                raise StateSpaceExceededError(self.max_pairs)
            ids1 = [t1.intern(initial[0].mem, a) for a in self.left.worlds]
            ids2 = [t2.intern(initial[1].mem, b) for b in self.right.worlds]
            for op in self.ops:
                for c in ids1:
                    t1.targets(op, c)
                for c in ids2:
                    t2.targets(op, c)
            return [a * K + b for a in ids1 for b in ids2]
        c1, c2 = initial
        order = [t1.intern(c1.mem, c1.world) * K + t2.intern(c2.mem, c2.world)]
        seen = set(order)
        # each op's recorded moves, read directly; targets only on a miss
        rows = [(op, t1.moves.setdefault(op, {}), t2.moves.setdefault(op, {})) for op in self.ops]
        for p in order:  # grows while walked: breadth-first
            c1, c2 = divmod(p, K)
            for op, row1, row2 in rows:
                replies = row2.get(c2)
                if replies is None:
                    replies = t2.targets(op, c2)
                moves = row1.get(c1)
                if moves is None:
                    moves = t1.targets(op, c1)
                for a in moves:
                    base = a * K
                    for b in replies:
                        q = base + b
                        if q not in seen:
                            if len(seen) >= self.max_pairs:
                                raise StateSpaceExceededError(self.max_pairs)
                            seen.add(q)
                            order.append(q)
        return order

    # -- the fixpoint --------------------------------------------------------

    def run(self, initial: Pair) -> int:
        """Round 1 checks every statically live pair; round r + 1 checks only
        the live predecessors of the pairs round r deleted, the only ones
        whose check can have changed.  Each round's checks all read
        ``alive`` as the round found it.  Returns the initial pair's id."""
        pairs = self.materialize(initial)
        (t1, t2), K = self.tables, self.K
        sig1, sig2, disagreement = t1.sig, t2.sig, self.disagreement
        alive, dead = self.alive, self.dead
        for p in pairs:
            if disagreement(sig1[p // K], sig2[p % K]):
                dead[p] = (0, None)
            else:
                alive.add(p)
        self._closure_rows = [
            (kind, nom, t1.moves[("close", kind, nom)], t2.moves[("close", kind, nom)])
            for kind, nom in self.closures
        ]
        self._clause_rows = [
            (name, rel, side == "left", t1.moves[("step", rel, traced)], t2.moves[("step", rel, traced)])
            for rel in self.rels
            for name, side, traced in self.clauses
        ]
        pre_rows = [(_inverse(t1.moves[op]), _inverse(t2.moves[op])) for op in self.ops]
        rnd = 0
        frontier = set(alive)
        while frontier:
            rnd += 1
            doomed = [(p, reason) for p in frontier if (reason := self.violation(p)) is not None]
            for p, reason in doomed:
                alive.discard(p)
                dead[p] = (rnd, reason)
            deleted: dict[int, list[int]] = {}
            for q, _ in doomed:
                d1, d2 = divmod(q, K)
                deleted.setdefault(d1, []).append(d2)
            frontier = set()
            for pre1, pre2 in pre_rows:
                for d1, d2s in deleted.items():
                    sources = pre1.get(d1)
                    if sources:
                        replies = set().union(*[pre2.get(d2, ()) for d2 in d2s])
                        for a in sources:
                            frontier.update(map((a * K).__add__, replies))
            frontier &= alive
        c1, c2 = initial
        return t1.intern(c1.mem, c1.world) * K + t2.intern(c2.mem, c2.world)

    def violation(self, p: int) -> tuple | None:
        """The first failed condition of pair p against ``alive``: a closure
        update with its image's pair id, or a modal clause with the target's
        configuration id."""
        K, alive = self.K, self.alive
        c1, c2 = divmod(p, K)
        for kind, nom, row1, row2 in self._closure_rows:
            (a,), (b,) = row1[c1], row2[c2]
            if a * K + b not in alive:
                return (kind, nom, a * K + b)
        for name, rel, left_first, row1, row2 in self._clause_rows:
            succ1, succ2 = row1[c1], row2[c2]
            if left_first:
                for t in succ1:
                    if alive.isdisjoint(map((t * K).__add__, succ2)):
                        return (name, rel, t)
            elif succ2:
                bases = [u * K for u in succ1]
                for t in succ2:
                    if alive.isdisjoint(map(t.__add__, bases)):
                        return (name, rel, t)
        return None

    # -- the edges -----------------------------------------------------------

    def witness(self) -> frozenset[Pair]:
        (t1, t2), K = self.tables, self.K
        return frozenset((t1.configs[p // K], t2.configs[p % K]) for p in self.alive)


# ---------------------------------------------------------------------------
# Reference condition sets

# conditions_for as it listed each flag before it read the clause operators
# from configs.CLAUSES and the memory updates from configs.MEMORY_UPDATES:
# kept verbatim (but for its name) as the reference.


def reference_conditions_for(spec: LogicSpec) -> SimConditions:
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


# ---------------------------------------------------------------------------
# Reference back-and-forth game

# fo.back_and_forth as it was before it ran on the explicit-stack walk with
# a position cap and a default of min(|a|, |b|) + 1 rounds: kept verbatim
# (but for its name) as the reference for its verdicts.  It recurses once
# per round.


def reference_back_and_forth(
    a: fo.FOStructure,
    g: fo.XAssignment,
    b: fo.FOStructure,
    h: fo.XAssignment,
    rounds: int | None = None,
) -> bool:
    """Can Duplicator survive ``rounds`` rounds of the back-and-forth game
    between (a, g) and (b, h)?

    True iff the two pointed structures agree on all first-order formulas of
    quantifier rank <= rounds in one free variable.  The default round count
    |a| * |b| is a heuristic cap that is always enough for structures this
    size (the distinguishing rank of non-equivalent finite structures is
    bounded well below it).
    """
    if set(a.unary) != set(b.unary) or set(a.binary) != set(b.binary) or set(a.consts) != set(
        b.consts
    ):
        raise UnknownSymbolError("structures must share a vocabulary")
    if rounds is None:
        rounds = len(a.domain) * len(b.domain)
    unary_names = tuple(sorted(a.unary))
    binary_names = tuple(sorted(a.binary))

    def atoms_agree(pairs: frozenset[tuple[str, str]]) -> bool:
        for ta, tb in pairs:
            for p in unary_names:
                if (ta in a.unary[p]) != (tb in b.unary[p]):
                    return False
            for ua, ub in pairs:
                if (ta == ua) != (tb == ub):
                    return False
                for r in binary_names:
                    if ((ta, ua) in a.binary[r]) != ((tb, ub) in b.binary[r]):
                        return False
        return True

    # A game position is just the set of chosen correspondences (with the
    # constant correspondences mixed in); order and repetition are irrelevant
    # to atomic agreement, which keeps the memo small for large round counts.
    @lru_cache(maxsize=None)
    def survive(pairs: frozenset[tuple[str, str]], k: int) -> bool:
        if not atoms_agree(pairs):
            return False
        if k == 0:
            return True
        for x in a.domain:
            if not any(survive(pairs | {(x, y)}, k - 1) for y in b.domain):
                return False
        for y in b.domain:
            if not any(survive(pairs | {(x, y)}, k - 1) for x in a.domain):
                return False
        return True

    start = frozenset({(fo._sole_element(g), fo._sole_element(h))}) | frozenset(
        (a.consts[c], b.consts[c]) for c in sorted(a.consts)
    )
    return survive(start, rounds)
