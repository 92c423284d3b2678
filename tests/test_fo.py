"""The first-order fragment: evaluation, printing, and the bounded
back-and-forth game.

The game is cross-checked against an independent computation of the
rank-bounded definable sets: level k+1 sets are the boolean closure of the
atomic sets together with projections of level-k cells (projection commutes
with disjunction, so cell projections generate everything).  Two elements
agree on all rank-<=k one-free-variable formulas iff they land in the same
level-k cell, which is exactly what the game is supposed to decide.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIG_NOM, models, reference_back_and_forth
from modalkit.errors import (
    InvariantViolationError,
    StateSpaceExceededError,
    UnboundVariableError,
    UnknownSymbolError,
)
from modalkit.fo import (
    MAX_POSITIONS,
    And,
    Bottom,
    Const,
    Eq,
    Exists,
    Forall,
    FOStructure,
    Implies,
    Not,
    Or,
    Pred,
    Rel,
    Top,
    Var,
    back_and_forth,
    fo_check,
    fo_print,
    quantifier_rank,
)
from modalkit.syntax import Signature
from modalkit.translate import translate_model


# ---------------------------------------------------------------------------
# Structures


def test_structure_validation():
    with pytest.raises(InvariantViolationError):
        FOStructure(())
    with pytest.raises(InvariantViolationError):
        FOStructure(("a", "a"))
    with pytest.raises(InvariantViolationError):
        FOStructure(("a",), unary={"P": frozenset({"b"})})
    with pytest.raises(InvariantViolationError):
        FOStructure(("a",), binary={"R": frozenset({("a", "b")})})
    with pytest.raises(InvariantViolationError):
        FOStructure(("a",), consts={"c": "b"})


# ---------------------------------------------------------------------------
# Evaluation

S = FOStructure(
    ("a", "b"),
    unary={"P": frozenset({"a"})},
    binary={"R": frozenset({("a", "b")})},
    consts={"c": "b"},
)


def test_atoms():
    assert fo_check(S, {"x": "a"}, Pred("P", Var("x")))
    assert not fo_check(S, {"x": "b"}, Pred("P", Var("x")))
    assert fo_check(S, {"x": "a"}, Rel("R", Var("x"), Const("c")))
    assert fo_check(S, {}, Eq(Const("c"), Const("c")))
    assert not fo_check(S, {"x": "a"}, Eq(Var("x"), Const("c")))
    assert fo_check(S, {}, Top()) and not fo_check(S, {}, Bottom())


def test_connectives_and_quantifiers():
    p_x = Pred("P", Var("x"))
    assert fo_check(S, {}, Exists("x", p_x))
    assert not fo_check(S, {}, Forall("x", p_x))
    assert fo_check(S, {}, Forall("x", Or(p_x, Not(p_x))))
    assert fo_check(
        S, {}, Exists("x", Exists("y", And(Rel("R", Var("x"), Var("y")), Not(Eq(Var("x"), Var("y"))))))
    )
    assert fo_check(S, {"x": "b"}, Implies(p_x, Bottom()))


def test_quantifier_shadowing():
    # the inner binding wins
    phi = Exists("x", And(Pred("P", Var("x")), Exists("x", Not(Pred("P", Var("x"))))))
    assert fo_check(S, {}, phi)
    # and holds only in its scope: the outer binding, or none, holds after it
    p_x, p_y = Pred("P", Var("x")), Pred("P", Var("y"))
    assert fo_check(S, {"x": "a"}, And(Exists("x", Not(p_x)), p_x))
    assert not fo_check(S, {"x": "b"}, And(Exists("x", Not(p_x)), p_x))
    with pytest.raises(UnboundVariableError):
        fo_check(S, {}, And(Exists("y", p_y), p_y))


def test_evaluation_errors():
    with pytest.raises(UnboundVariableError):
        fo_check(S, {}, Pred("P", Var("x")))
    with pytest.raises(UnknownSymbolError):
        fo_check(S, {}, Pred("Q", Const("c")))
    with pytest.raises(UnknownSymbolError):
        fo_check(S, {}, Eq(Const("d"), Const("d")))
    with pytest.raises(UnknownSymbolError):
        fo_check(S, {"x": "a", "y": "a"}, Rel("S", Var("x"), Var("y")))


def test_quantifier_rank():
    p_x = Pred("P", Var("x"))
    assert quantifier_rank(p_x) == 0
    assert quantifier_rank(Exists("y", p_x)) == 1
    assert quantifier_rank(And(Exists("y", p_x), Forall("z", Exists("y", p_x)))) == 2
    assert quantifier_rank(Not(Exists("y", Exists("z", p_x)))) == 2


def test_fo_print():
    phi = Exists("y0", And(Rel("R", Var("x"), Var("y0")), Pred("P", Var("y0"))))
    assert fo_print(phi) == "(exists y0 (and (R x y0) (P y0)))"
    assert fo_print(Eq(Var("x"), Const("c"))) == "(= x c)"
    assert fo_print(Forall("y", Implies(Top(), Bottom()))) == "(forall y (implies true false))"


# ---------------------------------------------------------------------------
# Back-and-forth


def test_game_on_isomorphic_structures():
    t = FOStructure(
        ("u", "v"),
        unary={"P": frozenset({"u"})},
        binary={"R": frozenset({("u", "v")})},
        consts={"c": "v"},
    )
    assert back_and_forth(S, {"x": "a"}, t, {"x": "u"})
    # mapping the point to the wrong element breaks atomic agreement at once
    assert not back_and_forth(S, {"x": "a"}, t, {"x": "v"}, rounds=0)


def test_reflexive_point_vs_plain_cycle():
    loop = FOStructure(("a",), binary={"R": frozenset({("a", "a")})})
    cyc = FOStructure(("b1", "b2"), binary={"R": frozenset({("b1", "b2"), ("b2", "b1")})})
    # R(x,x) already differs, so even the 0-round game is lost
    assert not back_and_forth(loop, {"x": "a"}, cyc, {"x": "b1"}, rounds=0)


def test_rank_two_needed_to_count():
    """One P elsewhere vs two P's elsewhere: rank 1 cannot count to two."""
    one = FOStructure(("a0", "a1"), unary={"P": frozenset({"a1"})}, binary={"R": frozenset()})
    two = FOStructure(
        ("b0", "b1", "b2"), unary={"P": frozenset({"b1", "b2"})}, binary={"R": frozenset()}
    )
    assert back_and_forth(one, {"x": "a0"}, two, {"x": "b0"}, rounds=1)
    assert not back_and_forth(one, {"x": "a0"}, two, {"x": "b0"}, rounds=2)
    # the default round count decides
    assert not back_and_forth(one, {"x": "a0"}, two, {"x": "b0"})


def test_constants_constrain_the_game():
    named = FOStructure(("a", "b"), binary={"R": frozenset({("a", "b")})}, consts={"c": "b"})
    other = FOStructure(("u", "v"), binary={"R": frozenset({("u", "v")})}, consts={"c": "u"})
    # structures are isomorphic, but the constant pins non-corresponding elements
    assert not back_and_forth(named, {"x": "a"}, other, {"x": "u"})


def test_vocabulary_mismatch():
    plain = FOStructure(("a",), binary={"R": frozenset()})
    with pytest.raises(UnknownSymbolError):
        back_and_forth(S, {"x": "a"}, plain, {"x": "a"})


def test_negative_rounds_are_rejected():
    with pytest.raises(InvariantViolationError):
        back_and_forth(S, {"x": "a"}, S, {"x": "a"}, rounds=-1)


@settings(max_examples=80)
@given(st.data())
def test_back_and_forth_matches_the_recursive_reference(data):
    """The same verdict as the recursive search on translated pointed models
    of 1-3 worlds, for 0-3 rounds, and for the default: min(|a|, |b|) + 1
    rounds here, |a| * |b| in the reference.  The models carry the memory
    predicate and a constant, or only the relation, where the verdict rests
    on the edges alone."""
    sig = data.draw(st.sampled_from([SIG_NOM, Signature(rels=("r",))]))
    left = data.draw(models(sig=sig, max_worlds=3, allow_mem=sig is SIG_NOM))
    right = data.draw(models(sig=sig, max_worlds=3, allow_mem=sig is SIG_NOM))
    a, g = translate_model(left, data.draw(st.sampled_from(left.worlds)))
    b, h = translate_model(right, data.draw(st.sampled_from(right.worlds)))
    for rounds in (0, 1, 2, 3, None):
        assert back_and_forth(a, g, b, h, rounds) == reference_back_and_forth(a, g, b, h, rounds)


def _path(n: int, prefix: str) -> tuple[FOStructure, dict]:
    """An n-element R-path, pointed at its first element."""
    dom = tuple(f"{prefix}{i}" for i in range(n))
    edges = frozenset(zip(dom, dom[1:]))
    return FOStructure(dom, binary={"R": edges}), {"x": dom[0]}


def test_back_and_forth_answers_a_short_path(low_recursion_limit):
    assert back_and_forth(*_path(8, "a"), *_path(8, "b"))


@pytest.mark.parametrize("n", [14, 20])
def test_back_and_forth_caps_its_positions(n, low_recursion_limit):
    """Against itself, an n-element path takes the default n + 1 rounds past
    ``MAX_POSITIONS`` positions: the search stops there, with no recursion.
    The recursive search ran past 90 s at 14 elements and hit the recursion
    limit at 20."""
    with pytest.raises(StateSpaceExceededError) as info:
        back_and_forth(*_path(n, "a"), *_path(n, "b"))
    assert info.value.limit == MAX_POSITIONS
    assert str(info.value) == f"game position space exceeds the limit of {MAX_POSITIONS}"


# ---------------------------------------------------------------------------
# The rank-partition oracle


def _closure_cells(generators: list[int], space: int) -> list[int]:
    """Cells of the partition induced by the generator bitmasks over a
    ``space``-bit universe (the atoms of the generated boolean algebra)."""
    cells = [(1 << space) - 1]
    for g in generators:
        nxt = []
        for cell in cells:
            a, b = cell & g, cell & ~g
            if a:
                nxt.append(a)
            if b:
                nxt.append(b)
        cells = nxt
    return cells


def _rank_cells(a: FOStructure, b: FOStructure, rank: int) -> dict[tuple[int, str], int]:
    """Cell id of every (structure, element) under rank-``rank`` equivalence,
    computed over tuple spaces of increasing arity from the inside out."""
    doms = (a.domain, b.domain)
    structs = (a, b)

    def tuples(arity):
        out = []
        for side, dom in enumerate(doms):
            out.extend((side,) + t for t in itertools.product(dom, repeat=arity))
        return out

    def atom_masks(arity):
        space = tuples(arity)
        index = {t: i for i, t in enumerate(space)}
        masks = []
        names_u = sorted(a.unary)
        names_b = sorted(a.binary)
        for pos in range(arity):
            for p in names_u:
                masks.append(
                    sum(1 << index[t] for t in space if t[1 + pos] in structs[t[0]].unary[p])
                )
            for qos in range(arity):
                for r in names_b:
                    masks.append(
                        sum(
                            1 << index[t]
                            for t in space
                            if (t[1 + pos], t[1 + qos]) in structs[t[0]].binary[r]
                        )
                    )
                if qos > pos:
                    masks.append(
                        sum(1 << index[t] for t in space if t[1 + pos] == t[1 + qos])
                    )
        return space, index, masks

    # innermost level: full tuples of arity rank+1, atomic formulas only
    space, index, masks = atom_masks(rank + 1)
    cells = _closure_cells(masks, len(space))
    for arity in range(rank, 0, -1):
        sub_space, sub_index = space, index
        space, index, masks = atom_masks(arity)
        # project each finer cell along its last coordinate
        for cell in cells:
            proj = 0
            for i, t in enumerate(sub_space):
                if (cell >> i) & 1:
                    proj |= 1 << index[t[:-1]]
            masks.append(proj)
        cells = _closure_cells(masks, len(space))

    out = {}
    for cid, cell in enumerate(cells):
        for i, t in enumerate(space):
            if (cell >> i) & 1:
                out[(t[0], t[1])] = cid
    return out


@settings(max_examples=25)
@given(st.data())
def test_game_matches_rank_partition(data):
    """back_and_forth with k rounds == same level-k definable-set cell,
    for k in {1, 2} over random 2/3-element structures."""

    def structure(draw_dom):
        dom = tuple(f"{draw_dom}{i}" for i in range(data.draw(st.integers(1, 3))))
        pairs = [(x, y) for x in dom for y in dom]
        return FOStructure(
            dom,
            unary={"P": frozenset(data.draw(st.sets(st.sampled_from(dom))))},
            binary={"R": frozenset(data.draw(st.sets(st.sampled_from(pairs))))},
        )

    a, b = structure("a"), structure("b")
    for rank in (1, 2):
        cells = _rank_cells(a, b, rank)
        for x in a.domain:
            for y in b.domain:
                expected = cells[(0, x)] == cells[(1, y)]
                assert back_and_forth(a, {"x": x}, b, {"x": y}, rounds=rank) == expected
