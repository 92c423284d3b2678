"""Minimization, universes, bounded theories, the invariance probe, and
definability over finite universes.

The minimization tests lean on the relation engine as an oracle (every world
must be bisimilar to its representative in the quotient); definability
results are re-verified semantically rather than trusted.
"""

import pytest
from hypothesis import given, settings

from conftest import SIG, fixture_model, models
from modalkit import analysis
from modalkit.analysis import (
    DefinabilityResult,
    Universe,
    bounded_theory,
    definability_check,
    invariance_probe,
    load_universe,
    minimize,
    minimize_map,
)
from modalkit.enumeration import EvalContext, JointPartition
from modalkit.equivalence import bisimilar
from modalkit.errors import (
    BudgetExceededError,
    InvariantViolationError,
    ModelFormatError,
    UnknownNameError,
    UnsupportedFeaturesError,
)
from modalkit.kripke import KripkeModel, PointedModel
from modalkit.semantics import check
from modalkit.syntax import DIALECTS, print_formula

BML = DIALECTS["bml"]
BML_MINUS = DIALECTS["bml-minus"]
ML = DIALECTS["ml-diamond"]

LIT = KripkeModel(("a",), {"r": frozenset()}, {"p": frozenset({"a"})})
UNLIT = KripkeModel(("a",), {"r": frozenset()}, {"p": frozenset()})


# ---------------------------------------------------------------------------
# Minimization


def test_minimize_collapses_the_unwound_model():
    big, point = fixture_model("four_world.km")
    quotient, rep = minimize_map(big)
    assert quotient == KripkeModel(
        ("b", "c"), {"r": frozenset({("b", "b"), ("b", "c")})}, {}
    )
    assert rep == {"w": "b", "b": "b", "c": "c", "d": "c"}
    assert rep[point] == "b"


@settings(max_examples=60)
@given(models(sig=SIG))
def test_minimize_is_a_bisimilar_idempotent_quotient(model):
    quotient, rep = minimize_map(model)
    assert minimize(quotient) == quotient
    assert len(quotient.worlds) <= len(model.worlds)
    for w in model.worlds:
        assert bisimilar(BML, model, w, quotient, rep[w]).related


def test_minimize_rejects_memory_and_nominals():
    with pytest.raises(UnsupportedFeaturesError):
        minimize(KripkeModel(("a",), {}, {}, mem=frozenset({"a"})))
    with pytest.raises(UnsupportedFeaturesError):
        minimize(KripkeModel(("a",), {}, {}, noms={"i": "a"}))


# ---------------------------------------------------------------------------
# Universes


def test_load_universe(tmp_path):
    (tmp_path / "lit.km").write_text("worlds: a\nval p: a\npoint: a\n")
    (tmp_path / "unlit.km").write_text("worlds: a\nval p:\npoint: a\n")
    (tmp_path / "zz_copy.km").write_text("worlds: a\nval p: a\npoint: a\n")
    universe = load_universe(tmp_path)
    assert universe.names == ("lit", "unlit")  # the later duplicate is dropped
    assert len(universe) == 2
    assert universe.member("lit").world == "a"
    with pytest.raises(UnknownNameError):
        universe.member("zz_copy")


def test_load_universe_requires_points(tmp_path):
    (tmp_path / "bare.km").write_text("worlds: a\n")
    with pytest.raises(ModelFormatError):
        load_universe(tmp_path)


# ---------------------------------------------------------------------------
# Bounded theories


def test_bounded_theory_content():
    theory = bounded_theory(BML, PointedModel(LIT, "a"), depth=2)
    # 'true' has the same meaning as 'p' on this model and is deduplicated
    assert theory == frozenset({"p"})
    # ... and on the unlit model '~p' collapses into 'true'
    assert bounded_theory(BML, PointedModel(UNLIT, "a"), depth=2) == frozenset(
        {"true"}
    )


def test_bounded_theory_budget():
    with pytest.raises(BudgetExceededError):
        bounded_theory(BML, PointedModel(LIT, "a"), depth=2, budget=1)


# ---------------------------------------------------------------------------
# Invariance probe


def test_invariance_probe_verifies_every_battery_case(spec):
    report = invariance_probe(spec)
    assert report.ok
    assert report.text.splitlines()[0] == f"invariance probe for {spec.name}"
    for case in (
        "reflexive point vs two-cycle",
        "four-world model vs its quotient",
        "successor duplication",
        "proposition flip",
    ):
        assert f"- {case}:" in report.text
    assert "CONTRADICTED" not in report.text
    assert "NOT VERIFIED" not in report.text


def test_invariance_probe_memory_verdicts():
    text = invariance_probe(ML).text
    assert "reflexive point vs two-cycle: unrelated by" in text
    assert "successor duplication: related" in text


# ---------------------------------------------------------------------------
# Definability


def _universe(**named: PointedModel) -> Universe:
    names = tuple(sorted(named))
    return Universe(names, tuple(named[n] for n in names))


TWO = _universe(lit=PointedModel(LIT, "a"), unlit=PointedModel(UNLIT, "a"))


def test_definability_by_stream_formulas():
    out = definability_check(BML, TWO, {"lit"})
    assert out.status == "defined" and print_formula(out.formula) == "p"
    out = definability_check(BML, TWO, {"unlit"})
    assert out.status == "defined" and print_formula(out.formula) == "~p"
    assert definability_check(BML, TWO, {"lit", "unlit"}).formula is not None
    out = definability_check(BML, TWO, set())
    assert out.status == "defined" and print_formula(out.formula) == "false"


def test_definability_not_closed_for_the_positive_fragment():
    # without negation, the unlit point is simulated by the lit one
    out = definability_check(BML_MINUS, TWO, {"unlit"})
    assert out.status == "not_closed"
    assert out.witness == ("unlit", "lit")
    inside, outside = out.witness
    assert bisimilar(
        BML_MINUS,
        TWO.member(inside).model,
        TWO.member(inside).world,
        TWO.member(outside).model,
        TWO.member(outside).world,
    ).related
    # the lit point alone is closed and plainly definable
    out = definability_check(BML_MINUS, TWO, {"lit"})
    assert out.status == "defined" and print_formula(out.formula) == "p"


ABC = _universe(
    only_p=PointedModel(KripkeModel(("a",), {}, {"p": frozenset({"a"}), "q": frozenset()}), "a"),
    only_q=PointedModel(KripkeModel(("a",), {}, {"p": frozenset(), "q": frozenset({"a"})}), "a"),
    both=PointedModel(KripkeModel(("a",), {}, {"p": frozenset({"a"}), "q": frozenset({"a"})}), "a"),
)


def test_definability_needs_conjunction():
    """{both} is closed but conjunction-free-undefinable: the stream search
    exhausts for the positive fragment, while the boolean fallback builds the
    conjunction from meaning-class characteristics."""
    assert definability_check(BML_MINUS, ABC, {"both"}) == DefinabilityResult("exhausted")
    out = definability_check(BML, ABC, {"both"})
    assert out.status == "defined"
    assert print_formula(out.formula) == "p & q"


def test_definability_memory_dialect():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    universe = _universe(refl=PointedModel(refl, a), cyc=PointedModel(cyc, b))
    out = definability_check(ML, universe, {"refl"})
    assert out.status == "defined"
    assert check(refl, a, out.formula)
    assert not check(cyc, b, out.formula)


def test_definability_reads_closure_from_the_partition(monkeypatch):
    calls = []
    real = analysis.bisimilar

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "bisimilar", counted)
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    universe = _universe(
        refl=PointedModel(refl, a), cyc=PointedModel(cyc, b), lit=PointedModel(LIT, "a")
    )
    blocked = DefinabilityResult("not_closed", witness=("cyc", "refl"))
    assert definability_check(BML, universe, {"cyc"}) == blocked
    assert definability_check(BML, universe, {"cyc", "lit"}) == blocked
    assert definability_check(ML, universe, {"cyc"}).status == "defined"
    # the first member inside with a partner outside, then its first partner
    lit, unlit = PointedModel(LIT, "a"), PointedModel(UNLIT, "a")
    crossed = _universe(a=lit, b=unlit, c=unlit, d=lit)
    assert definability_check(BML, crossed, {"a", "c"}).witness == ("a", "d")
    assert calls == []
    # a partition over its budget falls back to the pairwise relation
    assert definability_check(BML, universe, {"cyc"}, budget=1) == blocked
    assert calls
    # the negation-free notion is directed: always asked pair by pair
    calls.clear()
    definability_check(BML_MINUS, TWO, {"unlit"})
    assert len(calls) == 1


def test_definability_mixed_nominals():
    """Without a common set of nominals there is no partition; a crossing
    pair that bisimilar can compare is still a witness, and a pair it cannot
    compare raises."""
    plain = PointedModel(KripkeModel(("a",), {"r": frozenset()}), "a")
    named = PointedModel(KripkeModel(("a",), {"r": frozenset()}, noms={"i": "a"}), "a")
    universe = _universe(a_plain=plain, b_plain=plain, c_named=named)
    out = definability_check(DIALECTS["hl"], universe, {"a_plain"})
    assert out == DefinabilityResult("not_closed", witness=("a_plain", "b_plain"))
    with pytest.raises(InvariantViolationError):
        definability_check(DIALECTS["hl"], universe, {"c_named"})


@pytest.mark.parametrize("dialect, nom_mask, cells", [("bml", 0b1, 1), ("ml-full", 0b11, 2)])
def test_mixed_nominals_without_nominal_operators(dialect, nom_mask, cells):
    """A dialect without nominals compares models that name different
    nominals, the first model naming one: the context keeps the first
    model's nominal masks (the other model sets no bit), and the partition
    and the definability check build on it."""
    plain = PointedModel(KripkeModel(("a",), {"r": frozenset()}), "a")
    named = PointedModel(KripkeModel(("a",), {"r": frozenset()}, noms={"i": "a"}), "a")
    spec = DIALECTS[dialect]
    assert EvalContext(spec, [named.model, plain.model]).nom_mask == {"i": nom_mask}
    assert len(JointPartition(spec, [named.model, plain.model]).cells) == cells
    universe = _universe(a_named=named, b_plain=plain)
    out = definability_check(spec, universe, {"a_named"})
    assert out == DefinabilityResult("not_closed", witness=("a_named", "b_plain"))


def test_definability_rejects_negative_bounds():
    for bounds in ({"max_depth": -2}, {"budget": -1}):
        with pytest.raises(InvariantViolationError, match="must be at least 0"):
            definability_check(ML, TWO, {"lit"}, **bounds)
    # a budget of 0 stays legal: the search is exhausted at once
    assert definability_check(BML_MINUS, TWO, {"lit"}, budget=0).status == "exhausted"


def test_definability_unknown_member():
    with pytest.raises(UnknownNameError):
        definability_check(BML, TWO, {"nope"})
