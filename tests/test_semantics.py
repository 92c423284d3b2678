"""The modal evaluator, cross-checked against an independent reference.

The reference evaluator below is written in a deliberately different style
from the package's: instead of threading a memory set through the recursion
it rebuilds a whole model for every memory effect (mem_add / mem_remove /
mem_wipe).  Slow, but each clause is a direct transliteration of the truth
definition, which is the point of an oracle.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SIG, SIG_NOM, chain_model, formulas, models, sig_for
from modalkit.equivalence import bisimilar
from modalkit.errors import (
    OperatorNotInDialectError,
    UnassignedNominalError,
)
from modalkit.kripke import GenParams, KripkeModel, mem_add, mem_remove, mem_wipe, random_model
from modalkit.semantics import EvalConfig, check, check_global, satisfying_set
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


def reference(model: KripkeModel, world: str, phi) -> bool:
    match phi:
        case Top():
            return True
        case Bottom():
            return False
        case Prop(name):
            return world in model.val.get(name, frozenset())
        case Nom(name):
            return model.noms[name] == world
        case Known():
            return world in model.mem
        case Not(sub):
            return not reference(model, world, sub)
        case And(a, b):
            return reference(model, world, a) and reference(model, world, b)
        case Or(a, b):
            return reference(model, world, a) or reference(model, world, b)
        case Implies(a, b):
            return (not reference(model, world, a)) or reference(model, world, b)
        case Iff(a, b):
            return reference(model, world, a) == reference(model, world, b)
        case Diamond(rel, sub):
            return any(reference(model, v, sub) for v in model.successors(rel, world))
        case Box(rel, sub):
            return all(reference(model, v, sub) for v in model.successors(rel, world))
        case DDiamond(rel, sub):
            stored = mem_add(model, world)
            return any(reference(stored, v, sub) for v in stored.successors(rel, world))
        case DBox(rel, sub):
            stored = mem_add(model, world)
            return all(reference(stored, v, sub) for v in stored.successors(rel, world))
        case Remember(sub):
            return reference(mem_add(model, world), world, sub)
        case Forget(sub):
            return reference(mem_remove(model, world), world, sub)
        case Erase(sub):
            return reference(mem_wipe(model), world, sub)
        case At(nom, sub):
            return reference(model, model.noms[nom], sub)
    raise TypeError(phi)


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
@given(data=st.data())
def test_check_matches_reference(dialect, data):
    spec = DIALECTS[dialect]
    sig = sig_for(spec)
    model = data.draw(models(sig=sig, allow_mem=spec.allows("known")))
    world = data.draw(st.sampled_from(model.worlds))
    phi = data.draw(formulas(spec, sig))
    assert check(model, world, phi) == reference(model, world, phi)


# ---------------------------------------------------------------------------
# Memory operators, spelled out


LOOP = KripkeModel(("a",), {"r": frozenset({("a", "a")})})


def test_known_reads_the_model_memory():
    assert not check(LOOP, "a", Known())
    remembered = mem_add(LOOP, "a")
    assert check(remembered, "a", Known())


def test_remember_forget_erase_chains():
    assert check(LOOP, "a", Remember(Known()))
    assert not check(LOOP, "a", Remember(Forget(Known())))
    assert not check(LOOP, "a", Remember(Erase(Known())))
    # erase wipes everything, then remember stores the current world again
    two = KripkeModel(("a", "b"), mem=frozenset({"a", "b"}))
    assert check(two, "a", Erase(Remember(Known())))
    assert not check(two, "a", Erase(Known()))
    assert check(two, "a", Forget(Known())) is False
    assert check(two, "b", Forget(Known())) is False
    assert check(two, "b", Known())


def test_double_diamond_stores_before_moving():
    # <<r>>known holds on a reflexive point because the point is stored first
    assert check(LOOP, "a", DDiamond("r", Known()))
    chain = KripkeModel(("a", "b"), {"r": frozenset({("a", "b")})})
    assert not check(chain, "a", DDiamond("r", Known()))
    assert check(chain, "a", DDiamond("r", Not(Known())))


@given(models(sig=SIG, allow_mem=True), formulas(DIALECTS["ml-full"], SIG))
def test_double_modalities_are_remember_then_move(model, phi):
    """⟨⟨r⟩⟩φ ≡ rem ◇φ and [[r]]φ ≡ rem □φ, pointwise."""
    for w in model.worlds:
        assert check(model, w, DDiamond("r", phi)) == check(
            model, w, Remember(Diamond("r", phi))
        )
        assert check(model, w, DBox("r", phi)) == check(model, w, Remember(Box("r", phi)))


@given(models(sig=SIG), formulas(DIALECTS["bml"], SIG))
def test_box_is_dual_to_diamond(model, phi):
    for w in model.worlds:
        assert check(model, w, Box("r", phi)) == check(
            model, w, Not(Diamond("r", Not(phi)))
        )


# ---------------------------------------------------------------------------
# Nominals


def test_nominal_truth_and_at_jump():
    m = KripkeModel(
        ("a", "b"),
        {"r": frozenset({("a", "b")})},
        {"p": frozenset({"b"})},
        noms={"i": "b"},
    )
    assert satisfying_set(m, Nom("i")) == frozenset({"b"})
    assert check(m, "a", At("i", Prop("p")))
    assert check(m, "a", At("i", Nom("i")))
    assert not check(m, "b", At("i", Diamond("r", Top())))


def test_unassigned_nominal_raises():
    m = KripkeModel(("a",))
    with pytest.raises(UnassignedNominalError):
        check(m, "a", Nom("i"))
    with pytest.raises(UnassignedNominalError):
        check(m, "a", At("i", Top()))


def test_errors_follow_the_evaluation_order():
    m = KripkeModel(("a",))
    assert check(m, "a", Or(Top(), Nom("i")))
    assert not check(m, "a", And(Bottom(), At("i", Top())))
    assert not check(m, "a", Diamond("r", Nom("i")))
    with pytest.raises(UnassignedNominalError):
        check(m, "a", And(Top(), Nom("i")))


def test_checks_a_distinguisher_deeper_than_the_recursion_limit():
    """The 600-level distinguisher that bisimilar returns for a 600-world
    chain against a 601-world one is checked on both, without a
    RecursionError."""
    left, right = chain_model(600, "a"), chain_model(601, "b")
    phi = bisimilar(DIALECTS["bml"], left, "a0", right, "b0").distinguisher
    assert check(left, "a0", phi)
    assert not check(right, "b0", phi)


# ---------------------------------------------------------------------------
# Cost


def test_each_subformula_is_evaluated_once_per_memory_and_world(monkeypatch):
    """<r>^5 false over 40 worlds of out-degree about 12: one successor
    lookup per (diamond, world), where the plain recursion makes one per
    path, about 12^5."""
    model = random_model(GenParams(40, 0.3, 0.5, 7, Signature(props=("p",), rels=("r",))))
    phi = Bottom()
    for _ in range(5):
        phi = Diamond("r", phi)
    lookups = []
    real = KripkeModel.successors
    monkeypatch.setattr(
        KripkeModel, "successors", lambda self, rel, w: lookups.append(w) or real(self, rel, w)
    )
    check(model, model.worlds[0], phi)
    assert len(lookups) <= 5 * 40
    for evaluate in (satisfying_set, check_global):
        lookups.clear()
        evaluate(model, phi)
        assert len(lookups) <= 5 * 40


# ---------------------------------------------------------------------------
# Wrappers


def test_eval_config_validates():
    cfg = EvalConfig(DIALECTS["bml"], SIG)
    assert check(LOOP, "a", Diamond("r", Top()), cfg)
    with pytest.raises(OperatorNotInDialectError):
        check(LOOP, "a", Known(), cfg)


@given(models(sig=SIG_NOM, allow_mem=True), formulas(DIALECTS["ml-full"]))
def test_satisfying_set_and_global(model, phi):
    sat = satisfying_set(model, phi)
    assert sat == frozenset(w for w in model.worlds if check(model, w, phi))
    assert check_global(model, phi) == (sat == frozenset(model.worlds))
