"""The modal-to-first-order translation, in both directions.

Clause shapes are pinned as printed strings (the trail unwinding for memory
operators is easy to get subtly wrong, so the nested conditionals are spelled
out); the semantic guarantee — the model checker and the first-order checker
agree on translated inputs — is a hypothesis property over every dialect.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIG, SIG_NOM, formulas, models, sig_for
from modalkit.errors import (
    InvariantViolationError,
    ShapeMismatchError,
    UnknownWorldError,
)
from modalkit.fo import FOStructure, fo_check, fo_print, quantifier_rank
from modalkit.kripke import KripkeModel, PointedModel
from modalkit.semantics import check
from modalkit.syntax import DIALECTS, OPERATORS, LogicSpec, modal_depth, parse_formula
from modalkit.translate import (
    MEMORY_PRED,
    translate_formula,
    translate_model,
    untranslate_model,
)

ALL = LogicSpec("all", OPERATORS, True)


def _st(text: str) -> str:
    return fo_print(translate_formula(parse_formula(text, SIG_NOM, ALL)))


# Classical clauses, memory trails, and @-recentring, pinned one by one.
CLAUSES = [
    ("p", "(p x)"),
    ("true", "true"),
    ("'i", "(= x i)"),
    ("~p | q", "(or (not (p x)) (q x))"),
    ("p -> q", "(implies (p x) (q x))"),
    ("p <-> q", "(iff (p x) (q x))"),
    ("<r>p", "(exists y0 (and (r x y0) (p y0)))"),
    ("[r]p", "(forall y0 (implies (r x y0) (p y0)))"),
    ("<r>[r]p", "(exists y0 (and (r x y0) (forall y1 (implies (r y0 y1) (p y1)))))"),
    ("known", "(K x)"),
    ("rem known", "(or (= x x) (K x))"),
    ("forg known", "(and (not (= x x)) (K x))"),
    ("erase known", "false"),
    ("rem forg known", "(and (not (= x x)) (or (= x x) (K x)))"),
    ("erase rem known", "(or (= x x) false)"),
    ("rem <r>known", "(exists y0 (and (r x y0) (or (= y0 x) (K y0))))"),
    ("<<r>>known", "(exists y0 (and (r x y0) (or (= y0 x) (K y0))))"),
    ("[[r]]known", "(forall y0 (implies (r x y0) (or (= y0 x) (K y0))))"),
    ("<<r>><<r>>known", "(exists y0 (and (r x y0) (exists y1 (and (r y0 y1) (or (= y1 y0) (or (= y1 x) (K y1)))))))"),
    ("@i p", "(p i)"),
    ("@i <r>'i", "(exists y0 (and (r i y0) (= y0 i)))"),
    ("rem @i known", "(or (= i x) (K i))"),
]


@pytest.mark.parametrize("text,expected", CLAUSES)
def test_translation_clauses(text, expected):
    assert _st(text) == expected


def test_fresh_variables_run_left_to_right():
    assert _st("<r><r>p & <r>q") == (
        "(and (exists y0 (and (r x y0) (exists y1 (and (r y0 y1) (p y1))))) "
        "(exists y2 (and (r x y2) (q y2))))"
    )


def test_biconditional_chain_translates_linearly():
    """Each <-> becomes one iff node, so both sides are printed once."""
    text = " <-> ".join(["p", "<r>q"] * 8 + ["p"])  # 16 links
    phi = parse_formula(text, SIG_NOM, ALL)
    translated = translate_formula(phi)
    assert len(fo_print(translated)) < 2048
    model = _two_world()
    for w in model.worlds:
        structure, assignment = translate_model(model, w, SIG_NOM)
        assert fo_check(structure, assignment, translated) == check(model, w, phi)


@given(st.data())
def test_quantifier_rank_is_modal_depth(data):
    """Every relation-traversing modality spends exactly one quantifier;
    memory operators and @ are quantifier-free."""
    name = data.draw(st.sampled_from(sorted(DIALECTS)))
    phi = data.draw(formulas(DIALECTS[name], max_leaves=8))
    assert quantifier_rank(translate_formula(phi)) == modal_depth(phi)


# ---------------------------------------------------------------------------
# Model translation


def _two_world() -> KripkeModel:
    return KripkeModel(
        ("u", "v"),
        {"r": frozenset({("u", "v")})},
        {"p": frozenset({"u"}), "q": frozenset()},
        frozenset({"v"}),
        {"i": "u"},
    )


def test_translate_model_shape():
    model = _two_world()
    structure, assignment = translate_model(model, "u", SIG_NOM)
    assert assignment == {"x": "u"}
    assert structure.domain == ("u", "v")
    assert structure.unary == {
        "p": frozenset({"u"}),
        "q": frozenset(),
        MEMORY_PRED: frozenset({"v"}),
    }
    assert structure.binary == {"r": frozenset({("u", "v")})}
    assert structure.consts == {"i": "u"}


def test_translate_model_defaults_to_model_vocabulary():
    model = _two_world()
    structure, _ = translate_model(model, "v")
    assert set(structure.unary) == {"p", "q", MEMORY_PRED}
    assert set(structure.consts) == {"i"}


def test_translate_model_errors():
    model = _two_world()
    with pytest.raises(UnknownWorldError):
        translate_model(model, "nowhere")
    clash = KripkeModel(("w",), {}, {MEMORY_PRED: frozenset({"w"})})
    with pytest.raises(InvariantViolationError):
        translate_model(clash, "w")
    bare = KripkeModel(("w",), {"r": frozenset()}, {"p": frozenset()})
    with pytest.raises(InvariantViolationError):
        translate_model(bare, "w", SIG_NOM)  # the signature nominal is unassigned


@given(models(sig=SIG_NOM, allow_mem=True), st.data())
def test_untranslate_inverts_translate(model, data):
    world = data.draw(st.sampled_from(model.worlds))
    pointed = untranslate_model(*translate_model(model, world, SIG_NOM), SIG_NOM)
    assert pointed == PointedModel(model, world)


def test_untranslate_shape_errors():
    ok = FOStructure(
        ("u",),
        unary={"p": frozenset(), "q": frozenset(), MEMORY_PRED: frozenset()},
        binary={"r": frozenset()},
        consts={"i": "u"},
    )
    untranslate_model(ok, {"x": "u"}, SIG_NOM)

    no_k = FOStructure(("u",), unary={"p": frozenset(), "q": frozenset()}, binary={"r": frozenset()}, consts={"i": "u"})
    with pytest.raises(ShapeMismatchError):
        untranslate_model(no_k, {"x": "u"}, SIG_NOM)
    with pytest.raises(ShapeMismatchError):
        untranslate_model(no_k, {"x": "u"})  # even unchecked, K must exist

    extra = FOStructure(
        ("u",),
        unary={"p": frozenset(), "q": frozenset(), "s": frozenset(), MEMORY_PRED: frozenset()},
        binary={"r": frozenset()},
        consts={"i": "u"},
    )
    with pytest.raises(ShapeMismatchError):
        untranslate_model(extra, {"x": "u"}, SIG_NOM)

    wrong_rel = FOStructure(
        ("u",),
        unary={"p": frozenset(), "q": frozenset(), MEMORY_PRED: frozenset()},
        binary={"s": frozenset()},
        consts={"i": "u"},
    )
    with pytest.raises(ShapeMismatchError):
        untranslate_model(wrong_rel, {"x": "u"}, SIG_NOM)

    no_const = FOStructure(
        ("u",),
        unary={"p": frozenset(), "q": frozenset(), MEMORY_PRED: frozenset()},
        binary={"r": frozenset()},
    )
    with pytest.raises(ShapeMismatchError):
        untranslate_model(no_const, {"x": "u"}, SIG_NOM)

    with pytest.raises(ShapeMismatchError):
        untranslate_model(ok, {"y": "u"}, SIG_NOM)
    with pytest.raises(ShapeMismatchError):
        untranslate_model(ok, {"x": "u", "y": "u"}, SIG_NOM)


# ---------------------------------------------------------------------------
# Truth preservation


@settings(max_examples=120)
@given(st.data())
def test_translation_preserves_truth(data):
    """check(M, w |= phi) == fo_check(ST(M), x:=w |= ST(phi)) on every
    dialect, including memory contents carried into the K predicate."""
    name = data.draw(st.sampled_from(sorted(DIALECTS)))
    spec = DIALECTS[name]
    sig = sig_for(spec)
    model = data.draw(models(sig=sig, allow_mem=spec.allows("known")))
    world = data.draw(st.sampled_from(model.worlds))
    phi = data.draw(formulas(spec, sig))
    structure, assignment = translate_model(model, world, sig)
    assert check(model, world, phi) == fo_check(
        structure, assignment, translate_formula(phi)
    )
