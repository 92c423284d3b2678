"""Models, the text format, and the deterministic generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SIG_NOM, models
from modalkit.errors import (
    InvariantViolationError,
    ModelFormatError,
    UnknownWorldError,
)
from modalkit.kripke import (
    GenParams,
    KripkeModel,
    PointedModel,
    SplitMix64,
    load_model,
    mem_add,
    mem_remove,
    mem_wipe,
    random_model,
    save_model,
)
from modalkit.syntax import Signature


# ---------------------------------------------------------------------------
# Construction and helpers


def test_worlds_are_normalized():
    m = KripkeModel(("b", "a"))
    assert m.worlds == ("a", "b")


def test_construction_validation():
    with pytest.raises(InvariantViolationError):
        KripkeModel(())
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a", "a"))
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a",), {"r": frozenset({("a", "b")})})
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a",), val={"p": frozenset({"b"})})
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a",), mem=frozenset({"b"}))
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a",), noms={"i": "b"})
    # name hygiene comes from the signature rules
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a",), val={"rem": frozenset()})
    with pytest.raises(InvariantViolationError):
        KripkeModel(("a",), {"p": frozenset()}, {"p": frozenset()})


def test_successors_sorted():
    m = KripkeModel(("a", "b", "c"), {"r": frozenset({("a", "c"), ("a", "b")})})
    assert m.successors("r", "a") == ("b", "c")
    assert m.successors("r", "b") == ()
    assert m.successors("s", "a") == ()  # undeclared relation is empty


def test_require_world_and_pointed():
    m = KripkeModel(("a",))
    m.require_world("a")
    with pytest.raises(UnknownWorldError):
        m.require_world("z")
    with pytest.raises(UnknownWorldError):
        PointedModel(m, "z")


def test_canonical_equality():
    m1 = KripkeModel(("a", "b"), {"r": frozenset({("a", "b")})}, {"p": frozenset({"a"})})
    m2 = KripkeModel(("b", "a"), {"r": frozenset({("a", "b")})}, {"p": frozenset({"a"})})
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert m1 != KripkeModel(("a", "b"), {"r": frozenset({("a", "b")})})


def test_mem_helpers_return_fresh_models():
    m = KripkeModel(("a", "b"))
    m2 = mem_add(m, "a")
    assert m.mem == frozenset() and m2.mem == {"a"}
    assert mem_remove(m2, "a").mem == frozenset()
    assert mem_wipe(mem_add(m2, "b")).mem == frozenset()
    with pytest.raises(UnknownWorldError):
        mem_add(m, "z")


# ---------------------------------------------------------------------------
# Text format


def test_load_basic():
    text = """
    # a comment
    worlds: a b c
    rel r: a->b b->c   # edges are space-separated
    val p: a
    val q:
    mem: b
    nom i: c
    point: a
    """
    model, point = load_model(text)
    assert point == "a"
    assert model.worlds == ("a", "b", "c")
    assert model.rels == {"r": frozenset({("a", "b"), ("b", "c")})}
    assert model.val == {"p": frozenset({"a"}), "q": frozenset()}
    assert model.mem == frozenset({"b"})
    assert model.noms == {"i": "c"}


def test_empty_payload_declares_name():
    model, _ = load_model("worlds: a\nrel r:\nval p:\n")
    assert model.signature.rels == ("r",)
    assert model.signature.props == ("p",)


@pytest.mark.parametrize(
    "text,line",
    [
        ("rel r: a->b", 1),  # missing worlds
        ("worlds: a\nworlds: b", 2),
        ("worlds: a\nrel r: a", 2),  # malformed edge
        ("worlds: a\nrel r: a->b", 2),  # unknown world
        ("worlds: a\nval p: b", 2),
        ("worlds: a\nfoo: a", 2),
        ("worlds: a\nnom i: a a", 2),
        ("worlds: a\nmem: a\nmem: a", 3),
        ("worlds: a\npoint: a\npoint: a", 3),
        ("worlds: a\npoint: b", 2),
        ("worlds: a\njust some text", 2),  # no colon
        ("worlds:", 1),
        ("worlds: a\nrel r: a->b c", 2),
        ("worlds: a\n: x", 2),  # no directive name
    ],
)
def test_load_errors_carry_line_numbers(text, line):
    with pytest.raises(ModelFormatError) as exc:
        load_model(text)
    assert exc.value.line == line


def test_point_is_optional():
    model, point = load_model("worlds: a\n")
    assert point is None and model.worlds == ("a",)


@given(models(sig=SIG_NOM, allow_mem=True), st.booleans())
def test_save_load_round_trip(model, with_point):
    point = model.worlds[0] if with_point else None
    loaded, loaded_point = load_model(save_model(model, point))
    assert loaded == model
    assert loaded_point == point


def test_save_rejects_unknown_point():
    with pytest.raises(UnknownWorldError):
        save_model(KripkeModel(("a",)), "z")


# ---------------------------------------------------------------------------
# The generator


def test_splitmix64_reference_vectors():
    """First outputs for seed 0, as published with the reference
    implementation (and used by xoshiro's seeding procedure)."""
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_seed_masking():
    assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()


def test_splitmix64_float_and_below():
    g = SplitMix64(42)
    for _ in range(200):
        assert 0.0 <= g.next_float() < 1.0
    for _ in range(200):
        assert 0 <= g.next_below(7) < 7
    with pytest.raises(ValueError):
        g.next_below(0)


def test_gen_params_validation():
    sig = Signature(props=("p",), rels=("r",))
    with pytest.raises(InvariantViolationError):
        GenParams(0, 0.5, 0.5, 1, sig)
    with pytest.raises(InvariantViolationError):
        GenParams(2, 1.5, 0.5, 1, sig)


def test_random_model_is_deterministic():
    sig = Signature(props=("p",), rels=("r",), noms=("i", "j"))
    params = GenParams(n_worlds=4, edge_prob=0.4, prop_prob=0.5, seed=99, sig=sig)
    assert random_model(params) == random_model(params)
    other = GenParams(n_worlds=4, edge_prob=0.4, prop_prob=0.5, seed=100, sig=sig)
    assert random_model(params) != random_model(other)


def test_random_model_world_names_are_zero_padded():
    sig = Signature(rels=("r",))
    m = random_model(GenParams(10, 0.2, 0.5, 7, sig))
    assert m.worlds[0] == "w01" and m.worlds[-1] == "w10"


def test_random_model_nominals_round_robin():
    sig = Signature(rels=("r",), noms=("i", "j", "k"))
    m = random_model(GenParams(2, 0.0, 0.0, 7, sig))
    assert m.noms == {"i": "w1", "j": "w2", "k": "w1"}


def test_random_model_documented_draw_order():
    """The draw order is part of the contract: relations in signature order,
    (source, target) in world order, then propositions by world.  Replaying
    the stream by hand must rebuild the same model."""
    sig = Signature(props=("p", "q"), rels=("r", "s"))
    params = GenParams(n_worlds=3, edge_prob=0.35, prop_prob=0.6, seed=2026, sig=sig)
    got = random_model(params)

    rng = SplitMix64(2026)
    worlds = ("w1", "w2", "w3")
    rels = {}
    for rel in ("r", "s"):
        pairs = set()
        for a in worlds:
            for b in worlds:
                if rng.next_float() < 0.35:
                    pairs.add((a, b))
        rels[rel] = frozenset(pairs)
    val = {}
    for prop in ("p", "q"):
        val[prop] = frozenset(w for w in worlds if rng.next_float() < 0.6)
    assert got == KripkeModel(worlds, rels, val)
