"""Parser, printer, dialect table, and the small formula utilities."""

import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ALL_DIALECTS,
    NESTED,
    SIG,
    SIG_NOM,
    formulas,
    mirror,
    reference_fold,
    reference_print,
    reference_random_formula,
    sig_for,
)
from modalkit import fo, syntax
from modalkit.fo import quantifier_rank
from modalkit.kripke import SplitMix64
from modalkit.suite import _sig_for, random_formula
from modalkit.translate import translate_formula
from modalkit.errors import (
    InvariantViolationError,
    OperatorNotInDialectError,
    ParseError,
    UnknownNameError,
)
from modalkit.syntax import (
    DIALECTS,
    MAX_FORMULA_DEPTH,
    OPERATORS,
    And,
    At,
    Bottom,
    Box,
    DDiamond,
    Diamond,
    Erase,
    Forget,
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
    DBox,
    Formula,
    conjoin,
    disjoin,
    formula_size,
    get_dialect,
    modal_depth,
    parse_formula,
    print_formula,
    validate_formula,
)

# A permissive dialect for parser tests that combine operator families.
ALL = LogicSpec("all", OPERATORS, True)


# ---------------------------------------------------------------------------
# Dialects


def test_dialect_table():
    assert set(DIALECTS) == {
        "bml",
        "bml-minus",
        "hl",
        "hl-at",
        "ml-diamond",
        "ml-ddiamond",
        "ml-forget",
        "ml-erase",
        "ml-full",
    }
    assert DIALECTS["bml"].operators == frozenset({"diamond", "box"})
    assert DIALECTS["bml"].has_negation
    assert DIALECTS["bml-minus"].operators == frozenset({"diamond"})
    assert not DIALECTS["bml-minus"].has_negation
    # bml-minus is the only negation-free dialect
    assert [n for n, s in DIALECTS.items() if not s.has_negation] == ["bml-minus"]
    for name, spec in DIALECTS.items():
        if name.startswith("ml-"):
            assert {"remember", "known"} <= spec.operators
    assert "at" in DIALECTS["hl-at"].operators
    assert "at" not in DIALECTS["hl"].operators
    assert get_dialect("bml") is DIALECTS["bml"]
    with pytest.raises(UnknownNameError):
        get_dialect("s5")


def test_logic_spec_invariants():
    with pytest.raises(InvariantViolationError):
        LogicSpec("bad", frozenset({"known"}))  # memory op without remember
    with pytest.raises(InvariantViolationError):
        LogicSpec("bad", frozenset({"ddiamond"}))
    with pytest.raises(InvariantViolationError):
        LogicSpec("bad", frozenset({"at"}))  # at without nominal
    with pytest.raises(InvariantViolationError):
        LogicSpec("bad", frozenset({"tomorrow"}))


def test_signature_validation():
    with pytest.raises(InvariantViolationError):
        Signature(props=("p", "p"))
    with pytest.raises(InvariantViolationError):
        Signature(props=("rem",))  # reserved word
    with pytest.raises(InvariantViolationError):
        Signature(props=("p",), rels=("p",))  # one name, two roles
    with pytest.raises(InvariantViolationError):
        Signature(props=("2p",))
    with pytest.raises(InvariantViolationError):
        Signature(props=("",))
    sig = Signature(props=("p_1",), rels=("r",), noms=("i",))
    assert sig.props == ("p_1",)


# ---------------------------------------------------------------------------
# Parsing


PARSE_CASES = [
    ("p", Prop("p")),
    ("true", Top()),
    ("false", Bottom()),
    ("known", Known()),
    ("'i", Nom("i")),
    ("~p", Not(Prop("p"))),
    ("~~p", Not(Not(Prop("p")))),
    ("((p))", Prop("p")),
    ("~p & q", And(Not(Prop("p")), Prop("q"))),
    ("p & q & p", And(And(Prop("p"), Prop("q")), Prop("p"))),
    ("p | q & p", Or(Prop("p"), And(Prop("q"), Prop("p")))),
    ("(p | q) & p", And(Or(Prop("p"), Prop("q")), Prop("p"))),
    ("p -> q -> p", Implies(Prop("p"), Implies(Prop("q"), Prop("p")))),
    ("p <-> q -> p", Iff(Prop("p"), Implies(Prop("q"), Prop("p")))),
    ("<r>p & [r]q", And(Diamond("r", Prop("p")), Box("r", Prop("q")))),
    ("<r><r>p", Diamond("r", Diamond("r", Prop("p")))),
    ("<<r>>~known", DDiamond("r", Not(Known()))),
    ("rem <r>known", Remember(Diamond("r", Known()))),
    ("forg erase p", Forget(Erase(Prop("p")))),
    ("@i 'i", At("i", Nom("i"))),
    ("'i & @i p", And(Nom("i"), At("i", Prop("p")))),
    ("~rem <r>~known", Not(Remember(Diamond("r", Not(Known()))))),
]


@pytest.mark.parametrize("text,expected", PARSE_CASES)
def test_parse(text, expected):
    assert parse_formula(text, SIG_NOM, ALL) == expected


@pytest.mark.parametrize("text,expected", PARSE_CASES)
def test_print_parse_round_trip(text, expected):
    assert parse_formula(print_formula(expected), SIG_NOM, ALL) == expected


def test_comments_and_whitespace():
    assert parse_formula("p &  # a comment\n q", SIG, DIALECTS["bml"]) == And(
        Prop("p"), Prop("q")
    )
    # the lexer is token-based, so spacing inside brackets is harmless
    assert parse_formula("< r >p", SIG, DIALECTS["bml"]) == Diamond("r", Prop("p"))


@pytest.mark.parametrize(
    "text",
    ["", "p &", "p q", ")", "(p", "<>p", "@", "@p", "[r>p", "&p", "p <- q"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text, SIG_NOM, ALL)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p & & q", SIG, DIALECTS["bml"])
    assert "4" in str(exc.value)  # the offending column


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_limit(shape):
    make = NESTED[shape]
    phi = parse_formula(make(MAX_FORMULA_DEPTH), SIG, DIALECTS["bml"])
    assert parse_formula(print_formula(phi), SIG, DIALECTS["bml"]) == phi
    for n in (MAX_FORMULA_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match="levels of nesting"):
            parse_formula(make(n), SIG, DIALECTS["bml"])


def test_nesting_counts_every_path():
    # each part alone fits; the chain puts the deep negation one level lower
    deep = "~" * MAX_FORMULA_DEPTH + "p"
    parse_formula(deep, SIG, DIALECTS["bml"])
    with pytest.raises(ParseError):
        parse_formula(deep + " & q", SIG, DIALECTS["bml"])
    with pytest.raises(ParseError):
        parse_formula("q | (" + deep[1:] + ")", SIG, DIALECTS["bml"])


def test_unknown_names():
    with pytest.raises(UnknownNameError):
        parse_formula("z", SIG, DIALECTS["bml"])
    with pytest.raises(UnknownNameError):
        parse_formula("<s>p", SIG, DIALECTS["bml"])
    with pytest.raises(UnknownNameError):
        parse_formula("'j", SIG_NOM, DIALECTS["hl"])


@pytest.mark.parametrize(
    "text,dialect",
    [
        ("~p", "bml-minus"),
        ("p -> q", "bml-minus"),
        ("p <-> q", "bml-minus"),
        ("[r]p", "bml-minus"),
        ("<<r>>p", "bml"),
        ("rem p", "hl"),
        ("known", "bml"),
        ("@i p", "ml-full"),
        ("'i", "bml"),
        ("forg p", "ml-diamond"),
        ("erase p", "ml-forget"),
    ],
)
def test_operator_gating(text, dialect):
    sig = Signature(props=("p", "q"), rels=("r",), noms=("i",))
    with pytest.raises((OperatorNotInDialectError, UnknownNameError)):
        parse_formula(text, sig, DIALECTS[dialect])


def test_validate_formula_direct():
    with pytest.raises(OperatorNotInDialectError):
        validate_formula(Known(), SIG, DIALECTS["bml"])
    with pytest.raises(UnknownNameError):
        validate_formula(Prop("z"), SIG, DIALECTS["bml"])
    validate_formula(And(Prop("p"), Diamond("r", Top())), SIG, DIALECTS["bml-minus"])


@given(formulas(DIALECTS["ml-full"]))
def test_round_trip_ml_full(phi):
    assert parse_formula(print_formula(phi), sig_for(DIALECTS["ml-full"]), DIALECTS["ml-full"]) == phi


@given(formulas(DIALECTS["hl-at"]))
def test_round_trip_hl_at(phi):
    assert parse_formula(print_formula(phi), SIG_NOM, DIALECTS["hl-at"]) == phi


@given(formulas(DIALECTS["bml-minus"]))
def test_round_trip_bml_minus(phi):
    assert parse_formula(print_formula(phi), SIG, DIALECTS["bml-minus"]) == phi


# ---------------------------------------------------------------------------
# Measures and builders


def test_modal_depth():
    assert modal_depth(Prop("p")) == 0
    assert modal_depth(Diamond("r", Diamond("r", Top()))) == 2
    assert modal_depth(Box("r", Prop("p"))) == 1
    assert modal_depth(DDiamond("r", Known())) == 1
    # memory operators, @ and negation are silent
    phi = Remember(Forget(Erase(At("i", Not(Diamond("r", Nom("i")))))))
    assert modal_depth(phi) == 1
    assert modal_depth(And(Diamond("r", Top()), Prop("p"))) == 1


@given(formulas(DIALECTS["ml-full"]))
def test_silent_wrappers_do_not_add_depth(phi):
    assert modal_depth(Remember(phi)) == modal_depth(phi)
    assert modal_depth(Not(phi)) == modal_depth(phi)
    assert modal_depth(Diamond("r", phi)) == modal_depth(phi) + 1


def test_formula_size():
    assert formula_size(Top()) == 1
    assert formula_size(And(Prop("p"), Not(Prop("q")))) == 4
    assert formula_size(Remember(Diamond("r", Known()))) == 3


def test_conjoin_disjoin():
    p, q = Prop("p"), Prop("q")
    assert conjoin([]) == Top()
    assert disjoin([]) == Bottom()
    assert conjoin([p, p]) == p
    assert print_formula(conjoin([q, p])) == "p & q"  # sorted by rendered text
    assert print_formula(disjoin([q, p, q])) == "p | q"
    assert conjoin([p]) == p


# Every unary operator, and the dual form ``modality`` writes for a missing one.
UNARY_BUILDERS = [
    Not,
    partial(Diamond, "r"),
    partial(Box, "r"),
    partial(DDiamond, "r"),
    partial(DBox, "r"),
    Remember,
    Forget,
    Erase,
    partial(At, "i"),
    lambda sub: Not(Box("r", Not(sub))),
]


def _cold(phi: Formula) -> Formula:
    """phi rebuilt from new nodes, none of which has been printed."""
    args = (getattr(phi, f.name) for f in fields(phi))
    return type(phi)(*(_cold(a) if isinstance(a, Formula) else a for a in args))


@given(formulas(ALL, SIG_NOM))
def test_printer_matches_the_reference(phi):
    """print_formula keeps the printed formula's text on it; what it prints
    equals the plain recursive reference printer's text on a cold formula,
    on a second print, and on binary formulas built over parts printed
    before, whatever the precedence of the context they land in."""
    expected = reference_print(phi)
    cold = _cold(phi)
    assert print_formula(cold) == expected
    assert print_formula(cold) == expected
    assert cold == phi and hash(cold) == hash(phi) and repr(cold) == repr(phi)
    for cls in (And, Or, Implies, Iff):
        for left, right in ((cold, _cold(phi)), (_cold(phi), cold), (cold, cold)):
            assert print_formula(cls(left, right)) == reference_print(cls(phi, phi))


@given(formulas(ALL, SIG_NOM))
def test_wrap_is_the_printers_unary_rule(phi):
    """Every unary operator parenthesizes its operand as the reference
    printer does, whether the operand was printed before or not."""
    printed = _cold(phi)
    print_formula(printed)
    for build in UNARY_BUILDERS:
        expected = reference_print(build(phi))
        assert print_formula(build(_cold(phi))) == expected
        assert print_formula(build(printed)) == expected


@given(st.lists(formulas(ALL, SIG_NOM, max_leaves=4), max_size=4))
def test_sorted_folds_carry_the_printed_text(parts):
    """conjoin and disjoin sort and deduplicate their parts by printed text,
    and the fold prints as the reference printer prints it, cold or over
    parts printed before."""
    for fold, cls, empty in ((conjoin, And, Top()), (disjoin, Or, Bottom())):
        expected = reference_fold(parts, cls, empty)
        cold = fold([_cold(p) for p in parts])
        printed = [_cold(p) for p in parts]
        for p in printed:
            print_formula(p)
        warm = fold(printed)
        assert cold == expected and warm == expected
        for folded in (cold, warm):
            assert print_formula(folded) == reference_print(expected)
            assert print_formula(Not(folded)) == reference_print(Not(expected))


# ---------------------------------------------------------------------------
# The syntax table


def _instance(cls) -> Formula:
    """One node of cls over SIG_NOM: relation r, nominal i, proposition p,
    and p for every subformula."""
    names = {"rel": "r", "nom": "i", "name": "i" if cls is Nom else "p"}
    return cls(*(names.get(f.name, Prop("p")) for f in fields(cls)))


def test_every_node_has_one_printer_entry():
    """The printer reads each node's form from exactly one table (infix,
    prefix, or atom: the words, Prop and Nom), and the parser reads the
    printed form of one node of each class back."""
    nodes = Formula.__subclasses__()
    tables = (syntax._INFIX, syntax._PREFIX, syntax._ATOMS)
    assert {cls for table in tables for cls in table} == set(nodes)
    for cls in nodes:
        assert sum(cls in table for table in tables) == 1, cls
        phi = _instance(cls)
        assert parse_formula(print_formula(phi), SIG_NOM, ALL) == phi


WALKERS = [formula_size, modal_depth, quantifier_rank, partial(validate_formula, sig=SIG, spec=ALL)]


@pytest.mark.parametrize("walker", WALKERS, ids=["size", "depth", "rank", "validate"])
@pytest.mark.parametrize("thing", [None, 1, "p", SIG, Not("p")])
def test_walkers_reject_what_is_no_formula(walker, thing):
    """A walker takes its subformulas from the fields a node declares as
    formulas, so a non-formula there raises as one at the top does."""
    with pytest.raises(TypeError):
        walker(thing)


def test_random_formula_draws_as_the_reference():
    """The generator builds the drawn class from its fields and draws as the
    reference does: the same formulas and the same final generator state
    for every dialect, seeds 0-299 and depths 0-5 drawn in turn."""
    for name in ALL_DIALECTS:
        spec = DIALECTS[name]
        sig = _sig_for(spec)
        for seed in range(300):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            for depth in range(6):
                phi = random_formula(spec, sig, rng, depth)
                expected = reference_random_formula(spec, sig, ref, depth)
                assert print_formula(phi) == print_formula(expected), (name, seed, depth)
            assert rng.state == ref.state, (name, seed)


@given(formulas(ALL, SIG_NOM, max_leaves=4), formulas(ALL, SIG_NOM, max_leaves=4))
def test_node_methods_match_the_dataclass_ones(phi, psi):
    """==, hash and repr of modal and first-order nodes give what the
    dataclass-generated methods of their mirrors give; a node pickles
    without its kept hash and text."""
    fo_phi = translate_formula(phi)
    pairs = [(phi, psi), (phi, _cold(phi)), (fo_phi, translate_formula(psi)), (fo_phi, translate_formula(phi))]
    for a, b in pairs:
        assert (a == b) == (mirror(a) == mirror(b))
        assert (a != b) == (mirror(a) != mirror(b))
        assert hash(a) == hash(mirror(a)) and repr(a) == repr(mirror(a))
        assert a != mirror(a) and a != 1
    print_formula(phi)
    clone = pickle.loads(pickle.dumps(phi))
    assert clone == phi and "_hash" not in vars(clone) and "_text" not in vars(clone)


# ---------------------------------------------------------------------------
# The node contract

# Every formula node class with its fields as ``dataclasses.fields`` lists
# them: (name, annotation) pairs.
_SUB, _FO_SUB = ("sub", "Formula"), ("sub", "FOFormula")
_BINARY = (("left", "Formula"), ("right", "Formula"))
_FO_BINARY = (("left", "FOFormula"), ("right", "FOFormula"))
NODE_FIELDS = {
    **dict.fromkeys([Formula, Top, Bottom, Known], ()),
    Prop: (("name", "str"),),
    Nom: (("name", "str"),),
    **dict.fromkeys([Not, Remember, Forget, Erase], (_SUB,)),
    **dict.fromkeys([And, Or, Implies, Iff], _BINARY),
    **dict.fromkeys([Diamond, Box, DDiamond, DBox], (("rel", "str"), _SUB)),
    At: (("nom", "str"), _SUB),
    **dict.fromkeys([fo.FOFormula, fo.Top, fo.Bottom], ()),
    fo.Pred: (("name", "str"), ("arg", "Term")),
    fo.Rel: (("name", "str"), ("left", "Term"), ("right", "Term")),
    fo.Eq: (("left", "Term"), ("right", "Term")),
    fo.Not: (_FO_SUB,),
    **dict.fromkeys([fo.And, fo.Or, fo.Implies, fo.Iff], _FO_BINARY),
    **dict.fromkeys([fo.Exists, fo.Forall], (("var", "str"), _FO_SUB)),
}
_SAMPLE = {"str": "x", "Formula": Prop("p"), "FOFormula": fo.Top(), "Term": fo.Var("y")}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_node_fields_cover_every_node_class():
    assert set(_subclasses(syntax._Node)) == set(NODE_FIELDS)


@pytest.mark.parametrize("cls", NODE_FIELDS, ids=lambda cls: f"{cls.__module__[9:]}.{cls.__name__}")
def test_nodes_keep_the_frozen_dataclass_contract(cls):
    """A node class is a dataclass with its fields and their signature; a
    node takes exactly its fields, by position or name, refuses assignment
    and deletion as a frozen dataclass does, and pickles to an equal node."""
    assert is_dataclass(cls)
    assert tuple((f.name, f.type) for f in fields(cls)) == NODE_FIELDS[cls]
    typed = ", ".join(f"{name}: {kind!r}" for name, kind in NODE_FIELDS[cls])
    assert str(inspect.signature(cls)).replace(" -> None", "") == f"({typed})"
    values = {name: _SAMPLE[kind] for name, kind in NODE_FIELDS[cls]}
    node = cls(*values.values())
    assert cls(**values) == node and tuple(map(node.__getattribute__, values)) == tuple(values.values())
    for name in (*values, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(node, name)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    if values:
        with pytest.raises(TypeError):
            cls(*list(values.values())[1:])
    clone = pickle.loads(pickle.dumps(node))
    assert type(clone) is cls and clone == node and fields(clone) == fields(node)
