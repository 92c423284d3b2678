"""Fuzz tests of the error contract.

Text drawn from the model format's and the formula grammar's own tokens
reaches deep into the loader and the parser; whatever it is, only
``ModalkitError`` may escape them, and every subcommand of the CLI must
answer 0, 1 or 2.  The models name at most three worlds and every other size
is bounded, so every command the fuzzer drives stays small.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIG_NOM
from modalkit import cli
from modalkit.errors import ModalkitError
from modalkit.kripke import load_model
from modalkit.syntax import _SYMBOLS, DIALECTS, RESERVED_WORDS, parse_formula

# Directive lines and formulas are built from the grammars' own pieces,
# mostly well formed, with a few malformed pieces mixed in; token soup
# covers the rest.
_HEADS = ["worlds", "rel r", "val p", "nom i", "mem", "point", "rel", "val p q", "p", " "]
_PAYLOAD = ["a", "b", "c", "a->b", "b->c", "c->a", "a->a", "->", "a->", ":", "#"]

_worlds = st.lists(st.sampled_from("abc"), max_size=3, unique=True).map(" ".join)
_edges = st.lists(st.sampled_from(["a->b", "b->c", "c->a", "a->a", "b->b"]), max_size=3)
_good_lines = st.one_of(
    _edges.map(lambda edges: "rel r: " + " ".join(edges)),
    st.tuples(st.sampled_from(["val p", "val q", "mem"]), _worlds).map(": ".join),
    st.sampled_from("abc").map(lambda w: f"nom i: {w}"),
)
_any_lines = st.one_of(
    _good_lines,
    st.tuples(
        st.sampled_from(_HEADS),
        st.sampled_from([":", ""]),
        st.lists(st.sampled_from(_PAYLOAD), max_size=4).map(" ".join),
    ).map(lambda t: f"{t[0]}{t[1]} {t[2]}"),
)

model_texts = st.one_of(
    st.lists(_good_lines, max_size=4, unique_by=lambda line: line.split(":")[0]).map(
        lambda lines: "\n".join(["worlds: a b c", "point: a", *lines])
    ),
    st.tuples(
        st.sampled_from(["worlds: a b c\n", "worlds: a b\npoint: a\n", ""]),
        st.lists(_any_lines, max_size=4).map("\n".join),
    ).map("".join),
    st.lists(st.sampled_from(_HEADS + _PAYLOAD + [":", "\n"]), max_size=20).map("".join),
)

_ATOMS = ["p", "q", "true", "false", "known", "'i", "r", "i", "'p", ""]
_PREFIX = ["~", "<r>", "[r]", "<<r>>", "[[r]]", "rem ", "forg ", "erase ", "@i ", "<p>", "@p ", "(", "<r"]
_INFIX = [" & ", " | ", " -> ", " <-> ", " ", "~"]

formula_texts = st.one_of(
    st.recursive(
        st.sampled_from(_ATOMS),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(_PREFIX), sub).map("".join),
            st.tuples(sub, st.sampled_from(_INFIX), sub).map("".join),
            sub.map(lambda text: f"({text})"),
        ),
        max_leaves=8,
    ),
    st.lists(
        st.sampled_from(sorted(RESERVED_WORDS) + list(_SYMBOLS) + ["p", "q", "r", "i", " "]),
        max_size=12,
    ).map("".join),
)

dialects = st.sampled_from(sorted(DIALECTS))


@given(model_texts)
def test_load_model_raises_only_modalkit_errors(text):
    try:
        load_model(text)
    except ModalkitError:
        pass


@given(formula_texts, dialects)
def test_parse_formula_raises_only_modalkit_errors(text, name):
    try:
        parse_formula(text, SIG_NOM, DIALECTS[name])
    except ModalkitError:
        pass


# Argument values for the subcommands that take no formula: in and out of
# range, and names that are not valid identifiers.
_names = st.lists(st.sampled_from(["p", "q", "r", "i", "true", "w1", "a b", "<r>", ""]), max_size=3)
_probs = st.sampled_from(["0", "0.3", "1", "-0.5", "2", "nan"])
_members = st.sampled_from(["left", "right", "left,right", "right,nope", "", ","])


@settings(max_examples=300)
@given(
    st.sampled_from(
        ["check", "bisim", "minimize", "translate", "game", "define", "random", "suite"]
    ),
    model_texts,
    model_texts,
    formula_texts,
    dialects,
    st.sampled_from([[], ["a"], ["z"]]),
    st.data(),
)
def test_main_exits_with_a_contract_code(
    tmp_path_factory, command, left, right, formula, name, world, data
):
    directory = tmp_path_factory.mktemp("fuzz")
    left_path, right_path = directory / "left.km", directory / "right.km"
    left_path.write_text(left, encoding="utf-8")
    right_path.write_text(right, encoding="utf-8")
    # Every size is bounded: models of at most three worlds, at most three
    # rounds, depth 2, a budget of 300 formulas, five random worlds and two
    # suite cases, so no example can start a large search.
    argv = {
        "check": lambda: [
            "check", "-m", str(left_path), f"--formula={formula}", f"--dialect={name}"
        ]
        + [f"--world={w}" for w in world],
        "bisim": lambda: ["bisim", str(left_path), str(right_path), f"--dialect={name}"]
        + [f"--left-world={w}" for w in world],
        "minimize": lambda: ["minimize", "-m", str(left_path)],
        "translate": lambda: [
            "translate", "-m", str(left_path), f"--formula={formula}", f"--dialect={name}"
        ],
        "game": lambda: ["game", str(left_path), str(right_path), f"--dialect={name}"]
        + [f"--left-world={w}" for w in world]
        + data.draw(st.sampled_from([[], *([f"--rounds={k}"] for k in range(-1, 4))])),
        "define": lambda: [
            "define",
            f"--universe={directory}",
            f"--members={data.draw(_members)}",
            f"--depth={data.draw(st.integers(-1, 2))}",
            f"--budget={data.draw(st.integers(-1, 300))}",
            f"--dialect={name}",
        ],
        "random": lambda: [
            "random",
            f"--worlds={data.draw(st.integers(-1, 5))}",
            f"--seed={data.draw(st.integers(-5, 2**64))}",
            f"--edge-prob={data.draw(_probs)}",
            f"--prop-prob={data.draw(_probs)}",
            *(f"--{role}={','.join(data.draw(_names))}" for role in ("props", "rels", "noms")),
        ]
        + data.draw(st.sampled_from([[], ["--point"]])),
        "suite": lambda: [
            "suite",
            f"--cases={data.draw(st.integers(-1, 2))}",
            f"--seed={data.draw(st.integers(-5, 2**64))}",
        ],
    }[command]()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
