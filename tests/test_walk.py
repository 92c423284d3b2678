"""Formula walkers on one explicit stack.

Every walker agrees with its plain recursion, kept in conftest as the
reference, on random formulas of every dialect; and every public function
that takes a modal or first-order formula accepts one nested far deeper than
Python's recursion limit.
"""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_DIALECTS,
    SIG,
    chain_model,
    formulas,
    models,
    reference_eval,
    reference_fo_print,
    reference_formula_size,
    reference_meaning,
    reference_modal_depth,
    reference_quantifier_rank,
    reference_translate_formula,
    reference_validate_formula,
    sig_for,
)
from modalkit.enumeration import EvalContext
from modalkit.equivalence import bisimilar
from modalkit.errors import ModalkitError
from modalkit.fo import fo_check, fo_print, quantifier_rank
from modalkit.kripke import KripkeModel
from modalkit.semantics import EvalConfig, check, check_global, eval_at, satisfying_set
from modalkit.syntax import (
    DIALECTS,
    Diamond,
    Known,
    Not,
    Prop,
    Remember,
    Signature,
    Top,
    formula_size,
    modal_depth,
    print_formula,
    validate_formula,
)
from modalkit.translate import translate_formula, translate_model


def _outcome(f, *args):
    """f's value, or the type and message of the error it raised."""
    try:
        return f(*args)
    except ModalkitError as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", ALL_DIALECTS)
@settings(max_examples=40)
@given(data=st.data())
def test_walkers_match_their_recursive_references(name, data):
    spec = DIALECTS[name]
    sig = sig_for(spec)
    phi = data.draw(formulas(spec, sig))
    model = data.draw(models(sig=sig, allow_mem=spec.allows("known")))
    assert modal_depth(phi) == reference_modal_depth(phi)
    assert formula_size(phi) == reference_formula_size(phi)
    # validated against every dialect and smaller signatures, so that every
    # error the validator raises is compared too
    for other in DIALECTS.values():
        for s in (sig, Signature(props=("p",), rels=("r",)), Signature()):
            assert _outcome(validate_formula, phi, s, other) == _outcome(
                reference_validate_formula, phi, s, other
            )
    for ctx in (EvalContext(spec, [model]), EvalContext(DIALECTS["bml"], [model])):
        assert _outcome(ctx.meaning, phi) == _outcome(reference_meaning, ctx, phi)
    fo_phi = translate_formula(phi)
    assert fo_phi == reference_translate_formula(phi)
    assert fo_print(fo_phi) == reference_fo_print(fo_phi)
    assert quantifier_rank(fo_phi) == reference_quantifier_rank(fo_phi)
    for w in model.worlds:
        structure, assignment = translate_model(model, w, sig)
        assert fo_check(structure, assignment, fo_phi) == reference_eval(
            structure, dict(assignment), fo_phi
        )


# ---------------------------------------------------------------------------
# Depth

DEPTH = 10_000


def _chain(op, leaf):
    phi = leaf
    for _ in range(DEPTH):
        phi = op(phi)
    return phi


def _diamond_fo_text() -> str:
    parts, term = [], "x"
    for k in range(DEPTH):
        parts.append(f"(exists y{k} (and (r {term} y{k}) ")
        term = f"y{k}"
    return "".join(parts) + "true" + "))" * DEPTH


# shape -> (formula builder, its text, modal depth, its translation's text)
CHAINS = {
    "negation": (
        lambda: _chain(Not, Prop("p")),
        "~" * DEPTH + "p",
        0,
        lambda: "(not " * DEPTH + "(p x)" + ")" * DEPTH,
    ),
    "diamond": (
        lambda: _chain(partial(Diamond, "r"), Top()),
        "<r>" * DEPTH + "true",
        DEPTH,
        _diamond_fo_text,
    ),
    "remember": (
        lambda: _chain(Remember, Known()),
        "rem " * DEPTH + "known",
        0,
        lambda: "(or (= x x) " * DEPTH + "(K x)" + ")" * DEPTH,
    ),
}

# one world that satisfies p and sees itself: every chain holds there
LOOP = KripkeModel(("w",), {"r": frozenset({("w", "w")})}, {"p": frozenset({"w"})})


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_every_walker_takes_a_formula_deeper_than_the_recursion_limit(shape, low_recursion_limit):
    build, text, depth, fo_text = CHAINS[shape]
    spec = DIALECTS["ml-full"]
    phi = build()
    assert print_formula(phi) == text  # cold: no part printed yet
    assert modal_depth(phi) == depth
    assert formula_size(phi) == DEPTH + 1
    validate_formula(phi, SIG, spec)
    config = EvalConfig(spec, SIG)
    assert check(LOOP, "w", phi, config)
    assert check_global(LOOP, phi, config)
    assert satisfying_set(LOOP, phi, config) == {"w"}
    assert eval_at(LOOP, frozenset(), "w", phi)
    ctx = EvalContext(spec, [LOOP])
    assert ctx.meaning(phi) == ctx.full
    fo_phi = translate_formula(phi)
    assert fo_print(fo_phi) == fo_text()
    assert quantifier_rank(fo_phi) == depth
    assert fo_check(*translate_model(LOOP, "w", SIG), fo_phi)


def test_the_chain_distinguisher_goes_through_translation(low_recursion_limit):
    """The distinguisher of a 300-world r-chain against a 301-world one
    nests 300 modalities; check and fo_check of its translation agree on
    both chains, with no frame per level."""
    left, right = chain_model(300, "a"), chain_model(301, "b")
    phi = bisimilar(DIALECTS["bml"], left, "a0", right, "b0").distinguisher
    fo_phi = translate_formula(phi)
    for model, world, truth in ((left, "a0", True), (right, "b0", False)):
        assert check(model, world, phi) is truth
        assert fo_check(*translate_model(model, world), fo_phi) is truth


# leaf, and another leaf, of each chain shape
LEAVES = {"negation": (Prop("p"), Prop("q")), "diamond": (Top(), Known()), "remember": (Known(), Top())}
BUILDERS = {"negation": Not, "diamond": partial(Diamond, "r"), "remember": Remember}


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_deep_formulas_compare_hash_and_print_their_repr(shape, low_recursion_limit):
    """==, hash and repr of 10 000-level modal formulas and of their
    translations take no frame per level."""
    op, (leaf, other) = BUILDERS[shape], LEAVES[shape]
    a, b, c = _chain(op, leaf), _chain(op, leaf), _chain(op, other)
    assert a == b and not a != b and a != c
    assert hash(a) == hash(b)
    head = repr(op(leaf)).removesuffix(repr(leaf) + ")")
    assert repr(a) == head * DEPTH + repr(leaf) + ")" * DEPTH
    fa, fb, fc = translate_formula(a), translate_formula(b), translate_formula(c)
    assert fa == fb and fa != fc
    assert hash(fa) == hash(fb)
    assert repr(fa) == repr(fb) != repr(fc)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_cold_deep_chain_prints_in_little_memory():
    """Only the formula print_formula is called on keeps its text, built in
    one join: a cold 10 000-level rem chain prints in a fresh interpreter
    under 60 MB peak RSS (one kept text per level once took 236 MB).  The
    peak is the interpreter's VmHWM: its ru_maxrss would include the RSS of
    the test process it was started from."""
    code = (
        "from modalkit.syntax import Known, Remember, print_formula\n"
        "phi = Known()\n"
        "for _ in range(10_000):\n"
        "    phi = Remember(phi)\n"
        "assert print_formula(phi) == 'rem ' * 10_000 + 'known'\n"
        "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    _, kib, unit = out.stdout.split()
    assert unit == "kB" and int(kib) < 60 * 1024
