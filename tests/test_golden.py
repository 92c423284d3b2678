"""Byte-identical outputs for every dialect.

For each dialect and fixture pair this pins the printed verdict of
``bisimilar`` (witness or distinguisher), the depth-4 ``separating_formula``,
Spoiler's opening moves and the transcript of the unbounded game's sample
play.  For each dialect it also pins ``definability_check`` on a fixed
seeded universe for three member sets.  A refactor of the fixpoint, the
game, the evaluation context or the meaning partition must leave every
string unchanged; the expected texts live in ``golden/outputs.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from modalkit.analysis import Universe, definability_check
from modalkit.enumeration import separating_formula
from modalkit.equivalence import bisimilar, serialize_witness
from modalkit.games import Game, format_transcript
from modalkit.kripke import GenParams, PointedModel, SplitMix64, load_model, random_model
from modalkit.syntax import DIALECTS, Signature, print_formula

from conftest import FIXTURES

GOLDEN = json.loads((Path(__file__).parent / "golden" / "outputs.json").read_text(encoding="utf-8"))

# (left fixture, right fixture): bisimilar in the plain dialects, not
# bisimilar anywhere, and a model against itself.
PAIRS = (
    ("four_world", "two_world_loop"),
    ("fork_two", "fork_three"),
    ("four_world", "four_world"),
)


def _load(name: str, spec):
    """The fixture, with nominal i naming its point in nominal dialects."""
    text = (FIXTURES / f"{name}.km").read_text(encoding="utf-8")
    model, point = load_model(text)
    if spec.allows("nominal"):
        model, point = load_model(text + f"nom i: {point}\n")
    return model, point


def render_case(dialect: str, left_name: str, right_name: str) -> dict[str, str]:
    spec = DIALECTS[dialect]
    left, w = _load(left_name, spec)
    right, v = _load(right_name, spec)
    outcome = bisimilar(spec, left, w, right, v)
    if outcome.related:
        verdict = "related\n" + serialize_witness(outcome.witness)
    else:
        phi = outcome.distinguisher
        verdict = "distinguisher: " + ("none" if phi is None else print_formula(phi))
    sep = separating_formula(spec, left, w, right, v, depth=4)
    game = Game(spec, left, right)
    start = game.initial(w, v)
    result = game.solve(start)
    moves = game.sample_play(start, result)
    return {
        "verdict": verdict,
        "separator": "none" if sep is None else print_formula(sep),
        "opening": "\n".join(m.render() for m in game.legal_moves(start)),
        "transcript": f"winner: {result.winner}\n" + format_transcript(game, start, moves),
    }


CASES = [(d, a, b) for d in sorted(DIALECTS) for a, b in PAIRS]


@pytest.mark.parametrize("dialect,left_name,right_name", CASES)
def test_outputs_unchanged(dialect, left_name, right_name):
    assert render_case(dialect, left_name, right_name) == GOLDEN[f"{dialect}:{left_name}:{right_name}"]


def definability_universe(spec) -> Universe:
    """Twelve seeded pointed models of one to three worlds over p and r; in
    nominal dialects every model also names its first world i."""
    sig = Signature(props=("p",), rels=("r",), noms=("i",) if spec.allows("nominal") else ())
    rng = SplitMix64(2026)
    members = []
    for _ in range(12):
        model = random_model(GenParams(1 + rng.next_below(3), 0.4, 0.5, rng.next_u64(), sig))
        members.append(PointedModel(model, model.worlds[rng.next_below(len(model.worlds))]))
    return Universe(tuple(f"m{k:02d}" for k in range(len(members))), tuple(members))


def render_definability(dialect: str) -> dict[str, str]:
    spec = DIALECTS[dialect]
    universe = definability_universe(spec)
    pairs = list(zip(universe.names, universe.members))
    coin = SplitMix64(7)
    member_sets = {
        "p-class": {n for n, pm in pairs if pm.world in pm.model.val["p"]},
        "irreflexive": {n for n, pm in pairs if (pm.world, pm.world) not in pm.model.rels["r"]},
        "coin": {n for n, _ in pairs if coin.next_below(2)},
    }
    out = {}
    for label, wanted in member_sets.items():
        result = definability_check(spec, universe, wanted)
        if result.status == "defined":
            out[label] = "defined: " + print_formula(result.formula)
        elif result.status == "not_closed":
            out[label] = "not closed: {} is related to {}".format(*result.witness)
        else:
            out[label] = result.status
    return out


@pytest.mark.parametrize("dialect", sorted(DIALECTS))
def test_definability_unchanged(dialect):
    assert render_definability(dialect) == GOLDEN[f"define:{dialect}"]
