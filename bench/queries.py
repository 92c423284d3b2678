"""The queries: each starts from text and ends at a rendered answer, making
the same calls, in the same order, as the matching CLI subcommand.

Every call into a layer goes through ``Tracer.call``.  With tracing off that
is one extra Python call; with it on, a span (name, start, end, parent span,
query id) is kept in memory, and counts are read from the returned values.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from modalkit.analysis import Universe, definability_check, minimize_map
from modalkit.enumeration import (
    EvalContext,
    JointPartition,
    enumerate_formulas,
    joint_theories,
    separating_formula,
)
from modalkit.errors import ModalkitError
from modalkit.equivalence import bisimilar, serialize_witness, simulated_by
from modalkit.games import Game, format_transcript, solve_game
from modalkit.kripke import PointedModel, load_model, save_model
from modalkit.semantics import EvalConfig, check, satisfying_set
from modalkit.syntax import formula_size, get_dialect, parse_formula, print_formula

DISTINGUISHER_DEPTH = 4
THEORY_DEPTH = 4
DEFINE_DEPTH = 6
DEFINE_BUDGET = 20_000


class Tracer:
    """Spans around the benchmark's calls into the program, and counts read
    from what those calls return.  Disabled, it only forwards calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (name, start, end, parent, query, failed)
        self.counts: Counter = Counter()
        self.query: int | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        failed = True
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (name, start, end, parent, self.query, failed)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


def load(tr: Tracer, text: str):
    model, point = tr.call("kripke.load_model", load_model, text)
    if tr.enabled:
        tr.count("kripke.worlds", len(model.worlds))
        tr.count("kripke.edges", sum(len(pairs) for pairs in model.rels.values()))
    return model, point


def render_formula(tr: Tracer, phi) -> str:
    if tr.enabled:
        tr.count("syntax.formula_nodes", formula_size(phi))
    return tr.call("syntax.print_formula", print_formula, phi)


def _bisim(q, spec, tr, directed=False):
    (left, w), (right, v) = load(tr, q.models[0]), load(tr, q.models[1])
    name, decide = (
        ("equivalence.simulated_by", simulated_by) if directed else ("equivalence.bisimilar", bisimilar)
    )
    outcome = tr.call(name, decide, spec, left, w, right, v, distinguisher_depth=DISTINGUISHER_DEPTH)
    if outcome.related:
        if tr.enabled:
            tr.count("equivalence.related")
            tr.count("equivalence.witness_pairs", len(outcome.witness))
        return "related\n" + tr.call("equivalence.serialize_witness", serialize_witness, outcome.witness)
    if directed:
        return "not related"
    phi = outcome.distinguisher
    if phi is None:
        phi = tr.call(
            "enumeration.separating_formula", separating_formula,
            spec, left, w, right, v, depth=DISTINGUISHER_DEPTH,
        )
    if phi is None:
        return f"not related\nno distinguisher found within depth {DISTINGUISHER_DEPTH}"
    return "not related\ndistinguisher: " + render_formula(tr, phi)


def _simulate(q, spec, tr):
    return _bisim(q, spec, tr, directed=True)


def _sample_play(spec, left, w, right, v, result):
    game = Game(spec, left, right)
    start = game.initial(w, v)
    return game, start, game.sample_play(start, result)


def _game(q, spec, tr):
    (left, w), (right, v) = load(tr, q.models[0]), load(tr, q.models[1])
    result = tr.call("games.solve_game", solve_game, spec, left, w, right, v)
    game, start, moves = tr.call("games.sample_play", _sample_play, spec, left, w, right, v, result)
    if tr.enabled:
        tr.count("games.strategy_entries", len(result.strategy))
        tr.count("games.transcript_plies", len(moves))
    lines = [f"winner: {result.winner}"]
    if moves:
        lines.append(tr.call("games.format_transcript", format_transcript, game, start, moves))
    return "\n".join(lines)


def _check(q, spec, tr):
    model, point = load(tr, q.models[0])
    sig = model.signature
    phi = tr.call("syntax.parse_formula", parse_formula, q.formula, sig, spec)
    if tr.enabled:
        tr.count("syntax.formula_nodes", formula_size(phi))
    holds = tr.call("semantics.check", check, model, point, phi, EvalConfig(spec, sig))
    sat = tr.call("semantics.satisfying_set", satisfying_set, model, phi)
    return f"{'true' if holds else 'false'}\nsat: {' '.join(sorted(sat))}"


def _minimize(q, spec, tr):
    model, point = load(tr, q.models[0])
    small, rep = tr.call("analysis.minimize_map", minimize_map, model)
    if tr.enabled:
        tr.count("analysis.quotient_worlds", len(small.worlds))
    return tr.call("kripke.save_model", save_model, small, rep[point])


def _theory(q, spec, tr):
    pointed = [PointedModel(*load(tr, text)) for text in q.models]
    theories = tr.call("enumeration.joint_theories", joint_theories, spec, pointed, depth=THEORY_DEPTH)
    blocks = []
    for side, theory in zip(("left", "right"), theories):
        blocks.append(f"{side}: {len(theory)} formulas")
        blocks.extend(sorted(theory))
    return "\n".join(blocks)


def _separate(q, spec, tr):
    (left, w), (right, v) = load(tr, q.models[0]), load(tr, q.models[1])
    phi = tr.call(
        "enumeration.separating_formula", separating_formula, spec, left, w, right, v, depth=THEORY_DEPTH
    )
    if phi is None:
        return f"no distinguisher found within depth {THEORY_DEPTH}"
    return "distinguisher: " + render_formula(tr, phi)


def _define(q, spec, tr):
    pointed = tuple(PointedModel(*load(tr, text)) for text in q.models)
    universe = Universe(q.names, pointed)
    result = tr.call(
        "analysis.definability_check", definability_check,
        spec, universe, list(q.members), max_depth=DEFINE_DEPTH, budget=DEFINE_BUDGET,
    )
    if tr.enabled:
        tr.count(f"analysis.define_status.{result.status}")
    if result.status == "defined":
        return "defined: " + render_formula(tr, result.formula)
    if result.status == "not_closed":
        inside, outside = result.witness
        return f"not closed: {inside} is related to {outside}"
    return "exhausted: no definer found within the search bounds"


_RUN = {
    "bisim": _bisim,
    "simulate": _simulate,
    "game": _game,
    "check": _check,
    "minimize": _minimize,
    "theory": _theory,
    "separate": _separate,
    "define": _define,
}


def run_query(q, tr: Tracer) -> str:
    """The rendered answer to one query."""
    spec = tr.call("syntax.get_dialect", get_dialect, q.dialect)
    return _RUN[q.kind](q, spec, tr)


def enumeration_sizes(queries, tr: Tracer) -> None:
    """Counts for the enumeration layer, which returns no sizes: for each
    theory, separate and define query, rebuild outside the timed loop the
    public object its engine builds (the joint EvalContext, the
    JointPartition behind separating_formula, the canonical stream behind
    joint_theories) and read its size."""
    for q in queries:
        if q.kind not in ("theory", "separate", "define"):
            continue
        spec = get_dialect(q.dialect)
        models = [load_model(text)[0] for text in q.models]
        try:
            if q.kind == "separate":
                part = JointPartition(spec, models, max_depth=THEORY_DEPTH)
                tr.count("enumeration.configs", len(part.ctx.configs))
                tr.count("enumeration.partition_cells", len(part.cells))
                tr.count("enumeration.partition_tests", len(part.tests))
                tr.count("enumeration.partition_depth", part.depth)
                continue
            tr.count("enumeration.configs", len(EvalContext(spec, models).configs))
            if q.kind == "theory":
                stream = enumerate_formulas(spec, models, max_depth=THEORY_DEPTH)
                tr.count("enumeration.stream_formulas", sum(1 for _ in stream))
        except ModalkitError:
            continue  # the query itself failed the same way and is counted there
