"""The comparison games: move generation, round accounting, scripted replay,
transcripts, and agreement with the fixpoint relation.

The headline property is the last one: the unbounded game's winner is
duplicator exactly when the fixpoint engine relates the two points, for
every dialect.  The bounded game is additionally matched against
depth-bounded equivalence for the plain modal dialect, where rounds and
modal depth coincide (memory dialects spend rounds on closure moves, so no
such identity is asserted for them).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RefSpace, fixture_model, models, sig_for
from modalkit.enumeration import equivalent_up_to
from modalkit.equivalence import bisimilar, conditions_for
from modalkit.errors import IllegalMoveError, StateSpaceExceededError
from modalkit.games import (
    ClosureMove,
    DuplicatorMove,
    Game,
    GameResult,
    GameState,
    SpoilerMove,
    format_transcript,
    solve_game,
)
from modalkit.kripke import GenParams, KripkeModel, random_model
from modalkit.syntax import DIALECTS, Signature

BML = DIALECTS["bml"]
BML_MINUS = DIALECTS["bml-minus"]
ML = DIALECTS["ml-diamond"]


def _fork_game(spec=BML):
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    game = Game(spec, two, three)
    return game, game.initial(w0, v0)


def _memory_game(*, rounds=None):
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    game = Game(ML, refl, cyc)
    return game, game.initial(a, b, rounds=rounds)


# ---------------------------------------------------------------------------
# Moves and rules


def test_spoiler_moves_follow_the_conditions():
    game, start = _fork_game()
    moves = game.legal_moves(start)
    assert moves == [
        SpoilerMove("left", "e", "u1"),
        SpoilerMove("left", "e", "u2"),
        SpoilerMove("right", "e", "t1"),
        SpoilerMove("right", "e", "t2"),
        SpoilerMove("right", "e", "t3"),
    ]
    # the directed dialect only lets spoiler attack on the left
    directed, start = _fork_game(BML_MINUS)
    assert directed.legal_moves(start) == [
        SpoilerMove("left", "e", "u1"),
        SpoilerMove("left", "e", "u2"),
    ]


def test_memory_dialect_has_closure_moves():
    game, start = _memory_game()
    assert game.legal_moves(start) == [
        ClosureMove("remember"),
        SpoilerMove("left", "r", "a"),
        SpoilerMove("right", "r", "c"),
    ]


def test_traced_moves_for_the_double_modality():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    game = Game(DIALECTS["ml-ddiamond"], refl, cyc)
    moves = game.legal_moves(game.initial(a, b))
    assert ClosureMove("remember") in moves
    traced = [m for m in moves if isinstance(m, SpoilerMove)]
    assert traced == [
        SpoilerMove("left", "r", "a", traced=True),
        SpoilerMove("right", "r", "c", traced=True),
    ]
    assert traced[0].render() == "spoiler left <<r>> -> a"


def test_duplicator_replies_are_statically_filtered():
    game, start = _fork_game()
    mid = game.apply(start, SpoilerMove("left", "e", "u2"))
    assert mid.turn == "duplicator" and mid.pending == SpoilerMove("left", "e", "u2")
    # only t2 matches u2 on both propositions
    assert game.legal_moves(mid) == [DuplicatorMove("t2")]
    done = game.apply(mid, DuplicatorMove("t2"))
    assert (done.left.world, done.right.world) == ("u2", "t2")
    assert game.winner_at(done) == "duplicator"  # no further attacks exist


def test_nominal_jump_wins_immediately():
    lit = KripkeModel(("w", "z"), {"r": frozenset()}, {"p": frozenset({"z"})}, noms={"i": "z"})
    unlit = KripkeModel(("v", "y"), {"r": frozenset()}, {"p": frozenset()}, noms={"i": "y"})
    game = Game(DIALECTS["hl-at"], lit, unlit)
    result = game.solve(game.initial("w", "v"))
    assert result.winner == "spoiler"
    assert result.strategy[game.initial("w", "v")] == ClosureMove("nom", "i")
    # one round suffices: the static check runs before rounds are consulted
    assert solve_game(DIALECTS["hl-at"], lit, "w", unlit, "v", rounds=1).winner == "spoiler"
    assert solve_game(DIALECTS["hl-at"], lit, "w", unlit, "v", rounds=0).winner == "duplicator"


# ---------------------------------------------------------------------------
# Solving


def test_unbounded_winners_on_the_fixtures():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    assert solve_game(BML, refl, a, cyc, b).winner == "duplicator"
    assert solve_game(ML, refl, a, cyc, b).winner == "spoiler"
    big, w = fixture_model("four_world.km")
    small, v = fixture_model("two_world_loop.km")
    assert solve_game(BML, big, w, small, v).winner == "duplicator"


def test_closure_moves_spend_rounds():
    # spoiler needs remember plus one relation move: two rounds, not one
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    assert solve_game(ML, refl, a, cyc, b, rounds=1).winner == "duplicator"
    assert solve_game(ML, refl, a, cyc, b, rounds=2).winner == "spoiler"


def test_bounded_strategy_reaches_the_win():
    game, start = _memory_game(rounds=2)
    result = game.solve(start)
    assert result.winner == "spoiler"
    play = game.sample_play(start, result)
    states = game.replay(start, play)
    assert game.winner_at(states[-1]) == "spoiler"


def test_deep_bounded_games():
    """Thousands of rounds stay within Python's recursion limit."""
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    assert solve_game(BML, refl, a, cyc, b, rounds=5000).winner == "duplicator"
    assert solve_game(ML, refl, a, cyc, b, rounds=5000).winner == "spoiler"


class _Reference:
    """The game's rules on ``GameState`` objects through ``RefSpace``, as the
    solvers ran them before they moved to integer positions: the oracle for
    ``Game``'s move generation, solvers and sample plays.  It has the
    ``replay`` and ``winner_at`` that ``format_transcript`` reads."""

    def __init__(self, spec, left, right):
        self.space = RefSpace(conditions_for(spec), left, right)

    def visit(self, s):
        if s.turn == "spoiler":
            if self.space.static_violation((s.left, s.right)) is not None:
                return "spoiler", []
            if s.rounds_left is not None and s.rounds_left <= 0:
                return "duplicator", []
        moves = self.legal_moves(s)
        if not moves:
            return ("duplicator" if s.turn == "spoiler" else "spoiler"), moves
        return None, moves

    def winner_at(self, s):
        return self.visit(s)[0]

    def legal_moves(self, s):
        space, pair = self.space, (s.left, s.right)
        if s.turn == "spoiler":
            moves = [ClosureMove(kind, nom) for kind, nom in space.closures]
            for rel in space.rels:
                for _, side, traced in space.clauses:
                    targets, _, _ = space.moves(pair, rel, side, traced)
                    moves.extend(SpoilerMove(side, rel, t, traced) for t in targets)
            return moves
        pend = s.pending
        _, replies, join = space.moves(pair, pend.rel, pend.side, pend.traced)
        return [
            DuplicatorMove(u)
            for u in replies
            if space.static_violation(join(pend.target, u)) is None
        ]

    def apply(self, s, move):
        spend = None if s.rounds_left is None else s.rounds_left - 1
        if isinstance(move, ClosureMove):
            images = self.space.closure_images((s.left, s.right))
            image = next(i for k, n, i in images if (k, n) == (move.kind, move.nominal))
            return GameState(*image, "spoiler", None, spend)
        if isinstance(move, SpoilerMove):
            return GameState(s.left, s.right, "duplicator", move, spend)
        pend = s.pending
        _, _, join = self.space.moves((s.left, s.right), pend.rel, pend.side, pend.traced)
        return GameState(*join(pend.target, move.target), "spoiler", None, s.rounds_left)

    def replay(self, s, moves):
        out = [s]
        for idx, move in enumerate(moves):
            res, legal = self.visit(out[-1])
            if res is not None or move not in legal:
                raise IllegalMoveError(idx, "illegal")
            out.append(self.apply(out[-1], move))
        return out

    def sample_play(self, s, result, max_plies=40):
        moves = []
        for _ in range(max_plies):
            res, legal = self.visit(s)
            if res is not None:
                break
            moves.append(result.strategy.get(s, legal[0]))
            s = self.apply(s, moves[-1])
        return moves


def _staged_unbounded(ref, state, max_positions):
    """The unbounded solver as staged passes over the positions in pop
    order, each pass seeing the ranks given earlier in it: the oracle for
    the worklist attractor."""
    edges, terminal = {}, {}
    stack, seen = [state], {state}
    while stack:
        s = stack.pop()
        res, legal = ref.visit(s)
        if res is not None:
            terminal[s] = res
            continue
        outs = []
        for m in legal:
            t = ref.apply(s, m)
            outs.append((m, t))
            if t not in seen:
                if len(seen) >= max_positions:
                    raise StateSpaceExceededError(max_positions)
                seen.add(t)
                stack.append(t)
        edges[s] = outs
    rank = {s: 0 for s, w in terminal.items() if w == "spoiler"}
    changed, stage = True, 0
    while changed:
        changed, stage = False, stage + 1
        for s, outs in edges.items():
            if s in rank:
                continue
            if s.turn == "spoiler":
                if any(t in rank for _, t in outs):
                    rank[s], changed = stage, True
            elif all(t in rank for _, t in outs):
                rank[s], changed = stage, True
    strategy = {}
    if state in rank:
        for s, outs in edges.items():
            if s.turn == "spoiler" and s in rank:
                best = min(
                    (o for o in outs if o[1] in rank and rank[o[1]] < rank[s]),
                    key=lambda o: rank[o[1]],
                    default=None,
                )
                if best is not None:
                    strategy[s] = best[0]
        return GameResult("spoiler", strategy)
    for s, outs in edges.items():
        if s.turn == "duplicator" and s not in rank:
            strategy[s] = next(m for m, t in outs if t not in rank)
    return GameResult("duplicator", strategy)


def _recursive_bounded(ref, state, max_positions):
    """The bounded search as plain memoized recursion, kept as the
    reference: successors in legal-move order, the first winning move
    recorded, the position cap checked before each new position."""
    value, best = {}, {}

    def val(s):
        if s in value:
            return value[s]
        if len(value) >= max_positions:
            raise StateSpaceExceededError(max_positions)
        res, legal = ref.visit(s)
        if res is None:
            res = "duplicator" if s.turn == "spoiler" else "spoiler"
            for m in legal:
                if val(ref.apply(s, m)) == s.turn:
                    res = s.turn
                    best[s] = m
                    break
        value[s] = res
        return res

    winner = val(state)
    return GameResult(
        winner, {s: m for s, m in best.items() if s.turn == winner and value.get(s) == winner}
    )


def _draw_game(data, max_worlds, rounds, caps):
    """A game of a random dialect over two drawn models of up to max_worlds
    worlds (a list: without, then with memory operators), its oracle, a
    start and a position cap."""
    spec = DIALECTS[data.draw(st.sampled_from(sorted(DIALECTS)))]
    sig = sig_for(spec)
    mem = spec.allows("known")
    left = data.draw(models(sig=sig, max_worlds=max_worlds[mem], allow_mem=mem))
    right = data.draw(models(sig=sig, max_worlds=max_worlds[mem], allow_mem=mem))
    game = Game(spec, left, right)
    start = game.initial(
        data.draw(st.sampled_from(left.worlds)),
        data.draw(st.sampled_from(right.worlds)),
        rounds=rounds if rounds is None else data.draw(rounds),
    )
    cap = data.draw(st.sampled_from(caps))
    return game, _Reference(spec, left, right), start, cap


def _assert_same_solution(game, ref, start, cap, oracle):
    try:
        expected = oracle(ref, start, cap)
    except StateSpaceExceededError:
        with pytest.raises(StateSpaceExceededError):
            game.solve(start, max_positions=cap)
        return
    result = game.solve(start, max_positions=cap)
    assert result == expected
    assert list(result.strategy.items()) == list(expected.strategy.items())
    moves = game.sample_play(start, result)
    assert moves == ref.sample_play(start, expected)
    assert format_transcript(game, start, moves) == format_transcript(ref, start, moves)


@settings(max_examples=400)
@given(st.data())
def test_attractor_matches_staged_passes(data):
    game, ref, start, cap = _draw_game(data, [4, 4], None, [5, 20_000, 20_000])
    _assert_same_solution(game, ref, start, cap, _staged_unbounded)


def test_attractor_ranks_a_position_in_the_pass_of_an_earlier_one():
    """Here a position ranked in some pass makes one later in pop order rank
    in that same pass; ranking it one pass later changes the strategy."""
    full = frozenset({("w1", "w1"), ("w1", "w2"), ("w2", "w1"), ("w2", "w2")})
    lit = frozenset({"w1", "w2"})
    left = KripkeModel(("w1", "w2"), {"r": full}, {"p": lit})
    right = KripkeModel(("w1", "w2"), {"r": frozenset({("w2", "w1"), ("w2", "w2")})}, {"p": lit})
    game, ref = Game(BML, left, right), _Reference(BML, left, right)
    _assert_same_solution(game, ref, game.initial("w1", "w2"), 200_000, _staged_unbounded)


@settings(max_examples=150)
@given(st.data())
def test_bounded_search_matches_recursive_reference(data):
    game, ref, start, cap = _draw_game(data, [3, 2], st.integers(0, 5), [1, 5, 20, 200_000])
    _assert_same_solution(game, ref, start, cap, _recursive_bounded)


def test_position_caps():
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    message = "^game position space exceeds the limit of 2$"
    with pytest.raises(StateSpaceExceededError, match=message):
        solve_game(BML, two, w0, three, v0, max_positions=2)
    with pytest.raises(StateSpaceExceededError, match=message):
        solve_game(BML, two, w0, three, v0, rounds=3, max_positions=2)


# ---------------------------------------------------------------------------
# Scripted play


def test_solving_computes_legal_moves_once_per_position(monkeypatch):
    model = random_model(GenParams(12, 0.2, 0.5, 7, Signature(props=("p",), rels=("r",))))
    seen = []
    real = Game._successors

    def counted(self, pos):
        seen.append(pos)
        return real(self, pos)

    monkeypatch.setattr(Game, "_successors", counted)
    game = Game(BML, model, model)
    start = game.initial(model.worlds[0], model.worlds[0])
    assert game.solve(start).winner == "duplicator"
    # every explored position is expanded at most once
    assert len(seen) > 100
    assert len(seen) == len(set(seen))


def test_replay_validates_moves():
    game, start = _fork_game()
    states = game.replay(start, [SpoilerMove("left", "e", "u2"), DuplicatorMove("t2")])
    assert len(states) == 3
    with pytest.raises(IllegalMoveError) as exc:
        game.replay(start, [SpoilerMove("left", "e", "u2"), DuplicatorMove("t1")])
    assert exc.value.index == 1
    with pytest.raises(IllegalMoveError):
        game.replay(start, [ClosureMove("remember")])


def test_replay_rejects_moves_after_the_game_ends():
    game, start = _memory_game()
    script = [ClosureMove("remember"), SpoilerMove("right", "r", "c")]
    states = game.replay(start, script)
    assert game.winner_at(states[-1]) == "spoiler"
    with pytest.raises(IllegalMoveError) as exc:
        game.replay(start, script + [ClosureMove("remember")])
    assert exc.value.index == 2


def test_transcript_rendering():
    game, start = _fork_game()
    text = format_transcript(
        game, start, [SpoilerMove("left", "e", "u2"), DuplicatorMove("t2")]
    )
    assert text == "1. spoiler left <e> -> u2 | duplicator -> t2\nresult: duplicator"

    game, start = _memory_game()
    text = format_transcript(
        game, start, [ClosureMove("remember"), SpoilerMove("right", "r", "c")]
    )
    assert text == (
        "1. spoiler remember\n"
        "2. spoiler right <r> -> c | (no reply)\n"
        "result: spoiler"
    )


# ---------------------------------------------------------------------------
# Agreement with the relation engine


@settings(max_examples=40)
@given(st.data())
def test_game_agrees_with_fixpoint(data):
    name = data.draw(st.sampled_from(sorted(DIALECTS)))
    spec = DIALECTS[name]
    sig = sig_for(spec)
    mem = spec.allows("known")
    left = data.draw(models(sig=sig, max_worlds=2 if mem else 3, allow_mem=mem))
    right = data.draw(models(sig=sig, max_worlds=2 if mem else 3, allow_mem=mem))
    w = data.draw(st.sampled_from(left.worlds))
    v = data.draw(st.sampled_from(right.worlds))
    related = bisimilar(spec, left, w, right, v, distinguisher_depth=0).related
    winner = solve_game(spec, left, w, right, v).winner
    assert winner == ("duplicator" if related else "spoiler")


@settings(max_examples=30)
@given(st.data())
def test_bounded_game_matches_bounded_equivalence(data):
    """For the plain modal dialect a round is exactly one modal step."""
    left = data.draw(models(max_worlds=3))
    right = data.draw(models(max_worlds=3))
    w = data.draw(st.sampled_from(left.worlds))
    v = data.draw(st.sampled_from(right.worlds))
    depth = data.draw(st.integers(0, 3))
    winner = solve_game(BML, left, w, right, v, rounds=depth).winner
    agrees = equivalent_up_to(BML, left, w, right, v, depth)
    assert (winner == "duplicator") == agrees
