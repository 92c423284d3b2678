"""Two-player comparison games between pointed models.

Spoiler claims the two pointed models differ; Duplicator claims they match.
The legal moves mirror the dialect's relational conditions:

- a *relation move*: Spoiler steps the current world of one side along a
  relation (left side when the forth condition is active, right side when
  back is; the traced variants first commit both current worlds to memory,
  mirroring the double modality).  Duplicator must answer with a matching
  step on the opposite side.
- a *closure move*: Spoiler rewrites both memories at once (remember,
  forget, erase) or jumps both sides to a nominal's worlds.  No reply.

After every completed exchange the static conditions are checked: if the
two current configurations disagree on an atom (proposition, memory
membership, or nominal), Spoiler has won.  Duplicator's replies are
restricted to statically valid results, so a Duplicator with no legal reply
has lost.  A Spoiler with no legal move has lost.  In the bounded game every
Spoiler ply consumes one round and Duplicator wins when the rounds run out;
in the unbounded game Duplicator wins every infinite play.

Unbounded games are solved by a least-fixpoint attractor over the reachable
position graph, bounded games by a memoized depth-first search on an
explicit stack; both return a strategy for the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .configs import Config, PairSpace, initial_pair
from .errors import IllegalMoveError, InvariantViolationError, StateSpaceExceededError
from .equivalence import conditions_for
from .kripke import KripkeModel
from .syntax import LogicSpec


@dataclass(frozen=True)
class SpoilerMove:
    side: str  # "left" or "right"
    rel: str
    target: str
    traced: bool = False

    def render(self) -> str:
        brackets = f"<<{self.rel}>>" if self.traced else f"<{self.rel}>"
        return f"spoiler {self.side} {brackets} -> {self.target}"


@dataclass(frozen=True)
class ClosureMove:
    kind: str  # "remember", "forget", "erase" or "nom"
    nominal: str | None = None

    def render(self) -> str:
        if self.kind == "nom":
            return f"spoiler jump '{self.nominal}"
        return f"spoiler {self.kind}"


@dataclass(frozen=True)
class DuplicatorMove:
    target: str

    def render(self) -> str:
        return f"duplicator -> {self.target}"


Move = SpoilerMove | ClosureMove | DuplicatorMove


@dataclass(frozen=True)
class GameState:
    left: Config
    right: Config
    turn: str  # "spoiler" or "duplicator"
    pending: SpoilerMove | None = None
    rounds_left: int | None = None

    def render(self) -> str:
        rounds = "" if self.rounds_left is None else f" [{self.rounds_left} rounds left]"
        return f"{self.left.render()} vs {self.right.render()}{rounds}"


@dataclass(frozen=True)
class GameResult:
    winner: str
    strategy: dict[GameState, Move]


class Game:
    """The comparison game for one dialect over a fixed pair of models."""

    def __init__(self, spec: LogicSpec, left: KripkeModel, right: KripkeModel):
        self.spec = spec
        self.left = left
        self.right = right
        self.conds = conditions_for(spec)
        self._space = PairSpace(self.conds, left, right)

    def initial(self, w: str, v: str, *, rounds: int | None = None) -> GameState:
        if rounds is not None and rounds < 0:
            raise InvariantViolationError(f"rounds must be at least 0, got {rounds}")
        self.left.require_world(w)
        self.right.require_world(v)
        c1, c2 = initial_pair(self.left, w, self.right, v)
        return GameState(c1, c2, "spoiler", None, rounds)

    # -- rules -----------------------------------------------------------------

    def winner_at(self, state: GameState) -> str | None:
        """The winner if the state is terminal, else None."""
        return self._visit(state)[0]

    def _visit(self, state: GameState) -> tuple[str | None, list[Move]]:
        """winner_at and the legal moves, computed once; the moves are empty
        at a terminal state."""
        if state.turn == "spoiler":
            if self._space.static_violation((state.left, state.right)) is not None:
                return "spoiler", []
            if state.rounds_left is not None and state.rounds_left <= 0:
                return "duplicator", []
        moves = self.legal_moves(state)
        if not moves:
            return ("duplicator" if state.turn == "spoiler" else "spoiler"), moves
        return None, moves

    def legal_moves(self, state: GameState) -> list[Move]:
        space = self._space
        pair = (state.left, state.right)
        if state.turn == "spoiler":
            moves: list[Move] = [ClosureMove(kind, nom) for kind, nom in space.closures]
            for rel in space.rels:
                for _, side, traced in space.clauses:
                    targets, _, _ = space.moves(pair, rel, side, traced)
                    moves.extend(SpoilerMove(side, rel, t, traced) for t in targets)
            return moves
        pend = state.pending
        if pend is None:
            return []
        _, replies, join = space.moves(pair, pend.rel, pend.side, pend.traced)
        return [
            DuplicatorMove(u)
            for u in replies
            if space.static_violation(join(pend.target, u)) is None
        ]

    def apply(self, state: GameState, move: Move) -> GameState:
        return self.replay(state, [move])[-1]

    def _apply_unchecked(self, state: GameState, move: Move) -> GameState:
        pair = (state.left, state.right)
        if isinstance(move, ClosureMove):
            c1, c2 = self._space.close(move.kind, move.nominal, pair)
            return GameState(c1, c2, "spoiler", None, _spend(state.rounds_left))
        if isinstance(move, SpoilerMove):
            return GameState(state.left, state.right, "duplicator", move, _spend(state.rounds_left))
        pend = state.pending
        _, _, join = self._space.moves(pair, pend.rel, pend.side, pend.traced)
        c1, c2 = join(pend.target, move.target)
        return GameState(c1, c2, "spoiler", None, state.rounds_left)

    # -- solving -----------------------------------------------------------------

    def solve(self, state: GameState, *, max_positions: int = 200_000) -> GameResult:
        if state.rounds_left is None:
            return self._solve_unbounded(state, max_positions)
        return self._solve_bounded(state, max_positions)

    def _solve_unbounded(self, state: GameState, max_positions: int) -> GameResult:
        edges: dict[GameState, list[tuple[Move, GameState]]] = {}
        terminal: dict[GameState, str] = {}
        stack = [state]
        seen = {state}
        while stack:
            s = stack.pop()
            res, legal = self._visit(s)
            if res is not None:
                terminal[s] = res
                continue
            outs = []
            for m in legal:
                t = self._apply_unchecked(s, m)
                outs.append((m, t))
                if t not in seen:
                    if len(seen) >= max_positions:
                        raise StateSpaceExceededError(max_positions)
                    seen.add(t)
                    stack.append(t)
            edges[s] = outs
        rank: dict[GameState, int] = {s: 0 for s, w in terminal.items() if w == "spoiler"}
        changed = True
        stage = 0
        while changed:
            changed = False
            stage += 1
            for s, outs in edges.items():
                if s in rank:
                    continue
                if s.turn == "spoiler":
                    if any(t in rank for _, t in outs):
                        rank[s] = stage
                        changed = True
                elif all(t in rank for _, t in outs):
                    rank[s] = stage
                    changed = True
        strategy: dict[GameState, Move] = {}
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
                for m, t in outs:
                    if t not in rank:
                        strategy[s] = m
                        break
        return GameResult("duplicator", strategy)

    def _solve_bounded(self, state: GameState, max_positions: int) -> GameResult:
        value: dict[GameState, str] = {}
        best: dict[GameState, Move] = {}

        def val(s: GameState):
            """The memoized search at s, as a generator: it yields each
            unsolved successor and reads its value once the driver below has
            solved it, so deep games need no Python recursion."""
            if len(value) >= max_positions:
                raise StateSpaceExceededError(max_positions)
            res, legal = self._visit(s)
            if res is None:
                res = "duplicator" if s.turn == "spoiler" else "spoiler"
                for m in legal:
                    t = self._apply_unchecked(s, m)
                    if t not in value:
                        yield t
                    if value[t] == s.turn:
                        res = s.turn
                        best[s] = m
                        break
            value[s] = res

        stack = [val(state)]
        while stack:
            t = next(stack[-1], None)
            if t is None:
                stack.pop()
            else:
                stack.append(val(t))
        winner = value[state]
        strategy = {
            s: m for s, m in best.items() if s.turn == winner and value.get(s) == winner
        }
        return GameResult(winner, strategy)

    # -- scripted play -------------------------------------------------------------

    def replay(self, state: GameState, moves: Sequence[Move]) -> list[GameState]:
        """Apply a scripted move list, validating every step; returns all
        visited states including the start."""
        out = [state]
        cur = state
        for idx, move in enumerate(moves):
            res, legal = self._visit(cur)
            if res is not None:
                raise IllegalMoveError(idx, "the game is already over at this position")
            if move not in legal:
                raise IllegalMoveError(idx, f"{move.render()} is not available here")
            cur = self._apply_unchecked(cur, move)
            out.append(cur)
        return out

    def sample_play(
        self, state: GameState, result: GameResult, *, max_plies: int = 40
    ) -> list[Move]:
        """A demonstration line: the winner follows the computed strategy,
        the loser takes its first legal move.  Cut off after max_plies."""
        moves: list[Move] = []
        cur = state
        for _ in range(max_plies):
            res, legal = self._visit(cur)
            if res is not None:
                break
            move = result.strategy.get(cur, legal[0])
            moves.append(move)
            cur = self._apply_unchecked(cur, move)
        return moves


def _spend(rounds: int | None) -> int | None:
    return None if rounds is None else rounds - 1


def solve_game(
    spec: LogicSpec,
    left: KripkeModel,
    w: str,
    right: KripkeModel,
    v: str,
    *,
    rounds: int | None = None,
    max_positions: int = 200_000,
) -> GameResult:
    """Winner and strategy of the comparison game from the given points."""
    game = Game(spec, left, right)
    return game.solve(game.initial(w, v, rounds=rounds), max_positions=max_positions)


def format_transcript(game: Game, state: GameState, moves: Sequence[Move]) -> str:
    """Human-readable transcript: one numbered line per Spoiler ply, with
    Duplicator's reply on the same line; ends with the result line."""
    states = game.replay(state, moves)
    lines = []
    ply = 0
    i = 0
    while i < len(moves):
        move = moves[i]
        ply += 1
        if isinstance(move, SpoilerMove):
            if i + 1 < len(moves) and isinstance(moves[i + 1], DuplicatorMove):
                lines.append(f"{ply}. {move.render()} | {moves[i + 1].render()}")
                i += 2
            else:
                lines.append(f"{ply}. {move.render()} | (no reply)")
                i += 1
        else:
            lines.append(f"{ply}. {move.render()}")
            i += 1
    outcome = game.winner_at(states[-1])
    lines.append(f"result: {outcome if outcome else 'undecided'}")
    return "\n".join(lines)
