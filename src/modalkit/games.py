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

The solvers run on int tuples ``(a, b, slot, x, rounds)`` over one
``configs.ConfigTable`` per model: configuration ids, the relation move
awaiting a reply (slot -1 on Spoiler's turn, x its target's id) and the
rounds left (None when unbounded).  ``_successors`` is the one move
generator; moves and states are built only at the API edges.  The unbounded
game is solved by an attractor in O(E log V) (Grädel, Thomas & Wilke, LNCS
2500, 2002, ch. 2) whose ranks are those of staged passes over the positions
in depth-first pop order, each pass seeing the ranks it gave earlier: when
the position at pop index p gets rank k, a predecessor whose need is then
met (one ranked successor for Spoiler, all for Duplicator) is queued for
stage k if its index is above p, else for k + 1.  Bounded games are solved
by a memoized depth-first search.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .configs import Config, PairSpace, initial_pair
from .errors import IllegalMoveError, InvariantViolationError, StateSpaceExceededError
from .equivalence import conditions_for
from .kripke import KripkeModel
from .syntax import _ATOMS, _PREFIX, DDiamond, Diamond, LogicSpec, Nom, _walk


@dataclass(frozen=True)
class SpoilerMove:
    side: str  # "left" or "right"
    rel: str
    target: str
    traced: bool = False

    def render(self) -> str:
        brackets = _PREFIX[DDiamond if self.traced else Diamond].format(rel=self.rel)
        return f"spoiler {self.side} {brackets} -> {self.target}"


@dataclass(frozen=True)
class ClosureMove:
    kind: str  # "remember", "forget", "erase" or "nom"
    nominal: str | None = None

    def render(self) -> str:
        if self.kind == "nom":
            return f"spoiler jump {_ATOMS[Nom].format(name=self.nominal)}"
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


_TURN = ("spoiler", "duplicator")  # indexed by "is a reply pending"


class Game:
    """The comparison game for one dialect over a fixed pair of models."""

    def __init__(self, spec: LogicSpec, left: KripkeModel, right: KripkeModel):
        self.spec = spec
        self.left = left
        self.right = right
        self.conds = conditions_for(spec)
        space = self._space = PairSpace(self.conds, left, right)
        self._tables = space.config_tables()
        self._closes = space.ops[: len(space.closures)]  # the closure updates come first
        # (rel, side, traced, op, mover's table index), in legal_moves order
        self._slots = [
            (rel, side, traced, ("step", rel, traced), side == "right")
            for rel in space.rels
            for _, side, traced in space.clauses
        ]

    def initial(self, w: str, v: str, *, rounds: int | None = None) -> GameState:
        if rounds is not None and rounds < 0:
            raise InvariantViolationError(f"rounds must be at least 0, got {rounds}")
        self.left.require_world(w)
        self.right.require_world(v)
        c1, c2 = initial_pair(self.left, w, self.right, v)
        return GameState(c1, c2, "spoiler", None, rounds)

    def _position(self, state: GameState) -> tuple:
        ids = [t.intern(c.mem, c.world) for t, c in zip(self._tables, (state.left, state.right))]
        if state.turn == "spoiler":
            return (*ids, -1, -1, state.rounds_left)
        return (*self._follow((*ids, -1, -1, None), state.pending, 0)[:4], state.rounds_left)

    def _state(self, pos: tuple) -> GameState:
        (a, b, slot, x, rounds), (t1, t2) = pos, self._tables
        pend = None if slot < 0 else self._spoiler_move(slot, x)
        return GameState(t1.configs[a], t2.configs[b], _TURN[slot >= 0], pend, rounds)

    def _spoiler_move(self, slot: int, x: int) -> SpoilerMove:
        rel, side, traced, _, m = self._slots[slot]
        return SpoilerMove(side, rel, self._tables[m].configs[x].world, traced)

    def _move(self, pos: tuple, k: int, nxt: tuple) -> Move:
        """The move that takes pos to nxt, its k-th successor."""
        if pos[2] >= 0:
            o = not self._slots[pos[2]][4]  # the replying side
            return DuplicatorMove(self._tables[o].configs[nxt[o]].world)
        if k < len(self._closes):
            return ClosureMove(*self._space.closures[k])
        return self._spoiler_move(nxt[2], nxt[3])

    # -- rules -----------------------------------------------------------------

    def _successors(self, pos: tuple) -> list[tuple]:
        """Where the legal moves at pos lead, in legal_moves order, even if
        pos is terminal; Duplicator's replies are statically valid."""
        a, b, slot, x, rounds = pos
        t1, t2 = tables = self._tables
        if slot < 0:
            rounds = None if rounds is None else rounds - 1
            out = [
                (t1.targets(op, a)[0], t2.targets(op, b)[0], -1, -1, rounds)
                for op in self._closes
            ]
            for k, (_, _, _, op, m) in enumerate(self._slots):
                out.extend([(a, b, k, y, rounds) for y in tables[m].targets(op, pos[m])])
            return out
        _, _, _, op, m = self._slots[slot]
        clash, sig1, sig2 = self._space.disagreement, t1.sig, t2.sig
        if m:
            return [(y, x, -1, -1, rounds) for y in t1.targets(op, a) if not clash(sig1[y], sig2[x])]
        return [(x, y, -1, -1, rounds) for y in t2.targets(op, b) if not clash(sig1[x], sig2[y])]

    def _visit(self, pos: tuple) -> tuple[str | None, list[tuple]]:
        """The winner if pos is terminal, else None; and its successors."""
        a, b, slot, _, rounds = pos
        if slot < 0:
            if self._space.disagreement(self._tables[0].sig[a], self._tables[1].sig[b]):
                return "spoiler", []
            if rounds is not None and rounds <= 0:
                return "duplicator", []
        nxt = self._successors(pos)
        return (None if nxt else _TURN[slot < 0]), nxt

    def winner_at(self, state: GameState) -> str | None:
        """The winner if the state is terminal, else None."""
        return self._visit(self._position(state))[0]

    def legal_moves(self, state: GameState) -> list[Move]:
        pos = self._position(state)
        return [self._move(pos, k, t) for k, t in enumerate(self._successors(pos))]

    def apply(self, state: GameState, move: Move) -> GameState:
        return self.replay(state, [move])[-1]

    def _follow(self, pos: tuple, move: Move, idx: int) -> tuple:
        """Where move, the idx-th of a play, leads from pos."""
        res, nxt = self._visit(pos)
        if res is not None:
            raise IllegalMoveError(idx, "the game is already over at this position")
        for k, t in enumerate(nxt):
            if self._move(pos, k, t) == move:
                return t
        raise IllegalMoveError(idx, f"{move.render()} is not available here")

    # -- solving -----------------------------------------------------------------

    def solve(self, state: GameState, *, max_positions: int = 200_000) -> GameResult:
        if state.rounds_left is None:
            return self._solve_unbounded(state, max_positions)
        return self._solve_bounded(state, max_positions)

    def _solve_unbounded(self, state: GameState, max_positions: int) -> GameResult:
        keys = [self._position(state)]  # position ids in discovery order
        ids = {keys[0]: 0}
        edges: dict[int, list[int]] = {}  # successor ids, in pop order
        won: list[int] = []  # Spoiler's terminal wins
        stack = [0]
        while stack:
            i = stack.pop()
            res, nxt = self._visit(keys[i])
            if res is not None:
                if res == "spoiler":
                    won.append(i)
                continue
            out = edges[i] = []
            for t in nxt:
                j = ids.get(t)
                if j is None:
                    if len(keys) >= max_positions:
                        raise StateSpaceExceededError(max_positions, "game position space")
                    j = ids[t] = len(keys)
                    keys.append(t)
                    stack.append(j)
                out.append(j)
        end = len(edges)
        index, need, rank = [end] * len(keys), [0] * len(keys), [end + 1] * len(keys)
        preds: list[list[int]] = [[] for _ in keys]
        for p, (i, out) in enumerate(edges.items()):
            index[i] = p
            need[i] = len(out) if keys[i][2] >= 0 else 1
            for j in out:
                preds[j].append(i)
        # (stage, pop index, id); Spoiler's terminal wins come first, as if last in pop order
        heap = sorted((0, end, i) for i in won)
        while heap:
            k, p, i = heappop(heap)
            rank[i] = k
            for j in preds[i]:
                need[j] -= 1
                if not need[j]:
                    heappush(heap, (k + (index[j] < p), index[j], j))
        spoiler_wins = rank[0] <= end
        strategy: dict[GameState, Move] = {}
        for i, out in edges.items():
            # the winner's moves from its own positions that it wins from
            if (keys[i][2] < 0) == (rank[i] <= end) == spoiler_wins:
                if spoiler_wins:  # the first successor of least rank, if below rank[i]
                    k = min(range(len(out)), key=lambda k: rank[out[k]])
                    if rank[out[k]] >= rank[i]:
                        continue
                else:  # the first unranked reply
                    k = next(k for k, j in enumerate(out) if rank[j] > end)
                strategy[self._state(keys[i])] = self._move(keys[i], k, keys[out[k]])
        return GameResult(_TURN[not spoiler_wins], strategy)

    def _solve_bounded(self, state: GameState, max_positions: int) -> GameResult:
        value: dict[tuple, str] = {}
        best: dict[tuple, tuple[int, tuple]] = {}

        def val(s: tuple):
            """The search at s: it yields each successor for its value."""
            if len(value) >= max_positions:
                raise StateSpaceExceededError(max_positions, "game position space")
            res, nxt = self._visit(s)
            if res is None:
                turn, res = _TURN[s[2] >= 0], _TURN[s[2] < 0]
                for k, t in enumerate(nxt):
                    if (yield t) == turn:
                        res = turn
                        best[s] = (k, t)
                        break
            return res

        winner = _walk(val, self._position(state), value)
        strategy = {
            self._state(s): self._move(s, k, t) for s, (k, t) in best.items() if value[s] == winner
        }
        return GameResult(winner, strategy)

    # -- scripted play -------------------------------------------------------------

    def replay(self, state: GameState, moves: Sequence[Move]) -> list[GameState]:
        """Apply a scripted move list, validating every step; returns all
        visited states including the start."""
        out = [state]
        pos = self._position(state)
        for idx, move in enumerate(moves):
            pos = self._follow(pos, move, idx)
            out.append(self._state(pos))
        return out

    def sample_play(
        self, state: GameState, result: GameResult, *, max_plies: int = 40
    ) -> list[Move]:
        """A demonstration line: the winner follows the computed strategy,
        the loser takes its first legal move.  Cut off after max_plies."""
        moves: list[Move] = []
        pos = self._position(state)
        for _ in range(max_plies):
            res, nxt = self._visit(pos)
            if res is not None:
                break
            move = result.strategy.get(self._state(pos)) or self._move(pos, 0, nxt[0])
            pos = self._follow(pos, move, len(moves))
            moves.append(move)
        return moves


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
    for i, move in enumerate(moves):
        if isinstance(move, DuplicatorMove) and i and isinstance(moves[i - 1], SpoilerMove):
            continue  # on its Spoiler move's line
        text = move.render()
        if isinstance(move, SpoilerMove):
            reply = moves[i + 1] if i + 1 < len(moves) else None
            text += f" | {reply.render()}" if isinstance(reply, DuplicatorMove) else " | (no reply)"
        lines.append(f"{len(lines) + 1}. {text}")
    outcome = game.winner_at(states[-1])
    lines.append(f"result: {outcome if outcome else 'undecided'}")
    return "\n".join(lines)
