"""Seeded inputs for the benchmark: model text, formula text and query lists.

Everything here is the benchmark's own.  It has its own splitmix64 generator
and its own writers for the `.km` model format and the formula syntax, and it
imports nothing from modalkit, so a change to the program cannot change the
inputs.  The program only ever receives the text built here.

Sizes are stratified: the schedule of (kind, dialect, size) for each slot of a
workload is fixed, and the seed draws only the structure (edges, valuation,
nominals, memory, points).  That keeps the cost of a pass similar from seed
to seed, so that the end-to-end figures of different seeds can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MASK64 = (1 << 64) - 1

PLAIN_DIALECTS = ("bml", "bml-minus", "hl", "hl-at")
MEMORY_DIALECTS = ("ml-diamond", "ml-ddiamond", "ml-forget", "ml-erase", "ml-full")
ALL_DIALECTS = PLAIN_DIALECTS + MEMORY_DIALECTS

# Operators of each dialect as the formula writer needs them.
_OPS = {
    "bml": {"neg", "diamond", "box"},
    "bml-minus": {"diamond"},
    "hl": {"neg", "diamond", "box", "nominal"},
    "hl-at": {"neg", "diamond", "box", "nominal", "at"},
    "ml-diamond": {"neg", "remember", "known", "diamond"},
    "ml-ddiamond": {"neg", "remember", "known", "ddiamond"},
    "ml-forget": {"neg", "remember", "known", "forget", "diamond"},
    "ml-erase": {"neg", "remember", "known", "erase", "diamond"},
    "ml-full": {"neg", "remember", "known", "forget", "erase", "diamond", "box", "ddiamond", "dbox"},
}


class Rng:
    """splitmix64: state += 0x9E3779B97F4A7C15, then two xor-multiply rounds."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.u64() % n

    def chance(self, p: float) -> bool:
        return (self.u64() >> 11) * (2.0**-53) < p


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class Model:
    """A pointed model on the benchmark's side, written out with text()."""

    worlds: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    val: dict[str, frozenset[str]]
    point: str
    mem: frozenset[str] = frozenset()
    noms: dict[str, str] = field(default_factory=dict)

    def text(self) -> str:
        lines = [f"worlds: {' '.join(self.worlds)}"]
        lines.append("rel r: " + " ".join(f"{a}->{b}" for a, b in sorted(self.edges)))
        for p in ("p", "q"):
            lines.append(f"val {p}: {' '.join(sorted(self.val[p]))}")
        if self.mem:
            lines.append(f"mem: {' '.join(sorted(self.mem))}")
        for name, w in sorted(self.noms.items()):
            lines.append(f"nom {name}: {w}")
        lines.append(f"point: {self.point}")
        return "\n".join(lines) + "\n"

    def successors(self, w: str) -> list[str]:
        return [b for a, b in self.edges if a == w]


def spread(slot: int) -> float:
    """A value in [0, 1) fixed by the slot alone (golden-ratio sequence), so
    that every seed gets the same mix of densities."""
    return (slot * 0.6180339887498949) % 1.0


def random_model(
    rng: Rng, n: int, prefix: str, prob: float | None, *, out_degree: int = 0,
    nominal: bool = False, memory: bool = False,
) -> Model:
    """n worlds named prefix0.., each edge present with probability prob, or
    (prob None) ``out_degree`` successors drawn for every world.  Every world is
    then made reachable from the point, so that n is the size of the
    question asked.  With ``memory`` the model starts with a random memory."""
    worlds = tuple(f"{prefix}{k}" for k in range(n))
    point = worlds[rng.below(n)]
    if prob is not None:
        edges = {(a, b) for a in worlds for b in worlds if rng.chance(prob)}
    else:
        edges = set()
        for a in worlds:
            pool = list(worlds)
            for k in range(out_degree):
                j = k + rng.below(n - k)
                pool[k], pool[j] = pool[j], pool[k]
                edges.add((a, pool[k]))
    reached = _reach(edges, point)
    for w in worlds:
        if w not in reached:
            ordered = sorted(reached)
            edges.add((ordered[rng.below(len(ordered))], w))
            reached = _reach(edges, point)
    val = {p: frozenset(w for w in worlds if rng.chance(0.5)) for p in ("p", "q")}
    noms = {"i": worlds[rng.below(n)]} if nominal else {}
    mem = frozenset(w for w in worlds if rng.chance(0.4)) if memory else frozenset()
    return Model(worlds, frozenset(edges), val, point, mem, noms)


def _reach(edges, start: str) -> set[str]:
    seen, todo = {start}, [start]
    while todo:
        a = todo.pop()
        for x, b in edges:
            if x == a and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def renamed(model: Model, prefix: str) -> Model:
    """The same model with world k of the source called prefix<k>."""
    names = {w: f"{prefix}{k}" for k, w in enumerate(model.worlds)}
    return Model(
        tuple(names[w] for w in model.worlds),
        frozenset((names[a], names[b]) for a, b in model.edges),
        {p: frozenset(names[w] for w in ws) for p, ws in model.val.items()},
        names[model.point],
        frozenset(names[w] for w in model.mem),
        {i: names[w] for i, w in model.noms.items()},
    )


def unreachable_extension(rng: Rng, model: Model, prefix: str, most: int = 2) -> Model:
    """A renamed copy plus one to ``most`` worlds that the copy cannot reach
    (their edges only leave them).  Related to the original in every
    dialect, memory ones included, because evaluation never leaves the part
    reachable from the point."""
    base = renamed(model, prefix)
    extra = tuple(f"{prefix}x{k}" for k in range(1 + rng.below(most)))
    worlds = base.worlds + extra
    edges = set(base.edges)
    edges.update((z, t) for z in extra for t in worlds if rng.chance(0.3))
    val = {p: ws | {z for z in extra if rng.chance(0.5)} for p, ws in base.val.items()}
    return Model(worlds, frozenset(edges), val, base.point, base.mem, base.noms)


def duplication(rng: Rng, model: Model, prefix: str) -> Model:
    """A renamed copy with one unnamed world cloned (same valuation, same
    incoming and outgoing edges).  Related to the original in the dialects
    without memory operators; a model whose only world is named is copied
    unchanged."""
    base = renamed(model, prefix)
    named = set(base.noms.values())
    candidates = [w for w in base.worlds if w not in named]
    if not candidates:
        return base
    world = candidates[rng.below(len(candidates))]
    clone = f"{prefix}{len(base.worlds)}"
    edges = set(base.edges)
    for a, b in base.edges:
        if a == world:
            edges.add((clone, b))
        if b == world:
            edges.add((a, clone))
        if a == world and b == world:
            edges.update({(clone, clone), (world, clone), (clone, world)})
    val = {p: ws | {clone} if world in ws else ws for p, ws in base.val.items()}
    return Model(base.worlds + (clone,), frozenset(edges), val, base.point, base.mem, base.noms)


def edge_superset(rng: Rng, model: Model, prefix: str, prob: float) -> Model:
    """A renamed copy with extra edges added.  The original is simulated by
    it in every non-memory dialect (forth moves only gain answers)."""
    base = renamed(model, prefix)
    extra = {(a, b) for a in base.worlds for b in base.worlds if rng.chance(prob)}
    return Model(base.worlds, base.edges | frozenset(extra), base.val, base.point, base.mem, base.noms)


def related_twin(rng: Rng, dialect: str, model: Model, prefix: str, most: int = 2) -> Model:
    """A model built to be related to the given one in the dialect; a memory
    dialect's twin has one to ``most`` unreachable worlds more."""
    if dialect in MEMORY_DIALECTS:
        return unreachable_extension(rng, model, prefix, most)
    return duplication(rng, model, prefix)


# ---------------------------------------------------------------------------
# Formulas


def random_formula(rng: Rng, dialect: str, depth: int, budget: int = 6) -> str:
    """Formula text of modal depth exactly ``depth`` in the dialect's syntax;
    ``budget`` bounds the number of binary connectives."""
    ops = _OPS[dialect]
    leaves = ["p", "q", "true", "false"]
    if "known" in ops:
        leaves.append("known")
    if "nominal" in ops:
        leaves.append("'i")
    if depth == 0:
        return leaves[rng.below(len(leaves))]
    roll = rng.below(100)
    if roll < 20 and budget > 0:
        op = ["&", "|", "->"][rng.below(3 if "neg" in ops else 2)]
        deep = random_formula(rng, dialect, depth, budget // 2)
        shallow = random_formula(rng, dialect, rng.below(depth), budget // 2)
        left, right = (deep, shallow) if rng.chance(0.5) else (shallow, deep)
        return f"({left} {op} {right})"
    if roll < 30 and "neg" in ops:
        return "~" + random_formula(rng, dialect, depth, budget)
    if roll < 40:
        wraps = [w for w, op in (("rem ", "remember"), ("forg ", "forget"), ("erase ", "erase"), ("@i ", "at")) if op in ops]
        if wraps:
            return wraps[rng.below(len(wraps))] + random_formula(rng, dialect, depth, budget)
    modals = [m for m, op in (("<r>", "diamond"), ("[r]", "box"), ("<<r>>", "ddiamond"), ("[[r]]", "dbox")) if op in ops]
    return modals[rng.below(len(modals))] + random_formula(rng, dialect, depth - 1, budget)


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class Query:
    """One user-level question.  ``models`` holds `.km` text: a pair for the
    two-model kinds, one model for check and minimize, the universe members
    (named ``names``) for define.  ``related`` is True when the pair was
    built to be related, so that verdict is known in advance."""

    kind: str
    dialect: str
    models: tuple[str, ...]
    formula: str | None = None
    names: tuple[str, ...] = ()
    members: tuple[str, ...] = ()
    related: bool | None = None


def pairs_small(seed: int, pairs: int) -> list[Query]:
    """Pointed pairs over models of 1-4 worlds in all nine dialects.  Every
    288 pairs hold, per dialect, every (left size, right size) combination
    once as an independent draw, and each left size four times as a pair
    built to be related, so half the pairs are related.  Edge probabilities
    range over [0.25, 0.75).  A memory dialect's related twin is its left
    model plus one unreachable world, so that left model has at most three
    worlds and every model stays within four: a game on a four-world model
    and its five-world twin could take a second and 14 MB, and set the
    run's peak memory alone.  Each pair gets a bisim and a game query."""
    combos = [
        (build_related, n_left, n_right)
        for build_related in (True, False)
        for n_left in range(1, 5)
        for n_right in range(1, 5)
    ]
    rng = Rng(seed)
    out = []
    for slot in range(pairs):
        build_related, n_left, n_right = combos[slot // len(ALL_DIALECTS) % len(combos)]
        dialect = ALL_DIALECTS[slot % len(ALL_DIALECTS)]
        hybrid = dialect in ("hl", "hl-at")
        start_memory = dialect in MEMORY_DIALECTS and slot % 4 == 0
        if build_related and dialect in MEMORY_DIALECTS:
            n_left = min(n_left, 3)
        left = random_model(rng, n_left, "a", 0.25 + 0.5 * spread(slot), nominal=hybrid, memory=start_memory)
        if build_related:
            right = related_twin(rng, dialect, left, "b", most=1)
        else:
            prob = 0.25 + 0.5 * spread(slot + 7)
            right = random_model(rng, n_right, "b", prob, nominal=hybrid, memory=start_memory)
        texts = (left.text(), right.text())
        related = True if build_related else None
        out.append(Query("bisim", dialect, texts, related=related))
        out.append(Query("game", dialect, texts, related=related))
    return out


PLAIN_LARGE_SCHEDULE = (
    # (kind, dialect, worlds); the seed draws only the structure.  The
    # quadratic kinds (bisim, simulate, game) get 40-55 worlds, check 40-70
    # (its cross-check runs fo_check at every world) and minimize 50-70 (its
    # cross-check runs bisim on the model).  Half the slots are bisim
    # queries and a quarter are cheap ones (check, minimize, games the
    # spoiler wins at once), so that the median latency falls in the middle
    # of the bisim queries rather than at the edge of a gap between kinds.
    ("bisim-related", "bml", 55),
    ("check", "bml", 70),
    ("bisim", "hl-at", 50),
    ("game-related", "hl", 40),
    ("bisim-related", "hl", 50),
    ("simulate", "bml", 45),
    ("bisim", "bml-minus", 40),
    ("minimize", "bml", 70),
    ("bisim-related", "bml-minus", 40),
    ("simulate-related", "hl-at", 45),
    ("bisim", "bml", 55),
    ("check", "hl", 60),
    ("bisim-related", "hl-at", 55),
    ("game-related", "bml-minus", 40),
    ("bisim", "hl", 55),
    ("game", "bml", 45),
    ("bisim-related", "bml", 50),
    ("simulate-related", "bml", 40),
    ("bisim", "bml-minus", 45),
    ("check", "bml-minus", 50),
    ("bisim-related", "hl", 45),
    ("simulate", "hl", 40),
    ("bisim", "bml", 50),
    ("game-related", "bml", 45),
    ("bisim-related", "bml-minus", 50),
    ("minimize", "bml", 60),
    ("bisim", "hl-at", 45),
    ("simulate-related", "hl", 45),
    ("bisim-related", "hl-at", 40),
    ("check", "hl-at", 40),
    ("bisim", "hl", 40),
    ("game-related", "hl-at", 40),
    ("bisim-related", "bml", 45),
    ("simulate", "bml-minus", 40),
    ("bisim", "bml-minus", 55),
    ("game", "hl-at", 50),
    ("bisim-related", "hl", 55),
    ("minimize", "bml", 50),
    ("bisim", "bml", 45),
    ("check", "bml", 45),
)


def plain_large(seed: int, rounds: int) -> list[Query]:
    """Models of 40-70 worlds (pair queries on 40-55) with three
    successors per world in the four dialects without memory; the schedule
    above, repeated."""
    rng = Rng(seed)
    out = []
    for _ in range(rounds):
        for kind, dialect, n in PLAIN_LARGE_SCHEDULE:
            hybrid = dialect in ("hl", "hl-at")
            left = random_model(rng, n, "a", None, out_degree=3, nominal=hybrid)
            if kind == "check":
                phi = random_formula(rng, dialect, 3 + rng.below(3))
                out.append(Query("check", dialect, (left.text(),), formula=phi))
            elif kind == "minimize":
                out.append(Query("minimize", "bml", (left.text(),)))
            else:
                base, _, built = kind.partition("-")
                if built and base == "simulate":
                    right = edge_superset(rng, left, "b", 1.0 / n)
                elif built:
                    right = duplication(rng, left, "b")
                else:
                    right = random_model(rng, n, "b", None, out_degree=3, nominal=hybrid)
                out.append(Query(base, dialect, (left.text(), right.text()), related=True if built else None))
    return out


MEMORY_MID_DIALECTS = MEMORY_DIALECTS + ("hl-at",)
SEPARATORS = 5  # separate queries per memory dialect and round


def _universe(rng: Rng, dialect: str, size: int) -> tuple[list[str], list[str], tuple[str, ...]]:
    """Distinct pointed models of one or two worlds, and a member set chosen
    by one of four predicates the seed picks."""
    hybrid = dialect == "hl-at"
    texts: list[str] = []
    models: list[Model] = []
    while len(texts) < size:
        m = random_model(rng, 1 + rng.below(2), "u", 0.5, nominal=hybrid)
        t = m.text()
        if t not in texts:
            texts.append(t)
            models.append(m)
    names = [f"m{k:02d}" for k in range(size)]
    rule = rng.below(4)
    if rule == 0:  # the point satisfies p
        inside = [m.point in m.val["p"] for m in models]
    elif rule == 1:  # some successor of the point satisfies q
        inside = [any(s in m.val["q"] for s in m.successors(m.point)) for m in models]
    elif rule == 2:  # the point sees itself
        inside = [(m.point, m.point) in m.edges for m in models]
    else:  # a coin flip per member
        inside = [rng.chance(0.5) for _ in models]
    members = tuple(n for n, keep in zip(names, inside) if keep)
    return texts, names, members


def memory_mid(seed: int, rounds: int) -> list[Query]:
    """The memory dialects and hl-at on models of four worlds, whose related
    twins have five or six: bounded theories of related pairs, separators of
    independent pairs, bisim of related pairs (large witnesses), and
    definability over small universes.  Larger models are left out because
    their cost varies a thousandfold with the structure, so that one query
    would decide the figures of a run.  The separators, whose cost varies
    least, come five to a memory dialect: two thirds of the queries, so that
    the median latency falls among them rather than in a gap between kinds,
    and so that it rests on enough of them to vary little from seed to
    seed."""
    rng = Rng(seed)
    out = []
    slot = 0

    def draw(prefix: str, dialect: str) -> Model:
        nonlocal slot
        slot += 1
        prob = 0.25 + 0.5 * spread(slot)
        start_memory = dialect in MEMORY_DIALECTS and slot % 4 == 0
        return random_model(rng, 4, prefix, prob, nominal=dialect == "hl-at", memory=start_memory)

    for r in range(rounds):
        for dialect in MEMORY_MID_DIALECTS:
            left = draw("a", dialect)
            twin = related_twin(rng, dialect, left, "b")
            out.append(Query("theory", dialect, (left.text(), twin.text()), related=True))
            for _ in range(SEPARATORS if dialect in MEMORY_DIALECTS else 1):
                left, right = draw("a", dialect), draw("b", dialect)
                out.append(Query("separate", dialect, (left.text(), right.text())))
            left = draw("a", dialect)
            twin = related_twin(rng, dialect, left, "b")
            out.append(Query("bisim", dialect, (left.text(), twin.text()), related=True))
        dialect = MEMORY_MID_DIALECTS[r % len(MEMORY_MID_DIALECTS)]
        texts, names, members = _universe(rng, dialect, 12)
        out.append(Query("define", dialect, tuple(texts), names=tuple(names), members=members))
    return out
