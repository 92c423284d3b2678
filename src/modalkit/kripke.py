"""Kripke models with memory sets and nominal assignments, plus the text
format and the deterministic random generator.

Model file format (one directive per line, '#' comments allowed):

    worlds: w1 w2 w3
    rel r1: w1->w2 w2->w1
    val p: w1 w3
    mem: w2
    nom i1: w3
    point: w1

Exactly one ``worlds:`` line is required; everything else is optional.
``rel``/``val`` lines may have an empty payload, which *declares* the name
with an empty extension (useful because a declared-but-empty proposition is
still part of the model's signature).  Propositions absent from ``val`` are
false everywhere; relations absent from ``rel`` are empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    InvariantViolationError,
    ModelFormatError,
    UnknownWorldError,
)
from .syntax import Signature


@dataclass(frozen=True, eq=True)
class KripkeModel:
    """A relational model: worlds, named relations, valuation, memory, nominals.

    Fields are normalized on construction (worlds sorted, extensions frozen).
    Instances should be treated as immutable; the mem_* helpers return fresh
    models.
    """

    worlds: tuple[str, ...]
    rels: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    val: dict[str, frozenset[str]] = field(default_factory=dict)
    mem: frozenset[str] = frozenset()
    noms: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        worlds = tuple(sorted(self.worlds))
        if len(set(worlds)) != len(worlds):
            raise InvariantViolationError("duplicate world ids")
        if not worlds:
            raise InvariantViolationError("a model needs at least one world")
        wset = set(worlds)
        rels = {name: frozenset(tuple(p) for p in pairs) for name, pairs in self.rels.items()}
        val = {name: frozenset(ws) for name, ws in self.val.items()}
        mem = frozenset(self.mem)
        noms = dict(self.noms)
        for name, pairs in rels.items():
            for a, b in pairs:
                if a not in wset or b not in wset:
                    raise InvariantViolationError(
                        f"relation {name!r} mentions unknown world {a if a not in wset else b!r}"
                    )
        for name, ws in val.items():
            for w in ws:
                if w not in wset:
                    raise InvariantViolationError(f"valuation of {name!r} mentions unknown world {w!r}")
        for w in mem:
            if w not in wset:
                raise InvariantViolationError(f"memory mentions unknown world {w!r}")
        for name, w in noms.items():
            if w not in wset:
                raise InvariantViolationError(f"nominal {name!r} assigned to unknown world {w!r}")
        # Signature construction validates identifier shape and disjointness.
        sig = Signature(
            props=tuple(sorted(val)), rels=tuple(sorted(rels)), noms=tuple(sorted(noms))
        )
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "rels", rels)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "mem", mem)
        object.__setattr__(self, "noms", noms)
        object.__setattr__(self, "_sig", sig)
        succ: dict[tuple[str, str], list[str]] = {}
        for name, pairs in rels.items():
            for a, b in pairs:
                succ.setdefault((name, a), []).append(b)
        object.__setattr__(self, "_succ", {key: tuple(sorted(bs)) for key, bs in succ.items()})

    def _canonical_key(self):
        return (
            self.worlds,
            tuple((name, tuple(sorted(self.rels[name]))) for name in sorted(self.rels)),
            tuple((name, tuple(sorted(self.val[name]))) for name in sorted(self.val)),
            tuple(sorted(self.mem)),
            tuple(sorted(self.noms.items())),
        )

    def __hash__(self):
        return hash(self._canonical_key())

    @property
    def signature(self) -> Signature:
        return self._sig  # type: ignore[attr-defined]

    def successors(self, rel: str, world: str) -> tuple[str, ...]:
        """Sorted successors of world via rel (empty for an undeclared rel or
        a world without successors)."""
        return self._succ.get((rel, world), ())  # type: ignore[attr-defined]

    def require_world(self, world: str) -> None:
        if world not in self.worlds:
            raise UnknownWorldError(world)


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    world: str

    def __post_init__(self):
        self.model.require_world(self.world)

    def __hash__(self):
        return hash((self.model, self.world))


def mem_add(model: KripkeModel, world: str) -> KripkeModel:
    """The model with ``world`` added to the memory set."""
    model.require_world(world)
    return KripkeModel(model.worlds, model.rels, model.val, model.mem | {world}, model.noms)


def mem_remove(model: KripkeModel, world: str) -> KripkeModel:
    """The model with ``world`` removed from the memory set."""
    model.require_world(world)
    return KripkeModel(model.worlds, model.rels, model.val, model.mem - {world}, model.noms)


def mem_wipe(model: KripkeModel) -> KripkeModel:
    """The model with an empty memory set."""
    return KripkeModel(model.worlds, model.rels, model.val, frozenset(), model.noms)


# ---------------------------------------------------------------------------
# Text format


def load_model_file(path: Path) -> tuple[KripkeModel, str | None]:
    """``load_model`` of a file's text, which must be UTF-8."""
    data = path.read_bytes()
    try:
        return load_model(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ModelFormatError(line, f"not UTF-8 text ({exc.reason})") from None


def load_model(text: str) -> tuple[KripkeModel, str | None]:
    """Parse the model format; returns (model, point-or-None)."""
    worlds: tuple[str, ...] | None = None
    worlds_line = 0
    directives: list[tuple[int, str, str | None, str]] = []  # (line, kind, name, payload)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, payload = line.partition(":")
        if not sep:
            raise ModelFormatError(lineno, "expected 'directive: payload'")
        head = head.strip()
        payload = payload.strip()
        parts = head.split()
        if not parts:
            raise ModelFormatError(lineno, "expected a directive name before ':'")
        if parts[0] == "worlds" and len(parts) == 1:
            if worlds is not None:
                raise ModelFormatError(lineno, "duplicate worlds line")
            if not payload:
                raise ModelFormatError(lineno, "worlds line needs at least one world")
            worlds = tuple(payload.split())
            worlds_line = lineno
        elif parts[0] in ("rel", "val", "nom") and len(parts) == 2:
            directives.append((lineno, parts[0], parts[1], payload))
        elif parts[0] in ("mem", "point") and len(parts) == 1:
            directives.append((lineno, parts[0], None, payload))
        else:
            raise ModelFormatError(lineno, f"unknown directive {head!r}")
    if worlds is None:
        raise ModelFormatError(1, "missing worlds line")

    wset = set(worlds)

    def check_world(lineno: int, w: str) -> str:
        if w not in wset:
            raise ModelFormatError(lineno, f"unknown world {w!r}")
        return w

    rels: dict[str, frozenset[tuple[str, str]]] = {}
    val: dict[str, frozenset[str]] = {}
    noms: dict[str, str] = {}
    mem: frozenset[str] | None = None
    point: str | None = None
    for lineno, kind, name, payload in directives:
        if kind == "rel":
            if name in rels:
                raise ModelFormatError(lineno, f"duplicate relation {name!r}")
            pairs = []
            for chunk in payload.split():
                src, arrow, dst = chunk.partition("->")
                if not arrow or not src or not dst:
                    raise ModelFormatError(lineno, f"malformed edge {chunk!r}")
                pairs.append((check_world(lineno, src), check_world(lineno, dst)))
            rels[name] = frozenset(pairs)
        elif kind == "val":
            if name in val:
                raise ModelFormatError(lineno, f"duplicate valuation for {name!r}")
            val[name] = frozenset(check_world(lineno, w) for w in payload.split())
        elif kind == "nom":
            if name in noms:
                raise ModelFormatError(lineno, f"duplicate nominal {name!r}")
            if len(payload.split()) != 1:
                raise ModelFormatError(lineno, "a nominal names exactly one world")
            noms[name] = check_world(lineno, payload)
        elif kind == "mem":
            if mem is not None:
                raise ModelFormatError(lineno, "duplicate mem line")
            mem = frozenset(check_world(lineno, w) for w in payload.split())
        elif kind == "point":
            if point is not None:
                raise ModelFormatError(lineno, "duplicate point line")
            if len(payload.split()) != 1:
                raise ModelFormatError(lineno, "point names exactly one world")
            point = check_world(lineno, payload)
    try:
        model = KripkeModel(worlds, rels, val, mem or frozenset(), noms)
    except InvariantViolationError as exc:
        raise ModelFormatError(worlds_line, str(exc)) from exc
    return model, point


def save_model(model: KripkeModel, point: str | None = None) -> str:
    """Render the canonical text form; load_model round-trips it."""
    lines = ["worlds: " + " ".join(model.worlds)]
    for name in sorted(model.rels):
        pairs = " ".join(f"{a}->{b}" for a, b in sorted(model.rels[name]))
        lines.append(f"rel {name}: {pairs}".rstrip())
    for name in sorted(model.val):
        lines.append(f"val {name}: {' '.join(sorted(model.val[name]))}".rstrip())
    if model.mem:
        lines.append("mem: " + " ".join(sorted(model.mem)))
    for name in sorted(model.noms):
        lines.append(f"nom {name}: {model.noms[name]}")
    if point is not None:
        model.require_world(point)
        lines.append(f"point: {point}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deterministic generation

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator, fixed here so corpora are reproducible
    bit-for-bit from a seed (including by ports in other languages).

    next_u64: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    return z ^ (z >> 31)      (all arithmetic mod 2**64)

    next_float: next_u64() >> 11, scaled by 2**-53 (uniform in [0, 1)).
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * (2.0**-53)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


@dataclass(frozen=True)
class GenParams:
    """Parameters for random_model.  Probabilities are independent per draw."""

    n_worlds: int
    edge_prob: float
    prop_prob: float
    seed: int
    sig: Signature

    def __post_init__(self):
        if self.n_worlds < 1:
            raise InvariantViolationError("n_worlds must be at least 1")
        if not (0.0 <= self.edge_prob <= 1.0 and 0.0 <= self.prop_prob <= 1.0):
            raise InvariantViolationError("probabilities must lie in [0, 1]")


def random_model(params: GenParams) -> KripkeModel:
    """Deterministic random model.

    Worlds are named w1..wN (zero-padded to a fixed width so ordering is
    lexicographic).  A single SplitMix64 stream seeded with params.seed is
    consumed in this exact order: for each relation in signature order, each
    (source, target) pair in world order, one float (edge present iff
    float < edge_prob); then for each proposition in signature order, each
    world in order, one float (member iff float < prop_prob).  The memory set
    is empty and nominals are assigned round-robin to the first worlds.
    """
    width = len(str(params.n_worlds))
    worlds = tuple(f"w{i:0{width}d}" for i in range(1, params.n_worlds + 1))
    rng = SplitMix64(params.seed)
    rels = {}
    for rel in params.sig.rels:
        pairs = set()
        for a in worlds:
            for b in worlds:
                if rng.next_float() < params.edge_prob:
                    pairs.add((a, b))
        rels[rel] = frozenset(pairs)
    val = {}
    for prop in params.sig.props:
        members = set()
        for w in worlds:
            if rng.next_float() < params.prop_prob:
                members.add(w)
        val[prop] = frozenset(members)
    noms = {nom: worlds[k % len(worlds)] for k, nom in enumerate(params.sig.noms)}
    return KripkeModel(worlds, rels, val, frozenset(), noms)
