"""Randomized self-check suites, runnable from the command line.

Each suite draws deterministic pseudo-random models and formulas, exercises
one correspondence the package promises end to end, and reports failures as
human-readable strings.  They are smoke checks, not proofs: small models,
bounded depth, a fixed number of cases per run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import semantics
from .analysis import minimize_map
from .equivalence import bisimilar, conditions_for
from .errors import InvariantViolationError
from .fo import fo_check
from .games import solve_game
from .kripke import GenParams, KripkeModel, SplitMix64, random_model
from .syntax import (
    DIALECTS,
    MODALITIES,
    And,
    At,
    Bottom,
    Erase,
    Forget,
    Formula,
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
    get_dialect,
    print_formula,
)
from .translate import translate_formula, translate_model


@dataclass(frozen=True)
class SuiteReport:
    name: str
    cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _sig_for(spec: LogicSpec) -> Signature:
    noms = ("i",) if spec.allows("nominal") else ()
    return Signature(props=("p", "q"), rels=("r",), noms=noms)


def random_formula(spec: LogicSpec, sig: Signature, rng: SplitMix64, depth: int) -> Formula:
    """A uniform-ish random formula of the dialect with syntax-tree depth at
    most ``depth``, driven entirely by the given generator: it draws a node
    class, then fills the class's fields in order, each name field with a
    draw from its pool and each subformula field with a formula one level
    shallower."""
    options = [Top, Bottom]
    if sig.props:
        options += [Prop, Prop]
    if spec.allows("known"):
        options.append(Known)
    if spec.allows("nominal") and sig.noms:
        options.append(Nom)
    if depth > 0:
        options += [And, And, Or, Or]
        if spec.has_negation:
            options += [Not, Not, Implies, Iff]
        for op, cls in MODALITIES.items():
            if spec.allows(op) and sig.rels:
                options += [cls, cls]
        for cls in (Remember, Forget, Erase):
            if spec.allows(cls.__name__.lower()):
                options.append(cls)
        if spec.allows("at") and sig.noms:
            options.append(At)
    cls = options[rng.next_below(len(options))]
    pools = {"rel": sig.rels, "nom": sig.noms, "name": sig.props if cls is Prop else sig.noms}
    args = []
    for f in fields(cls):
        pool = pools.get(f.name)
        if pool is None:
            args.append(random_formula(spec, sig, rng, depth - 1))
        else:
            args.append(pool[rng.next_below(len(pool))])
    return cls(*args)


def _random_case_model(spec: LogicSpec, rng: SplitMix64, max_worlds: int) -> KripkeModel:
    n = 1 + rng.next_below(max_worlds)
    return random_model(
        GenParams(
            n_worlds=n,
            edge_prob=0.25 + 0.5 * rng.next_float(),
            prop_prob=0.5,
            seed=rng.next_u64(),
            sig=_sig_for(spec),
        )
    )


def _extend_unreachably(model: KripkeModel, rng: SplitMix64) -> tuple[KripkeModel, dict[str, str]]:
    """Rename every world and bolt on extra worlds that the original part
    cannot reach (edges only among the new worlds and from them into the old
    part).  Safe for every dialect, memory ones included: evaluation never
    leaves the part reachable from the start.  Returns the new model and the
    renaming map."""
    renamed = {w: f"{w}_m" for w in model.worlds}
    extra = [f"z{k}" for k in range(1 + rng.next_below(2))]
    worlds = tuple(sorted(renamed.values())) + tuple(extra)
    rels = {}
    for name, pairs in model.rels.items():
        out = {(renamed[a], renamed[b]) for a, b in pairs}
        for z in extra:
            for t in worlds:
                if rng.next_float() < 0.3:
                    out.add((z, t))
        rels[name] = frozenset(out)
    val = {}
    for p, ws in model.val.items():
        marked = {renamed[w] for w in ws}
        marked.update(z for z in extra if rng.next_float() < 0.5)
        val[p] = frozenset(marked)
    noms = {n: renamed[w] for n, w in model.noms.items()}
    return KripkeModel(worlds, rels, val, frozenset(renamed[w] for w in model.mem), noms), renamed


def _duplicate_world(model: KripkeModel, world: str) -> KripkeModel:
    """A copy of the model with ``world`` cloned (same valuation, same
    incoming and outgoing edges, loops expanded to the full square).

    Preserves equivalence for dialects without memory operators; with
    memory the clone is detectable (remembering a visit to one copy says
    nothing about the other), so memory dialects must not use this."""
    clone = world + "_dup"
    worlds = model.worlds + (clone,)
    rels = {}
    for name, pairs in model.rels.items():
        out = set(pairs)
        for a, b in pairs:
            if a == world:
                out.add((clone, b))
            if b == world:
                out.add((a, clone))
            if a == world and b == world:
                out.update({(clone, clone), (world, clone), (clone, world)})
        rels[name] = frozenset(out)
    val = {
        p: ws | {clone} if world in ws else ws for p, ws in model.val.items()
    }
    return KripkeModel(worlds, rels, val, model.mem, model.noms)


# ---------------------------------------------------------------------------
# The four suites


def translation_suite(seed: int = 2026, cases: int = 120) -> SuiteReport:
    """First-order translation agrees with direct evaluation."""
    rng = SplitMix64(seed)
    dialects = sorted(DIALECTS)
    failures = []
    for k in range(cases):
        spec = get_dialect(dialects[k % len(dialects)])
        sig = _sig_for(spec)
        model = _random_case_model(spec, rng, max_worlds=4)
        world = model.worlds[rng.next_below(len(model.worlds))]
        phi = random_formula(spec, sig, rng, depth=4)
        direct = semantics.check(model, world, phi)
        structure, assignment = translate_model(model, world)
        translated = fo_check(structure, assignment, translate_formula(phi))
        if direct != translated:
            failures.append(
                f"case {k} [{spec.name}] {print_formula(phi)} at {world}: "
                f"direct={direct} translated={translated}"
            )
    return SuiteReport("translation", cases, tuple(failures))


def relation_theory_suite(seed: int = 2026, cases: int = 60) -> SuiteReport:
    """World duplication yields a related pair, and related points agree on
    random formulas (one-directionally for negation-free dialects)."""
    rng = SplitMix64(seed)
    dialects = sorted(DIALECTS)
    failures = []
    for k in range(cases):
        spec = get_dialect(dialects[k % len(dialects)])
        sig = _sig_for(spec)
        model = _random_case_model(spec, rng, max_worlds=3)
        start = model.worlds[rng.next_below(len(model.worlds))]
        if conditions_for(spec).memory_active:
            other, renamed = _extend_unreachably(model, rng)
            twin = renamed[start]
            label = "unreachable extension"
        else:
            named = set(model.noms.values())
            candidates = [w for w in model.worlds if w not in named]
            if not candidates:
                continue
            target = candidates[rng.next_below(len(candidates))]
            other = _duplicate_world(model, target)
            twin = start
            label = f"duplication of {target}"
        verdict = bisimilar(spec, model, start, other, twin)
        if not verdict.related:
            failures.append(f"case {k} [{spec.name}] {label} not related")
            continue
        for _ in range(5):
            phi = random_formula(spec, sig, rng, depth=3)
            a = semantics.check(model, start, phi)
            b = semantics.check(other, twin, phi)
            bad = (a and not b) if not spec.has_negation else (a != b)
            if bad:
                failures.append(
                    f"case {k} [{spec.name}] related pair disagrees on {print_formula(phi)}"
                )
                break
    return SuiteReport("relation-theory", cases, tuple(failures))


def game_agreement_suite(seed: int = 2026, cases: int = 60) -> SuiteReport:
    """The unbounded game has a Duplicator win exactly on related pairs."""
    rng = SplitMix64(seed)
    dialects = sorted(DIALECTS)
    failures = []
    for k in range(cases):
        spec = get_dialect(dialects[k % len(dialects)])
        left = _random_case_model(spec, rng, max_worlds=3)
        right = _random_case_model(spec, rng, max_worlds=3)
        w = left.worlds[rng.next_below(len(left.worlds))]
        v = right.worlds[rng.next_below(len(right.worlds))]
        related = bisimilar(spec, left, w, right, v).related
        winner = solve_game(spec, left, w, right, v).winner
        if related != (winner == "duplicator"):
            failures.append(
                f"case {k} [{spec.name}] relation says {related}, game says {winner}"
            )
    return SuiteReport("game-agreement", cases, tuple(failures))


def minimization_suite(seed: int = 2026, cases: int = 60) -> SuiteReport:
    """Quotients are equivalent to the original, idempotent, and no larger."""
    rng = SplitMix64(seed)
    spec = get_dialect("bml")
    sig = Signature(props=("p", "q"), rels=("r",))
    failures = []
    for k in range(cases):
        n = 1 + rng.next_below(5)
        model = random_model(
            GenParams(
                n_worlds=n,
                edge_prob=0.3 + 0.4 * rng.next_float(),
                prop_prob=0.5,
                seed=rng.next_u64(),
                sig=sig,
            )
        )
        small, rep = minimize_map(model)
        if len(small.worlds) > len(model.worlds):
            failures.append(f"case {k}: quotient grew")
            continue
        again, _ = minimize_map(small)
        if again != small:
            failures.append(f"case {k}: minimization is not idempotent")
            continue
        for w in model.worlds:
            if not bisimilar(spec, model, w, small, rep[w]).related:
                failures.append(f"case {k}: world {w} not related to its representative")
                break
            phi = random_formula(spec, sig, rng, depth=3)
            if semantics.check(model, w, phi) != semantics.check(small, rep[w], phi):
                failures.append(f"case {k}: {print_formula(phi)} differs across the quotient")
                break
    return SuiteReport("minimization", cases, tuple(failures))


def run_all(seed: int = 2026, cases: int = 60) -> list[SuiteReport]:
    if cases < 0:
        raise InvariantViolationError(f"cases must be at least 0, got {cases}")
    return [
        translation_suite(seed, max(cases, 2 * len(DIALECTS))),
        relation_theory_suite(seed, cases),
        game_agreement_suite(seed, cases),
        minimization_suite(seed, cases),
    ]
