"""The (bi)simulation engines, block refinement for symmetric conditions
and row refinement for directed ones, checked against the synchronous
rounds and the pair fixpoint kept in conftest as the oracle: condition
derivation, witnesses, distinguishers, the direct relation verifier, and
partition refinement.

conditions_for is pinned as a table because everything downstream hangs off
it; the fixture models carry hand-checked expected relations and separating
formulas.  verify_relation doubles as the oracle for engine output: whatever
the fixpoint returns as a witness must pass the defining conditions verbatim.
"""

import gc
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SIG,
    RefSpace,
    _Engine,
    chain_model,
    fixture_model,
    models,
    reference_conditions_for,
    sig_for,
)
from modalkit.configs import CLAUSES, initial_pair
from modalkit.equivalence import (
    Config,
    SimConditions,
    _Blocks,
    _distinguisher,
    _engine,
    _Rows,
    bisimilar,
    bml_partition_refinement,
    conditions_for,
    directed_conditions,
    serialize_witness,
    simulated_by,
    verify_relation,
)
from modalkit.errors import (
    InvariantViolationError,
    StateSpaceExceededError,
    UnknownWorldError,
)
from modalkit.kripke import GenParams, KripkeModel, random_model
from modalkit.semantics import check
from modalkit.syntax import DIALECTS, OPERATORS, LogicSpec, Signature, modal_depth, print_formula

BML = DIALECTS["bml"]
BML_MINUS = DIALECTS["bml-minus"]
ML = DIALECTS["ml-diamond"]


def _pair(w: str, v: str, mem1=frozenset(), mem2=frozenset()):
    return (Config(frozenset(mem1), w), Config(frozenset(mem2), v))


# ---------------------------------------------------------------------------
# Condition derivation

CONDITION_TABLE = {
    # negation makes every active direction two-way
    "bml": dict(forth=True, back=True),
    "bml-minus": dict(forth=True, atomic_one_directional=True),
    "hl": dict(forth=True, back=True, nagree=True),
    "hl-at": dict(forth=True, back=True, nagree=True, nom=True),
    "ml-diamond": dict(forth=True, back=True, kagree=True, remember=True),
    "ml-ddiamond": dict(mforth=True, mback=True, kagree=True, remember=True),
    "ml-forget": dict(forth=True, back=True, kagree=True, remember=True, forget=True),
    "ml-erase": dict(forth=True, back=True, kagree=True, remember=True, erase=True),
    "ml-full": dict(
        forth=True,
        back=True,
        mforth=True,
        mback=True,
        kagree=True,
        remember=True,
        forget=True,
        erase=True,
    ),
}


@pytest.mark.parametrize("name", sorted(CONDITION_TABLE))
def test_conditions_for(name):
    assert conditions_for(DIALECTS[name]) == SimConditions(**CONDITION_TABLE[name])


def _every_spec() -> list[LogicSpec]:
    """Every LogicSpec the constructor accepts: each operator subset, with
    and without negation."""
    specs = []
    for n in range(len(OPERATORS) + 1):
        for ops in combinations(sorted(OPERATORS), n):
            for neg in (True, False):
                try:
                    specs.append(LogicSpec("any", frozenset(ops), neg))
                except InvariantViolationError:
                    pass
    return specs


def test_conditions_for_matches_the_reference_on_every_spec():
    """The condition set read from configs.CLAUSES, MEMORY_UPDATES and the
    dual table is the hand-listed one on every valid dialect."""
    specs = _every_spec()
    assert {spec.operators for spec in specs} >= {spec.operators for spec in DIALECTS.values()}
    for spec in specs:
        assert conditions_for(spec) == reference_conditions_for(spec), spec


def test_directed_conditions():
    directed = directed_conditions(conditions_for(DIALECTS["ml-full"]))
    assert not directed.back and not directed.mback
    assert directed.atomic_one_directional
    assert directed.forth and directed.mforth and directed.remember


def test_memory_active_flag():
    assert not conditions_for(BML).memory_active
    assert not conditions_for(DIALECTS["hl-at"]).memory_active
    assert conditions_for(ML).memory_active


# ---------------------------------------------------------------------------
# Relatedness on the fixture models


def test_unwound_pair_is_bisimilar_with_witness():
    big, w = fixture_model("four_world.km")
    small, v = fixture_model("two_world_loop.km")
    out = bisimilar(BML, big, w, small, v)
    assert out.related and out.distinguisher is None
    expected = {_pair("w", "v"), _pair("b", "v"), _pair("c", "z"), _pair("d", "z")}
    assert expected <= out.witness
    assert verify_relation(conditions_for(BML), big, small, out.witness) is None


def test_witness_serialization():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    out = bisimilar(BML, refl, a, cyc, b)
    assert out.related
    assert serialize_witness(out.witness) == "((|a),(|b))\n((|a),(|c))"


def test_fork_simulated_one_way():
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    out = simulated_by(BML_MINUS, two, w0, three, v0)
    assert out.related
    directed = directed_conditions(conditions_for(BML_MINUS))
    assert verify_relation(directed, two, three, out.witness) is None

    back = simulated_by(BML_MINUS, three, v0, two, w0)
    assert not back.related
    assert print_formula(back.distinguisher) == "<e>r"


def test_fork_not_bisimilar_with_distinguisher():
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    out = bisimilar(BML, three, v0, two, w0)
    assert not out.related and out.witness is None
    assert print_formula(out.distinguisher) == "<e>(r & ~q)"
    assert check(three, v0, out.distinguisher)
    assert not check(two, w0, out.distinguisher)


def test_deep_distinguisher_is_built_without_recursion(low_recursion_limit):
    """600 nested modalities: deeper than a recursive build can go.  Its
    parts keep the texts printed while it was built, so printing it needs
    no frame per level either, even under a recursion limit of 100."""
    outcome = bisimilar(BML, chain_model(600, "a"), "a0", chain_model(601, "b"), "b0")
    assert not outcome.related
    assert print_formula(outcome.distinguisher) == "<r>" * 599 + "[r]false"


def test_distinguisher_renders_each_part_once(monkeypatch):
    """Each part keeps its printed text, so the printer runs a bounded
    number of times per level: the 200-level chain distinguisher once cost
    about 200^2 / 2 renders, one full render of each part per
    conjunction."""
    from modalkit import syntax

    calls = []
    render = syntax._render
    monkeypatch.setattr(syntax, "_render", lambda need: calls.append(1) or render(need))
    outcome = bisimilar(BML, chain_model(200, "a"), "a0", chain_model(201, "b"), "b0")
    assert len(calls) <= 5 * 200
    monkeypatch.undo()
    assert print_formula(outcome.distinguisher) == "<r>" * 199 + "[r]false"


def test_memory_splits_what_bml_equates():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    assert bisimilar(BML, refl, a, cyc, b).related
    out = bisimilar(ML, cyc, b, refl, a)
    assert not out.related
    phi = out.distinguisher
    assert phi is not None and modal_depth(phi) <= 4
    assert check(cyc, b, phi)
    assert not check(refl, a, phi)


def test_distinguisher_search_can_be_skipped():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    out = bisimilar(ML, cyc, b, refl, a, distinguisher_depth=0)
    assert not out.related and out.distinguisher is None


def test_negative_distinguisher_depth_is_rejected():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    for decide in (bisimilar, simulated_by):
        with pytest.raises(InvariantViolationError, match="got -1"):
            decide(ML, refl, a, cyc, b, distinguisher_depth=-1)


def _named_models():
    """A named reflexive world against a two-cycle naming one of its worlds."""
    named_loop = KripkeModel(("w",), {"r": frozenset({("w", "w")})}, {}, noms={"i": "w"})
    named_cycle = KripkeModel(
        ("b", "c"), {"r": frozenset({("b", "c"), ("c", "b")})}, {}, noms={"i": "b"}
    )
    return named_loop, named_cycle


def test_nominals_constrain_relatedness():
    named_loop, named_cycle = _named_models()
    assert bisimilar(BML, named_loop, "w", named_cycle, "b").related
    out = bisimilar(DIALECTS["hl"], named_loop, "w", named_cycle, "b")
    assert not out.related
    phi = out.distinguisher
    assert check(named_loop, "w", phi) and not check(named_cycle, "b", phi)


def test_at_reaches_unconnected_worlds():
    lit = KripkeModel(("w", "z"), {"r": frozenset()}, {"p": frozenset({"z"})}, noms={"i": "z"})
    unlit = KripkeModel(("v", "y"), {"r": frozenset()}, {"p": frozenset()}, noms={"i": "y"})
    assert bisimilar(DIALECTS["hl"], lit, "w", unlit, "v").related
    out = bisimilar(DIALECTS["hl-at"], lit, "w", unlit, "v")
    assert not out.related
    phi = out.distinguisher
    assert phi is not None
    assert check(lit, "w", phi) and not check(unlit, "v", phi)


def test_nominal_vocabulary_must_match():
    named = KripkeModel(("w",), {}, {}, noms={"i": "w"})
    bare = KripkeModel(("v",), {}, {})
    with pytest.raises(InvariantViolationError):
        bisimilar(DIALECTS["hl"], named, "w", bare, "v")


def test_unknown_world():
    refl, a = fixture_model("reflexive.km")
    with pytest.raises(UnknownWorldError):
        bisimilar(BML, refl, "nope", refl, a)
    # a relation pair naming a world its model lacks is an error, not a pair
    # that passes or fails the conditions
    line = KripkeModel(("a", "b"), {"r": frozenset({("a", "b")})}, {})
    for name in ("bml", "hl-at"):
        for bad in (_pair("zz", "zz"), _pair("a", "zz"), _pair("zz", "a")):
            with pytest.raises(UnknownWorldError):
                verify_relation(conditions_for(DIALECTS[name]), line, line, frozenset({bad}))
    # so is one that names it in a memory, though its own worlds are known
    remembered = {_pair("b", "b", {"zz"}, {"zz"}), _pair("b", "b", {"b", "zz"}, {"b", "zz"})}
    with pytest.raises(UnknownWorldError, match="zz"):
        verify_relation(conditions_for(ML), line, line, frozenset(remembered))


def test_pair_space_caps():
    big, w = fixture_model("four_world.km")
    small, v = fixture_model("two_world_loop.km")
    with pytest.raises(StateSpaceExceededError, match="^configuration pair space exceeds the limit of 7$"):
        bisimilar(BML, big, w, small, v, max_pairs=7)  # 4 x 2 = 8 pairs
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    # memory dialects cap each side's configurations, walked before any
    # pair is built; here the right side reaches more than two
    with pytest.raises(StateSpaceExceededError, match="^configuration space exceeds the limit of 2$"):
        bisimilar(ML, refl, a, cyc, b, max_pairs=2, distinguisher_depth=0)
    # and a related pair caps the witness walk over the pairs: each side
    # reaches 24 configurations, the start pair 56 pairs
    with pytest.raises(StateSpaceExceededError, match="^configuration pair space exceeds the limit of 24$"):
        bisimilar(ML, big, "w", big, "b", max_pairs=24)
    # the directed conditions take the row refinement, with the same cap
    with pytest.raises(StateSpaceExceededError, match="^configuration pair space exceeds the limit of 7$"):
        simulated_by(BML, big, w, small, v, max_pairs=7)
    with pytest.raises(StateSpaceExceededError, match="^configuration pair space exceeds the limit of 7$"):
        bisimilar(BML_MINUS, big, w, small, v, max_pairs=7)
    # 1100 x 1100 world pairs exceed the default cap, which is checked
    # before any pair is built.
    worlds = tuple(f"w{i:04d}" for i in range(1100))
    chain = KripkeModel(worlds, {"r": frozenset(zip(worlds, worlds[1:]))})
    for solve in (bisimilar, simulated_by):
        start = time.perf_counter()
        with pytest.raises(StateSpaceExceededError):
            solve(BML, chain, worlds[0], chain, worlds[0])
        assert time.perf_counter() - start < 1.0


def test_memory_pair_that_is_not_related_builds_no_pairs():
    """On 10 worlds the pair space exceeds the default cap, but each side
    reaches fewer than 10 · 2^10 configurations, and a pair that is not
    related is decided on those alone."""
    sig = Signature(props=("p", "q"), rels=("r",))
    model = random_model(GenParams(10, 0.2, 0.5, 7, sig))
    assert not bisimilar(ML, model, "w01", model, "w02", distinguisher_depth=0).related
    assert not simulated_by(ML, model, "w01", model, "w02", distinguisher_depth=0).related


# ---------------------------------------------------------------------------
# verify_relation as a standalone checker


def test_verify_rejects_empty_relation():
    refl, _ = fixture_model("reflexive.km")
    assert verify_relation(conditions_for(BML), refl, refl, frozenset()) == (
        None,
        "a simulation must be non-empty",
    )


def test_verify_reports_static_violation():
    two, _ = fixture_model("fork_two.km")
    refl, _ = fixture_model("reflexive.km")
    cyc, _ = fixture_model("two_cycle.km")
    named_loop, named_cycle = _named_models()
    bml, ml_d, hl = (conditions_for(DIALECTS[n]) for n in ("bml", "ml-ddiamond", "hl"))
    replies = [_pair("a", "b"), _pair("a", "b", {"a"}, {"b"})]
    cases = [
        # (conditions, models, the failing pair, pairs before it, reason)
        (bml, two, two, _pair("w0", "u1"), [], "('agree', 'p', 'right')"),  # u1 carries p
        (bml, two, two, _pair("u1", "w0"), [], "('agree', 'p', 'left')"),
        # the earlier pairs pass; then a is in its memory and c is not
        (ml_d, refl, cyc, _pair("a", "c", {"a"}, {"b"}), replies, "('kagree', 'left')"),
        (ml_d, refl, cyc, _pair("a", "b", {}, {"b"}), [], "('kagree', 'right')"),
        (hl, named_loop, named_cycle, _pair("w", "c"), [], "('nagree', 'i', 'left')"),
        (hl, named_cycle, named_loop, _pair("c", "w"), [], "('nagree', 'i', 'right')"),
    ]
    for conds, left, right, bad, before, reason in cases:
        relation = frozenset([*before, bad])
        assert verify_relation(conds, left, right, relation) == (
            bad,
            f"static condition fails: {reason}",
        )


def test_verify_reports_broken_forth():
    big, _ = fixture_model("four_world.km")
    small, _ = fixture_model("two_world_loop.km")
    partial = frozenset({_pair("w", "v"), _pair("b", "v"), _pair("c", "z")})
    pair, reason = verify_relation(conditions_for(BML), big, small, partial)
    assert pair == _pair("b", "v")
    assert reason == "forth fails for r:d"
    two, _ = fixture_model("fork_two.km")
    three, _ = fixture_model("fork_three.km")
    leaves = frozenset({_pair("w0", "v0"), _pair("u1", "t1"), _pair("u2", "t2")})
    assert verify_relation(conditions_for(BML), two, three, leaves) == (
        _pair("w0", "v0"),
        "back fails for e:t3",
    )
    # one-directional agreement lets u1 carry p, but u1 has no successor
    directed = directed_conditions(conditions_for(BML))
    assert verify_relation(directed, two, two, frozenset({_pair("w0", "u1")})) == (
        _pair("w0", "u1"),
        "forth fails for e:u1",
    )
    refl, _ = fixture_model("reflexive.km")
    cyc, _ = fixture_model("two_cycle.km")
    no_traced_reply = frozenset({_pair("a", "b"), _pair("a", "b", {"a"}, {"b"})})
    ml_d = conditions_for(DIALECTS["ml-ddiamond"])
    assert verify_relation(ml_d, refl, cyc, no_traced_reply) == (
        _pair("a", "b"),
        "mforth fails for r:a",
    )


def test_verify_reports_missing_memory_closure():
    cyc, _ = fixture_model("two_cycle.km")
    refl, _ = fixture_model("reflexive.km")
    no_closure = frozenset({_pair("b", "a")})
    pair, reason = verify_relation(conditions_for(ML), cyc, refl, no_closure)
    assert pair == _pair("b", "a")
    assert reason == "closure condition remember leads outside the relation"
    lit = KripkeModel(("w", "z"), {"r": frozenset()}, {"p": frozenset({"z"})}, noms={"i": "z"})
    unlit = KripkeModel(("v", "y"), {"r": frozenset()}, {"p": frozenset()}, noms={"i": "y"})
    no_jump = frozenset({_pair("w", "v")})
    assert verify_relation(conditions_for(DIALECTS["hl-at"]), lit, unlit, no_jump) == (
        _pair("w", "v"),
        "closure condition nom i leads outside the relation",
    )


@settings(max_examples=40)
@given(st.data())
def test_witnesses_verify(data):
    """Whenever the engine says related, its witness passes the verifier."""
    name = data.draw(st.sampled_from(sorted(DIALECTS)))
    spec = DIALECTS[name]
    from conftest import sig_for

    sig = sig_for(spec)
    mem = spec.allows("known")
    left = data.draw(models(sig=sig, max_worlds=3, allow_mem=mem))
    right = data.draw(models(sig=sig, max_worlds=3, allow_mem=mem))
    w = data.draw(st.sampled_from(left.worlds))
    v = data.draw(st.sampled_from(right.worlds))
    conds = conditions_for(spec)
    out = bisimilar(spec, left, w, right, v, distinguisher_depth=0)
    if out.related:
        assert _pair(w, v, left.mem, right.mem) in out.witness
        assert verify_relation(conds, left, right, out.witness) is None
    directed = simulated_by(spec, left, w, right, v, distinguisher_depth=0)
    if directed.related:
        assert (
            verify_relation(directed_conditions(conds), left, right, directed.witness)
            is None
        )


# ---------------------------------------------------------------------------
# The worklist against the synchronous rounds


def _synchronous_rounds(conds, left, right, initial):
    """The reference fixpoint on configuration pairs: every live pair is
    re-checked each round against the live set as the round found it.
    Returns (alive, dead) keyed by configuration pairs."""
    space = RefSpace(conds, left, right)
    if conds.memory_active:
        steps = sorted({traced for _, _, traced in space.clauses})
        materialized = {initial}
        queue = [initial]
        while queue:
            pair = queue.pop()
            neighbours = [img for _, _, img in space.closure_images(pair)]
            for rel in space.rels:
                for traced in steps:
                    targets, replies, join = space.moves(pair, rel, "left", traced)
                    neighbours.extend(join(t, u) for t in targets for u in replies)
            for nxt in neighbours:
                if nxt not in materialized:
                    materialized.add(nxt)
                    queue.append(nxt)
    else:
        mem1, mem2 = initial[0].mem, initial[1].mem
        materialized = [
            (Config(mem1, a), Config(mem2, b)) for a in left.worlds for b in right.worlds
        ]
    alive, dead = set(), {}
    for pair in materialized:
        reason = space.static_violation(pair)
        if reason is None:
            alive.add(pair)
        else:
            dead[pair] = (0, reason)

    def violation(pair):
        for kind, info, image in space.closure_images(pair):
            if image not in alive:
                return (kind, info, image)
        return space.modal_violation(pair, alive)

    rnd = 0
    while True:
        rnd += 1
        doomed = [(pair, r) for pair in alive if (r := violation(pair)) is not None]
        if not doomed:
            return alive, dead
        for pair, reason in doomed:
            alive.discard(pair)
            dead[pair] = (rnd, reason)


def _config_pair(engine, p):
    (t1, t2), K = engine.tables, engine.K
    return (t1.configs[p // K], t2.configs[p % K])


def _death(engine, p):
    """An engine's (round, reason) of pair id p in configurations and
    worlds, as ``_synchronous_rounds`` keys them."""
    (t1, t2), K = engine.tables, engine.K
    rnd, reason = engine.dead[p]
    if reason is None:
        return (0, engine.static_reason(t1.sig[p // K], t2.sig[p % K]))
    name, info, target = reason
    if name in CLAUSES:
        table = t1 if CLAUSES[name][0] == "left" else t2
        return (rnd, (name, info, table.configs[target].world))
    return (rnd, (name, info, _config_pair(engine, target)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(DIALECTS)), st.booleans(), st.data())
def test_worklist_matches_synchronous_rounds(name, directed, data):
    """Same witness, and the same (round, reason) for every materialized
    pair, as the synchronous rounds; the signature check is the static
    check."""
    spec = DIALECTS[name]
    sig = sig_for(spec)
    mem = spec.allows("known")
    left = data.draw(models(sig=sig, max_worlds=4, allow_mem=mem))
    right = data.draw(models(sig=sig, max_worlds=4, allow_mem=mem))
    w = data.draw(st.sampled_from(left.worlds))
    v = data.draw(st.sampled_from(right.worlds))
    conds = conditions_for(spec)
    if directed:
        conds = directed_conditions(conds)
    initial = initial_pair(left, w, right, v)
    engine = _Engine(conds, left, right, 2**20)
    engine.run(initial)
    alive, dead = _synchronous_rounds(conds, left, right, initial)
    (t1, t2), K = engine.tables, engine.K
    assert engine.witness() == frozenset(alive)
    assert {_config_pair(engine, p): _death(engine, p) for p in engine.dead} == dead
    space = RefSpace(conds, left, right)
    for c1, s1 in zip(t1.configs, t1.sig):
        for c2, s2 in zip(t2.configs, t2.sig):
            assert engine.static_reason(s1, s2) == space.static_violation((c1, c2))


@pytest.mark.parametrize("n", [10, 30])
def test_worklist_checks_each_pair_a_bounded_number_of_times(n, monkeypatch):
    """A chain of n worlds against one of n + 1 takes about n synchronous
    rounds, but the worklist re-checks only predecessors of deleted pairs:
    a small constant times the pair count in all, not rounds x pairs."""
    calls = 0
    check = _Engine.violation

    def counting(self, p):
        nonlocal calls
        calls += 1
        return check(self, p)

    monkeypatch.setattr(_Engine, "violation", counting)

    def chain(k):
        worlds = tuple(f"w{i:02d}" for i in range(k))
        return KripkeModel(worlds, {"r": frozenset(zip(worlds, worlds[1:]))})

    short, long = chain(n), chain(n + 1)
    engine = _Engine(conditions_for(BML), short, long, 2**20)
    start = engine.run(initial_pair(short, "w00", long, "w00"))
    pairs = n * (n + 1)
    assert len(engine.alive) + len(engine.dead) == pairs
    assert engine.dead[start][0] == n
    assert calls <= 3 * pairs


# ---------------------------------------------------------------------------
# Block refinement against the synchronous rounds and the pair engine

SYMMETRIC_PLAIN = sorted(
    name
    for name, spec in DIALECTS.items()
    if not (conds := conditions_for(spec)).memory_active and not conds.atomic_one_directional
)
MEMORY = sorted(name for name in DIALECTS if conditions_for(DIALECTS[name]).memory_active)
SYMMETRIC = SYMMETRIC_PLAIN + MEMORY


def test_symmetric_plain_dialects_take_block_refinement():
    assert SYMMETRIC_PLAIN == ["bml", "hl", "hl-at"]


def _draw_pointed_pair(spec, data):
    sig = sig_for(spec)
    left = data.draw(models(sig=sig, max_worlds=4, allow_mem=True))
    right = data.draw(models(sig=sig, max_worlds=4, allow_mem=True))
    w = data.draw(st.sampled_from(left.worlds))
    v = data.draw(st.sampled_from(right.worlds))
    return left, w, right, v


def _assert_matches_synchronous_rounds(engine, conds, left, right, initial):
    """For every pair the synchronous rounds materialize, the same verdict
    and (round, reason); the witness is their live set."""
    engine.run(initial)
    alive, dead = _synchronous_rounds(conds, left, right, initial)
    t1, t2 = engine.tables
    for pair in alive | dead.keys():
        c1, c2 = pair
        p = t1.ids[c1.mem, c1.world] * engine.K + t2.ids[c2.mem, c2.world]
        assert (p not in engine.dead) == (pair in alive)
        if pair in dead:
            assert _death(engine, p) == dead[pair]
    assert engine.witness() == frozenset(alive)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SYMMETRIC), st.data())
def test_block_refinement_matches_synchronous_rounds(name, data):
    spec = DIALECTS[name]
    left, w, right, v = _draw_pointed_pair(spec, data)
    conds = conditions_for(spec)
    engine = _Blocks(conds, left, right, 2**20)
    _assert_matches_synchronous_rounds(engine, conds, left, right, initial_pair(left, w, right, v))


def _assert_agrees_with_the_pair_engine(spec, solve, conds, data):
    """``solve`` answers as the pair fixpoint would: the same verdict and
    witness, and without memory the same printed distinguisher."""
    left, w, right, v = _draw_pointed_pair(spec, data)
    outcome = solve(spec, left, w, right, v, distinguisher_depth=0)
    engine = _Engine(conds, left, right, 2**20)
    start = engine.run(initial_pair(left, w, right, v))
    assert outcome.related == (start in engine.alive)
    if outcome.related:
        assert outcome.witness == engine.witness()
    elif not conds.memory_active:
        expected = _distinguisher(spec, engine, start)
        assert print_formula(outcome.distinguisher) == print_formula(expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SYMMETRIC), st.data())
def test_bisimilar_agrees_with_the_pair_engine(name, data):
    spec = DIALECTS[name]
    _assert_agrees_with_the_pair_engine(spec, bisimilar, conditions_for(spec), data)


@pytest.mark.parametrize("n", [10, 30])
def test_block_refinement_keys_each_state_a_bounded_number_of_times(n):
    """A chain of n worlds against one of n + 1 takes n rounds to part the
    start points, but only states whose successors moved are re-keyed: a
    small constant times the state count in all, not rounds x states."""
    short, long = chain_model(n), chain_model(n + 1)
    engine = _Blocks(conditions_for(BML), short, long, 2**20)
    start = engine.run(initial_pair(short, "w0", long, "w0"))
    assert engine.dead[start][0] == n
    assert engine.keyed <= 3 * (2 * n + 1)


# ---------------------------------------------------------------------------
# Row refinement against the synchronous rounds and the pair engine

# a negation-free dialect whose box makes the back clause run under
# one-directional atomic agreement, with and without nominals and @, and
# two negation-free memory dialects whose forth and back clauses take
# different steps
BOX_MINUS = LogicSpec("box-minus", frozenset({"diamond", "box"}), has_negation=False)
HYBRID_BOX_MINUS = LogicSpec(
    "hybrid-box-minus", frozenset({"diamond", "box", "nominal", "at"}), has_negation=False
)
DIAMOND_DBOX_MINUS = LogicSpec(
    "diamond-dbox-minus", frozenset({"remember", "known", "diamond", "dbox"}), has_negation=False
)
DDIAMOND_BOX_MINUS = LogicSpec(
    "ddiamond-box-minus", frozenset({"remember", "known", "ddiamond", "box"}), has_negation=False
)
PLAIN = ("bml", "bml-minus", "hl", "hl-at")
DIRECTED = [
    *((DIALECTS[name], True) for name in (*PLAIN, *MEMORY)),
    (BML_MINUS, False),
    (BOX_MINUS, False),
    (HYBRID_BOX_MINUS, False),
    (DIAMOND_DBOX_MINUS, False),
    (DDIAMOND_BOX_MINUS, False),
]


# (dialect, directed) -> engine: symmetric conditions take block
# refinement, directed ones rows
ENGINES = {
    **{(name, False): _Blocks for name in SYMMETRIC},
    **{(name, True): _Rows for name in DIALECTS},
    ("bml-minus", False): _Rows,
}


@pytest.mark.parametrize("name", sorted(DIALECTS))
@pytest.mark.parametrize("directed", [False, True])
def test_each_condition_set_takes_its_engine(name, directed):
    spec = DIALECTS[name]
    conds = conditions_for(spec)
    if directed:
        conds = directed_conditions(conds)
    model = KripkeModel(("a",), {"r": frozenset()}, noms={"i": "a"} if spec.allows("nominal") else {})
    assert type(_engine(conds, model, model, 2**20)) is ENGINES[name, directed]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(DIRECTED))), st.data())
def test_row_refinement_matches_synchronous_rounds(index, data):
    spec, directed = DIRECTED[index]
    left, w, right, v = _draw_pointed_pair(spec, data)
    conds = conditions_for(spec)
    if directed:
        conds = directed_conditions(conds)
    engine = _Rows(conds, left, right, 2**20)
    _assert_matches_synchronous_rounds(engine, conds, left, right, initial_pair(left, w, right, v))


@pytest.mark.parametrize(
    ("spec", "left"),
    [
        (DIAMOND_DBOX_MINUS, KripkeModel(("w0", "w1"), {"r": frozenset({("w0", "w1"), ("w1", "w0")})})),
        (DDIAMOND_BOX_MINUS, KripkeModel(("w0",), {"r": frozenset({("w0", "w0")})})),
    ],
    ids=["diamond-dbox", "ddiamond-box"],
)
def test_row_refinement_keeps_each_clause_on_its_step(spec, left):
    """Forth and back on different steps each shape only their own step's
    term.  The draws above seldom reach a pair where this shows, so one is
    fixed here for each of the two specs."""
    complete = KripkeModel(("w0", "w1"), {"r": frozenset((a, b) for a in ("w0", "w1") for b in ("w0", "w1"))})
    conds = conditions_for(spec)
    engine = _Rows(conds, left, complete, 2**20)
    _assert_matches_synchronous_rounds(engine, conds, left, complete, initial_pair(left, "w0", complete, "w0"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((*PLAIN, *MEMORY)), st.data())
def test_simulated_by_agrees_with_the_pair_engine(name, data):
    spec = DIALECTS[name]
    conds = directed_conditions(conditions_for(spec))
    _assert_agrees_with_the_pair_engine(spec, simulated_by, conds, data)


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("longer", ["left", "right"])
def test_row_refinement_recomputes_each_row_a_bounded_number_of_times(n, longer):
    """Chains of n and n + 1 worlds take about n rounds, but only the rows
    of right states whose successors' rows changed are recomputed: a small
    constant times the state count in all, not rounds x states.  The start
    pair dies, when the left chain is the longer, in the pair engine's
    round."""
    short, long = chain_model(n), chain_model(n + 1)
    left, right = (long, short) if longer == "left" else (short, long)
    conds = directed_conditions(conditions_for(BML))
    initial = initial_pair(left, "w0", right, "w0")
    engine = _Rows(conds, left, right, 2**20)
    start = engine.run(initial)
    pairs = _Engine(conds, left, right, 2**20)
    assert pairs.run(initial) == start
    assert (start in engine.dead) == (longer == "left")
    if longer == "left":
        assert engine.dead[start] == pairs.dead[start]
        assert engine.dead[start][0] == n
    else:
        assert engine.witness() == pairs.witness()
    assert engine.recomputed <= 3 * len(left.worlds)


def test_bisimilar_is_freed_without_the_cycle_collector():
    """Related and unrelated answers through block and row refinement, with
    and without memory, leave no object that only the cycle collector could
    free."""
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    big, w = fixture_model("four_world.km")
    small, v = fixture_model("two_world_loop.km")
    refl, a = fixture_model("reflexive.km")
    cyc, _ = fixture_model("two_cycle.km")
    named = KripkeModel(("a", "b"), {"r": frozenset({("a", "b")})}, {"p": frozenset({"b"})}, noms={"i": "b"})
    other = KripkeModel(("a", "b"), {"r": frozenset({("a", "a")})}, {"p": frozenset({"b"})}, noms={"i": "b"})
    gc.collect()
    gc.disable()
    try:
        for name in ("bml", "hl-at"):
            spec = DIALECTS[name]
            assert not bisimilar(spec, three, v0, two, w0).related
            assert bisimilar(spec, big, w, small, v).related
            assert bisimilar(spec, named, "b", other, "b").related
            assert not bisimilar(spec, named, "a", other, "a").related
            assert not simulated_by(spec, three, v0, two, w0).related
            assert simulated_by(spec, two, w0, three, v0).related
            assert simulated_by(spec, named, "b", other, "b").related
            assert not simulated_by(spec, named, "a", other, "a").related
        assert not bisimilar(BML_MINUS, three, v0, two, w0).related
        assert bisimilar(BML_MINUS, two, w0, three, v0).related
        for name in ("ml-diamond", "ml-full"):
            spec = DIALECTS[name]
            assert bisimilar(spec, cyc, "b", cyc, "c").related
            assert not bisimilar(spec, refl, a, cyc, "b").related
            assert not bisimilar(spec, three, v0, two, w0, distinguisher_depth=0).related
            assert simulated_by(spec, two, w0, three, v0).related
            assert not simulated_by(spec, three, v0, two, w0).related
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Partition refinement


def test_partition_refinement_fixture_blocks():
    big, _ = fixture_model("four_world.km")
    assert bml_partition_refinement(big) == (
        frozenset({"b", "w"}),
        frozenset({"c", "d"}),
    )
    cyc, _ = fixture_model("two_cycle.km")
    assert bml_partition_refinement(cyc) == (frozenset({"b", "c"}),)
    two, _ = fixture_model("fork_two.km")
    assert bml_partition_refinement(two) == (
        frozenset({"u1"}),
        frozenset({"u2"}),
        frozenset({"w0"}),
    )


@settings(max_examples=50)
@given(models(sig=SIG), st.data())
def test_partition_blocks_match_fixpoint(model, data):
    """Same block in the refinement partition <=> bml-bisimilar as points."""
    w = data.draw(st.sampled_from(model.worlds))
    v = data.draw(st.sampled_from(model.worlds))
    blocks = bml_partition_refinement(model)
    same_block = any(w in b and v in b for b in blocks)
    assert bisimilar(BML, model, w, model, v).related == same_block
