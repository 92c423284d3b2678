"""The joint evaluation context, the canonical stream, and the meaning
partition.

The stream's guarantees are pinned on hand-computed models (exact yield
order, cross-depth meaning dedup), its bitmask semantics is cross-checked
against the plain model checker, and the partition engine is cross-checked
against the dedicated propositional-modal refinement pass.  One regression
documents the stream's designed-in blind spot: it contains no binary
connectives, so theory agreement on it is necessary but not sufficient for
bounded equivalence.
"""

import gc
import heapq
import time
import weakref
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_DIALECTS,
    SIG,
    SIG_NOM,
    fixture_model,
    models,
    reference_fold,
    reference_print,
    sig_for,
)
from modalkit import enumeration
from modalkit.configs import MEMORY_UPDATES, close, step_memory
from modalkit.enumeration import (
    EvalContext,
    JointPartition,
    enumerate_formulas,
    equivalent_up_to,
    joint_theories,
    separating_formula,
    stream_with_meanings,
)
from modalkit.equivalence import bisimilar, bml_partition_refinement, conditions_for
from modalkit.errors import (
    BudgetExceededError,
    InvariantViolationError,
    OperatorNotInDialectError,
    StateSpaceExceededError,
    UnassignedNominalError,
    UnsupportedFeaturesError,
)
from modalkit.kripke import KripkeModel, PointedModel
from modalkit.semantics import check
from modalkit.syntax import (
    DIALECTS,
    And,
    At,
    Diamond,
    LogicSpec,
    Nom,
    Not,
    Prop,
    Remember,
    Top,
    conjoin,
    formula_size,
    modal_depth,
    print_formula,
    validate_formula,
)

BML = DIALECTS["bml"]
BML_MINUS = DIALECTS["bml-minus"]
ML = DIALECTS["ml-diamond"]

# u -r-> v, p holds at u only, q nowhere.
M2 = KripkeModel(
    ("u", "v"), {"r": frozenset({("u", "v")})}, {"p": frozenset({"u"}), "q": frozenset()}
)


# ---------------------------------------------------------------------------
# EvalContext


def test_context_without_memory_table():
    ctx = EvalContext(BML, [M2])
    assert not ctx.memory_table
    assert len(ctx.configs) == 2
    assert ctx.full == 0b11
    u = ctx.start_bit(0, "u")
    assert u == ctx.bit_of(0, frozenset(), "u")
    assert ctx.prop_mask["p"] == 1 << u
    assert ctx.meaning(Diamond("r", Top())) == 1 << u


def test_context_with_memory_table():
    model, _ = fixture_model("two_cycle.km")
    ctx = EvalContext(ML, [model])
    assert ctx.memory_table
    # every (memory subset, world) pair of a two-world model
    assert len(ctx.configs) == 4 * 2
    for b, (_, mem, w) in enumerate(ctx.configs):
        assert ((ctx.known_mask >> b) & 1) == (w in mem)


def test_context_rejects_mismatched_nominals():
    with_i = KripkeModel(("w",), {}, {}, noms={"i": "w"})
    without = KripkeModel(("w",), {}, {})
    with pytest.raises(InvariantViolationError):
        EvalContext(DIALECTS["hl"], [with_i, without])


def test_context_rejects_memory_ops_without_table():
    ctx = EvalContext(BML, [M2, M2])
    with pytest.raises(OperatorNotInDialectError):
        ctx.meaning(Remember(Top()))
    # a traced step would leave the first model's configurations
    with pytest.raises(OperatorNotInDialectError):
        ctx.modal_t("ddiamond", "r", 1)


@pytest.mark.parametrize("dialect", ["bml", "hl-at"])
def test_meaning_rejects_unassigned_nominals(dialect):
    """A jump to, or a test for, a nominal that some model of the context
    does not assign is the evaluator's error, not a lookup failure."""
    named = KripkeModel(("a",), {"r": frozenset()}, noms={"i": "a"})
    plain = KripkeModel(("a",), {"r": frozenset()})
    spec = DIALECTS[dialect]
    ctx = EvalContext(spec, [named] if spec.allows("nominal") else [named, plain])
    if not spec.allows("nominal"):
        with pytest.raises(UnassignedNominalError):
            ctx.meaning(At("i", Prop("p")))
    with pytest.raises(UnassignedNominalError):
        ctx.meaning(Nom("j"))
    with pytest.raises(UnassignedNominalError):
        ctx.meaning(At("j", Top()))


def test_context_capped(monkeypatch):
    # 2**18 * 18 configurations exceed the default cap, which is checked
    # before any configuration is built.
    big = KripkeModel(tuple(f"w{i:02d}" for i in range(18)), {"r": frozenset()})
    start = time.perf_counter()
    with pytest.raises(StateSpaceExceededError):
        EvalContext(ML, [big])
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(enumeration, "MAX_CONFIGS", 7)
    model, _ = fixture_model("two_cycle.km")  # 4 subsets x 2 worlds = 8 configs
    with pytest.raises(StateSpaceExceededError, match="^configuration space exceeds the limit of 7$"):
        EvalContext(ML, [model])


def test_contexts_and_partitions_are_freed_without_the_cycle_collector():
    """No context, full partition or stopped early-stop partition is kept
    alive by a reference cycle, a traceback's included: each dies on del
    with the cycle collector off."""
    cyc, b = fixture_model("two_cycle.km")
    refl, a = fixture_model("reflexive.km")
    gc.collect()
    gc.disable()
    try:
        ctx = EvalContext(ML, [cyc, refl])
        ctx.meaning(Remember(Diamond("r", Not(Prop("p")))))
        for _, transform in ctx.updates:
            transform(1)
        refs = [weakref.ref(ctx)]
        del ctx
        full = JointPartition(ML, [cyc, refl])
        stopped = enumeration._PointPartition(ML, cyc, b, refl, a, max_depth=4, max_tests=500_000)
        assert stopped.separator is not None
        refs += [weakref.ref(full), weakref.ref(full.ctx), weakref.ref(stopped), weakref.ref(stopped.ctx)]
        del full, stopped
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()


@settings(max_examples=60)
@given(st.data())
def test_meaning_matches_checker(data):
    """ctx.meaning agrees with the plain evaluator at every configuration of
    every model of a joint context (the model rebuilt with the
    configuration's memory), so each model's offset into the operator
    tables is exercised."""
    name = data.draw(st.sampled_from(sorted(DIALECTS)))
    spec = DIALECTS[name]
    from conftest import formulas, sig_for

    sig = sig_for(spec)
    mods = data.draw(
        st.lists(models(sig=sig, max_worlds=3, allow_mem=spec.allows("known")), min_size=1, max_size=2)
    )
    phi = data.draw(formulas(spec, sig))
    ctx = EvalContext(spec, mods)
    mask = ctx.meaning(phi)
    for b, (k, mem, w) in enumerate(ctx.configs):
        m = mods[k]
        at_mem = KripkeModel(m.worlds, m.rels, m.val, mem, m.noms)
        assert ((mask >> b) & 1) == check(at_mem, w, phi), print_formula(phi)


def _index_layout(spec, mods):
    """The configuration layout EvalContext kept before it read its
    configurations from ConfigTables, kept as the reference: the
    (k, mem, w) list (model, then memory subsets by size and then in
    combination order, then world), its atom masks, and each operator's
    predecessor table built directly from configs.close and
    configs.step_memory."""
    memory = bool(spec.operators & enumeration.MEMORY_CHANGING)
    configs = []
    for k, m in enumerate(mods):
        if memory:
            mems = [frozenset(c) for n in range(len(m.worlds) + 1) for c in combinations(m.worlds, n)]
        else:
            mems = [frozenset(m.mem)]
        configs.extend((k, mem, w) for mem in mems for w in m.worlds)
    index = {c: b for b, c in enumerate(configs)}

    def mask_of(pred):
        return sum(1 << b for b, (k, mem, w) in enumerate(configs) if pred(mods[k], mem, w))

    def table(op):
        tag, a, b = op
        out = [0] * len(configs)
        for bit, (k, mem, w) in enumerate(configs):
            m = mods[k]
            if tag == "step":
                targets = [(step_memory(mem, w, b), v) for v in m.successors(a, w)]
            else:
                targets = [close(a, b, m, mem, w)]
            for target in targets:
                out[index[(k, *target)]] |= 1 << bit
        return out

    return configs, index, mask_of, table


@settings(max_examples=80)
@given(st.data())
def test_layout_matches_index_oracle(data):
    """EvalContext's ConfigTable layout is the (k, mem, w) index layout bit
    for bit: the configuration list, every bit, the atom masks and every
    operator's predecessor table (entry t read as ``pre(op, 1 << t)``)."""
    spec = DIALECTS[data.draw(st.sampled_from(sorted(DIALECTS)))]
    mods = data.draw(
        st.lists(models(sig=SIG_NOM, max_worlds=3, allow_mem=True), min_size=1, max_size=2)
    )
    ctx = EvalContext(spec, mods)
    configs, index, mask_of, table = _index_layout(spec, mods)
    assert ctx.configs == configs
    assert all(ctx.bit_of(*c) == b for c, b in index.items())
    assert ctx.prop_mask == {
        p: mask_of(lambda m, mem, w, p=p: w in m.val.get(p, ())) for p in ctx.props
    }
    assert ctx.known_mask == mask_of(lambda m, mem, w: w in mem)
    assert ctx.nom_mask == {i: mask_of(lambda m, mem, w, i=i: m.noms[i] == w) for i in ctx.noms}
    for op in _ops(ctx):
        assert [ctx.pre(op, 1 << t) for t in range(len(configs))] == table(op), op


def _ops(ctx):
    """Every configs.Op the context can compile."""
    traced = (False, True) if ctx.memory_table else (False,)
    ops = [("step", r, t) for r in ctx.rels for t in traced]
    if ctx.memory_table:
        ops.extend(("close", kind, None) for kind in MEMORY_UPDATES)
    ops.extend(("close", "nom", i) for i in ctx.noms)
    return ops


def _pre_by_bits(table, m):
    """The preimage as EvalContext once took it, kept as the reference for
    the nibble tables: the union of the table's entries at m's set bits,
    found one at a time."""
    out = 0
    bits = bin(m)[:1:-1]  # least significant bit first
    t = bits.find("1")
    while t >= 0:
        out |= table[t]
        t = bits.find("1", t + 1)
    return out


def _masks(n):
    """Masks over n bits: empty, full, sparse, dense and uniform."""
    full = (1 << n) - 1
    sparse = st.sets(st.integers(0, n - 1), max_size=3).map(lambda bits: sum(1 << b for b in bits))
    return st.one_of(st.just(0), st.just(full), sparse, sparse.map(full.__xor__), st.integers(0, full))


@settings(max_examples=25)
@given(st.data())
def test_nibble_pre_matches_per_bit_union(data):
    """pre reads its nibble tables to the same preimage as the per-bit union
    of the predecessor table, for every operator of every dialect's context
    (the memory dialects' among them).  One or two models of one to three
    worlds make contexts of 1 to 6 configurations without memory and of 2,
    4, 8, 10, 16, 24, 26, 32 or 48 with it: whole and partial last bytes."""
    mods = data.draw(
        st.lists(models(sig=SIG_NOM, max_worlds=3, allow_mem=True), min_size=1, max_size=2)
    )
    for name in ALL_DIALECTS:
        spec = DIALECTS[name]
        ctx = EvalContext(spec, mods)
        _, _, _, table = _index_layout(spec, mods)
        for op in _ops(ctx):
            rows = table(op)
            for m in data.draw(st.lists(_masks(len(rows)), min_size=1, max_size=4)):
                assert ctx.pre(op, m) == _pre_by_bits(rows, m), (name, op, m)


# ---------------------------------------------------------------------------
# The canonical stream


def _texts(spec, mods, depth, budget=6000):
    return [print_formula(phi) for phi in enumerate_formulas(spec, mods, max_depth=depth, budget=budget)]


def test_stream_order_and_dedup_boolean():
    # q and every modal formula over M2 collapse onto already-seen meanings,
    # so the stream is exactly the four meanings of the two-world space.
    assert _texts(BML, [M2], 4) == ["false", "p", "true", "~p"]


def test_stream_without_negation():
    # <r>true means p here; the cross-depth dedup drops it silently.
    assert _texts(BML_MINUS, [M2], 4) == ["false", "p", "true"]


def test_stream_memory_dialect():
    model, _ = fixture_model("reflexive.km")
    assert _texts(ML, [model], 3) == ["false", "known", "true", "~known"]


def test_stream_budget():
    model, _ = fixture_model("fork_two.km")
    with pytest.raises(BudgetExceededError):
        _texts(BML, [model], 4, budget=3)


@settings(max_examples=40)
@given(st.data())
def test_stream_meanings_distinct_and_linear(data):
    name = data.draw(st.sampled_from(["bml", "ml-full", "hl-at"]))
    spec = DIALECTS[name]
    from conftest import sig_for

    sig = sig_for(spec)
    model = data.draw(models(sig=sig, max_worlds=3, allow_mem=spec.allows("known")))
    out = list(enumerate_formulas(spec, [model], max_depth=2, budget=4000))
    ctx = EvalContext(spec, [model])
    meanings = [ctx.meaning(phi) for phi in out]
    assert len(set(meanings)) == len(meanings)
    for phi in out:
        validate_formula(phi, sig, spec)
        assert modal_depth(phi) <= 2
        text = print_formula(phi)
        assert not any(op in text for op in ("&", "|", "->"))


@settings(max_examples=40)
@given(st.sampled_from(ALL_DIALECTS), st.data())
def test_stream_keys_are_size_and_text(name, data):
    """Every key the stream pushes, its size built from its operand's, is
    the pushed formula's node count and its text as the reference printer
    renders it; and every pushed formula has a mask not yet yielded."""
    spec = DIALECTS[name]
    mods = data.draw(
        st.lists(models(sig=sig_for(spec), max_worlds=2, allow_mem=True), min_size=1, max_size=2)
    )
    pushed, out = [], []

    def push(item):
        assert item[4] not in {mask for _, mask in out}
        pushed.append(item)

    def heapify(heap):
        for item in heap:
            push(item)
        heapq.heapify(heap)

    def heappush(heap, item):
        push(item)
        heapq.heappush(heap, item)

    spy = SimpleNamespace(heapify=heapify, heappush=heappush, heappop=heapq.heappop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "heapq", spy)
        for item in stream_with_meanings(EvalContext(spec, mods), 2, 4000):
            out.append(item)
    assert pushed and out
    for size, text, _, psi, _ in pushed:
        assert (size, text) == (formula_size(psi), reference_print(psi))


# ---------------------------------------------------------------------------
# Joint theories


def test_joint_theories_equal_for_bisimilar_pair():
    big, w = fixture_model("four_world.km")
    small, v = fixture_model("two_world_loop.km")
    t_big, t_small = joint_theories(
        BML, [PointedModel(big, w), PointedModel(small, v)], depth=4
    )
    assert t_big == t_small
    assert "true" in t_big and "false" not in t_big


def test_joint_theories_inclusion_for_simulated_pair():
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    t2, t3 = joint_theories(
        BML_MINUS, [PointedModel(two, w0), PointedModel(three, v0)], depth=3
    )
    assert t2 < t3
    assert "<e>r" in t3 - t2


def test_joint_theories_budget():
    model, w = fixture_model("fork_two.km")
    with pytest.raises(BudgetExceededError):
        joint_theories(BML, [PointedModel(model, w)], depth=3, budget=4)


def test_joint_theories_blind_to_conjunctions():
    """The stream has no binary connectives, so points that differ only in
    how truths combine at a successor look alike to it; the partition-backed
    equivalence check still tells them apart."""
    left = KripkeModel(
        ("l0", "l00", "l11"),
        {"r": frozenset({("l0", "l00"), ("l0", "l11")})},
        {"p": frozenset({"l11"}), "q": frozenset({"l11"})},
    )
    right = KripkeModel(
        ("r0", "r01", "r10"),
        {"r": frozenset({("r0", "r01"), ("r0", "r10")})},
        {"p": frozenset({"r10"}), "q": frozenset({"r01"})},
    )
    ta, tb = joint_theories(
        BML, [PointedModel(left, "l0"), PointedModel(right, "r0")], depth=2
    )
    assert ta == tb  # <r>(p & q) would separate, but never enters the stream
    assert equivalent_up_to(BML, left, "l0", right, "r0", 0)
    assert not equivalent_up_to(BML, left, "l0", right, "r0", 1)


# ---------------------------------------------------------------------------
# The meaning partition


def test_partition_cells_and_separators():
    part = JointPartition(BML, [M2])
    ctx = part.ctx
    u, v = ctx.start_bit(0, "u"), ctx.start_bit(0, "v")
    assert part.saturated
    assert len(part.cells) == 2
    assert part.cell_index_of(u) != part.cell_index_of(v)
    assert part.characteristic(u) == Prop("p")
    assert part.separator_between(u, v) == Prop("p")
    assert part.separator_between(v, u) == Not(Prop("p"))


def test_partition_single_cell():
    model, _ = fixture_model("two_cycle.km")
    part = JointPartition(BML, [model])
    b, c = part.ctx.start_bit(0, "b"), part.ctx.start_bit(0, "c")
    assert len(part.cells) == 1
    assert part.separator_between(b, c) is None
    assert part.characteristic(b) == Top()


def test_partition_depth_bound():
    part = JointPartition(BML, [M2], max_depth=0)
    assert part.depth == 0
    assert not part.saturated  # the atom wave still split something
    assert len(part.cells) == 2


def test_partition_needs_negation():
    with pytest.raises(UnsupportedFeaturesError):
        JointPartition(BML_MINUS, [M2])


@settings(max_examples=50)
@given(models(sig=SIG))
def test_partition_matches_refinement_oracle(model):
    part = JointPartition(BML, [model])
    by_cell = {}
    for b, (_, _, w) in enumerate(part.ctx.configs):
        by_cell.setdefault(part.cell_index_of(b), set()).add(w)
    assert {frozenset(ws) for ws in by_cell.values()} == set(bml_partition_refinement(model))
    for b in range(len(part.ctx.configs)):
        chi = part.characteristic(b)
        assert part.ctx.meaning(chi) == part.cells[part.cell_index_of(b)]


class _SplitLoopPartition(JointPartition):
    """JointPartition with the split step it had before the no-split
    pre-pass: every test rebuilds the cell list.  The reference for cells,
    paths and tests; its characteristic sorts a path by the reference
    printer's texts."""

    def _apply(self, phi, mask):
        split_any = False
        new_cells = []
        for cell in self.cells:
            inside = cell & mask
            outside = cell & ~mask
            if inside and outside:
                split_any = True
                new_cells.extend((inside, outside))
                path = self.paths.pop(cell)
                self.paths[inside] = (*path, phi)
                self.paths[outside] = (*path, Not(phi))
            else:
                new_cells.append(cell)
        if split_any:
            self.cells = sorted(new_cells, key=lambda c: c & -c)
            self.tests.append((phi, mask))
        return split_any

    def characteristic(self, bit):
        return reference_fold(self.paths[self.cells[self.cell_index_of(bit)]], And, Top())


@settings(max_examples=40)
@given(st.sampled_from(["bml", "hl-at", "ml-diamond", "ml-full"]), st.data())
def test_partition_matches_split_loop_reference(name, data):
    spec = DIALECTS[name]
    mods = [
        data.draw(models(sig=sig_for(spec), max_worlds=3, allow_mem=spec.allows("known")))
        for _ in range(2)
    ]
    depth = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    new = JointPartition(spec, mods, max_depth=depth)
    old = _SplitLoopPartition(spec, mods, max_depth=depth)
    assert new.cells == old.cells
    assert new.paths == old.paths
    assert new.tests == old.tests
    assert (new.depth, new.saturated) == (old.depth, old.saturated)
    for b in range(len(new.ctx.configs)):
        assert new.characteristic(b) == old.characteristic(b)


def _pairwise_characteristic(part, bit):
    """Reference construction: for every other cell, the first test in
    split order that tells it apart from the bit's cell, signed."""
    cell = part.cells[part.cell_index_of(bit)]
    parts = []
    for other in part.cells:
        if other == cell:
            continue
        for phi, mask in part.tests:
            mine = bool(cell & mask)
            if mine != bool(other & mask):
                parts.append(phi if mine else Not(phi))
                break
    return conjoin(parts)


def _pairwise_separator(part, bit_true, bit_false):
    """Reference construction: the first test in split order that holds at
    exactly one of the two bits, signed to hold at the first."""
    for phi, mask in part.tests:
        a, b = (mask >> bit_true) & 1, (mask >> bit_false) & 1
        if a != b:
            return phi if a else Not(phi)
    return None


@settings(max_examples=60)
@given(st.sampled_from(["bml", "ml-diamond"]), st.data())
def test_split_paths_match_pairwise_construction(dialect, data):
    spec = DIALECTS[dialect]
    mods = [data.draw(models(sig=SIG, max_worlds=3)) for _ in range(2)]
    depth = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    part = JointPartition(spec, mods, max_depth=depth)
    bits = range(len(part.ctx.configs))
    for a in bits:
        assert part.characteristic(a) == _pairwise_characteristic(part, a)
    for a in bits:
        for b in bits:
            assert part.separator_between(a, b) == _pairwise_separator(part, a, b)


@settings(max_examples=80)
@given(st.sampled_from(sorted(n for n, s in DIALECTS.items() if s.has_negation)), st.data())
def test_same_cell_iff_bisimilar(dialect, data):
    spec = DIALECTS[dialect]
    left = data.draw(models(sig=sig_for(spec), max_worlds=3, allow_mem=True))
    right = data.draw(models(sig=sig_for(spec), max_worlds=3, allow_mem=True))
    part = JointPartition(spec, [left, right])
    for w in left.worlds:
        for v in right.worlds:
            same = part.cell_index_of(part.ctx.start_bit(0, w)) == part.cell_index_of(
                part.ctx.start_bit(1, v)
            )
            assert same == bisimilar(spec, left, w, right, v, distinguisher_depth=0).related


# ---------------------------------------------------------------------------
# Routed entry points


def test_equivalent_up_to_depth_boundaries():
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    # propositionally indistinguishable everywhere, bisimilar for bml
    assert equivalent_up_to(BML, refl, a, cyc, b, 5)
    # the memory dialect splits them one diamond in
    assert equivalent_up_to(ML, refl, a, cyc, b, 0)
    assert not equivalent_up_to(ML, refl, a, cyc, b, 1)
    # negation-free equivalence is the symmetric question
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    assert equivalent_up_to(BML_MINUS, two, w0, three, v0, 0)
    assert not equivalent_up_to(BML_MINUS, two, w0, three, v0, 1)


def test_separating_formula_positive_fragment():
    two, w0 = fixture_model("fork_two.km")
    three, v0 = fixture_model("fork_three.km")
    phi = separating_formula(BML_MINUS, three, v0, two, w0, depth=3)
    assert print_formula(phi) == "<e>r"
    # nothing positive separates in the other direction at any small depth
    assert separating_formula(BML_MINUS, two, w0, three, v0, depth=6) is None


def test_separating_formula_memory_dialect():
    cyc, b = fixture_model("two_cycle.km")
    refl, a = fixture_model("reflexive.km")
    phi = separating_formula(ML, cyc, b, refl, a, depth=4)
    assert phi is not None
    assert modal_depth(phi) <= 4
    assert check(cyc, b, phi)
    assert not check(refl, a, phi)


# The dialects whose separators the meaning partition finds.
PARTITION_DIALECTS = sorted(
    name
    for name, spec in DIALECTS.items()
    if spec.has_negation and (conditions_for(spec).memory_active or conditions_for(spec).nom)
)


@settings(max_examples=80)
@given(st.sampled_from(PARTITION_DIALECTS), st.integers(0, 3), st.data())
def test_separating_formula_matches_the_full_partition(dialect, depth, data):
    """Stopping at the split that parts the two points gives the separator
    the fully built partition gives, for every pair of points."""
    spec = DIALECTS[dialect]
    left = data.draw(models(sig=sig_for(spec), max_worlds=3, allow_mem=True))
    right = data.draw(models(sig=sig_for(spec), max_worlds=3, allow_mem=True))
    part = JointPartition(spec, [left, right], max_depth=depth)
    for w in left.worlds:
        for v in right.worlds:
            expected = part.separator_between(part.ctx.start_bit(0, w), part.ctx.start_bit(1, v))
            assert separating_formula(spec, left, w, right, v, depth=depth) == expected


def test_separating_formula_answers_within_the_budget_of_the_parting_split():
    """The seventh distinct mask parts the two points.  The full partition
    goes on and exceeds a budget of 7; the search stops at the separator."""
    cyc, b = fixture_model("two_cycle.km")
    refl, a = fixture_model("reflexive.km")
    with pytest.raises(BudgetExceededError):
        JointPartition(ML, [cyc, refl], max_depth=4, max_tests=7)
    with pytest.raises(BudgetExceededError):
        separating_formula(ML, cyc, b, refl, a, depth=4, max_tests=6)
    phi = separating_formula(ML, cyc, b, refl, a, depth=4, max_tests=7)
    assert print_formula(phi) == "rem <r>~known"
    assert print_formula(separating_formula(ML, refl, a, cyc, b, depth=4, max_tests=7)) == "~rem <r>~known"


def test_separating_formula_builds_one_context(monkeypatch):
    built = []
    init = EvalContext.__init__
    monkeypatch.setattr(EvalContext, "__init__", lambda self, *args: built.append(init(self, *args)))
    cyc, b = fixture_model("two_cycle.km")
    refl, a = fixture_model("reflexive.km")
    assert separating_formula(ML, cyc, b, refl, a, depth=4) is not None
    assert len(built) == 1
    assert separating_formula(ML, refl, a, refl, a, depth=4) is None
    assert len(built) == 2


def test_separating_formula_none_for_isomorphic():
    refl, a = fixture_model("reflexive.km")
    copy = KripkeModel(("z",), {"r": frozenset({("z", "z")})}, {})
    assert separating_formula(BML, refl, a, copy, "z", depth=4) is None
    assert separating_formula(ML, refl, a, copy, "z", depth=4) is None


@pytest.mark.parametrize("dialect", ["bml", "bml-minus", "ml-diamond"])
def test_negative_depth_is_rejected(dialect):
    """A negative bound is an error on every route, not a depth-0 answer on
    one route and "no separator" on another."""
    lit = KripkeModel(("a",), {}, {"p": frozenset({"a"})})
    unlit = KripkeModel(("a",), {}, {"p": frozenset()})
    spec = DIALECTS[dialect]
    with pytest.raises(InvariantViolationError, match="depth must be at least 0, got -1"):
        separating_formula(spec, lit, "a", unlit, "a", depth=-1)
    with pytest.raises(InvariantViolationError):
        equivalent_up_to(spec, lit, "a", unlit, "a", -1)
    assert separating_formula(spec, lit, "a", unlit, "a", depth=0) == Prop("p")
    assert not equivalent_up_to(spec, lit, "a", unlit, "a", 0)


def test_memory_without_negation_is_rejected():
    spec = LogicSpec("ml-pos", frozenset({"remember", "known", "diamond"}), has_negation=False)
    refl, a = fixture_model("reflexive.km")
    cyc, b = fixture_model("two_cycle.km")
    with pytest.raises(UnsupportedFeaturesError):
        separating_formula(spec, refl, a, cyc, b)
    with pytest.raises(UnsupportedFeaturesError):
        equivalent_up_to(spec, refl, a, cyc, b, 2)
