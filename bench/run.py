"""modalkit benchmark: seeded user-level queries replayed against the library.

    python3 bench/run.py --workload pairs-small --seed 2026 --seconds 35 --trace 0
    python3 bench/run.py                      # every workload, each in its own process

A run builds a fixed query list from the seed, then replays it in a closed
loop (one client, one thread: the next query starts when the previous one
has answered): one whole pass, then more while another fits in
``--seconds``.  Every pass must give the same answers as the first.  After
the loop every answer of the first pass is cross-checked (see checks.py).  The last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the per-layer metrics of one pass that runs every query both
untraced and traced.  The exit code is 0 only when every answer is correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("pairs-small", "plain-large", "memory-mid")
DEFAULT_SEED = 2026
SETUP_SAMPLES = 21
SETUP_WARMUPS = 2

# Pairs (pairs-small) or rounds of the schedule (the others).
SIZES = {"pairs-small": 2304, "plain-large": 6, "memory-mid": 7}

FUNCTIONS = (
    "kripke.load_model",
    "kripke.save_model",
    "syntax.get_dialect",
    "syntax.parse_formula",
    "syntax.print_formula",
    "semantics.check",
    "semantics.satisfying_set",
    "translate.translate_formula",
    "translate.translate_model",
    "fo.fo_check",
    "equivalence.bisimilar",
    "equivalence.simulated_by",
    "equivalence.serialize_witness",
    "equivalence.verify_relation",
    "enumeration.separating_formula",
    "enumeration.joint_theories",
    "games.solve_game",
    "games.sample_play",
    "games.format_transcript",
    "analysis.minimize_map",
    "analysis.definability_check",
)
# Called only by the cross-checks: their metrics come from the check phase,
# every other function's from the traced query passes.
ORACLES = {
    "translate.translate_formula",
    "translate.translate_model",
    "fo.fo_check",
    "equivalence.verify_relation",
}
COUNTS = (
    "kripke.worlds",
    "kripke.edges",
    "syntax.formula_nodes",
    "equivalence.witness_pairs",
    "equivalence.related",
    "games.strategy_entries",
    "games.transcript_plies",
    "enumeration.configs",
    "enumeration.partition_cells",
    "enumeration.partition_tests",
    "enumeration.partition_depth",
    "enumeration.stream_formulas",
    "analysis.quotient_worlds",
    "analysis.define_status.defined",
    "analysis.define_status.not_closed",
    "analysis.define_status.exhausted",
)

_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import modalkit
print(time.perf_counter() - start)
"""


def measure_setup() -> float:
    """Median time, over fresh interpreters, to import modalkit.  The first
    interpreters are untimed: they compile the byte-code and warm the file
    cache."""
    samples = []
    for k in range(SETUP_WARMUPS + SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k >= SETUP_WARMUPS:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def import_program():
    sys.path.insert(0, str(SRC))
    import modalkit

    if Path(modalkit.__file__).resolve().parent != (SRC / "modalkit").resolve():
        raise ImportError(f"modalkit was imported from {modalkit.__file__}, not from {SRC}")


def build_queries(workload: str, seed: int, size: int):
    import workloads

    make = {
        "pairs-small": workloads.pairs_small,
        "plain-large": workloads.plain_large,
        "memory-mid": workloads.memory_mid,
    }[workload]
    return make(seed, size)


def tail_percentile(n: int) -> float:
    """The highest of these percentiles that leaves at least ten of the n
    distinct queries beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0):
        if (100 - p) / 100 * n >= 10:
            return p
    return 50.0


def percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Replay:
    """Whole passes over the query list, keeping the first pass's answers."""

    def __init__(self, queries):
        self.queries = queries
        self.answers: list[str | None] = [None] * len(queries)
        self.bad: dict[int, str] = {}
        self.latencies: list[float] = []  # of the untraced passes
        self.executed = 0

    def _answer(self, i: int, tr) -> float:
        """Runs query i once; records its answer or failure, returns its
        latency."""
        from queries import run_query

        q = self.queries[i]
        tr.query = i
        start = perf_counter()
        try:
            answer = tr.call(f"query.{q.kind}", run_query, q, tr)
        except Exception as exc:  # counted as a failed query; the replay goes on
            answer = None
            self.bad.setdefault(i, f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - start
        self.executed += 1
        if answer is not None:
            if self.answers[i] is None:
                self.answers[i] = answer
            elif answer != self.answers[i]:
                self.bad.setdefault(i, "the answer changed between runs of the query")
        return latency

    def run(self, seconds: float, tr) -> tuple[float, int]:
        """Replays one pass, then more while another pass still fits in
        ``seconds``; returns the wall time and the number of passes."""
        gc.collect()
        passes = 0
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            for i in range(len(self.queries)):
                self.latencies.append(self._answer(i, tr))
            passes += 1
            now = perf_counter()
            if now - start + (now - pass_start) > seconds:
                return now - start, passes

    def paired_pass(self, off, tr) -> tuple[float, float]:
        """One pass that runs every query untraced and traced, in turn first,
        so that both see the same state of the machine; returns the summed
        latencies of each."""
        gc.collect()
        untraced = traced = 0.0
        for i in range(len(self.queries)):
            if i % 2:
                traced += self._answer(i, tr)
                untraced += self._answer(i, off)
            else:
                untraced += self._answer(i, off)
                traced += self._answer(i, tr)
        return untraced, traced

    def failed(self) -> int:
        """Executions of the queries that failed in any run or check."""
        return len(self.bad) * self.executed // len(self.queries)

    def digest(self) -> str:
        h = hashlib.sha256()
        for answer in self.answers:
            h.update((answer if answer is not None else "").encode())
            h.update(b"\0")
        return h.hexdigest()


def cross_check(replay: Replay, tr) -> None:
    from checks import check_answers

    answered = [i for i, a in enumerate(replay.answers) if a is not None and i not in replay.bad]
    verdicts = check_answers([replay.queries[i] for i in answered], [replay.answers[i] for i in answered], tr)
    for i, problem in zip(answered, verdicts):
        if problem is not None:
            replay.bad[i] = problem


def layer_metrics(tr, check_start: int) -> dict[str, tuple[float, str]]:
    """Per-function calls, busy time and failures over the traced pass (the
    check phase for the oracles), plus the counts.  Busy time is the span's
    duration; the benchmark's calls into the program do not nest, so it is
    also the span's self time."""
    stats = {"query": defaultdict(lambda: [0, 0.0, 0]), "check": defaultdict(lambda: [0, 0.0, 0])}
    children = defaultdict(float)
    for sid, (name, start, end, parent, _query, failed) in enumerate(tr.spans):
        row = stats["query" if sid < check_start else "check"][name]
        row[0] += 1
        row[1] += end - start
        row[2] += failed
        if parent is not None:
            children[parent] += end - start
    out: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        calls, busy, failed = stats["check" if name in ORACLES else "query"][name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.failed"] = (failed, "count")
    roots = [(sid, end - start) for sid, (_n, start, end, parent, _q, _f) in enumerate(tr.spans) if parent is None]
    out["query.self_s"] = (sum(d - children[sid] for sid, d in roots if sid < check_start), "s")
    out["checks.busy_s"] = (sum(d for sid, d in roots if sid >= check_start), "s")
    for name in COUNTS:
        out[name] = (tr.counts[name], "count")
    return out


def write_spans(tr, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, query, failed) in enumerate(tr.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "query": query, "failed": failed}) + "\n")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_s = measure_setup()
    import_program()
    from queries import Tracer, enumeration_sizes

    queries = build_queries(workload, seed, SIZES[workload])
    replay = Replay(queries)
    off = Tracer(False)
    if trace:
        tr = Tracer(True)
        plain_time, wall = replay.paired_pass(off, tr)
        passes = 1
        enumeration_sizes(queries, tr)
        check_start = len(tr.spans)
        cross_check(replay, tr)
    else:
        wall, passes = replay.run(seconds, off)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cross_check(replay, off)

    attempted = replay.executed
    failed = replay.failed()
    qps = passes * len(queries) / wall
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(queries)} queries x {passes} passes, {wall:.2f} s")
    for i, problem in sorted(replay.bad.items()):
        print(f"FAILED query {i} ({queries[i].kind}, {queries[i].dialect}): {problem}")
    print(f"  failed_frac      {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    print(f"  answers_sha256   {replay.digest()}")

    if trace:
        metrics = layer_metrics(tr, check_start)
        plain_qps = len(queries) / plain_time
        metrics["tracing.untraced_queries_per_s"] = (plain_qps, "1/s")
        metrics["tracing.traced_queries_per_s"] = (qps, "1/s")
        metrics["tracing.overhead"] = (plain_qps / qps, "ratio")
        print(f"  spans            {len(tr.spans)} written to {write_spans(tr, workload, seed).relative_to(ROOT)}")
    else:
        samples = sorted(replay.latencies)
        p = tail_percentile(len(queries))
        metrics = {
            "setup_s": (setup_s, "s"),
            "queries_per_s": (qps, "1/s"),
            "query_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "query_tail_ms": (percentile(samples, p) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"  query_tail_ms is p{p:g} over {len(samples)} samples of {len(queries)} distinct queries")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "modalkit" / "__init__.py").is_file():
        print(f"error: no modalkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in WORKLOADS:
        # a fresh interpreter per workload, so set-up and memory are its own
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=900,
        )
        status = max(status, done.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
