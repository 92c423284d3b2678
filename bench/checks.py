"""Cross-checks run after the timed loop.  Each rendered answer is checked
by a part of the package other than the one that produced it:

- a related verdict: ``verify_relation`` accepts the printed witness, which
  contains the starting pair;
- a pair built to be related is judged related;
- a distinguisher or definer, parsed back from its printed form: ``check``
  and ``fo_check`` of its first-order translation give the promised values;
- a game winner agrees with the bisim verdict on the same pair;
- a quotient: every world of the original is bisimilar to exactly one world
  of the quotient, and the point to the printed point;
- a satisfying set: ``fo_check`` of the translation agrees at every world;
- a theory pair: the two theories are equal;
- no separator within the depth: the two points' bounded theories are equal;
- a not-closed witness: ``bisimilar`` relates the two members.

``check_answers`` returns one message per wrong answer, or None for a
correct one.
"""

from __future__ import annotations

from modalkit.enumeration import joint_theories
from modalkit.equivalence import (
    Config,
    bisimilar,
    conditions_for,
    directed_conditions,
    verify_relation,
)
from modalkit.fo import fo_check
from modalkit.kripke import PointedModel, load_model
from modalkit.semantics import check
from modalkit.syntax import Signature, get_dialect, parse_formula
from modalkit.translate import translate_formula, translate_model

from queries import THEORY_DEPTH, Tracer


def _signature(models) -> Signature:
    sigs = [m.signature for m in models]
    return Signature(
        props=tuple(sorted({p for s in sigs for p in s.props})),
        rels=tuple(sorted({r for s in sigs for r in s.rels})),
        noms=tuple(sorted({n for s in sigs for n in s.noms})),
    )


def _holds(tr: Tracer, model, world, phi, fo_phi) -> tuple[bool, bool]:
    """Truth at a world by the model checker and by the translation."""
    direct = tr.call("semantics.check", check, model, world, phi)
    structure, assignment = tr.call("translate.translate_model", translate_model, model, world)
    return direct, tr.call("fo.fo_check", fo_check, structure, assignment, fo_phi)


def _parse_witness(lines: list[str]) -> set:
    pairs = set()
    for line in lines:
        sides = line[2:-2].split("),(")
        configs = []
        for side in sides:
            mem, _, world = side.partition("|")
            configs.append(Config(frozenset(m for m in mem.split(",") if m), world))
        pairs.add(tuple(configs))
    return pairs


class Checker:
    def __init__(self, tr: Tracer):
        self.tr = tr

    def formula(self, spec, models, text: str):
        phi = self.tr.call("syntax.parse_formula", parse_formula, text, _signature(models), spec)
        return phi, self.tr.call("translate.translate_formula", translate_formula, phi)

    def separates(self, spec, left, w, right, v, text: str) -> str | None:
        phi, fo_phi = self.formula(spec, [left, right], text)
        if _holds(self.tr, left, w, phi, fo_phi) != (True, True):
            return f"distinguisher {text} is not true on the left by check and fo_check"
        if _holds(self.tr, right, v, phi, fo_phi) != (False, False):
            return f"distinguisher {text} is not false on the right by check and fo_check"
        return None

    def verdict(self, q, spec, answer: str, directed: bool) -> str | None:
        (left, w), (right, v) = (self.tr.call("kripke.load_model", load_model, t) for t in q.models)
        head, *rest = answer.split("\n")
        if head == "related":
            conds = conditions_for(spec)
            if directed:
                conds = directed_conditions(conds)
            relation = _parse_witness(rest)
            start = (Config(frozenset(left.mem), w), Config(frozenset(right.mem), v))
            if start not in relation:
                return "witness lacks the starting pair"
            bad = self.tr.call("equivalence.verify_relation", verify_relation, conds, left, right, relation)
            return None if bad is None else f"witness rejected by verify_relation: {bad[1]}"
        if q.related:
            return "a pair built to be related was judged not related"
        if rest and rest[0].startswith("distinguisher: "):
            return self.separates(spec, left, w, right, v, rest[0].removeprefix("distinguisher: "))
        return None

    def bisim_related(self, spec, left, w, right, v) -> bool:
        outcome = self.tr.call("equivalence.bisimilar", bisimilar, spec, left, w, right, v, distinguisher_depth=0)
        return outcome.related

    def game(self, q, spec, answer: str, related: bool | None) -> str | None:
        if related is None:
            (left, w), (right, v) = (self.tr.call("kripke.load_model", load_model, t) for t in q.models)
            related = self.bisim_related(spec, left, w, right, v)
        winner = answer.split("\n", 1)[0].removeprefix("winner: ")
        if (winner == "duplicator") != related:
            return f"game winner {winner} disagrees with the bisim verdict related={related}"
        return None

    def quotient(self, q, spec, answer: str) -> str | None:
        model, point = self.tr.call("kripke.load_model", load_model, q.models[0])
        small, small_point = self.tr.call("kripke.load_model", load_model, answer)
        outcome = self.tr.call(
            "equivalence.bisimilar", bisimilar, spec, model, point, small, small_point, distinguisher_depth=0
        )
        if not outcome.related:
            return "the point is not bisimilar to its representative"
        related = {(a.world, b.world) for a, b in outcome.witness}
        for w in model.worlds:
            images = [s for s in small.worlds if (w, s) in related]
            if len(images) != 1:
                return f"world {w} is bisimilar to {len(images)} quotient worlds"
        return None

    def satisfaction(self, q, spec, answer: str) -> str | None:
        model, point = self.tr.call("kripke.load_model", load_model, q.models[0])
        phi, fo_phi = self.formula(spec, [model], q.formula)
        head, sat_line = answer.split("\n")
        sat = set(sat_line.removeprefix("sat:").split())
        structure, _ = self.tr.call("translate.translate_model", translate_model, model, point)
        for w in model.worlds:
            if self.tr.call("fo.fo_check", fo_check, structure, {"x": w}, fo_phi) != (w in sat):
                return f"satisfying set disagrees with fo_check at {w}"
        if (head == "true") != (point in sat):
            return "check at the point disagrees with the satisfying set"
        return None

    def theory(self, answer: str) -> str | None:
        blocks: list[list[str]] = []
        for line in answer.split("\n"):
            if line.startswith(("left: ", "right: ")):
                blocks.append([])
            else:
                blocks[-1].append(line)
        return None if blocks[0] == blocks[1] else "the theories of a related pair differ"

    def separator(self, q, spec, answer: str) -> str | None:
        (left, w), (right, v) = (self.tr.call("kripke.load_model", load_model, t) for t in q.models)
        if answer.startswith("distinguisher: "):
            return self.separates(spec, left, w, right, v, answer.removeprefix("distinguisher: "))
        theories = self.tr.call(
            "enumeration.joint_theories", joint_theories,
            spec, [PointedModel(left, w), PointedModel(right, v)], depth=THEORY_DEPTH,
        )
        return None if theories[0] == theories[1] else "no separator found, yet the bounded theories differ"

    def definability(self, q, spec, answer: str) -> str | None:
        loaded = [self.tr.call("kripke.load_model", load_model, t) for t in q.models]
        by_name = dict(zip(q.names, loaded))
        if answer.startswith("defined: "):
            phi, fo_phi = self.formula(spec, [m for m, _ in loaded], answer.removeprefix("defined: "))
            for name, (model, point) in by_name.items():
                if _holds(self.tr, model, point, phi, fo_phi) != ((name in q.members),) * 2:
                    return f"definer misclassifies {name}"
            return None
        if answer.startswith("not closed: "):
            inside, _, outside = answer.removeprefix("not closed: ").partition(" is related to ")
            if not self.bisim_related(spec, *by_name[inside], *by_name[outside]):
                return f"not-closed witness {inside}, {outside} is not related"
        return None

    def answer(self, queries, answers, index: int) -> str | None:
        q, answer = queries[index], answers[index]
        spec = get_dialect(q.dialect)
        if q.kind in ("bisim", "simulate"):
            return self.verdict(q, spec, answer, directed=q.kind == "simulate")
        if q.kind == "game":
            related = None
            prev = queries[index - 1] if index else None
            if prev is not None and prev.kind == "bisim" and prev.models == q.models:
                related = answers[index - 1].startswith("related")
            return self.game(q, spec, answer, related)
        if q.kind == "minimize":
            return self.quotient(q, spec, answer)
        if q.kind == "check":
            return self.satisfaction(q, spec, answer)
        if q.kind == "theory":
            return self.theory(answer)
        if q.kind == "separate":
            return self.separator(q, spec, answer)
        if q.kind == "define":
            return self.definability(q, spec, answer)
        raise ValueError(f"unknown query kind {q.kind!r}")


def check_answers(queries, answers, tr: Tracer) -> list[str | None]:
    checker = Checker(tr)
    out = []
    for index in range(len(queries)):
        tr.query = index
        out.append(tr.call(f"check.{queries[index].kind}", checker.answer, queries, answers, index))
    return out
