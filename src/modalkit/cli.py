"""Command-line front end.

Subcommands:

  check      evaluate a formula at a world of a model
  bisim      decide the dialect's (bi)simulation between two pointed models
  translate  print the first-order translation of a formula
  minimize   quotient a plain model by its coarsest stable partition
  game       solve the comparison game and show a sample play
  define     definability of a subset of a universe of pointed models
  random     generate a reproducible pseudo-random model
  suite      run the randomized self-check suites

Exit codes: 0 for a positive outcome (true / related / duplicator win /
defined / generated / all suites pass), 1 for the negative counterpart,
2 for errors (bad input, unknown names, malformed files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import suite as suite_mod
from .analysis import definability_check, load_universe, minimize_map
from .enumeration import separating_formula
from .equivalence import bisimilar, serialize_witness, simulated_by
from .errors import ModalkitError
from .games import Game, format_transcript
from .kripke import GenParams, KripkeModel, load_model_file, random_model, save_model
from .semantics import EvalConfig, check
from .syntax import (
    _BRACKETS,
    DIALECTS,
    RESERVED_WORDS,
    Signature,
    _tokenize,
    get_dialect,
    parse_formula,
    print_formula,
)
from .translate import translate_formula
from .fo import fo_print


def _infer_signature(text: str, models: list[KripkeModel]) -> Signature:
    """Signature for parsing a command-line formula: names mentioned by the
    models plus names whose role the formula's own syntax reveals (after
    modal brackets: relations; after ' or @: nominals; otherwise
    propositions)."""
    props, rels, noms = set(), set(), set()
    for m in models:
        sig = m.signature
        props.update(sig.props)
        rels.update(sig.rels)
        noms.update(sig.noms)
    tokens = _tokenize(text)
    for prev, tok in zip([None, *tokens], tokens):
        if tok.kind != "ident" or tok.text in RESERVED_WORDS:
            continue
        after = prev.text if prev is not None and prev.kind == "sym" else None
        if after in _BRACKETS:
            rels.add(tok.text)
        elif after in ("'", "@"):
            noms.add(tok.text)
        elif tok.text not in rels and tok.text not in noms:
            props.add(tok.text)
    props -= rels | noms
    return Signature(props=tuple(sorted(props)), rels=tuple(sorted(rels)), noms=tuple(sorted(noms)))


def _load(path: str) -> tuple[KripkeModel, str | None]:
    return load_model_file(Path(path))


def _pick_world(explicit: str | None, point: str | None, path: str) -> str:
    if explicit is not None:
        return explicit
    if point is not None:
        return point
    raise ModalkitError(f"{path}: no world given and the file has no point directive")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_check(args) -> int:
    model, point = _load(args.model)
    world = _pick_world(args.world, point, args.model)
    spec = get_dialect(args.dialect)
    sig = _infer_signature(args.formula, [model])
    phi = parse_formula(args.formula, sig, spec)
    result = check(model, world, phi, EvalConfig(spec, sig))
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_bisim(args) -> int:
    left, lpoint = _load(args.left)
    right, rpoint = _load(args.right)
    w = _pick_world(args.left_world, lpoint, args.left)
    v = _pick_world(args.right_world, rpoint, args.right)
    spec = get_dialect(args.dialect)
    decide = simulated_by if args.directed else bisimilar
    outcome = decide(spec, left, w, right, v, distinguisher_depth=args.depth)
    if outcome.related:
        print("related")
        if args.witness and outcome.witness is not None:
            print(serialize_witness(outcome.witness))
        return 0
    print("not related")
    if not args.directed:
        phi = outcome.distinguisher
        if phi is None and args.depth <= 0:
            # bisimilar skips its bounded search at depth 0; above that, a
            # None distinguisher is that search's own answer
            phi = separating_formula(spec, left, w, right, v, depth=args.depth)
        if phi is not None:
            print(f"distinguisher: {print_formula(phi)}")
        else:
            print(f"no distinguisher found within depth {args.depth}")
    return 1


def _cmd_translate(args) -> int:
    models = []
    if args.model:
        models.append(_load(args.model)[0])
    spec = get_dialect(args.dialect)
    sig = _infer_signature(args.formula, models)
    phi = parse_formula(args.formula, sig, spec)
    print(fo_print(translate_formula(phi)))
    return 0


def _cmd_minimize(args) -> int:
    model, point = _load(args.model)
    small, rep = minimize_map(model)
    text = save_model(small, rep[point] if point is not None else None)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_game(args) -> int:
    left, lpoint = _load(args.left)
    right, rpoint = _load(args.right)
    w = _pick_world(args.left_world, lpoint, args.left)
    v = _pick_world(args.right_world, rpoint, args.right)
    spec = get_dialect(args.dialect)
    game = Game(spec, left, right)
    start = game.initial(w, v, rounds=args.rounds)
    result = game.solve(start)
    print(f"winner: {result.winner}")
    moves = game.sample_play(start, result)
    if moves:
        print(format_transcript(game, start, moves))
    return 0 if result.winner == "duplicator" else 1


def _cmd_define(args) -> int:
    spec = get_dialect(args.dialect)
    universe = load_universe(args.universe)
    members = [m for m in args.members.split(",") if m]
    result = definability_check(
        spec, universe, members, max_depth=args.depth, budget=args.budget
    )
    if result.status == "defined":
        print(f"defined: {print_formula(result.formula)}")
        return 0
    if result.status == "not_closed":
        inside, outside = result.witness
        print(f"not closed: {inside} is related to {outside}")
        return 1
    print("exhausted: no definer found within the search bounds")
    return 1


def _cmd_random(args) -> int:
    sig = Signature(
        props=tuple(p for p in args.props.split(",") if p),
        rels=tuple(r for r in args.rels.split(",") if r),
        noms=tuple(n for n in args.noms.split(",") if n),
    )
    model = random_model(
        GenParams(
            n_worlds=args.worlds,
            edge_prob=args.edge_prob,
            prop_prob=args.prop_prob,
            seed=args.seed,
            sig=sig,
        )
    )
    point = model.worlds[0] if args.point else None
    print(save_model(model, point), end="")
    return 0


def _cmd_suite(args) -> int:
    reports = suite_mod.run_all(seed=args.seed, cases=args.cases)
    all_ok = True
    for report in reports:
        status = "ok" if report.ok else f"{len(report.failures)} failures"
        print(f"{report.name}: {report.cases} cases, {status}")
        for line in report.failures:
            print(f"  {line}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modalkit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    dialects = sorted(DIALECTS)

    def add_dialect(p):
        p.add_argument("-d", "--dialect", choices=dialects, default="bml")

    p = sub.add_parser("check", help="evaluate a formula at a world")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-w", "--world")
    p.add_argument("-f", "--formula", required=True)
    add_dialect(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bisim", help="decide the dialect's (bi)simulation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--left-world")
    p.add_argument("--right-world")
    p.add_argument("--directed", action="store_true", help="simulation instead of bisimulation")
    p.add_argument("--witness", action="store_true", help="print the witnessing relation")
    p.add_argument("--depth", type=int, default=4, help="bounded distinguisher search depth")
    add_dialect(p)
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("translate", help="print the first-order translation")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-m", "--model", help="optional model supplying the signature")
    add_dialect(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("minimize", help="quotient a plain model")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-o", "--out", help="write the result here instead of stdout")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("game", help="solve the comparison game")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--left-world")
    p.add_argument("--right-world")
    p.add_argument("--rounds", type=int, default=None, help="bounded game with this many rounds")
    add_dialect(p)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("define", help="definability over a universe directory")
    p.add_argument("--universe", required=True)
    p.add_argument("--members", required=True, help="comma-separated member names")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--budget", type=int, default=20_000)
    add_dialect(p)
    p.set_defaults(func=_cmd_define)

    p = sub.add_parser("random", help="generate a reproducible model")
    p.add_argument("--worlds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.4)
    p.add_argument("--prop-prob", type=float, default=0.5)
    p.add_argument("--props", default="p,q")
    p.add_argument("--rels", default="r")
    p.add_argument("--noms", default="")
    p.add_argument("--point", action="store_true", help="mark the first world as the point")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("suite", help="run the self-check suites")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--cases", type=int, default=60)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModalkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
