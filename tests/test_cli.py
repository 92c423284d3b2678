"""End-to-end tests of the command-line front end.

Each test drives ``cli.main`` with a real argv list and asserts on stdout,
stderr, and the exit code; one smoke test runs the installed console script
in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, NESTED, chain_model
from modalkit import cli, enumeration
from modalkit import semantics
from modalkit.kripke import GenParams, random_model, save_model
from modalkit.syntax import MAX_FORMULA_DEPTH, Signature

SRC = Path(__file__).resolve().parents[1] / "src"
REFL = str(FIXTURES / "reflexive.km")
CYC = str(FIXTURES / "two_cycle.km")
FOUR = str(FIXTURES / "four_world.km")
FORK2 = str(FIXTURES / "fork_two.km")
FORK3 = str(FIXTURES / "fork_three.km")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# check


def test_check_reports_truth_and_sets_the_exit_code(capsys):
    code, out, _ = run(capsys, "check", "-m", FORK2, "-f", "<e>(p & q)")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "check", "-m", FORK2, "-f", "[e]q")
    assert (code, out) == (1, "false\n")
    # -w overrides the file's point directive
    code, out, _ = run(capsys, "check", "-m", FORK2, "-w", "u2", "-f", "q")
    assert (code, out) == (0, "true\n")


def test_check_memory_dialect(capsys):
    code, out, _ = run(capsys, "check", "-m", REFL, "-f", "rem <r>known", "-d", "ml-diamond")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "check", "-m", CYC, "-f", "rem <r>known", "-d", "ml-diamond")
    assert (code, out) == (1, "false\n")


def test_check_needs_a_world_from_somewhere(capsys, tmp_path):
    path = tmp_path / "pointless.km"
    path.write_text("worlds: a\nrel r: a->a\n")
    code, out, err = run(capsys, "check", "-m", str(path), "-f", "true")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no world given" in err


# ---------------------------------------------------------------------------
# bisim


def test_bisim_related_with_witness(capsys):
    code, out, _ = run(capsys, "bisim", REFL, CYC, "--witness")
    assert code == 0
    assert out == "related\n((|a),(|b))\n((|a),(|c))\n"


def test_bisim_unrelated_prints_a_distinguisher(capsys):
    code, out, _ = run(capsys, "bisim", REFL, CYC, "-d", "ml-diamond")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not related"
    assert lines[1].startswith("distinguisher: ")
    code, out, _ = run(capsys, "bisim", REFL, CYC, "-d", "ml-diamond", "--depth", "0")
    assert code == 1
    assert out.splitlines()[1] == "no distinguisher found within depth 0"


def test_bisim_prints_a_deep_distinguisher(capsys, tmp_path):
    paths = [tmp_path / "short.km", tmp_path / "long.km"]
    for path, n in zip(paths, (600, 601)):
        path.write_text(save_model(chain_model(n), "w0"), encoding="utf-8")
    code, out, _ = run(capsys, "bisim", *map(str, paths))
    assert (code, out) == (1, "not related\ndistinguisher: " + "<r>" * 599 + "[r]false\n")


def test_bisim_searches_for_a_distinguisher_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["depth"])
        return real(*args, **kwargs)

    real = enumeration.separating_formula
    monkeypatch.setattr(enumeration, "separating_formula", counted)
    monkeypatch.setattr(cli, "separating_formula", counted)
    # rem <r>~known separates the two at depth 1 and nothing does at depth 0
    code, out, _ = run(capsys, "bisim", REFL, CYC, "-d", "ml-diamond", "--depth", "1")
    assert (code, out.splitlines()[0], calls) == (1, "not related", [1])
    calls.clear()
    code, out, _ = run(capsys, "bisim", FOUR, CYC, "-d", "ml-diamond", "--depth", "0")
    assert (code, out.splitlines()[1], calls) == (1, "no distinguisher found within depth 0", [0])
    # the memory dialect's own search found nothing at depth 1: not repeated
    calls.clear()
    code, out, _ = run(capsys, "bisim", FOUR, CYC, "-d", "ml-diamond", "--depth", "1")
    assert (code, out.splitlines()[1], calls) == (1, "no distinguisher found within depth 1", [1])


def test_bisim_directed(capsys):
    code, out, _ = run(capsys, "bisim", "--directed", "-d", "bml-minus", FORK2, FORK3)
    assert (code, out) == (0, "related\n")
    # simulation is not symmetric: the reverse direction fails, and directed
    # runs do not search for distinguishers
    code, out, _ = run(capsys, "bisim", "--directed", "-d", "bml-minus", FORK3, FORK2)
    assert (code, out) == (1, "not related\n")


# ---------------------------------------------------------------------------
# translate


def test_translate_infers_roles_from_syntax(capsys):
    code, out, _ = run(capsys, "translate", "-f", "<s>'j", "-d", "hl")
    assert (code, out) == (0, "(exists y0 (and (s x y0) (= y0 j)))\n")
    code, out, _ = run(capsys, "translate", "-f", "@k p", "-d", "hl-at")
    assert (code, out) == (0, "(p k)\n")


def test_translate_gives_the_first_token_a_role(capsys):
    code, out, _ = run(capsys, "translate", "-f", "p & q")
    assert (code, out) == (0, "(and (p x) (q x))\n")
    code, out, _ = run(capsys, "translate", "-f", "p")
    assert (code, out) == (0, "(p x)\n")


def test_signature_inference_reads_every_modal_bracket():
    """A name right after any opening modal bracket, double ones included,
    is a relation."""
    sig = cli._infer_signature("[[r]]p & <<s>>q", [])
    assert (sig.props, sig.rels, sig.noms) == (("p", "q"), ("r", "s"), ())


def test_translate_still_enforces_the_dialect(capsys):
    code, out, err = run(capsys, "translate", "-f", "@k p", "-d", "bml")
    assert code == 2 and out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# minimize


def test_minimize_to_stdout(capsys):
    code, out, _ = run(capsys, "minimize", "-m", FOUR)
    assert code == 0
    assert out == "worlds: b c\nrel r: b->b b->c\npoint: b\n"


def test_minimize_to_file(capsys, tmp_path):
    target = tmp_path / "small.km"
    code, out, _ = run(capsys, "minimize", "-m", FOUR, "-o", str(target))
    assert (code, out) == (0, "")
    assert target.read_text() == "worlds: b c\nrel r: b->b b->c\npoint: b\n"


# ---------------------------------------------------------------------------
# game


def test_game_winners(capsys):
    code, out, _ = run(capsys, "game", REFL, CYC)
    assert code == 0
    assert out.splitlines()[0] == "winner: duplicator"
    code, out, _ = run(capsys, "game", REFL, CYC, "-d", "ml-diamond")
    assert code == 1
    assert out.splitlines()[0] == "winner: spoiler"
    assert "result: spoiler" in out


def test_game_bounded_rounds(capsys):
    # one round is not enough for the memory spoiler: remembering uses it up
    code, out, _ = run(capsys, "game", REFL, CYC, "-d", "ml-diamond", "--rounds", "1")
    assert code == 0
    assert out.splitlines()[0] == "winner: duplicator"
    # deep bounded games are solved without Python recursion
    code, out, _ = run(capsys, "game", REFL, CYC, "--rounds", "500")
    assert code == 0
    assert out.splitlines()[0] == "winner: duplicator"


# ---------------------------------------------------------------------------
# define


@pytest.fixture
def lit_universe(tmp_path):
    (tmp_path / "lit.km").write_text("worlds: a\nval p: a\npoint: a\n")
    (tmp_path / "unlit.km").write_text("worlds: a\nval p:\npoint: a\n")
    return str(tmp_path)


def test_define_outcomes(capsys, lit_universe):
    code, out, _ = run(
        capsys, "define", "--universe", lit_universe, "--members", "lit", "-d", "bml"
    )
    assert (code, out) == (0, "defined: p\n")
    code, out, _ = run(
        capsys, "define", "--universe", lit_universe, "--members", "unlit", "-d", "bml-minus"
    )
    assert (code, out) == (1, "not closed: unlit is related to lit\n")
    code, out, err = run(
        capsys, "define", "--universe", lit_universe, "--members", "nope", "-d", "bml"
    )
    assert code == 2 and err.startswith("error:")


def test_define_exhausted_and_boolean_rescue(capsys, tmp_path):
    (tmp_path / "only_p.km").write_text("worlds: a\nval p: a\nval q:\npoint: a\n")
    (tmp_path / "only_q.km").write_text("worlds: a\nval p:\nval q: a\npoint: a\n")
    (tmp_path / "both.km").write_text("worlds: a\nval p: a\nval q: a\npoint: a\n")
    code, out, _ = run(
        capsys, "define", "--universe", str(tmp_path), "--members", "both", "-d", "bml-minus"
    )
    assert (code, out) == (1, "exhausted: no definer found within the search bounds\n")
    code, out, _ = run(
        capsys, "define", "--universe", str(tmp_path), "--members", "both", "-d", "bml"
    )
    assert (code, out) == (0, "defined: p & q\n")


# ---------------------------------------------------------------------------
# random


def test_random_is_reproducible(capsys):
    code, out, _ = run(capsys, "random", "--worlds", "3", "--seed", "42", "--point")
    assert code == 0
    params = GenParams(
        n_worlds=3, edge_prob=0.4, prop_prob=0.5, seed=42,
        sig=Signature(props=("p", "q"), rels=("r",)),
    )
    assert out == save_model(random_model(params), "w1")
    code, out, _ = run(capsys, "random", "--worlds", "3", "--seed", "42")
    assert code == 0 and "point:" not in out


def test_random_custom_signature(capsys):
    code, out, _ = run(
        capsys, "random", "--worlds", "2", "--seed", "7",
        "--props", "", "--rels", "s", "--noms", "i",
    )
    assert code == 0
    assert "nom i: w1" in out and "val" not in out


# ---------------------------------------------------------------------------
# suite


def test_suite_runs_clean(capsys):
    code, out, _ = run(capsys, "suite", "--seed", "7", "--cases", "4")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "translation", "relation-theory", "game-agreement", "minimization",
    ]
    assert all(line.endswith("ok") for line in lines)
    assert lines[0] == "translation: 18 cases, ok"


def test_suite_catches_a_broken_checker(capsys, monkeypatch):
    real = semantics.check

    def flipped(model, world, phi, config=None):
        return not real(model, world, phi, config)

    monkeypatch.setattr(semantics, "check", flipped)
    code, out, _ = run(capsys, "suite", "--seed", "7", "--cases", "2")
    assert code == 1
    assert "translation: 18 cases, 18 failures" in out


# ---------------------------------------------------------------------------
# error handling and the installed script


def test_bad_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", "-m", str(tmp_path / "missing.km"), "-f", "p")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "check", "-m", REFL, "-f", "p &")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "bisim", REFL, CYC, "--left-world", "zz")
    assert code == 2 and err.startswith("error:")
    nameless = tmp_path / "nameless.km"
    nameless.write_text("worlds: a\n: x\n")
    for argv in (
        ("check", "-m", str(nameless), "-f", "p"),
        ("bisim", str(nameless), REFL),
        ("game", str(nameless), REFL),
        ("translate", "-m", str(nameless), "-f", "p"),
        ("minimize", "-m", str(nameless)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: line 2:")
    latin = tmp_path / "latin.km"
    latin.write_bytes(b"worlds: a\xff\n")
    bytes_universe = tmp_path / "bytes_universe"
    bytes_universe.mkdir()
    (bytes_universe / "lit.km").write_bytes(b"worlds: a\nval p: a\npoint: a\n# \xe9\n")
    for argv, line in (
        (("check", "-m", str(latin), "-f", "p"), 1),
        (("bisim", REFL, str(latin)), 1),
        (("minimize", "-m", str(latin)), 1),
        (("define", "--universe", str(bytes_universe), "--members", "lit"), 4),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: not UTF-8 text")
    missing = str(tmp_path / "no_universe")
    universe = tmp_path / "universe"
    universe.mkdir()
    (universe / "lit.km").write_text("worlds: a\nval p: a\npoint: a\n")
    define_lit = ("define", "--universe", str(universe), "--members", "lit")
    for argv, message in (
        (("suite", "--cases", "-1"), "error: cases must be at least 0, got -1"),
        (("game", REFL, CYC, "--rounds", "-2"), "error: rounds must be at least 0, got -2"),
        (("define", "--universe", missing, "--members", "a"), f"error: no universe directory {missing!r}"),
        ((*define_lit, "--depth", "-2", "-d", "ml-diamond"), "error: depth must be at least 0, got -2"),
        ((*define_lit, "--budget", "-1"), "error: budget must be at least 0, got -1"),
        (("bisim", REFL, CYC, "-d", "ml-diamond", "--depth", "-1"), "error: depth must be at least 0, got -1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_formulas(capsys, shape):
    text = NESTED[shape](MAX_FORMULA_DEPTH)
    code, out, _ = run(capsys, "check", "-m", REFL, "-f", text)
    assert code in (0, 1) and out in ("true\n", "false\n")
    code, out, _ = run(capsys, "translate", "-f", text)
    assert code == 0 and out.startswith("(")
    for n in (MAX_FORMULA_DEPTH + 1, 3000):
        for argv in (("check", "-m", REFL), ("translate",)):
            code, out, err = run(capsys, *argv, "-f", NESTED[shape](n))
            assert (code, out) == (2, "")
            assert err.startswith("error: parse error") and "levels of nesting" in err


def test_argparse_rejections():
    with pytest.raises(SystemExit):
        cli.main(["check", "-m", REFL, "-f", "p", "-d", "nope"])
    with pytest.raises(SystemExit):
        cli.main([])


def test_console_script_smoke():
    # the sources on the child's path too, so this runs without an install
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "modalkit.cli", "check", "-m", REFL, "-f", "<r>true"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "true\n"
