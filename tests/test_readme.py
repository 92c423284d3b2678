"""The README's command-line examples, run as written.

Each ```` ```sh ```` block of the quick-start section is run with ``sh`` in a
temporary directory holding a copy of ``tests/fixtures``; ``modalkit`` is a
shell function that runs ``python -m modalkit.cli`` from this checkout.  The
block's ``$`` lines are the script and its other lines the expected stdout.
"""

import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command-line quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, re.S)


BLOCKS = _blocks()


def test_quick_start_has_examples():
    assert len(BLOCKS) >= 8


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.split()[1] + "-" + b.split()[2])
def test_readme_example(block, tmp_path):
    lines = block.splitlines()
    commands = [line[2:] for line in lines if line.startswith("$ ")]
    expected = "".join(line + "\n" for line in lines if not line.startswith("$ "))
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    python, src = shlex.quote(sys.executable), shlex.quote(str(ROOT / "src"))
    prelude = f'modalkit() {{ PYTHONPATH={src} {python} -m modalkit.cli "$@"; }}\n'
    run = subprocess.run(
        ["sh", "-c", prelude + "\n".join(commands)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.stderr == ""
    assert run.stdout == expected
