"""README's examples run as written: the library example prints what its
comments say, and the CLI block's generate-then-analyze pair exits 0."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import quadsphere

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(heading, lang):
    """The first ``lang`` code block after the line ``heading``."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start).group(1)


def test_library_example():
    # diag(1, 2, 3) is refuted by the diagonal witness on the sorted diagonal
    code = fenced("## Library example", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    # each print's comment starts with the value it prints; "1.732..." is a prefix
    wanted = [line.split("# ", 1)[1].split()[0]
              for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(wanted) == 4
    for got, want in zip(printed, wanted):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want


def test_cli_generate_and_analyze(tmp_path):
    block = fenced("## CLI", "sh").splitlines()
    start = block.index("# generate an instance and analyze it") + 1
    commands = block[start:block.index("", start)]
    assert [shlex.split(c)[1] for c in commands] == ["generate", "analyze"]
    env = dict(os.environ)
    src = str(Path(quadsphere.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for command in commands:
        args = shlex.split(command)[1:]
        proc = subprocess.run(
            [sys.executable, "-m", "quadsphere.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, (command, proc.stderr.decode())
    assert (tmp_path / "m.json").is_file()
