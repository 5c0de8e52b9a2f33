"""The README's examples run as written.

Every ``knotcert`` line of the Command line block runs through
``cli.main``, in order, in a temporary directory whose ``src`` is the
repository's, so the corpus paths resolve.  Lines ending in ``\\`` are
joined, ``> file`` writes the output to that file, and every line must
exit 0 (``-h`` exits through ``SystemExit(0)``).  A ``# -> text``
comment is the whole output, and ``# -> ..., text`` its end.  The
Library use block runs too, and a ``# -> value`` comment there is the
repr of its line's expression.
"""

import contextlib
import io
import shlex
from pathlib import Path

from knotcert import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def split_comment(line: str) -> tuple[str, str]:
    code, _, comment = line.partition("#")
    return code.strip(), comment.strip()


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_command_block(tmp_path, monkeypatch):
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    lines = code_block("Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.startswith("knotcert ")]
    checked = 0
    for line in commands:
        code, comment = split_comment(line)
        argv = shlex.split(code)[1:]
        target = None
        if ">" in argv:
            i = argv.index(">")
            argv, target = argv[:i], argv[i + 1]
        exit_code, out = run(argv)
        assert exit_code == 0, line
        if target is not None:
            Path(target).write_text(out)
        if comment.startswith("-> ..., "):
            assert out.rstrip("\n").endswith(comment[len("-> ..., "):]), line
            checked += 1
        elif comment.startswith("-> "):
            assert out.strip() == comment[len("-> "):], line
            checked += 1
    assert len(commands) > 20 and checked >= 3


def test_library_block():
    source = code_block("Library use", "python")
    scope: dict = {}
    exec(source, scope)
    checked = 0
    for line in source.splitlines():
        code, comment = split_comment(line)
        if comment.startswith("-> "):
            assert repr(eval(code, scope)) == comment[len("-> "):], line
            checked += 1
    assert checked >= 4
