import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import cli
from knotcert._value import integer
from knotcert.certify import certificate_from_dict, certificate_to_dict
from knotcert.cli import COMMANDS, build_parser, main

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out) if out else None, err


def rejected(capsys, *argv):
    """Exit code, stdout and last stderr line of a command line argparse rejects."""
    code, out, err = _outcome(capsys, main, list(argv))
    return code, out, err.splitlines()[-1]


def run_limited(*argv, timeout=120):
    """The CLI in a subprocess with 1 GiB of address space and a timeout.

    For inputs that would make a job build something huge: the limit turns
    an attempt into a MemoryError instead of exhausting the host.
    """
    src = str(DATA.parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    limit = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "knotcert.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestWordCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "word", "reduce", "g1 g2 g2^-1 g1^-1")
        assert code == 0 and out.strip() == "(empty)"

    def test_commutator(self, capsys):
        code, doc, _ = run_json(capsys, "word", "commutator", "g1 g2")
        assert code == 0
        assert doc["expansion"] == "g1 g2 g1^-1 g2^-1"
        assert doc["tags"] == [1, 2, 1, 2]

    def test_kill(self, capsys):
        code, out, _ = run(capsys, "word", "kill", "g1 g2 g1^-1", "--subset", "1")
        assert code == 0 and out.strip() == "g2"

    @pytest.mark.parametrize("subset", ["1 \u0662", "1_0"])
    def test_kill_bad_subset_exit_2(self, capsys, subset):
        assert run(capsys, "word", "kill", "g1 g2", "--subset", subset) == (
            2, "", f"error: bad generator subset {subset!r}\n")

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "word", "reduce", "g1 gX")
        assert code == 2 and "col 4" in err

    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_generator_past_int_digit_limit_exit_2(self, capsys, digits):
        # the token is well formed, so the error says what is wrong with it:
        # the message that read_json gives a JSON integer of too many digits
        for token in ("g" + "1" * digits, "-" + "1" * digits):
            assert run(capsys, "word", "reduce", f"g2 {token}") == (
                2, "", f"error: line 1, col 4: integer of {digits} digits exceeds the limit of "
                       "4300 digits\n")

    @pytest.mark.parametrize("word, col, message", [
        ("g2 1_0", 4, "bad token '1_0'"),
        ("g\u0663", 1, "bad generator token 'g\u0663'"),
        ("g1 g1_0^-1", 4, "bad generator token 'g1_0^-1'"),
        ("\u0661", 1, "bad token '\u0661'"),
    ], ids=["grouped", "arabic-indic-generator", "grouped-generator", "arabic-indic"])
    def test_non_ascii_or_grouped_digits_exit_2(self, capsys, word, col, message):
        assert run(capsys, "word", "reduce", word) == (2, "", f"error: line 1, col {col}: {message}\n")

    def test_leading_zeros_and_signs_accepted(self, capsys):
        assert run(capsys, "word", "reduce", "+3 -0004 g007 g02^-1") == (
            0, "g3 g4^-1 g7 g2^-1\n", "")

    def test_commutator_needs_two_entries(self, capsys):
        assert run(capsys, "word", "commutator", "g1") == (
            2, "", "error: a commutator needs at least two entries\n")


class TestWordSources:
    """Word arguments given as @path or - (stdin) instead of inline."""

    def test_at_path(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("g1 g2 g2^-1\n")
        assert run(capsys, "word", "reduce", f"@{path}") == (0, "g1\n", "")
        path.write_text("g1 g1")
        assert run(capsys, "word", "commutator", f"@{path}") == (0, "(empty)\n", "")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("g1 g2 g2^-1"))
        assert run(capsys, "word", "reduce", "-") == (0, "g1\n", "")

    def test_missing_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        assert run(capsys, "word", "reduce", f"@{path}") == (
            2, "", f"error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n")


class TestMagnusCommands:
    def test_degree(self, capsys):
        code, out, _ = run(capsys, "magnus", "degree", "g1 g2 g1^-1 g2^-1", "-D", "4")
        assert code == 0 and out.strip() == "2"

    def test_expand_structured(self, capsys):
        code, doc, _ = run_json(capsys, "magnus", "expand", "g1 g2", "-D", "2")
        assert code == 0
        assert [[1], 1] in doc["terms"] and [[1, 2], 1] in doc["terms"]

    def test_fox(self, capsys):
        code, out, _ = run(capsys, "magnus", "fox", "g1 g2 g1^-1 g2^-1", "--index", "2 1")
        assert code == 0 and out.strip() == "-1"

    @pytest.mark.parametrize("word,index,bad", [("1 2000", "1", "2000"), ("1 2", "1 1024", "1024")])
    def test_fox_range_exit_2(self, capsys, word, index, bad):
        # letters whose generator is not in the index are still range-checked
        code, out, err = run(capsys, "magnus", "fox", word, "--index", index)
        assert code == 2 and out == "" and f"generator index {bad} out of range" in err

    @pytest.mark.parametrize("argv", [
        ["magnus", "fox", "g1 g2"],
        ["milnor", "invariant", str(DATA / "hopf.longitudes")],
    ], ids=["fox", "milnor-invariant"])
    @pytest.mark.parametrize("index, message", [
        ("1 x", "bad index sequence '1 x'"),
        ("1 \u0662", "bad index sequence '1 \u0662'"),
        ("0 1", "indices must be positive"),
    ], ids=["not-int", "non-ascii", "zero"])
    def test_bad_index_exit_2(self, capsys, argv, index, message):
        assert run(capsys, *argv, "--index", index) == (2, "", f"error: {message}\n")


class TestDecomposeAndSchreier:
    def test_decompose(self, capsys):
        code, doc, _ = run_json(capsys, "decompose", "g1 g2 g1^-1 g2^-1", "-m", "1", "-D", "2")
        assert code == 0
        assert doc["factors"] == [["g1 g2", 1]]
        assert doc["residual"] == ""

    def test_internal_defect_exit_4(self, capsys, monkeypatch):
        # a Lyndon solve that is off by one copy of a factor fails the
        # stage check: a defect, reported as such and not as a verdict
        from knotcert import decomp

        solve = decomp.left_normed_combination

        def off_by_one(component):
            combo = dict(solve(component))
            combo[min(combo)] += 1
            return combo

        monkeypatch.setattr(decomp, "left_normed_combination", off_by_one)
        # [g1, g2, g3] [g2, g1, g1]: two letter multisets, so the general
        # solver runs rather than the single-commutator match
        word = (
            "g1 g2 g1^-1 g2^-1 g3 g2 g1 g2^-1 g1^-1 g3^-1 "
            "g2 g1 g2^-1 g1 g2 g1^-1 g2^-1 g1^-1"
        )
        code, out, err = run(capsys, "decompose", word, "-m", "2", "-D", "3")
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: stage 3")
        assert "Traceback" not in err

    def test_schreier_degree(self, capsys):
        code, out, _ = run(capsys, "schreier", "degree", "g2 g1 g2^-1", "--subset", "1", "-D", "3")
        assert code == 0 and out.strip() == "1"

    def test_schreier_not_in_closure(self, capsys):
        code, _, err = run(capsys, "schreier", "degree", "g2", "--subset", "1", "-D", "3")
        assert code == 2 and "nontrivial image" in err

    @pytest.mark.parametrize("word, subset, image, killed", [
        ("g2 g1 g4 g3^-1", "1 3", "(2, 4)", "[1, 3]"),
        ("g2 g1 g2^-1 g4", "1", "(4,)", "[1]"),
    ], ids=["killed-after-complement", "complement-cancels"])
    def test_not_in_closure_message(self, capsys, word, subset, image, killed):
        # killed letters follow an uncancelled complement letter
        assert run(capsys, "schreier", "degree", word, "--subset", subset, "-D", "3") == (
            2, "", f"error: word has nontrivial image {image} after killing {killed}\n")


class TestTrivializeCommands:
    def test_build_verify_roundtrip(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "trivialize", "build",
            "--factor", "g1 g2 g3", "--factor", "g3 g2 g1", "--insert", "2:g2",
        )
        assert code == 0
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "trivialize", "verify", str(report))
        assert code == 0 and "all deletions trivialize" in out

    def test_verify_failure_exit_1(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "trivialize", "build", "--factor", "g1 g2")
        doc["sets"][0] = []
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "trivialize", "verify", str(report))
        assert code == 1 and "fails" in out

    @pytest.mark.parametrize("sets, message", [
        ([[0], [5]], "position 5 out of range 0..1"),
        ([["a"], [1]], 'bad trivializer report: position "a" is not an integer'),
        ([[0.5], [1]], "bad trivializer report: position 0.5 is not an integer"),
        ([[True], [1]], "bad trivializer report: position true is not an integer"),
        ([[0], [1, 1.0]], "bad trivializer report: position 1.0 is not an integer"),
    ])
    def test_bad_position_exit_2(self, capsys, tmp_path, sets, message):
        # set 0 alone leaves g1^-1, so a late check would report "invalid"
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"word": "g1 g1^-1", "tags": [1, 2], "sets": sets}))
        code, doc, err = run_json(capsys, "trivialize", "verify", str(report))
        assert (code, doc, err) == (2, None, f"error: {message}\n")

    @pytest.mark.parametrize("word, tags, message", [
        ([1, -1], [1, 2], "word [1, -1] is not a string"),
        (None, [1, 2], "word null is not a string"),
        ("g1 g1^-1", [True, 2], "tag true is not an integer or null"),
        ("g1 g1^-1", [1, 2.0], "tag 2.0 is not an integer or null"),
        ("g1 g1^-1", ["1", 2], 'tag "1" is not an integer or null'),
    ])
    def test_bad_word_or_tag_exit_2(self, capsys, tmp_path, word, tags, message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"word": word, "tags": tags, "sets": [[0], [1]]}))
        code, doc, err = run_json(capsys, "trivialize", "verify", str(report))
        assert (code, doc, err) == (2, None, f"error: bad trivializer report: {message}\n")

    @pytest.mark.parametrize("report, message", [
        ({"word": "g1", "tags": [1]}, "bad trivializer report: 'sets'"),
        ({"word": "g1", "tags": 5, "sets": []},
         "bad trivializer report: 'int' object is not iterable"),
        ({"word": "g1 g2", "tags": [1], "sets": [[0]]}, "letters and tags must have equal length"),
    ], ids=["missing-field", "tags-int", "length-mismatch"])
    def test_bad_report_exit_2(self, capsys, tmp_path, report, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert run(capsys, "trivialize", "verify", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("insertion", [
        "x", "a:g1", "1:g1 g2", "1:gX", "1:", "1_0:g1", "\u0661:g1", " 1:g1"])
    def test_bad_insertion_exit_2(self, capsys, insertion):
        assert run(capsys, "trivialize", "build", "--factor", "g1 g2", "--insert", insertion) == (
            2, "", f"error: bad insertion {insertion!r}; expected POSITION:LETTER\n")

    def test_null_and_zero_tags_accepted(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"word": "g1 g1^-1", "tags": [None, 0], "sets": [[0], [1]]}))
        code, out, _ = run(capsys, "trivialize", "verify", str(report))
        assert code == 1 and "fails" in out


class TestMilnorCommands:
    def test_hopf_invariant(self, capsys):
        code, out, _ = run(
            capsys, "milnor", "invariant", str(DATA / "hopf.longitudes"), "--index", "1 2"
        )
        assert code == 0 and out.strip() == "1"

    def test_borromean_vanish(self, capsys):
        code, out, _ = run(
            capsys, "milnor", "vanish", str(DATA / "borromean.longitudes"), "-n", "1"
        )
        assert code == 0 and out.strip() == "True"
        code, out, _ = run(
            capsys, "milnor", "vanish", str(DATA / "borromean.longitudes"), "-n", "2"
        )
        assert code == 1 and out.strip() == "False"

    @pytest.mark.parametrize("count", ["1024", "1000000000", "10" + "0" * 40])
    def test_component_count_past_generator_limit_exit_2(self, tmp_path, count):
        # one longitude per declared component is built before any word is
        # read, so the count is checked first; the subprocess runs under an
        # address-space limit and a timeout in case it is not
        path = tmp_path / "huge.longitudes"
        path.write_text(f"{count}\n")
        proc = run_limited("milnor", "vanish", str(path), "-n", "1", timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        # a count of more than 32 digits is shown capped, as _value.quoted caps it
        shown = count if len(count) <= 32 else f"{count[:32]}... ({len(count)} characters)"
        assert proc.stderr == (
            f"error: line 1, col 1: component count {shown} exceeds the limit 1023\n")

    def test_component_count_at_generator_limit(self, capsys, tmp_path):
        path = tmp_path / "many.longitudes"
        path.write_text("1023\n")
        assert run(capsys, "milnor", "vanish", str(path), "-n", "1") == (0, "True\n", "")


class TestMatrixCommands:
    def test_alexander_trefoil(self, capsys):
        code, out, _ = run(capsys, "alexander", str(DATA / "trefoil.mat"))
        assert code == 0 and out.strip() == "t^-1 - 1 + t"

    def test_alexander_figure8(self, capsys):
        # a leading -1 coefficient prints as a bare minus sign
        assert run(capsys, "alexander", str(DATA / "figure8.mat")) == (0, "-t^-1 + 3 - t\n", "")

    def test_alexander_whitehead(self, capsys):
        code, doc, _ = run_json(capsys, "alexander", str(DATA / "whitehead_k3.mat"))
        assert code == 0 and doc["alexander"]["coeffs"] == [1]

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", str(DATA / "trefoil.mat"), "--symmetrize")
        assert code == 0 and out.strip() == "parabolic"

    def test_mmr(self, capsys):
        code, doc, _ = run_json(capsys, "mmr", str(DATA / "trefoil.lp"), "-N", "2")
        assert code == 0 and doc["coefficients"] == ["1", "0", "-23/24"]

    def test_matrix_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("1\n0 1\n0 x\n")
        code, _, err = run(capsys, "alexander", str(bad))
        assert code == 2 and "line 3, col 3" in err

    def test_negative_genus(self, capsys, tmp_path):
        bad = tmp_path / "neg.mat"
        bad.write_text("-1\n")
        code, out, err = run(capsys, "alexander", str(bad))
        assert code == 2 and out == ""
        assert "line 1, col 1: genus must be >= 0" in err


# a 5000-digit token, and how a diagnostic shows it
LONG = "4" * 5000
LONG_SHOWN = f"'{'4' * 32}'... (5000 characters)"
LONG_INTEGER = "integer of 5000 digits exceeds the limit of 4300 digits"


class TestReaderErrors:
    """Every diagnostic of the matrix, Laurent and longitude file readers.

    A diagnostic about a token names its own line and its character column."""

    @pytest.mark.parametrize("argv, text, message", [
        (["alexander"], "", "line 1, col 1: empty matrix file"),
        (["alexander"], "# comment only\n", "line 1, col 1: empty matrix file"),
        (["alexander"], "x\n", "line 1, col 1: genus must be an integer"),
        (["alexander"], "1\n0 1\n", "expected 4 entries for genus 1, got 2"),
        (["alexander"], "1 0 1\n0 x\n", "line 2, col 3: bad matrix entry 'x'"),
        (["alexander"], "# g\n  x 1\n", "line 2, col 3: genus must be an integer"),
        (["alexander"], "1\n0  1 # row 1\n\t0   -x\n", "line 3, col 6: bad matrix entry '-x'"),
        (["alexander"], "1_0\n", "line 1, col 1: genus must be an integer"),
        (["alexander"], "1\n0 1\n0 \u0661\n", "line 3, col 3: bad matrix entry '\u0661'"),
        (["mmr", "-N", "1"], "", "laurent file needs a min-exponent line and a coefficient line"),
        (["mmr", "-N", "1"], "0\n", "laurent file needs a min-exponent line and a coefficient line"),
        (["mmr", "-N", "1"], "x\n1\n", "line 1, col 1: bad laurent polynomial data"),
        (["mmr", "-N", "1"], "0\n1 x\n", "line 2, col 3: bad laurent polynomial data"),
        (["mmr", "-N", "1"], "0\n1 -1_0\n", "line 2, col 3: bad laurent polynomial data"),
        (["mmr", "-N", "1"], "0 5\n1 -1 1\n7 7\n", "line 1, col 3: stray token '5'"),
        (["mmr", "-N", "1"], "0\n1 -1 1\n\n# more\n  7 7\n", "line 5, col 3: stray token '7'"),
        (["milnor", "vanish", "-n", "1"], "", "line 1, col 1: empty longitude file"),
        (["milnor", "vanish", "-n", "1"], "# comment only\n", "line 1, col 1: empty longitude file"),
        (["milnor", "vanish", "-n", "1"], "two\n", "line 1, col 1: component count must be an integer"),
        (["milnor", "vanish", "-n", "1"], "\u0662\ng1\ng2\n",
         "line 1, col 1: component count must be an integer"),
        (["milnor", "vanish", "-n", "1"], "  \n2\n", "line 1, col 1: component count must be an integer"),
        (["milnor", "vanish", "-n", "1"], "0\n", "line 1, col 1: component count must be >= 1"),
        (["milnor", "vanish", "-n", "1"], "# c\n  -1\n", "line 2, col 3: component count must be >= 1"),
        (["milnor", "vanish", "-n", "1"], "2\ng1\ng1 gX\n", "line 3, col 4: bad generator token 'gX'"),
        (["milnor", "vanish", "-n", "1"], "# c\n2\n\tg1 gX # x\n",
         "line 3, col 5: bad generator token 'gX'"),
        (["milnor", "vanish", "-n", "1"], "2 g1\ng2\ng1\n", "line 1, col 3: stray token 'g1'"),
        (["milnor", "vanish", "-n", "1"], "2\ng2\ng1\ng1 g1\n", "line 4, col 1: stray token 'g1'"),
    ], ids=["matrix-empty", "matrix-comment-only", "matrix-genus", "matrix-count", "matrix-entry",
            "matrix-genus-indented", "matrix-entry-tab", "matrix-genus-grouped",
            "matrix-entry-non-ascii",
            "laurent-empty", "laurent-one-line", "laurent-min-exp", "laurent-coefficient",
            "laurent-coefficient-grouped", "laurent-stray-exponent", "laurent-stray-line",
            "longitudes-empty", "longitudes-comment-only", "longitudes-count",
            "longitudes-count-non-ascii",
            "longitudes-blank-count", "longitudes-count-zero", "longitudes-count-negative",
            "longitudes-word",
            "longitudes-word-tab", "longitudes-stray-count", "longitudes-stray-line"])
    def test_exit_2(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        # the file is the leaf's one positional argument, so it may go last
        assert run(capsys, *argv, str(path)) == (2, "", f"error: {message}\n")

    # a token of more than 32 characters is shown by its first 32 and its
    # length, so a 5000-digit entry cannot make a 5000-character line; a
    # well-formed integer of more digits than int converts is named as such
    @pytest.mark.parametrize("argv, text, message", [
        (["alexander"], f"1\n0 1\n0 {LONG}\n", f"line 3, col 3: {LONG_INTEGER}"),
        (["alexander"], f"1\n0 1\n0 x{LONG}\n",
         f"line 3, col 3: bad matrix entry 'x{'4' * 31}'... (5001 characters)"),
        (["mmr", "-N", "1"], f"0 {LONG}\n1\n", f"line 1, col 3: stray token {LONG_SHOWN}"),
        (["mmr", "-N", "1"], f"0\n1\n  {LONG}\n", f"line 3, col 3: stray token {LONG_SHOWN}"),
        (["milnor", "vanish", "-n", "1"], f"1 {LONG}\n", f"line 1, col 3: stray token {LONG_SHOWN}"),
        (["milnor", "vanish", "-n", "1"], f"1\ng1\n{LONG}\n",
         f"line 3, col 1: stray token {LONG_SHOWN}"),
        (["milnor", "vanish", "-n", "1"], f"1\ng1 g{LONG}\n", f"line 2, col 4: {LONG_INTEGER}"),
        (["word", "reduce"], f"g1\n g{LONG}^-1\n", f"line 2, col 2: {LONG_INTEGER}"),
        (["alexander"], f" -{LONG}\n", f"line 1, col 2: {LONG_INTEGER}"),
        (["mmr", "-N", "1"], f"0\n1 +{LONG}\n", f"line 2, col 3: {LONG_INTEGER}"),
        (["milnor", "vanish", "-n", "1"], f"{LONG}\n", f"line 1, col 1: {LONG_INTEGER}"),
        (["word", "reduce"], f"g1 x{LONG}\n", f"line 1, col 4: bad token 'x{'4' * 31}'... "
                                              "(5001 characters)"),
    ], ids=["matrix-entry", "matrix-entry-letter", "laurent-stray-exponent",
            "laurent-stray-line", "longitudes-stray-count", "longitudes-stray-line",
            "longitudes-word", "word-file", "matrix-genus", "laurent-coefficient",
            "longitudes-count", "word-letter"])
    def test_long_token_exit_2(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert run(capsys, *argv, str(path) if argv[0] != "word" else f"@{path}") == (
            2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, text, out", [
        (["mmr", "-N", "1"], "# d\n\n-1 # min\n1 -1 1\n\n  # end\n\t\n", "h^0: 1\nh^1: 0\n"),
        (["milnor", "invariant", "--index", "2 1"], "2\n# first\ng2 # a\ng1\n\n# end\n \n", "1\n"),
        (["milnor", "invariant", "--index", "2 1"], "3\ng2\n", "1\n"),
    ], ids=["laurent", "longitudes", "longitudes-missing-lines"])
    def test_blank_and_comment_lines_accepted(self, capsys, tmp_path, argv, text, out):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert run(capsys, *argv, str(path)) == (0, out, "")


class TestJsonNesting:
    """json raises RecursionError, a RuntimeError, on deep nesting; it is
    malformed input (exit 2), not a defect in knotcert (exit 4)."""

    @pytest.mark.parametrize("argv", [["certify", "elliptic"], ["trivialize", "verify"], ["altsum"]],
                             ids=["certificate", "trivializer-report", "altsum-data"])
    def test_deep_nesting_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(capsys, *argv, str(path)) == (2, "", "error: JSON nested too deeply\n")


class TestJsonDigitLimit:
    """json.loads converts a JSON integer with int(), which refuses more
    digits than the interpreter's limit (4300 by default) with no position
    and with advice to raise the limit; the error is placed like a syntax
    error instead."""

    def test_altsum_value(self, capsys, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(f'[{{"subset": [], "value": 1{"0" * 5000}}}]')
        assert run(capsys, "altsum", str(path)) == (
            2, "", "error: line 1, col 26: integer of 5001 digits exceeds the limit of 4300 digits\n")

    def test_digits_in_strings_and_floats_are_skipped(self, capsys, tmp_path):
        # neither a string nor a float has a digit limit; the integer after them is placed
        path = tmp_path / "values.json"
        path.write_text(f'[{{"subset": [], "value": "{"1" * 5000}"}},\n'
                        f' {{"subset": [1], "x": 1.{"0" * 5000}, "value": -{"9" * 4301}}}]')
        assert run(capsys, "altsum", str(path)) == (
            2, "", "error: line 2, col 5036: integer of 4301 digits exceeds the limit of 4300 digits\n")

    def test_certificate_field(self, capsys, tmp_path):
        # the shipped certificate's line 26 is ' "n": 2,'
        text = (DATA / "elliptic_g1_n2.json").read_text()
        assert text.splitlines()[25] == ' "n": 2,'
        path = tmp_path / "cert.json"
        path.write_text(text.replace('"n": 2,', f'"n": 2{"0" * 4300},'))
        assert run(capsys, "certify", "elliptic", str(path)) == (
            2, "", "error: line 26, col 7: integer of 4301 digits exceeds the limit of 4300 digits\n")


LONG_DIGITS = "2" * 5000
TOO_LONG = "integer of 5000 digits exceeds the limit of 4300 digits"


class TestLongInlineValues:
    """A value of 5000 digits in an argument or in an altsum string exits 2
    on one message line of fewer than 200 characters, which shows the value
    capped as ``_value.quoted`` caps a token."""

    @pytest.mark.parametrize("argv, document, message", [
        (["altsum"], [{"subset": [], "value": LONG_DIGITS}],
         f'value "{"2" * 31}... (5002 characters): {TOO_LONG}'),
        (["altsum"], [{"subset": [], "value": f"1/{LONG_DIGITS}"}],
         f'value "1/{"2" * 29}... (5004 characters): {TOO_LONG}'),
        (["altsum"], [{"subset": [], "value": f"x{LONG_DIGITS}"}],
         f'value "x{"2" * 30}... (5003 characters) is not an integer or a "p/q" string'),
        (["altsum"], [{"subset": [LONG_DIGITS], "value": 1}],
         f'subset ["{"2" * 30}... (5004 characters) is not a list of integers'),
        (["magnus", "fox", "g1 g2", "--index", f"1 {LONG_DIGITS}"], None,
         f"bad index sequence '1 {'2' * 30}'... (5002 characters): {TOO_LONG}"),
        (["magnus", "fox", "g1 g2", "--index", f"1 x{LONG_DIGITS}"], None,
         f"bad index sequence '1 x{'2' * 29}'... (5003 characters)"),
        (["word", "kill", "g1 g2", "--subset", f"1 {LONG_DIGITS}"], None,
         f"bad generator subset '1 {'2' * 30}'... (5002 characters): {TOO_LONG}"),
        (["bounds", "partition-k", "--factors", f"1 {LONG_DIGITS}|2"], None,
         f"bounds partition-k: --factors: bad generator subset '1 {'2' * 30}'... "
         f"(5002 characters): {TOO_LONG}"),
    ], ids=["altsum-value", "altsum-denominator", "altsum-malformed", "altsum-subset",
            "fox-index", "fox-malformed", "kill-subset", "partition-k-factors"])
    def test_exit_2_on_a_short_line(self, capsys, tmp_path, argv, document, message):
        if document is not None:
            path = tmp_path / "values.json"
            path.write_text(json.dumps(document))
            argv = [*argv, str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        if argv[0] == "altsum":
            message = f"bad alternating-sum data: {message}"
        assert err == f"error: {message}\n"
        assert len(err) < 200

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "q", LONG_DIGITS], "knotcert bounds q: error: argument m: "
         f"invalid int value '{'2' * 32}'... (5000 characters): {TOO_LONG}"),
        (["magnus", "degree", "g1", "-D", LONG_DIGITS], "knotcert magnus degree: error: "
         f"argument -D/--degree: invalid int value '{'2' * 32}'... (5000 characters): {TOO_LONG}"),
        (["pipeline", "spine-link", str(DATA / "hyperbolic_g2_n3.json"), "--signs", "++++",
          "--slice-depth", LONG_DIGITS], "knotcert pipeline spine-link: error: argument "
         f"--slice-depth: invalid int value '{'2' * 32}'... (5000 characters): {TOO_LONG}"),
        (["bounds", "q", f"x{LONG_DIGITS}"], "knotcert bounds q: error: argument m: "
         f"invalid int value: 'x{'2' * 31}'... (5001 characters)"),
    ], ids=["positional", "degree", "slice-depth", "malformed"])
    def test_numeric_option_exit_2_on_a_short_line(self, capsys, argv, message):
        # argparse reads the line, and prints its usage lines before the message
        code, out, err = _outcome(capsys, main, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == message
        assert max(map(len, err.splitlines())) < 200


SHOWN = f"{'7' * 32}... (2001 characters)"
PARABOLIC = json.loads((DATA / "parabolic_g1_n2.json").read_text())


class TestLongRangeValues:
    """A parsed integer of thousands of digits that is out of range exits 2
    on one message line of fewer than 200 characters, which shows it capped
    as ``_value.quoted`` caps a token."""

    @pytest.mark.parametrize("argv, text, message", [
        (["alexander", "{}"], "1" * 1001, "line 1, col 1: expected 4g^2 entries for genus "
         f"'{'1' * 32}'... (1001 characters), got 0"),
        (["alexander", "{}"], "1" * 2501, "line 1, col 1: expected 4g^2 entries for genus "
         f"'{'1' * 32}'... (2501 characters), got 0"),
        (["milnor", "vanish", "{}", "-n", "2"], "7" * 2001,
         f"line 1, col 1: component count {SHOWN} exceeds the limit 1023"),
        (["magnus", "degree", f"g{'7' * 2001}", "-D", "3"], None,
         f"generator index {SHOWN} out of range 1..1023"),
        (["milnor", "invariant", str(DATA / "borromean.longitudes"), "--index", f"1 {'7' * 2001}"],
         None, f"component index {SHOWN} out of range 1..3"),
        (["trivialize", "build", "--factor", "g1 g2", "--insert", f"{'7' * 2001}:g1"], None,
         f"position {SHOWN} out of range 0..4"),
        (["schreier", "degree", "g1 g2 g1^-1 g2^-1", "--subset", "7" * 2001, "-D", "3"], None,
         f"word has nontrivial image (1, 2, -1, -2) after killing [{SHOWN[:31]}... "
         "(2003 characters)"),
        (["bounds", "conflict-max", "7" * 2001], None,
         f"bounds conflict-max: s = {SHOWN} is out of range: conflict count guarded for s >= 62"),
        (["bounds", "product-bound-check", "7" * 2001, "1", "3", "2"], None,
         f"length relation fails: m+1 = {SHOWN} != 13"),
        (["translate", "hyperbolic", str(DATA / "hyperbolic_g2_n3.json"), "--n", "7" * 2001],
         None, f"certificate level 3 != n = {SHOWN}"),
        (["certify", "parabolic", "{}"], json.dumps({**PARABOLIC, "genus": int("7" * 2001)}),
         f"genus {SHOWN} exceeds the limit 511"),
        (["certify", "parabolic", "{}"], json.dumps({**PARABOLIC, "curves": [
            {**PARABOLIC["curves"][0], "index": int("7" * 2001)}, *PARABOLIC["curves"][1:]]}),
         f"curve a1: index {SHOWN} out of range 1..1"),
    ], ids=["matrix-genus", "matrix-genus-square-past-limit", "longitude-count",
            "word-generator", "milnor-index", "insert-position", "schreier-subset",
            "conflict-max", "product-bound-check", "translate-level", "certificate-genus",
            "curve-index"])
    def test_exit_2_on_a_short_line(self, capsys, tmp_path, argv, text, message):
        # "{}" in argv names a file that holds ``text``
        if text is not None:
            path = tmp_path / "input.txt"
            path.write_text(f"{text}\n")
            argv = [str(path) if a == "{}" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err) < 200


class TestBoundsCommands:
    def test_q(self, capsys):
        assert run(capsys, "bounds", "q", "13")[1].strip() == "2"

    def test_q_param_negative(self, capsys):
        assert run(capsys, "bounds", "q-param", "6", "1")[1].strip() == "-2"

    def test_inequalities(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "check-inequalities", "11")
        assert code == 0 and doc["all_hold"] is True
        assert doc["l_bound_argument"] == "1/24"

    def test_inequality_violations_exit_1(self, capsys, monkeypatch):
        # no n reports a violation with the real q (see test_bounds); a q one
        # too small breaks the first inequality
        from knotcert import bounds

        real_q = bounds.q
        monkeypatch.setattr(bounds, "q", lambda m: real_q(m) - 1)
        assert run(capsys, "bounds", "check-inequalities", "12") == (
            1, "q(13) <= (12 - 5)/6\n", "")

    @pytest.mark.parametrize("argv, value", [
        (("t", "0"), 0), (("t", "13"), 3), (("t", "24"), 6),
        (("l-n-s", "3"), 2), (("l-n-s", "4", "2", "7"), 1), (("l-n-s", "0"), -1),
    ])
    def test_report_values(self, capsys, argv, value):
        assert run(capsys, "bounds", *argv) == (0, f"{value}\n", "")
        assert run_json(capsys, "bounds", *argv) == (0, {
            "command": "bounds", "exit_code": 0, "fn": argv[0], "schema": 1, "value": value}, "")

    def test_partition(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "partition-k", "--factors", "1 2|2 3|4 5")
        assert code == 0 and doc["k"] == 2

    def test_arity_checked(self, capsys):
        assert rejected(capsys, "bounds", "q") == (
            2, "", "knotcert bounds q: error: the following arguments are required: m")
        assert rejected(capsys, "bounds", "l-n-s") == (
            2, "", "knotcert bounds l-n-s: error: the following arguments are required: q")

    @pytest.mark.parametrize("argv, message", [
        (("partition-k", "5", "6", "--factors", "1 2|2"),
         "knotcert: error: unrecognized arguments: 5 6"),
        (("q", "5", "--embedded"), "knotcert: error: unrecognized arguments: --embedded"),
        (("partition-k", "--factors", "1 2", "--embedded"),
         "knotcert: error: unrecognized arguments: --embedded"),
        (("q-param", "6", "1", "--factors", "1 2"),
         "knotcert: error: unrecognized arguments: --factors 1 2"),
        (("partition-k", "--factors", "1 x"),
         "error: bounds partition-k: --factors: bad generator subset '1 x'"),
        (("partition-k", "--factors", "1 2|0"),
         "error: bounds partition-k: --factors: generator subsets need positive indices"),
        (("partition-k", "--factors", "1 2|2_0"),
         "error: bounds partition-k: --factors: bad generator subset '2_0'"),
    ], ids=["partition-k-ints", "embedded-q", "embedded-partition-k", "factors-q-param",
            "factors-not-int", "factors-zero", "factors-grouped"])
    def test_stray_arguments(self, capsys, argv, message):
        # an argument the function does not take stops in argparse; a
        # malformed --factors value stops in the handler
        if message.startswith("knotcert: "):
            assert rejected(capsys, "bounds", *argv) == (2, "", message)
        else:
            assert run(capsys, "bounds", *argv) == (2, "", f"{message}\n")

    def test_embedded_good_arc_bound(self, capsys):
        # the one function that reads --embedded: t(4) = 1 against q(4) = 0
        assert run(capsys, "bounds", "good-arc-bound", "3", "4", "5") == (0, "0\n", "")
        assert run(capsys, "bounds", "good-arc-bound", "3", "4", "5", "--embedded") == (0, "1\n", "")

    def test_conflict_max_limit(self, capsys):
        code, out, _ = run(capsys, "bounds", "conflict-max", "61")
        assert code == 0 and out.strip() == str((1 << 61) - 2)
        for s in ("62", "1000"):
            code, out, err = run(capsys, "bounds", "conflict-max", s)
            assert (code, out) == (2, "")
            assert err == (f"error: bounds conflict-max: s = {s} is out of range: "
                           "conflict count guarded for s >= 62\n")


class TestCertifyCommands:
    def test_hyperbolic_valid_exit_0(self, capsys):
        code, doc, _ = run_json(
            capsys, "certify", "hyperbolic", str(DATA / "hyperbolic_g2_n3.json")
        )
        assert code == 0 and doc["verdict"] == "valid"
        assert doc["quantities"]["l_n_S"] is not None

    def test_kind_mismatch(self, capsys):
        assert run(capsys, "certify", "elliptic", str(DATA / "hyperbolic_g2_n3.json")) == (
            2, "", "error: certificate kind 'hyperbolic' does not match 'elliptic'\n")

    def test_invalid_exit_1(self, capsys, tmp_path):
        doc = json.loads((DATA / "hyperbolic_g2_n3.json").read_text())
        doc["curves"][0]["pushoff_plus"] = "g1"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out_doc, _ = run_json(capsys, "certify", "hyperbolic", str(path))
        assert code == 1 and out_doc["verdict"] == "invalid"

    def test_not_checkable_exit_3(self, capsys, tmp_path):
        doc = json.loads((DATA / "hyperbolic_g2_n3.json").read_text())
        doc["asserted_flags"] = []
        path = tmp_path / "unflagged.json"
        path.write_text(json.dumps(doc))
        code, out_doc, _ = run_json(capsys, "certify", "hyperbolic", str(path))
        assert code == 3 and out_doc["verdict"] == "not-checkable-from-words"

    def test_malformed_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "certify", "hyperbolic", str(path))
        assert code == 2 and "line 1" in err

    @pytest.mark.parametrize("field, value", [
        ("curves", 5),
        ("asserted_flags", 5),
        ("asserted_flags", [5]),
        ("asserted_flags", "regular-spine"),
        ("asserted_flags", ["regular-spine", "simplicity=1", "simplicity=3"]),
    ], ids=["curves-int", "flags-int", "flags-int-list", "flags-string", "flags-two-simplicity"])
    def test_malformed_field_exit_2(self, capsys, tmp_path, field, value):
        doc = json.loads((DATA / "hyperbolic_g2_n3.json").read_text())
        doc[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "hyperbolic", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("stem, keys, value", [
        ("elliptic_g1_n2", ("curves", 0, "m"), 1.5),
        ("elliptic_g1_n2", ("genus",), True),
        ("elliptic_g1_n2", ("genus",), "x"),
        ("unknotted_g1_n2", ("curves", 0, "factors", "m_chi"), 2.0),
    ], ids=["m-float", "genus-bool", "genus-string", "m_chi-float"])
    def test_non_integer_exit_2(self, capsys, tmp_path, stem, keys, value):
        doc = json.loads((DATA / f"{stem}.json").read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "non_integer.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", doc["kind"], str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{keys[-1]} must be an integer" in err

    @pytest.mark.parametrize("field, value", [
        ("name", ["A1"]),
        ("name", 7),
        ("role", ["A"]),
        ("role", None),
        ("pushoff_plus", 5),
    ], ids=["name-list", "name-int", "role-list", "role-null", "pushoff-int"])
    def test_non_string_exit_2(self, capsys, tmp_path, field, value):
        doc = json.loads((DATA / "elliptic_g1_n2.json").read_text())
        doc["curves"][0][field] = value
        path = tmp_path / "non_string.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "elliptic", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: bad curve entry: {field} must be a string, "
                       f"got {json.dumps(value)}\n")

    @pytest.mark.parametrize("keys, value, message", [
        ((0, "factors", "chi"), 5, "chi must be a string, got 5"),
        ((0, "factors", "chi"), ["g1"], 'chi must be a string, got ["g1"]'),
        ((0, "factors", "mu"), False, "mu must be a string, got false"),
        ((1, "factors", "zeta"), 0, "zeta must be a string, got 0"),
        ((0, "factors"), 3, "factors must be an object, got 3"),
        ((0, "factors", "chi"), "g1 gx", "chi: line 1, col 4: bad generator token 'gx'"),
        ((1, "pushoff_minus"), "g2 g0", "pushoff_minus: line 1, col 4: bad generator token 'g0'"),
    ], ids=["chi-int", "chi-list", "mu-bool", "zeta-zero", "factors-int", "chi-syntax",
            "pushoff-syntax"])
    def test_bad_curve_field_exit_2(self, capsys, tmp_path, keys, value, message):
        doc = json.loads((DATA / "unknotted_g1_n2.json").read_text())
        target = doc["curves"]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "unknotted", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: bad curve entry: {message}\n"

    @pytest.mark.parametrize("curve, value, message", [
        (1, 3, "curves[1] must be a JSON object, got 3"),
        (0, ["A1"], 'curves[0] must be a JSON object, got ["A1"]'),
        (None, [1, "a"], 'certificate must be a JSON object, got [1, "a"]'),
        (None, "unknotted", 'certificate must be a JSON object, got "unknotted"'),
    ], ids=["curve-int", "curve-list", "document-list", "document-string"])
    def test_non_object_exit_2(self, capsys, tmp_path, curve, value, message):
        doc = json.loads((DATA / "unknotted_g1_n2.json").read_text())
        if curve is None:
            doc = value
        else:
            doc["curves"][curve] = value
        path = tmp_path / "non_object.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "certify", "unknotted", str(path)) == (2, "", f"error: {message}\n")

    def test_huge_x_exponent_exit_1(self, tmp_path):
        # x^l chi mu cannot reduce to a pushoff far shorter than |l|, so the
        # power is never built
        doc = json.loads((DATA / "unknotted_g1_n2.json").read_text())
        doc["curves"][0]["factors"]["x_exponent"] = 10**9
        path = tmp_path / "huge_exponent.json"
        path.write_text(json.dumps(doc))
        proc = run_limited("certify", "unknotted", str(path))
        assert proc.returncode == 1
        assert "supplied factors do not multiply to the pushoff words" in proc.stdout
        assert proc.stderr == ""

    def test_malformed_pair_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "elliptic_g1_n2.json").read_text())
        doc["curves"][0]["pair"] = ["B1"]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "certify", "elliptic", str(path))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("stem, curve, field, argv", [
        ("parabolic_g1_n2", 1, "m", ["--simplicity", "3"]),
        ("unknotted_g1_n2", 0, "m_mu", []),
        ("unknotted_g1_n2", 0, "m_chi", []),
        ("unknotted_g1_n2", 1, "m_zeta", []),
    ], ids=["m", "m_mu", "m_chi", "m_zeta"])
    def test_negative_depth_exit_2(self, capsys, tmp_path, stem, curve, field, argv):
        doc = json.loads((DATA / f"{stem}.json").read_text())
        entry = doc["curves"][curve]
        (entry if field == "m" else entry["factors"])[field] = -1
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", doc["kind"], str(path), *argv)
        assert code == 2 and out == ""
        assert err == f"error: curve {entry['name']}: {field} must be >= 0\n"

    def test_zero_depth_accepted(self, capsys, tmp_path):
        doc = json.loads((DATA / "parabolic_g1_n2.json").read_text())
        doc["curves"][1]["m"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out_doc, _ = run_json(capsys, "certify", "parabolic", str(path), "--simplicity", "3")
        assert code == 0 and out_doc["verdict"] == "valid"

    def test_negative_n_exit_2(self, capsys):
        code, out, err = run(
            capsys, "certify", "hyperbolic", str(DATA / "hyperbolic_g2_n3.json"), "--n", "-1"
        )
        assert code == 2 and out == ""
        assert err == "error: n must be >= 0\n"

    def test_translate(self, capsys):
        code, doc, _ = run_json(
            capsys, "translate", "unknotted", str(DATA / "unknotted_twist_n4.json"),
            "--n", "2",
        )
        assert code == 0
        assert doc["target"]["n"] == 2
        assert doc["target_report"]["verdict"] == "valid"

    @pytest.mark.parametrize("n, s", [(3, 1), (4, 1), (5, 2)])
    def test_translate_parabolic(self, capsys, tmp_path, n, s):
        # an empty B-pushoff at depth m = 6(n+1-s)-1 has q = q(m+1) = n+1-s
        doc = {"kind": "parabolic", "genus": 1, "n": n,
               "asserted_flags": ["regular-spine", "geometrically-unrelated", f"simplicity={s}"],
               "curves": [{"name": "a1", "role": "A", "index": 1, "pushoff_plus": "g1 g1"},
                          {"name": "b1", "role": "B", "index": 1, "pushoff_plus": "",
                           "m": 6 * (n + 1 - s) - 1}]}
        path = tmp_path / "parabolic.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_json(capsys, "translate", "parabolic", str(path), "--n", str(n))
        assert (code, err) == (0, "")
        assert out["source_verdict"] == "valid"
        assert (out["target"]["kind"], out["target"]["n"]) == ("hyperbolic", n - s - 1)
        assert out["target_report"]["verdict"] == "valid"

    def test_pipeline(self, capsys):
        code, doc, _ = run_json(
            capsys, "pipeline", "spine-link", str(DATA / "hyperbolic_g2_n3.json"),
            "--signs", "++++",
        )
        assert code == 0 and doc["milnor_vanish"] is True

    @pytest.mark.parametrize("flags, exit_code, verdict", [
        (["regular-spine", "admissible-spine"], 0, "valid"),
        (["regular-spine"], 3, "not-checkable-from-words"),
    ], ids=["admissible", "not-asserted"])
    def test_pipeline_genus_0(self, capsys, tmp_path, flags, exit_code, verdict):
        doc = {"kind": "hyperbolic", "genus": 0, "n": 3, "curves": [], "asserted_flags": flags}
        path = tmp_path / "genus0.json"
        path.write_text(json.dumps(doc))
        code, out_doc, _ = run_json(
            capsys, "pipeline", "spine-link", str(path), "--signs", "", "--slice-depth", "2"
        )
        assert code == exit_code and out_doc["verdict"] == verdict
        trivial = "genus 0: boundary is the trivial knot"
        assert out_doc["milnor_vanish"] is True and out_doc["l_n_S"] is None
        assert out_doc["conclusion"] == trivial
        assert out_doc["slice_vanish"] is True and out_doc["slice_l"] is None
        assert out_doc["slice_conclusion"] == trivial
        code, hyperbolic, _ = run_json(capsys, "certify", "hyperbolic", str(path))
        assert hyperbolic["quantities"]["conclusion"] == trivial

    @pytest.mark.parametrize("kind, stem", [
        ("hyperbolic", "hyperbolic_g2_n3"),
        ("elliptic", "elliptic_g1_n2"),
        ("unknotted", "unknotted_g1_n2"),
    ])
    def test_simplicity_only_for_parabolic(self, capsys, kind, stem):
        assert rejected(capsys, "certify", kind, str(DATA / f"{stem}.json"), "--simplicity", "5") == (
            2, "", "knotcert: error: unrecognized arguments: --simplicity 5")

    @pytest.mark.parametrize("stem", ["hyperbolic_g2_n3", "elliptic_g1_n2"])
    def test_huge_genus_exit_2(self, tmp_path, stem):
        # a set of one generator per handle would be built before any curve
        # is read, so the genus is checked first; the subprocess runs under
        # an address-space limit and a timeout in case it is not
        path = _shipped_variant(tmp_path, stem, genus=10**9)
        proc = run_limited("certify", stem.split("_")[0], path, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: genus 1000000000 exceeds the limit 511\n")

    def test_genus_limit(self, capsys, tmp_path):
        # 2g generators, and magnus numbers at most 1023
        path = _shipped_variant(tmp_path, "elliptic_g1_n2", genus=512)
        assert run(capsys, "certify", "elliptic", path) == (
            2, "", "error: genus 512 exceeds the limit 511\n")
        path = _shipped_variant(tmp_path, "elliptic_g1_n2", genus=511)
        code, out, err = run(capsys, "certify", "elliptic", path)
        assert (code, out.splitlines()[0], err) == (0, "verdict: valid", "")

    @pytest.mark.parametrize("argv, flag", [
        (["--simplicity", "0"], "simplicity=1"),
        ([], "simplicity=0"),
    ], ids=["option", "flag"])
    def test_simplicity_zero_exit_2(self, capsys, tmp_path, argv, flag):
        path = _shipped_variant(tmp_path, "parabolic_g1_n2", asserted_flags=[
            "regular-spine", "geometrically-unrelated", flag])
        assert run(capsys, "certify", "parabolic", path, *argv) == (
            2, "", "error: simplicity must be >= 1\n")

    @pytest.mark.parametrize("flag", [
        "simplicity=\u0661", "simplicity=1\n", "simplicity=1_0", "simplicity=-1", "simplicity="])
    def test_malformed_simplicity_flag_exit_2(self, capsys, tmp_path, flag):
        path = _shipped_variant(tmp_path, "parabolic_g1_n2", asserted_flags=[
            "regular-spine", "geometrically-unrelated", flag])
        assert run(capsys, "certify", "parabolic", path) == (
            2, "", f"error: asserted_flags[2]: bad simplicity flag {flag!r}\n")

    def test_second_simplicity_flag_exit_2(self, capsys, tmp_path):
        # the shipped certificate asserts simplicity=1; a second flag is
        # malformed whatever its value
        path = _shipped_variant(tmp_path, "parabolic_g1_n2", asserted_flags=[
            "regular-spine", "geometrically-unrelated", "simplicity=1", "simplicity=3"])
        assert run(capsys, "certify", "parabolic", path) == (
            2, "", "error: asserted_flags[3]: second simplicity flag 'simplicity=3'\n")

    def test_parabolic_simplicity_accepted(self, capsys):
        code, doc, err = run_json(
            capsys, "certify", "parabolic", str(DATA / "parabolic_g1_n2.json"), "--simplicity", "3")
        assert (code, err) == (0, "")
        assert doc["verdict"] == "valid" and doc["quantities"]["simplicity"] == 3


_DROP = object()


def _edited(tmp_path, stem, edits):
    """A shipped certificate with each (key path, value) of ``edits`` set,
    or deleted for ``_DROP``, written under tmp_path."""
    doc = json.loads((DATA / f"{stem}.json").read_text())
    for keys, value in edits:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if value is _DROP:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    path = tmp_path / f"{stem}_edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCertificateStructure:
    """Every structural certificate diagnostic: exit 2 with the exact message."""

    @pytest.mark.parametrize("stem, edits, message", [
        ("elliptic_g1_n2", [(("genus",), -1)], "genus must be >= 0"),
        ("elliptic_g1_n2", [(("n",), -1)], "n must be >= 0"),
        ("elliptic_g1_n2", [(("curves", 1, "name"), "a1")], "curve names must be distinct"),
        ("elliptic_g1_n2", [(("curves", 1, "role"), "C")], "curve b1: role must be A or B"),
        ("elliptic_g1_n2", [(("curves", 1, "index"), 2)], "curve b1: index 2 out of range 1..1"),
        ("elliptic_g1_n2", [(("curves", 1, "role"), "A")], "duplicate A-curve indices"),
        ("elliptic_g1_n2", [(("curves", 0, "index"), _DROP)],
         "curve entry missing field 'index'"),
        ("hyperbolic_g2_n3", [(("genus",), 3)],
         "hyperbolic certificate needs A-curves indexed 1..g"),
        ("elliptic_g1_n2", [(("curves", 1, "m"), _DROP)],
         "pair (a1, b1): membership depths m required"),
        ("elliptic_g1_n2", [(("curves", 1, "pushoff_minus"), None),
                            (("curves", 1, "pushoff_plus"), "g2")],
         "pair (a1, b1): no orientation has both pushoffs"),
        ("parabolic_g1_n2", [(("curves", 1, "m"), _DROP)], "curve b1: membership depth m required"),
        ("parabolic_g1_n2", [(("curves", 1, "pushoff_plus"), None)], "curve b1 has no pushoff word"),
    ], ids=["genus", "n", "names", "role", "index", "duplicate-index", "missing-field",
            "hyperbolic-indices", "elliptic-m", "elliptic-orientation", "parabolic-m",
            "parabolic-pushoff"])
    def test_exit_2(self, capsys, tmp_path, stem, edits, message):
        path = _edited(tmp_path, stem, edits)
        kind = stem.split("_")[0]
        assert run(capsys, "certify", kind, path) == (2, "", f"error: {message}\n")

    # each case's factors multiply to its pushoffs, so the factorization
    # check passes and the missing depth is what stops the job
    @pytest.mark.parametrize("edits, message", [
        ([(("curves", 0, "pushoff_plus"), "g1 g2"), (("curves", 0, "factors"), {"mu": "g1 g2"}),
          (("curves", 1, "pushoff_minus"), ""), (("curves", 1, "factors"), None)],
         "curve a1: m_mu required for nontrivial mu"),
        ([(("curves", 0, "factors", "m_chi"), None)],
         "pair (a1, b1): m_chi required for nontrivial chi"),
        ([(("curves", 0, "pushoff_plus"), ""), (("curves", 0, "factors"), None),
          (("curves", 1, "pushoff_minus"), "g2"), (("curves", 1, "factors"), {"zeta": "g2"})],
         "curve b1: m_zeta required for nontrivial zeta"),
    ], ids=["m_mu", "m_chi", "m_zeta"])
    def test_unknotted_depth_required(self, capsys, tmp_path, edits, message):
        path = _edited(tmp_path, "unknotted_g1_n2", edits)
        assert run(capsys, "certify", "unknotted", path) == (2, "", f"error: {message}\n")


class TestArgumentRanges:
    """Out-of-range numeric arguments that argparse accepts: exit 2 with the
    library's message."""

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "good-arc-bound", "0", "1", "1"], "m must be >= 1"),
        (["bounds", "good-arc-bound", "1", "0", "1"], "k must be >= 1"),
        (["bounds", "good-arc-bound", "1", "1", "-1"], "s must be >= 0"),
        (["bounds", "ratio-check", "1", "-1"], "s_y must be >= 0"),
        (["bounds", "product-bound-check", "12", "0", "3", "2"], "k must be >= 1"),
        (["mmr", str(DATA / "trefoil.lp"), "-N", "-1"], "order must be >= 0"),
        (["milnor", "vanish", str(DATA / "hopf.longitudes"), "-n", "0"], "n must be >= 1"),
        (["magnus", "expand", "g1", "-D", "0"], "truncation degree must be >= 1"),
        (["magnus", "degree", "g1", "-D", "0"], "truncation degree must be >= 1"),
        (["decompose", "g1", "-m", "0", "-D", "2"], "m must be >= 1"),
        (["trivialize", "build", "--factor", "g1"], "factor weight must be >= 2"),
        (["trivialize", "build", "--factor", "g1 g2", "--insert", "99:g1"],
         "position 99 out of range 0..4"),
    ], ids=["good-arc-m", "good-arc-k", "good-arc-s", "ratio-s_y", "product-k", "mmr-order",
            "milnor-n", "expand-degree", "degree-degree", "decompose-m", "build-weight",
            "build-insert"])
    def test_exit_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _shipped_variant(tmp_path, stem, **fields):
    """A shipped certificate with top-level ``fields`` replaced, written under tmp_path."""
    doc = {**json.loads((DATA / f"{stem}.json").read_text()), **fields}
    path = tmp_path / f"{stem}_variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPairing:
    """Elliptic A-curves pair with the B-curve their ``pair`` names, or
    else with the B-curve of the same index."""

    def test_pair_by_name_same_report(self, capsys, tmp_path):
        doc = json.loads((DATA / "elliptic_g1_n2.json").read_text())
        doc["curves"][0]["pair"] = "b1"
        path = tmp_path / "paired.json"
        path.write_text(json.dumps(doc))
        for fmt in ("human", "structured"):
            assert (run(capsys, "certify", "elliptic", str(path), "--format", fmt)
                    == run(capsys, "certify", "elliptic", str(DATA / "elliptic_g1_n2.json"),
                           "--format", fmt))
        cert = certificate_from_dict(doc)
        assert cert.curves[0].pair == "b1"
        assert certificate_to_dict(cert)["curves"][0]["pair"] == "b1"
        assert certificate_from_dict(certificate_to_dict(cert)) == cert

    def _run(self, capsys, tmp_path, doc):
        path = tmp_path / "paired.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "certify", "elliptic", str(path))

    def test_unknown_name_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "elliptic_g1_n2.json").read_text())
        doc["curves"][0]["pair"] = "b9"
        assert self._run(capsys, tmp_path, doc) == (
            2, "", "error: curve a1: no B-curve named 'b9'\n")

    def test_paired_twice_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "elliptic_g1_n2.json").read_text())
        doc["genus"] = 2
        doc["curves"].append({**doc["curves"][0], "name": "a2", "index": 2, "pair": "b1"})
        assert self._run(capsys, tmp_path, doc) == (2, "", "error: B-curve b1 paired twice\n")

    def test_no_dual_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "elliptic_g1_n2.json").read_text())
        del doc["curves"][1]
        assert self._run(capsys, tmp_path, doc) == (
            2, "", "error: curve a1: no dual B-curve with index 1\n")


class TestTranslationErrors:
    """Every translation error the CLI can reach: exit 2 with the exact message."""

    @pytest.mark.parametrize("kind, stem, n, message", [
        ("hyperbolic", "hyperbolic_g2_n3", "2", "certificate level 3 != n = 2"),
        ("elliptic", "elliptic_g1_n2", "2", "elliptic source must have level 2n = 4, got 2"),
        ("parabolic", "parabolic_g1_n2", "3", "certificate level 2 != n = 3"),
        ("unknotted", "unknotted_twist_n4", "3", "unknotted source must have level 2n = 6, got 4"),
    ], ids=["hyperbolic", "elliptic", "parabolic", "unknotted"])
    def test_level_mismatch(self, capsys, kind, stem, n, message):
        argv = ("translate", kind, str(DATA / f"{stem}.json"), "--n", n)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind, stem, flags, n", [
        ("parabolic", "parabolic_g1_n2", ["regular-spine", "geometrically-unrelated"], "2"),
        ("unknotted", "unknotted_twist_n4", ["regular-spine"], "2"),
    ], ids=["parabolic", "unknotted"])
    def test_missing_simplicity(self, capsys, tmp_path, kind, stem, flags, n):
        path = _shipped_variant(tmp_path, stem, asserted_flags=flags)
        assert run(capsys, "translate", kind, path, "--n", n) == (
            2, "", f"error: {kind} source lacks a simplicity assertion\n")

    def test_level_checked_before_simplicity(self, capsys, tmp_path):
        path = _shipped_variant(tmp_path, "unknotted_twist_n4", asserted_flags=["regular-spine"])
        assert run(capsys, "translate", "unknotted", path, "--n", "3") == (
            2, "", "error: unknotted source must have level 2n = 6, got 4\n")

    @pytest.mark.parametrize("kind, path, n, message", [
        ("parabolic", "parabolic_g1_n2.json", "2", "need n > s+1, got n = 2, s = 1"),
        ("unknotted", "unknotted_g1_n2.json", "1", "need 2n > s+1, got 2n = 2, s = 1"),
        ("unknotted", None, "2", "need 2n > s+1, got 2n = 4, s = 3"),
    ], ids=["parabolic", "unknotted", "unknotted-s3"])
    def test_guard_violated(self, capsys, tmp_path, kind, path, n, message):
        if path is None:
            path = _shipped_variant(tmp_path, "unknotted_twist_n4",
                                    asserted_flags=["regular-spine", "simplicity=3"])
        else:
            path = str(DATA / path)
        assert run(capsys, "translate", kind, path, "--n", n) == (
            2, "", f"error: guard violated: {message}\n")

    def test_kind_mismatch(self, capsys):
        argv = ("translate", "hyperbolic", str(DATA / "elliptic_g1_n2.json"), "--n", "2")
        assert run(capsys, *argv) == (
            2, "", "error: certificate kind 'elliptic' does not match 'hyperbolic'\n")

    @pytest.mark.parametrize("kind, stem, fields, n, verdict", [
        ("hyperbolic", "hyperbolic_g2_n3", {"asserted_flags": []}, "3",
         "not-checkable-from-words"),
        ("parabolic", "parabolic_g1_n2", {"n": 3}, "3", "invalid"),
    ], ids=["not-checkable", "invalid"])
    def test_source_not_valid(self, capsys, tmp_path, kind, stem, fields, n, verdict):
        path = _shipped_variant(tmp_path, stem, **fields)
        assert run(capsys, "translate", kind, path, "--n", n) == (
            2, "", f"error: source certificate is {verdict}\n")

    def test_target_level_too_low(self, capsys, tmp_path):
        # 2n = 4 > s+1 = 3 holds, but the target level 2n-s-1 = 1 is no
        # unknotted level
        path = _shipped_variant(tmp_path, "unknotted_twist_n4",
                                asserted_flags=["regular-spine", "simplicity=2"])
        assert run(capsys, "translate", "unknotted", path, "--n", "2") == (
            2, "", "error: guard violated: need 2n-s-1 > 1, got 2n-s-1 = 1\n")


class TestPipelineErrors:
    """Every spine-link pipeline error: exit 2 with the exact message."""

    @pytest.mark.parametrize("argv, message", [
        (["--signs", "++++", "--n", "0"], "pipeline needs n >= 1"),
        (["--signs", "++++", "--n", "0", "--slice-depth", "0"], "pipeline needs n >= 1"),
        (["--signs", "++++", "--slice-depth", "0"], "slice depth must be >= 1"),
        (["--signs", "+++"], "need 4 signs drawn from +/-"),
        (["--signs", "++x+"], "need 4 signs drawn from +/-"),
        (["--signs=-+++"], "curve a1 lacks the pushoff at sign -"),
        (["--signs", "+-++"], "curve b1 lacks the pushoff at sign -"),
        (["--signs", "++-+"], "curve a2 lacks the pushoff at sign -"),
        (["--signs", "+---"], "curve b1 lacks the pushoff at sign -"),
    ], ids=["n-zero", "n-before-slice", "slice-zero", "sign-count", "sign-letter",
            "pushoff-a1", "pushoff-b1", "pushoff-a2", "first-missing-pushoff"])
    def test_shipped_certificate(self, capsys, argv, message):
        argv = ("pipeline", "spine-link", str(DATA / "hyperbolic_g2_n3.json"), *argv)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("drop, signs, message", [
        ({"a1"}, "++++", "missing A-curve with index 1"),
        ({"b2"}, "++++", "missing B-curve with index 2"),
        ({"b1", "a2"}, "++++", "missing B-curve with index 1"),
        ({"a2"}, "+-++", "curve b1 lacks the pushoff at sign -"),
    ], ids=["a1", "b2", "b1-before-a2", "pushoff-before-missing"])
    def test_missing_curve(self, capsys, tmp_path, drop, signs, message):
        doc = json.loads((DATA / "hyperbolic_g2_n3.json").read_text())
        curves = [c for c in doc["curves"] if c["name"] not in drop]
        path = _shipped_variant(tmp_path, "hyperbolic_g2_n3", curves=curves)
        assert run(capsys, "pipeline", "spine-link", path, "--signs", signs) == (
            2, "", f"error: {message}\n")


class TestBrokenPipe:
    @pytest.mark.parametrize("extra, exit_code", [
        ([], 0),
        (["--n", "3", "--format", "structured"], 1),
    ], ids=["valid-text", "invalid-structured"])
    def test_reader_gone_keeps_exit_code(self, extra, exit_code):
        # the read end is closed before the job starts, so its first
        # write to stdout meets EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(DATA.parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        argv = ["certify", "elliptic", str(DATA / "elliptic_g1_n2.json"), *extra]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "knotcert.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == exit_code
        assert proc.stderr == b""


class TestAltsum:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "altsum", str(DATA / "altsum_example.json"))
        assert code == 0 and out.strip() == "0"

    def test_fractions(self, capsys, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(json.dumps([
            {"subset": [], "value": "1/2"},
            {"subset": [1], "value": "1/3"},
        ]))
        code, out, _ = run(capsys, "altsum", str(path))
        assert code == 0 and out.strip() == "1/6"

    def test_missing_subset(self, capsys, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"subset": [1], "value": 1}]))
        code, _, err = run(capsys, "altsum", str(path))
        assert code == 2 and "missing" in err

    @pytest.mark.parametrize("subset, shown", [
        ([1, "a"], '[1, "a"]'),
        ("ab", '"ab"'),
        ([True], "[true]"),
    ], ids=["string-element", "string", "bool-element"])
    def test_bad_subset_exit_2(self, capsys, tmp_path, subset, shown):
        # a string would iterate as its characters, and true would count as 1
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"subset": subset, "value": 1}, {"subset": [], "value": 2}]))
        assert run(capsys, "altsum", str(path)) == (
            2, "", f"error: bad alternating-sum data: subset {shown} is not a list of integers\n")

    def test_zero_denominator_exit_2(self, capsys, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"subset": [1], "value": "1/0"}]))
        code, out, err = run(capsys, "altsum", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad alternating-sum data: ")

    @pytest.mark.parametrize("value, shown", [
        ("1_0", '"1_0"'),
        ("\u0661/\u0662", '"\\u0661/\\u0662"'),
        ("0.5", '"0.5"'),
        (0.5, "0.5"),
        (" 1/2 ", '" 1/2 "'),
        ("1e3", '"1e3"'),
        # Fraction() read this as 10**30000000, a sum too large to print
        ("1e30000000", '"1e30000000"'),
        ("9/-5", '"9/-5"'),
        ("1/2/3", '"1/2/3"'),
        (True, "true"),
        (None, "null"),
    ], ids=["grouped", "arabic-indic", "decimal", "float", "padded", "exponent",
            "huge-exponent", "signed-denominator", "two-slashes", "bool", "null"])
    def test_value_outside_format_exit_2(self, capsys, tmp_path, value, shown):
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"subset": [], "value": value}, {"subset": [1], "value": 1}]))
        assert run(capsys, "altsum", str(path)) == (
            2, "", f'error: bad alternating-sum data: value {shown} is not an integer or a "p/q" string\n')

    def test_signs_and_leading_zeros_accepted(self, capsys, tmp_path):
        # the benchmark writes str(Fraction) values: "3" and "-9/5"
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"subset": [], "value": "3"}, {"subset": [1], "value": "-9/5"},
                                    {"subset": [2], "value": "+007/010"}, {"subset": [1, 2], "value": 2}]))
        assert run(capsys, "altsum", str(path)) == (0, "61/10\n", "")


class TestDeterminism:
    def test_structured_outputs_byte_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(
                capsys, "magnus", "expand", "g1 g2 g1^-1", "-D", "3",
                "--format", "structured",
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_certify_deterministic(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(
                capsys, "certify", "hyperbolic", str(DATA / "hyperbolic_g3_n5.json"),
                "--format", "structured",
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_structured_roundtrips(self, capsys):
        code, doc, _ = run_json(capsys, "word", "reduce", "g1 g2 g2^-1")
        assert json.loads(json.dumps(doc)) == doc


def _leaves(rows=COMMANDS, prefix=()):
    for name, (_, target, specs) in rows.items():
        if isinstance(target, dict):
            yield from _leaves(target, prefix + (name,))
        else:
            yield prefix + (name,), specs


LEAVES = dict(_leaves())


def _command_line(specs, bad=None):
    """Values for every required argument of ``specs`` (the first choice or
    "1"), with "bogus" for the spec ``bad``, optional or not."""
    out = []
    for spec in specs:
        flags, options = spec
        value = "bogus" if spec is bad else (options.get("choices") or ("1",))[0]
        if flags[0].startswith("-"):
            if options.get("required") or spec is bad:
                out += [flags[0], value]
        elif options.get("nargs") != "*":
            out.append(value)
    return out


def _surface_cases():
    for leaf, specs in LEAVES.items():
        name = " ".join(leaf)
        yield f"{name} -h", [*leaf, "-h"]
        yield f"{name} missing-required", [*leaf]
        yield f"{name} unknown-option", [*leaf, *_command_line(specs), "--bogus"]
        yield f"{name} bad-format", [*leaf, *_command_line(specs), "--format", "xml"]
        for spec in specs:
            if "choices" in spec[1]:
                yield f"{name} bad-{spec[0][0]}", [*leaf, *_command_line(specs, bad=spec)]
    # the group parsers of bounds and certify: a missing or unknown function
    # or kind, and an option put before the name, which only a leaf takes
    for group, noun, leaf in (("bounds", "fn", ["q", "1"]), ("certify", "kind", ["hyperbolic", "x"])):
        yield f"{group} -h", [group, "-h"]
        yield f"{group} missing-required", [group]
        yield f"{group} bad-{noun}", [group, "bogus", *leaf[1:]]
        yield f"{group} unknown-option", [group, "--bogus", *leaf]
        yield f"{group} bad-format", [group, "--format", "xml", *leaf]
    for argv in ([], ["-h"], ["--help"], ["word", "--help"], ["pipeline", "-h"],
                 ["nope"], ["alex", "x"], ["word"], ["word", "nope"], ["word", "red", "x"],
                 ["--format", "structured", "alexander", "x"]):
        yield " ".join(argv) or "no-arguments", argv
    # lines that cli._read_plain declines: argparse reads some of them
    # (abbreviations, attached values, values and positionals that start
    # with "-", options before positionals, "--") and rejects the rest
    hyperbolic = str(DATA / "hyperbolic_g2_n3.json")
    for name, argv in (
        ("abbreviated-flag", ["bounds", "q", "3", "--form", "structured"]),
        ("flag=value", ["certify", "hyperbolic", hyperbolic, "--n=3"]),
        ("format=value", ["bounds", "q", "3", "--format=structured"]),
        ("attached-short-value", ["magnus", "degree", "g1 g2 g1^-1 g2^-1", "-D12"]),
        ("negative-positional", ["bounds", "q", "-5"]),
        ("negative-value", ["word", "kill", "g1", "--subset", "-1"]),
        ("dashed-positional", ["word", "reduce", "-g1"]),
        ("flag-as-value", ["word", "kill", "g1", "--subset", "--format"]),
        ("positional-after-option", ["word", "kill", "--subset", "1", "g1 g2"]),
        ("positional-after-flag", ["classify", "--symmetrize", str(DATA / "trefoil.mat")]),
        ("double-dash", ["word", "reduce", "--", "g1"]),
        ("trailing-flag", ["magnus", "degree", "g1", "-D"]),
        ("trailing-format", ["bounds", "q", "3", "--format"]),
        ("bad-int", ["bounds", "q", "x"]),
        ("bad-int-option", ["certify", "hyperbolic", hyperbolic, "--n", "three"]),
        ("extra-positional", ["bounds", "q", "1", "2"]),
        ("missing-positional", ["bounds", "q-param", "18"]),
        ("empty-nargs-plus", ["bounds", "l-n-s", "--format", "structured"]),
        ("nargs-plus-after-option", ["bounds", "l-n-s", "1", "--format", "structured", "2"]),
        ("missing-append", ["trivialize", "build", "--insert", "1:g2"]),
        ("bad-choice-positional", ["translate", "twisted", hyperbolic, "--n", "3"]),
        # what int() reads beyond _value.integer's syntax
        ("grouped-int", ["bounds", "q", "1_0"]),
        ("non-ascii-int", ["bounds", "q", "\u0663"]),
        ("spaced-int", ["bounds", "q", " 4 "]),
        ("spaced-negative-int", ["bounds", "q", " -4"]),
        ("grouped-int-option", ["magnus", "degree", "g1 g2 g1^-1 g2^-1", "-D", "1_2"]),
    ):
        yield f"declined {name}", argv


SURFACE_CASES = dict(_surface_cases())
SURFACE = Path(__file__).resolve().parent / "parse_surface.json"


def _surface(argv):
    """[exit code, first stdout line, last stderr line] of ``main(argv)`` at
    80 columns, None for an empty stream: what a declined line shows."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue().splitlines(), err.getvalue().splitlines()
    return [code, out[0] if out else None, err[-1] if err else None]


def regenerate() -> None:
    surface = {name: _surface(argv) for name, argv in SURFACE_CASES.items()}
    SURFACE.write_text(json.dumps(surface, indent=1, sort_keys=True) + "\n")


def _outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParseSurface:
    """``main`` reads plain lines itself and builds the full argparse
    parser only for the rest.  Every line that the reader declines must
    show what ``parse_surface.json`` recorded for it: the exit code, first
    stdout line and last stderr line that the full parser gave before the
    one-leaf parser was retired.  Regenerate the file only when a change to
    usage, help or a diagnostic is intended:

        PYTHONPATH=src python tests/test_cli.py
    """

    @pytest.mark.parametrize("name, argv", SURFACE_CASES.items(), ids=SURFACE_CASES.keys())
    def test_same_as_full_parser(self, name, argv):
        assert cli._read_plain(argv) is None
        surface = _surface(argv)
        assert surface == json.loads(SURFACE.read_text())[name]
        assert surface[0] in (0, 2) and (surface[1] or surface[2])

    def test_every_case_recorded(self):
        assert sorted(json.loads(SURFACE.read_text())) == sorted(SURFACE_CASES)


FULL_PARSER = build_parser()
STRINGS = st.one_of(st.just("-"), st.text(max_size=8).filter(lambda t: not t.startswith("-")))
# _value.integer's syntax, which a numeric option keeps: ASCII digits with
# an optional sign, leading zeros allowed; none starts with "-"
INTS = st.one_of(st.integers(0, 10**6).map(str), st.integers(0, 10**6).map("+{}".format),
                 st.sampled_from(["007", "+0", "000"]))


def _values(options):
    if "choices" in options:
        return st.sampled_from(options["choices"])
    return INTS if options.get("type") is integer else STRINGS


@st.composite
def plain_lines(draw, leaf, specs):
    """A plain command line of ``leaf``: its positionals in order, then its
    options in any order, optional ones present or not, append options
    repeated and store_true flags toggled, each under any of its flags."""
    positionals, groups = [], []
    for flags, options in (cli._FORMAT, *specs):
        if not flags[0].startswith("-"):
            most = 3 if options.get("nargs") == "+" else 1
            positionals += draw(st.lists(_values(options), min_size=1, max_size=most))
            continue
        if options.get("action") == "store_true":
            times = draw(st.integers(0, 2))
        elif options.get("action") == "append":
            times = draw(st.integers(1 if options.get("required") else 0, 3))
        else:
            times = 1 if options.get("required") else draw(st.integers(0, 2))
        for _ in range(times):
            value = [] if options.get("action") == "store_true" else [draw(_values(options))]
            groups.append([draw(st.sampled_from(flags)), *value])
    groups = draw(st.permutations(groups))
    return [*leaf, *positionals, *(token for group in groups for token in group)]


class TestPlainReader:
    """``cli._read_plain`` against the full argparse parser, which stays the
    parser of record."""

    @pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
    @settings(max_examples=30)
    @given(data=st.data())
    def test_same_namespace_as_argparse(self, leaf, data):
        argv = data.draw(plain_lines(leaf, LEAVES[leaf]))
        args = cli._read_plain(argv)
        assert args is not None
        assert vars(args) == vars(FULL_PARSER.parse_args(argv))

    def test_reads_every_benchmark_line(self, tmp_path, monkeypatch):
        # no command line of the benchmark's seed-1 jobs or of its warm-up
        # falls to argparse; bench/ is imported without writing bytecode there
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(DATA.parents[2] / "bench"))
        try:
            inputs = importlib.import_module("inputs")
            jobs = [inputs.WARMUP]
            for workload in ("certify", "words", "seifert"):
                jobs += inputs.build_jobs(workload, 1, tmp_path / workload, DATA)
        finally:
            for name in ("inputs", "oracle"):
                sys.modules.pop(name, None)
        assert [job.name for job in jobs if cli._read_plain(list(job.argv)) is None] == []
        assert len(jobs) > 80

    def test_append_default_not_shared(self):
        # argparse copies an append option's default list before appending
        (_, options), = [spec for spec in LEAVES[("trivialize", "build")] if spec[0] == ("--insert",)]
        args = cli._read_plain(["trivialize", "build", "--factor", "g1", "--insert", "1:g2"])
        assert args.insert == ["1:g2"] and options["default"] == []


if __name__ == "__main__":
    regenerate()
