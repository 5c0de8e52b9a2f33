import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from knotcert import cli
from knotcert.cli import COMMANDS, build_parser, main

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out) if out else None, err


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

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "word", "reduce", "g1 gX")
        assert code == 2 and "col 4" in err

    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_generator_past_int_digit_limit_exit_2(self, capsys, digits):
        token = "g" + "1" * digits
        code, out, err = run(capsys, "word", "reduce", f"g2 {token}")
        assert code == 2 and out == ""
        assert err == f"error: line 1, col 4: bad generator token {token!r}\n"


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


class TestMatrixCommands:
    def test_alexander_trefoil(self, capsys):
        code, out, _ = run(capsys, "alexander", str(DATA / "trefoil.mat"))
        assert code == 0 and out.strip() == "t^-1 - 1 + t"

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
        assert code == 2 and "line 3, col 2" in err

    def test_negative_genus(self, capsys, tmp_path):
        bad = tmp_path / "neg.mat"
        bad.write_text("-1\n")
        code, out, err = run(capsys, "alexander", str(bad))
        assert code == 2 and out == ""
        assert "line 1, col 1: genus must be >= 0" in err


class TestBoundsCommands:
    def test_q(self, capsys):
        assert run(capsys, "bounds", "q", "13")[1].strip() == "2"

    def test_q_param_negative(self, capsys):
        assert run(capsys, "bounds", "q-param", "6", "1")[1].strip() == "-2"

    def test_inequalities(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "check-inequalities", "11")
        assert code == 0 and doc["all_hold"] is True
        assert doc["l_bound_argument"] == "1/24"

    def test_partition(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "partition-k", "--factors", "1 2|2 3|4 5")
        assert code == 0 and doc["k"] == 2

    def test_arity_checked(self, capsys):
        code, _, err = run(capsys, "bounds", "q")
        assert code == 2 and "integer argument" in err
        code, _, err = run(capsys, "bounds", "l-n-s")
        assert code == 2 and "q-value" in err

    @pytest.mark.parametrize("argv, message", [
        (("partition-k", "5", "6", "--factors", "1 2|2"),
         "bounds partition-k takes 0 integer argument(s), got 2"),
        (("q", "5", "--embedded"), "bounds q takes no --embedded; only good-arc-bound does"),
        (("partition-k", "--factors", "1 2", "--embedded"),
         "bounds partition-k takes no --embedded; only good-arc-bound does"),
        (("q-param", "6", "1", "--factors", "1 2"),
         "bounds q-param takes no --factors; only partition-k does"),
        (("partition-k", "--factors", "1 x"),
         "bounds partition-k: --factors: bad generator subset '1 x'"),
        (("partition-k", "--factors", "1 2|0"),
         "bounds partition-k: --factors: generator subsets need positive indices"),
    ], ids=["partition-k-ints", "embedded-q", "embedded-partition-k", "factors-q-param",
            "factors-not-int", "factors-zero"])
    def test_stray_arguments(self, capsys, argv, message):
        assert run(capsys, "bounds", *argv) == (2, "", f"error: {message}\n")

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
        code, _, err = run(
            capsys, "certify", "elliptic", str(DATA / "hyperbolic_g2_n3.json")
        )
        assert code == 2 and "kind" in err

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
    ], ids=["curves-int", "flags-int", "flags-int-list", "flags-string"])
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
        # power is never built; the address-space limit turns an attempt to
        # build it into a MemoryError instead of exhausting the host
        doc = json.loads((DATA / "unknotted_g1_n2.json").read_text())
        doc["curves"][0]["factors"]["x_exponent"] = 10**9
        path = tmp_path / "huge_exponent.json"
        path.write_text(json.dumps(doc))
        src = str(DATA.parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "knotcert.cli", "certify", "unknotted", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
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

    def test_zero_denominator_exit_2(self, capsys, tmp_path):
        path = tmp_path / "values.json"
        path.write_text(json.dumps([{"subset": [1], "value": "1/0"}]))
        code, out, err = run(capsys, "altsum", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad alternating-sum data: ")


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
    for argv in ([], ["-h"], ["--help"], ["word", "--help"], ["pipeline", "-h"],
                 ["nope"], ["alex", "x"], ["word"], ["word", "nope"], ["word", "red", "x"],
                 ["--format", "structured", "alexander", "x"]):
        yield " ".join(argv) or "no-arguments", argv


SURFACE_CASES = dict(_surface_cases())


def _outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParseSurface:
    """``main`` builds only the named leaf's branch; every command line that
    stops in argparse must read exactly as from the full parser."""

    @pytest.mark.parametrize("argv", SURFACE_CASES.values(), ids=SURFACE_CASES.keys())
    def test_same_as_full_parser(self, capsys, argv):
        full = _outcome(capsys, build_parser().parse_args, argv)
        assert _outcome(capsys, main, argv) == full
        assert full[0] in (0, 2) and (full[1] or full[2])

    def test_leaf_command_builds_one_choice_per_level(self, capsys, monkeypatch):
        built = []

        def recording_build_parser(*path):
            built.append(build_parser(*path))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", recording_build_parser)
        for leaf in LEAVES:
            _outcome(capsys, main, [*leaf, "-h"])
            parser = built.pop()
            for name in leaf:
                (sub,) = (a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
                assert list(sub.choices) == [name]
                parser = sub.choices[name]
