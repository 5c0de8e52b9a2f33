"""Golden reports: structured stdout and exit code of the certificate jobs.

``golden_reports.json`` pins the exact bytes that ``--format structured``
prints, and the exit code, for every shipped certificate, the index-shift
translations, the spine-link pipeline (with and without a slice depth)
and one one-letter mutant per certificate kind, so the failure details
are pinned as well.  A few hand-made certificates (``DOCUMENTS``) pin
failure details, and one pass branch, that neither the corpus nor the
mutants reach.  The
mutants come from ``mutate_certificate`` at a fixed seed; they and the
hand-made documents are stored in the file, so the reports do not depend on later changes to ``synth``,
and ``test_mutant_builder_unchanged`` checks that the builder still makes the stored mutants.
A change to any verdict, detail string, factor count or q-value shows
up here as a diff against the recorded text.

Regenerate the file only when a report change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from knotcert.certify import certificate_from_dict, certificate_to_dict
from knotcert.cli import main
from knotcert.synth import mutate_certificate

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
MUTANT_SEED = 1

# name -> CLI arguments; a ".json" argument names a file of the shipped corpus
JOBS = {
    "certify-hyperbolic-g2-n3": ["certify", "hyperbolic", "hyperbolic_g2_n3.json"],
    "certify-hyperbolic-g3-n5": ["certify", "hyperbolic", "hyperbolic_g3_n5.json"],
    "certify-hyperbolic-g3-n5-at-3": ["certify", "hyperbolic", "hyperbolic_g3_n5.json", "--n", "3"],
    "certify-elliptic-g1-n2": ["certify", "elliptic", "elliptic_g1_n2.json"],
    "certify-parabolic-g1-n2": ["certify", "parabolic", "parabolic_g1_n2.json"],
    "certify-unknotted-g1-n2": ["certify", "unknotted", "unknotted_g1_n2.json"],
    "certify-unknotted-twist-n4": ["certify", "unknotted", "unknotted_twist_n4.json"],
    "translate-hyperbolic": ["translate", "hyperbolic", "hyperbolic_g2_n3.json", "--n", "3"],
    "translate-elliptic": ["translate", "elliptic", "elliptic_g1_n2.json", "--n", "1"],
    "translate-unknotted-twist": ["translate", "unknotted", "unknotted_twist_n4.json", "--n", "2"],
    "pipeline-spine-link": ["pipeline", "spine-link", "hyperbolic_g2_n3.json", "--signs", "++++"],
    "pipeline-spine-link-slice-holds": [
        "pipeline", "spine-link", "hyperbolic_g3_n5.json", "--signs", "++++++", "--slice-depth", "3",
    ],
    "pipeline-spine-link-slice-fails": [
        "pipeline", "spine-link", "hyperbolic_g2_n3.json", "--signs", "++++", "--slice-depth", "3",
    ],
}

# kind -> shipped certificate the mutant is made from
MUTANT_SOURCES = {
    "hyperbolic": "hyperbolic_g2_n3.json",
    "elliptic": "elliptic_g1_n2.json",
    "parabolic": "parabolic_g1_n2.json",
    "unknotted": "unknotted_g1_n2.json",
}

# name -> (kind, certificate document): hand-made certificates whose
# details are not reached by the shipped corpus or the mutants
DOCUMENTS = {
    # pushoff + fails at lcs degree 1, pushoff - at degree 2 below n+1 = 4
    "hyperbolic-both-pushoffs-fail": ("hyperbolic", {
        "schema": 1, "kind": "hyperbolic", "genus": 1, "n": 3,
        "asserted_flags": ["regular-spine"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1,
             "pushoff_plus": "g1", "pushoff_minus": "g1 g2 g1^-1 g2^-1"},
        ],
    }),
    # mu = [x1, y1, x1] passes at m_mu = 2 with the wrong q-value, and
    # mu = [x2, y2, x2] is not in F^(4) at m_mu = 3
    "unknotted-mu-checks": ("unknotted", {
        "schema": 1, "kind": "unknotted", "genus": 2, "n": 2,
        "asserted_flags": ["regular-spine"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1,
             "pushoff_plus": "g1 g2 g1^-1 g2^-1 g1 g2 g1 g2^-1 g1^-1 g1^-1", "pushoff_minus": None,
             "factors": {"mu": "g1 g2 g1^-1 g2^-1 g1 g2 g1 g2^-1 g1^-1 g1^-1", "m_mu": 2}},
            {"name": "b1", "role": "B", "index": 1, "pushoff_plus": None, "pushoff_minus": ""},
            {"name": "a2", "role": "A", "index": 2,
             "pushoff_plus": "g3 g4 g3^-1 g4^-1 g3 g4 g3 g4^-1 g3^-1 g3^-1", "pushoff_minus": None,
             "factors": {"mu": "g3 g4 g3^-1 g4^-1 g3 g4 g3 g4^-1 g3^-1 g3^-1", "m_mu": 3}},
            {"name": "b2", "role": "B", "index": 2, "pushoff_plus": None, "pushoff_minus": ""},
        ],
    }),
    # pair a1/b1: g1 lies in the closure of the A-duals but only at lcs
    # degree 1, below m+1 = 2; pair a2/b2: both memberships pass and the
    # q-sum 0 + 0 misses n+1 = 3
    "elliptic-closure-too-shallow-and-q-sum": ("elliptic", {
        "schema": 1, "kind": "elliptic", "genus": 2, "n": 2,
        "asserted_flags": ["regular-spine", "geometrically-unrelated"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1, "m": 1,
             "pushoff_plus": "g1", "pushoff_minus": None},
            {"name": "b1", "role": "B", "index": 1, "m": 1,
             "pushoff_plus": None, "pushoff_minus": ""},
            {"name": "a2", "role": "A", "index": 2, "m": 1,
             "pushoff_plus": "", "pushoff_minus": None},
            {"name": "b2", "role": "B", "index": 2, "m": 1,
             "pushoff_plus": None, "pushoff_minus": "g4 g2 g4^-1 g2^-1"},
        ],
    }),
    # b1 = g2 is in the B-closure at lcs degree 1, below m+1 = 2; b2 passes
    # and q + s = 0 + 1 misses n+1 = 4
    "parabolic-closure-too-shallow-and-q-plus-s": ("parabolic", {
        "schema": 1, "kind": "parabolic", "genus": 2, "n": 3,
        "asserted_flags": ["regular-spine", "geometrically-unrelated", "simplicity=1"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1, "pushoff_plus": "g1", "pushoff_minus": None},
            {"name": "b1", "role": "B", "index": 1, "m": 1,
             "pushoff_plus": "g2", "pushoff_minus": None},
            {"name": "a2", "role": "A", "index": 2, "pushoff_plus": "g3", "pushoff_minus": None},
            {"name": "b2", "role": "B", "index": 2, "m": 1,
             "pushoff_plus": "g4 g2 g4^-1 g2^-1", "pushoff_minus": None},
        ],
    }),
    # n = 2 <= s = 2: no B-closure condition applies
    "parabolic-vacuous": ("parabolic", {
        "schema": 1, "kind": "parabolic", "genus": 1, "n": 2,
        "asserted_flags": ["regular-spine", "geometrically-unrelated", "simplicity=2"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1, "pushoff_plus": "g1", "pushoff_minus": None},
            {"name": "b1", "role": "B", "index": 1, "pushoff_plus": "g2", "pushoff_minus": None},
        ],
    }),
    # pair 1: the factors multiply to g2, not to the pushoff g1; pair 2:
    # chi_A is nontrivial and chi_B trivial, which also breaks the
    # exclusion pattern; pair 3: zeta = [y2, y1] passes at m_zeta = 1 and
    # q + s = 0 + 1 misses n+1 = 3; pair 4: zeta = y4 is in the B-closure
    # only at lcs degree 1, below m_zeta+1 = 2
    "unknotted-pairing-zeta-and-product": ("unknotted", {
        "schema": 1, "kind": "unknotted", "genus": 4, "n": 2,
        "asserted_flags": ["regular-spine", "simplicity=1"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1, "pushoff_plus": "g1", "pushoff_minus": None,
             "factors": {"mu": "g2", "m_mu": 1}},
            {"name": "b1", "role": "B", "index": 1, "pushoff_plus": None, "pushoff_minus": ""},
            {"name": "a2", "role": "A", "index": 2,
             "pushoff_plus": "g3 g1 g3^-1", "pushoff_minus": None,
             "factors": {"chi": "g3 g1 g3^-1", "m_chi": 1}},
            {"name": "b2", "role": "B", "index": 2, "pushoff_plus": None, "pushoff_minus": ""},
            {"name": "a3", "role": "A", "index": 3, "pushoff_plus": "", "pushoff_minus": None},
            {"name": "b3", "role": "B", "index": 3,
             "pushoff_plus": None, "pushoff_minus": "g4 g2 g4^-1 g2^-1",
             "factors": {"zeta": "g4 g2 g4^-1 g2^-1", "m_zeta": 1}},
            {"name": "a4", "role": "A", "index": 4, "pushoff_plus": "", "pushoff_minus": None},
            {"name": "b4", "role": "B", "index": 4, "pushoff_plus": None, "pushoff_minus": "g8",
             "factors": {"zeta": "g8", "m_zeta": 1}},
        ],
    }),
    # pair 1 is the x_1^2 band twist; pair 2's mu = [x_1, y_1] dies when
    # stage 2 kills x_1 and y_1, so its trivial image gets q(m_mu+1) =
    # q(18) = 3 = n+1 and the mu q-equation passes
    "unknotted-mu-q-equation-pass": ("unknotted", {
        "schema": 1, "kind": "unknotted", "genus": 2, "n": 2,
        "asserted_flags": ["regular-spine"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1, "pushoff_plus": "g1 g1", "pushoff_minus": None,
             "factors": {"x_exponent": 2}},
            {"name": "b1", "role": "B", "index": 1, "pushoff_plus": None, "pushoff_minus": ""},
            {"name": "a2", "role": "A", "index": 2,
             "pushoff_plus": "g1 g2 g1^-1 g2^-1", "pushoff_minus": None,
             "factors": {"mu": "g1 g2 g1^-1 g2^-1", "m_mu": 17}},
            {"name": "b2", "role": "B", "index": 2, "pushoff_plus": None, "pushoff_minus": ""},
        ],
    }),
    # zeta = [y_i, x_i] passes at m_zeta = 0 in both pairs, and with no
    # simplicity flag neither q + s equation can be checked: the missing
    # flag is listed once
    "unknotted-zeta-without-simplicity": ("unknotted", {
        "schema": 1, "kind": "unknotted", "genus": 2, "n": 2,
        "asserted_flags": ["regular-spine"],
        "curves": [
            {"name": "a1", "role": "A", "index": 1, "pushoff_plus": "", "pushoff_minus": None},
            {"name": "b1", "role": "B", "index": 1,
             "pushoff_plus": None, "pushoff_minus": "g2 g1 g2^-1 g1^-1",
             "factors": {"zeta": "g2 g1 g2^-1 g1^-1", "m_zeta": 0}},
            {"name": "a2", "role": "A", "index": 2, "pushoff_plus": "", "pushoff_minus": None},
            {"name": "b2", "role": "B", "index": 2,
             "pushoff_plus": None, "pushoff_minus": "g4 g3 g4^-1 g3^-1",
             "factors": {"zeta": "g4 g3 g4^-1 g3^-1", "m_zeta": 0}},
        ],
    }),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "structured"])
    return code, out.getvalue()


def _certify_document(kind, doc, tmp):
    path = Path(tmp) / "certificate.json"
    path.write_text(json.dumps(doc))
    return _run(["certify", kind, str(path)])


def _job_argv(args):
    return [str(DATA / a) if a.endswith(".json") else a for a in args]


def _mutant_document(kind):
    source = json.loads((DATA / MUTANT_SOURCES[kind]).read_text())
    mutant = mutate_certificate(certificate_from_dict(source), random.Random(MUTANT_SEED))
    return certificate_to_dict(mutant)


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(JOBS))
def test_shipped_job_report(name):
    expected = _golden()["jobs"][name]
    code, out = _run(_job_argv(JOBS[name]))
    assert code == expected["exit"]
    assert out == expected["stdout"]


@pytest.mark.parametrize("kind", sorted(MUTANT_SOURCES))
def test_mutant_report(tmp_path, kind):
    expected = _golden()["mutants"][kind]
    code, out = _certify_document(kind, expected["certificate"], tmp_path)
    assert code == expected["exit"]
    assert out == expected["stdout"]


@pytest.mark.parametrize("kind", sorted(MUTANT_SOURCES))
def test_mutant_builder_unchanged(kind):
    # the reports above are made from the stored mutants, so a change to
    # mutate_certificate would not show in them
    assert _mutant_document(kind) == _golden()["mutants"][kind]["certificate"]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_report(tmp_path, name):
    expected = _golden()["documents"][name]
    code, out = _certify_document(expected["kind"], expected["certificate"], tmp_path)
    assert code == expected["exit"]
    assert out == expected["stdout"]


def regenerate() -> None:
    jobs, mutants, documents = {}, {}, {}
    for name, args in JOBS.items():
        code, out = _run(_job_argv(args))
        jobs[name] = {"argv": args, "exit": code, "stdout": out}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in MUTANT_SOURCES:
            doc = _mutant_document(kind)
            code, out = _certify_document(kind, doc, tmp)
            mutants[kind] = {"certificate": doc, "exit": code, "stdout": out}
        for name, (kind, doc) in DOCUMENTS.items():
            code, out = _certify_document(kind, doc, tmp)
            documents[name] = {"kind": kind, "certificate": doc, "exit": code, "stdout": out}
    golden = {
        "mutant_seed": MUTANT_SEED, "jobs": jobs, "mutants": mutants, "documents": documents,
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
