"""Golden reports: structured stdout and exit code of the certificate jobs.

``golden_reports.json`` pins the exact bytes that ``--format structured``
prints, and the exit code, for every shipped certificate, the index-shift
translations, the spine-link pipeline and one one-letter mutant per
certificate kind, so the failure details are pinned as well.  The
mutants come from ``mutate_certificate`` at a fixed seed and are stored
in the file, so the reports do not depend on later changes to ``synth``.
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
}

# kind -> shipped certificate the mutant is made from
MUTANT_SOURCES = {
    "hyperbolic": "hyperbolic_g2_n3.json",
    "elliptic": "elliptic_g1_n2.json",
    "parabolic": "parabolic_g1_n2.json",
    "unknotted": "unknotted_g1_n2.json",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "structured"])
    return code, out.getvalue()


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
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(expected["certificate"]))
    code, out = _run(["certify", kind, str(path)])
    assert code == expected["exit"]
    assert out == expected["stdout"]


def regenerate() -> None:
    jobs, mutants = {}, {}
    for name, args in JOBS.items():
        code, out = _run(_job_argv(args))
        jobs[name] = {"argv": args, "exit": code, "stdout": out}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in MUTANT_SOURCES:
            doc = _mutant_document(kind)
            path = Path(tmp) / "mutant.json"
            path.write_text(json.dumps(doc))
            code, out = _run(["certify", kind, str(path)])
            mutants[kind] = {"certificate": doc, "exit": code, "stdout": out}
    golden = {"mutant_seed": MUTANT_SEED, "jobs": jobs, "mutants": mutants}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
