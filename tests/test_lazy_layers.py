"""Lazy library layers: what each command loads, the tracer, the public names.

``knotcert/__init__.py`` registers the nine library layers as lazy
modules, and ``cli`` reaches them only through module attributes, so a
job loads the layers its command calls into and no others.  These tests
run each job in a fresh interpreter, because the test process itself has
long since loaded every layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotcert
from knotcert import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "knotcert" / "data"
TRACER = ROOT / "bench" / "tracer.py"
ENTRY = "import sys; from knotcert.cli import main; sys.exit(main())"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}

# Runs main() on its arguments, then writes to stderr, as JSON, the exit
# code, the knotcert modules that were loaded and the modules main()'s
# import and run added.  A lazy module that has not run yet is an
# instance of a ModuleType subclass; isinstance() would load it.
PROBE = """
import json, sys, types
before = set(sys.modules)
from knotcert.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
loaded = sorted(name.split(".", 1)[1] for name, module in sys.modules.items()
                if name.startswith("knotcert.") and type(module) is types.ModuleType)
print(json.dumps({"code": code, "loaded": loaded,
                  "added": sorted(set(sys.modules) - before)}), file=sys.stderr)
"""


def run_python(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, env=ENV, timeout=120)


TRIVIALIZER_REPORT = {
    "word": "g1 g2 g1^-1 g2^-1",
    "tags": [1, 2, 1, 2],
    "sets": [[0, 2], [1, 3]],
}

WORDS = {"cli", "_value", "words"}
MAGNUS = WORDS | {"magnus"}
SEIFERT = {"cli", "_value", "seifert"}
CERTIFY = MAGNUS | {"lyndon", "decomp", "schreier", "bounds", "certify"}
BOUNDS = {"cli", "_value", "bounds"}

# (argv, the knotcert modules it loads); one row per leaf command
LOAD_SETS = [
    (["word", "reduce", "g1 g2 g2^-1"], WORDS),
    (["word", "commutator", "g1 g2 g3"], WORDS),
    (["word", "kill", "g1 g2 g1^-1", "--subset", "1"], WORDS),
    (["magnus", "expand", "g1 g2", "-D", "3"], MAGNUS),
    (["magnus", "degree", "g1 g2 g1^-1 g2^-1", "-D", "4"], MAGNUS),
    (["magnus", "fox", "g1 g2 g1^-1 g2^-1", "--index", "1 2"], MAGNUS),
    (["decompose", "g1 g2 g1^-1 g2^-1", "-m", "1", "-D", "2"],
     MAGNUS | {"lyndon", "decomp"}),
    (["schreier", "degree", "g2 g1 g2^-1", "--subset", "1", "-D", "3"], MAGNUS | {"schreier"}),
    (["trivialize", "build", "--factor", "g1 g2", "--insert", "1:g3"], WORDS | {"trivializer"}),
    (["trivialize", "verify", "{report}"], WORDS | {"trivializer"}),
    (["milnor", "invariant", DATA / "hopf.longitudes", "--index", "1 2"], MAGNUS),
    (["milnor", "vanish", DATA / "borromean.longitudes", "-n", "1"], MAGNUS),
    (["alexander", DATA / "trefoil.mat"], SEIFERT),
    (["classify", DATA / "trefoil.mat", "--symmetrize"], SEIFERT),
    (["mmr", DATA / "trefoil.lp", "-N", "2"], SEIFERT),
    (["altsum", DATA / "altsum_example.json"], SEIFERT),
    (["bounds", "q", "5"], BOUNDS),
    (["bounds", "t", "9"], BOUNDS),
    (["bounds", "q-param", "18", "2"], BOUNDS),
    (["bounds", "l-n-s", "3", "4"], BOUNDS),
    (["bounds", "conflict-max", "5"], BOUNDS),
    (["bounds", "ratio-check", "4", "3"], BOUNDS),
    (["bounds", "good-arc-bound", "3", "4", "5", "--embedded"], BOUNDS),
    (["bounds", "product-bound-check", "12", "1", "3", "2"], BOUNDS),
    (["bounds", "partition-k", "--factors", "1 2|2 3|4"], BOUNDS),
    (["bounds", "check-inequalities", "11"], BOUNDS),
    (["certify", "elliptic", DATA / "elliptic_g1_n2.json"], CERTIFY),
    (["certify", "hyperbolic", DATA / "hyperbolic_g2_n3.json"], CERTIFY),
    (["certify", "parabolic", DATA / "parabolic_g1_n2.json"], CERTIFY),
    (["certify", "unknotted", DATA / "unknotted_g1_n2.json"], CERTIFY),
    # the band-twist certificate's conditions compute no q-value, so no bound
    # function runs; the unknotted_g1_n2 row above does compute them
    (["translate", "unknotted", DATA / "unknotted_twist_n4.json", "--n", "2"],
     CERTIFY - {"bounds"}),
    (["pipeline", "spine-link", DATA / "hyperbolic_g2_n3.json", "--signs", "++++"], CERTIFY),
]


class TestLoadSets:
    @pytest.mark.parametrize("argv, modules", LOAD_SETS,
                             ids=[" ".join(getattr(a, "name", a) for a in argv[:2]) for argv, _ in LOAD_SETS])
    def test_command_loads_only_its_layers(self, tmp_path, argv, modules):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(TRIVIALIZER_REPORT))
        argv = [str(report) if a == "{report}" else a for a in argv]
        proc = run_python("-c", PROBE, *argv)
        probe = json.loads(proc.stderr.splitlines()[-1])
        assert probe["code"] == 0
        assert set(probe["loaded"]) == modules
        if "certify" not in modules:
            # dataclasses and inspect come in with certify alone
            assert not {"dataclasses", "inspect"} & set(probe["added"])
        if "seifert" not in modules and argv[:2] != ["bounds", "check-inequalities"]:
            # fractions comes in with seifert and with the one bounds report
            # that prints a Fraction; every other bound is decided in integers
            assert not {"fractions", "decimal", "numbers"} & set(probe["added"])

    def test_one_row_per_leaf_command(self):
        leaves = [(name,) if not isinstance(target, dict) else (name, sub)
                  for name, (_, target, _) in cli.COMMANDS.items()
                  for sub in (target if isinstance(target, dict) else [None])]
        rows = [cli._leaf_path([str(a) for a in argv]) for argv, _ in LOAD_SETS]
        assert sorted(rows) == sorted(leaves)

    def test_import_loads_no_library_layer(self):
        code = ("import json, sys, types, knotcert.cli; print(json.dumps(sorted(name for name, "
                "module in sys.modules.items() if name.startswith('knotcert.') "
                "and type(module) is types.ModuleType)))")
        proc = run_python("-c", code)
        assert json.loads(proc.stdout) == ["knotcert._value", "knotcert.cli"]


class TestTracerContract:
    """``bench/tracer.py`` indexes every layer in sys.modules and wraps it."""

    def test_every_layer_registered_after_cli_import(self):
        # -B: importing the tracer writes no bytecode under bench/
        code = (f"import sys; sys.path.insert(0, {str(TRACER.parent)!r}); import knotcert.cli; "
                "from tracer import LAYERS; "
                "print([layer for layer in LAYERS if f'knotcert.{layer}' not in sys.modules])")
        proc = run_python("-B", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, layers", [
        (["alexander", DATA / "trefoil.mat", "--format", "structured"], {"cli", "seifert"}),
        (["certify", "elliptic", DATA / "elliptic_g1_n2.json", "--format", "structured"],
         {"cli", "words", "magnus", "lyndon", "decomp", "schreier", "bounds", "certify"}),
    ], ids=["alexander", "certify-elliptic"])
    def test_traced_job_matches_untraced(self, tmp_path, argv, layers):
        spans_path = tmp_path / "spans.json"
        traced = run_python(TRACER, spans_path, "--", *argv)
        plain = run_python("-c", ENTRY, *argv)
        assert traced.returncode == plain.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        spans = json.loads(spans_path.read_text())["spans"]
        assert {name.split(".", 1)[0] for name, *_ in spans} == layers
        assert "cli.main" in {name for name, *_ in spans}


# The names `knotcert` re-exported when it imported every layer eagerly.
PUBLIC_NAMES = {
    "words": [
        "TaggedWord", "commutator_word", "concat", "conjugate", "delete_letters",
        "format_word", "generators_in", "insert_canceling_pair", "invert",
        "kill_generators", "parse_word", "reduce_word", "simple_commutator",
        "successive_entry_check",
    ],
    "magnus": [
        "LongitudeSystem", "NCPolynomial", "expand", "fox_coefficient", "lcs_at_least",
        "lcs_degree", "milnor_invariant", "milnor_vanish_upto", "nc_add", "nc_inverse",
        "nc_mul",
    ],
    "decomp": ["CommutatorCombination", "decompose", "lie_component"],
    "schreier": [
        "NotInNormalClosure", "SchreierLetter", "normal_closure_lcs_degree",
        "schreier_rewrite", "schreier_substitute",
    ],
    "trivializer": [
        "FamilyCheck", "LetterSetFamily", "build_letter_sets", "extremal_entry_word",
        "verify_family",
    ],
    "seifert": [
        "LaurentPolynomial", "RationalSeries", "SeifertMatrix", "alexander",
        "alternating_sum", "anti_block_determinant_check", "apply_basis_change",
        "classify_form", "mmr_series", "symmetrize",
    ],
    "certify": [
        "CertificateError", "CertificateReport", "GuardViolation", "SurfaceCertificate",
        "TranslationError", "certificate_from_dict", "certificate_to_dict",
        "certify_elliptic", "certify_hyperbolic", "certify_parabolic", "certify_unknotted",
        "translate_certificate", "spine_link_pipeline",
    ],
}
PUBLIC = [(layer, name) for layer, names in PUBLIC_NAMES.items() for name in names]


class TestPublicNames:
    def test_count(self):
        assert len(PUBLIC) == 61
        assert sorted(knotcert.__all__) == sorted(name for _, name in PUBLIC)

    @pytest.mark.parametrize("layer, name", PUBLIC, ids=[name for _, name in PUBLIC])
    def test_name_is_its_layers_object(self, layer, name):
        module = getattr(knotcert, layer)
        assert sys.modules[f"knotcert.{layer}"] is module
        scope = {}
        exec(f"from knotcert import {name}", scope)
        assert getattr(knotcert, name) is scope[name] is getattr(module, name)

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from knotcert import *", scope)
        for layer, name in PUBLIC:
            assert scope[name] is getattr(sys.modules[f"knotcert.{layer}"], name)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            knotcert.no_such_name
        with pytest.raises(ImportError):
            exec("from knotcert import no_such_name", {})
