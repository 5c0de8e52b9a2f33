"""Lazy library layers: what each command loads, the tracer, the public names.

``knotcert/__init__.py`` registers the nine library layers as lazy
modules, ``cli`` imports only the command module of the leaf it runs,
and the command modules reach the layers only through module
attributes, so a job loads its own family's handlers and the layers its
command calls into, and no others.  These tests run each job in a fresh
interpreter, because the test process itself has long since loaded
every layer.
"""

import ast
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import knotcert
from knotcert import cli
from knotcert._value import function_at
from knotcert.certify import certificate_from_dict, certificate_to_dict, certifier
from knotcert.synth import mutate_certificate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "knotcert" / "data"
TRACER = ROOT / "bench" / "tracer.py"
ENTRY = "import sys; from knotcert.cli import main; sys.exit(main())"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}

# Runs main() on its arguments, then writes to stderr, as JSON, the exit
# code (returned, or raised by argparse), the knotcert modules that were
# loaded and the modules main()'s import and run added.  A lazy module
# that has not run yet is an instance of a ModuleType subclass;
# isinstance() would load it.
#
# It also writes, as "before_fractions", the knotcert modules that had
# begun to execute when the import system was first asked for fractions
# (null if it never was): a finder at the head of sys.meta_path records
# them and finds nothing.  This is the order of execution, which is the
# same with or without bytecode.
PROBE = """
import json, sys, types

def executed():
    return sorted(name.split(".", 1)[1] for name, module in sys.modules.items()
                  if name.startswith("knotcert.") and type(module) is types.ModuleType)

class FirstFractions:
    seen = None

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "fractions" and cls.seen is None:
            cls.seen = executed()
        return None

sys.meta_path.insert(0, FirstFractions)
before = set(sys.modules)
from knotcert.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(json.dumps({"code": code, "loaded": executed(), "added": sorted(set(sys.modules) - before),
                  "before_fractions": FirstFractions.seen}), file=sys.stderr)
"""


def run_python(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, env=ENV, timeout=120)


TRIVIALIZER_REPORT = {
    "word": "g1 g2 g1^-1 g2^-1",
    "tags": [1, 2, 1, 2],
    "sets": [[0, 2], [1, 3]],
}

WORDS = {"cli", "_value", "cmd_words", "words"}
MAGNUS = WORDS | {"magnus"}
# the Fox coefficients and Milnor invariants live in the plain milnor,
# which only their own handlers import; every other magnus user, certify
# among them, compiles magnus without it
MILNOR = MAGNUS | {"milnor"}
# the Laurent polynomials and the canonical series live in series, which
# seifert.alexander imports for its result, and the elimination under
# seifert's determinants in _det; mmr reads its Delta from a file and loads
# series without seifert, and classify and altsum load seifert alone
SEIFERT_HALF = {"cli", "_value", "cmd_seifert"}
SERIES = SEIFERT_HALF | {"series"}
SEIFERT = SEIFERT_HALF | {"seifert"}
# a certificate whose memberships fail computes no q-value, and loads
# neither bounds nor decomp and lyndon (see TestRejectedMutants); only the
# normal-closure kinds load their verifiers' module and schreier.  A
# q-value loads bounds and reads k off its slice; in these rows only the
# hyperbolic report's factor count solves for factors in decomp and lyndon
CERTIFY = {"cli", "_value", "cmd_certify", "words", "magnus", "certify"}
CLOSURE = {"closure", "schreier"}
Q_VALUES = {"bounds"}
FACTORS = {"decomp", "lyndon"}
BOUNDS = {"cli", "_value", "cmd_bounds", "bounds"}

# (argv, the knotcert modules it loads); one row per leaf command
LOAD_SETS = [
    (["word", "reduce", "g1 g2 g2^-1"], WORDS),
    # the tagged commutator expansion lives in trivializer
    (["word", "commutator", "g1 g2 g3"], WORDS | {"trivializer"}),
    (["word", "kill", "g1 g2 g1^-1", "--subset", "1"], WORDS),
    (["magnus", "expand", "g1 g2", "-D", "3"], MAGNUS),
    (["magnus", "degree", "g1 g2 g1^-1 g2^-1", "-D", "4"], MAGNUS),
    (["magnus", "fox", "g1 g2 g1^-1 g2^-1", "--index", "1 2"], MILNOR),
    (["decompose", "g1 g2 g1^-1 g2^-1", "-m", "1", "-D", "2"],
     MAGNUS | {"lyndon", "decomp"}),
    (["schreier", "degree", "g2 g1 g2^-1", "--subset", "1", "-D", "3"], MAGNUS | {"schreier"}),
    (["trivialize", "build", "--factor", "g1 g2", "--insert", "1:g3"], WORDS | {"trivializer"}),
    (["trivialize", "verify", "{report}"], WORDS | {"trivializer"}),
    (["milnor", "invariant", DATA / "hopf.longitudes", "--index", "1 2"], MILNOR),
    (["milnor", "vanish", DATA / "borromean.longitudes", "-n", "1"], MILNOR),
    (["alexander", DATA / "trefoil.mat"], SEIFERT | SERIES | {"_det"}),
    (["classify", DATA / "trefoil.mat", "--symmetrize"], SEIFERT),
    (["mmr", DATA / "trefoil.lp", "-N", "2"], SERIES),
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
    (["certify", "elliptic", DATA / "elliptic_g1_n2.json"], CERTIFY | CLOSURE | Q_VALUES),
    (["certify", "hyperbolic", DATA / "hyperbolic_g2_n3.json"], CERTIFY | Q_VALUES | FACTORS),
    (["certify", "parabolic", DATA / "parabolic_g1_n2.json"], CERTIFY | CLOSURE | Q_VALUES),
    (["certify", "unknotted", DATA / "unknotted_g1_n2.json"], CERTIFY | CLOSURE | Q_VALUES),
    # the band-twist certificate's conditions compute no q-value (the
    # unknotted_g1_n2 row above does compute them), and its factors are all
    # trivial, so its depth re-solve builds no image and loads no schreier
    (["translate", "unknotted", DATA / "unknotted_twist_n4.json", "--n", "2"],
     CERTIFY | {"closure", "translate"}),
    (["pipeline", "spine-link", DATA / "hyperbolic_g2_n3.json", "--signs", "++++"],
     CERTIFY | Q_VALUES | {"pipeline"}),
]


def _leaves():
    """Leaf path -> the "module:function" that its COMMANDS row names."""
    leaves = {}
    for name, (_, target, _) in cli.COMMANDS.items():
        if isinstance(target, str):
            leaves[(name,)] = target
        else:
            leaves.update({(name, sub): row[1] for sub, row in target.items()})
    return leaves


LEAVES = _leaves()


LOAD_SET_IDS = [" ".join(getattr(a, "name", a) for a in argv[:2]) for argv, _ in LOAD_SETS]
# argparse imports gettext, and its parser's first message imports locale;
# a plain command line is read without them (cli._read_plain)
ARGPARSE = {"argparse", "gettext", "locale"}


def probe_job(*argv, flags=()):
    proc = run_python(*flags, "-c", PROBE, *argv)
    return json.loads(proc.stderr.splitlines()[-1])


def job_argv(argv, tmp_path):
    """``argv`` with its ``{report}`` placeholder written out as a file."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps(TRIVIALIZER_REPORT))
    return [str(report) if a == "{report}" else a for a in argv]


class TestLoadSets:
    @pytest.mark.parametrize("argv, modules", LOAD_SETS, ids=LOAD_SET_IDS)
    def test_command_loads_only_its_layers(self, tmp_path, argv, modules):
        argv = job_argv(argv, tmp_path)
        probe = probe_job(*argv)
        assert probe["code"] == 0
        loaded = set(probe["loaded"])
        assert loaded == modules
        assert not ARGPARSE & set(probe["added"])
        # the leaf's own command module, and no other family's
        family = LEAVES[cli._leaf_path(argv)].split(":")[0]
        assert {m for m in loaded if m.startswith("cmd_")} == {family}
        if argv[0] == "certify":
            assert not {"translate", "pipeline"} & loaded
        if "certify" not in modules:
            # dataclasses and inspect come in with certify alone
            assert not {"dataclasses", "inspect"} & set(probe["added"])
        if argv[0] not in ("mmr", "altsum") and argv[:2] != ["bounds", "check-inequalities"]:
            # fractions comes in with the two seifert series commands and
            # with the one bounds report that prints a Fraction; every other
            # job works in integers
            assert not {"fractions", "decimal", "numbers"} & set(probe["added"])

    @pytest.mark.parametrize("argv, modules", LOAD_SETS, ids=LOAD_SET_IDS)
    def test_layers_execute_before_fractions(self, tmp_path, argv, modules):
        # fractions (with decimal) loaded before a module compiles raises
        # the job's peak RSS, so no knotcert module may begin to execute
        # after the first lookup of fractions
        probe = probe_job(*job_argv(argv, tmp_path))
        assert probe["code"] == 0
        seen = probe["before_fractions"]
        assert (seen is not None) == ("fractions" in probe["added"])
        if seen is not None:
            assert seen == probe["loaded"]

    def test_one_row_per_leaf_command(self):
        rows = [cli._leaf_path([str(a) for a in argv]) for argv, _ in LOAD_SETS]
        assert sorted(rows) == sorted(LEAVES)

    @pytest.mark.parametrize("path", sorted(LEAVES), ids=" ".join)
    def test_leaf_handler_resolves(self, path):
        # a misspelt reference would otherwise fail only when its command runs
        assert callable(function_at(LEAVES[path]))

    @pytest.mark.parametrize("argv", [
        ["bounds", "q", "-h"],
        ["bounds", "q", "5", "--form", "structured"],
        ["alexander", DATA / "trefoil.mat", "--format", "xml"],
    ], ids=["help", "abbreviated-flag", "bad-choice"])
    def test_declined_line_loads_argparse(self, argv):
        probe = probe_job(*argv)
        assert probe["code"] in (0, 2)
        assert ARGPARSE <= set(probe["added"])

    @pytest.mark.parametrize("argv, modules", LOAD_SETS, ids=LOAD_SET_IDS)
    def test_without_site(self, tmp_path, argv, modules):
        # python -S reads no .pth file of site-packages; one that imports
        # modules at start-up (pathlib, shutil and typing, for one) would
        # hide a job's own import of them
        probe = probe_job(*job_argv(argv, tmp_path), flags=["-S"])
        assert probe["code"] == 0
        assert set(probe["loaded"]) == modules
        added = set(probe["added"])
        assert not (ARGPARSE | {"shutil", "pathlib"}) & added
        # only schreier's NamedTuple needs typing
        assert ("typing" in added) == ("schreier" in modules)

    def test_import_loads_no_library_layer(self):
        code = ("import json, sys, types, knotcert.cli; print(json.dumps(sorted(name for name, "
                "module in sys.modules.items() if name.startswith('knotcert.') "
                "and type(module) is types.ModuleType)))")
        proc = run_python("-c", code)
        assert json.loads(proc.stdout) == ["knotcert._value", "knotcert.cli"]


class TestRejectedMutants:
    """A closure-kind mutant rejected at its memberships computes no
    q-value, so it compiles neither decomp nor lyndon; a hyperbolic mutant
    compiles neither closure nor schreier."""

    @pytest.mark.parametrize("stem", ["elliptic_g1_n2", "parabolic_g1_n2", "unknotted_g1_n2"])
    def test_loads_no_decomposition(self, tmp_path, stem):
        cert = certificate_from_dict(json.loads((DATA / f"{stem}.json").read_text()))
        mutant = mutate_certificate(cert, random.Random(0))
        report = certifier(cert.kind)(mutant)
        assert [c.name for c in report.conditions if c.status == "fail"][0].endswith("membership")
        assert not [c.name for c in report.conditions if "q-" in c.name]
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(certificate_to_dict(mutant)))
        probe = probe_job("certify", cert.kind, path)
        assert probe["code"] == 1
        assert not {"decomp", "lyndon"} & set(probe["loaded"])

    def test_hyperbolic_loads_no_closure(self, tmp_path):
        cert = certificate_from_dict(json.loads((DATA / "hyperbolic_g2_n3.json").read_text()))
        mutant = mutate_certificate(cert, random.Random(0))
        report = certifier("hyperbolic")(mutant)
        assert [c.status for c in report.conditions if c.name == "quotient-membership"] == [
            "pass", "fail"]
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(certificate_to_dict(mutant)))
        probe = probe_job("certify", "hyperbolic", path)
        assert probe["code"] == 1
        # a1 passes and computes its q-value and factor count
        assert set(probe["loaded"]) == CERTIFY | Q_VALUES | FACTORS


# Runs knotcert.cli as __main__, as ``python -m knotcert.cli`` does, then
# writes to stderr, as JSON, the exit code and whether the run also
# imported knotcert.cli, which would execute cli.py a second time.
RUN_AS_MAIN = """
import json, runpy, sys
try:
    runpy.run_module("knotcert.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "cli": "knotcert.cli" in sys.modules}), file=sys.stderr)
"""


class TestRunAsMain:
    @pytest.mark.parametrize("argv", [
        ["alexander", DATA / "trefoil.mat"],
        ["certify", "hyperbolic", DATA / "hyperbolic_g2_n3.json"],
    ], ids=["alexander", "certify-hyperbolic"])
    def test_cli_runs_once(self, argv):
        proc = run_python("-W", "error", "-c", RUN_AS_MAIN, *argv)
        assert json.loads(proc.stderr.splitlines()[-1]) == {"code": 0, "cli": False}
        assert proc.stdout == run_python("-c", ENTRY, *argv).stdout


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

    def test_modules_outside_the_layers(self):
        # the tracer wraps only the modules in LAYERS, so a function of any
        # other module records no span; a new module outside LAYERS must be
        # added here on purpose.  LAYERS is read from the source, not imported.
        tree = ast.parse(TRACER.read_text())
        layers = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
        modules = {path.stem for path in (ROOT / "src" / "knotcert").glob("*.py")} - {"__init__"}
        assert set(layers) <= modules
        assert modules - set(layers) == {
            "_value", "cmd_bounds", "cmd_certify", "cmd_seifert", "cmd_words", "synth",
            "translate", "pipeline", "closure", "series", "milnor", "_det",
        }

    @pytest.mark.parametrize("argv, layers", [
        (["alexander", DATA / "trefoil.mat", "--format", "structured"], {"cli", "seifert"}),
        # series is outside LAYERS, so an mmr job's series records no span
        (["mmr", DATA / "trefoil.lp", "-N", "2", "--format", "structured"], {"cli"}),
        # milnor is outside LAYERS too; it imports lcs_at_least and
        # reduce_word after the tracer has wrapped them
        (["milnor", "vanish", DATA / "borromean.longitudes", "-n", "1", "--format", "structured"],
         {"cli", "words", "magnus"}),
        (["word", "commutator", "g1 g2 g3", "--format", "structured"],
         {"cli", "words", "trivializer"}),
        (["certify", "elliptic", DATA / "elliptic_g1_n2.json", "--format", "structured"],
         {"cli", "words", "magnus", "schreier", "bounds", "certify"}),
        # translate and pipeline import their layers' functions after the
        # tracer has wrapped them, so they call the wrappers; the band twist's
        # trivial factors need no Schreier rewrite
        (["translate", "unknotted", DATA / "unknotted_twist_n4.json", "--n", "2",
          "--format", "structured"], {"cli", "words", "certify"}),
        (["pipeline", "spine-link", DATA / "hyperbolic_g2_n3.json", "--signs", "++++",
          "--format", "structured"],
         {"cli", "words", "magnus", "bounds", "certify"}),
    ], ids=["alexander", "mmr", "milnor-vanish", "word-commutator", "certify-elliptic",
            "translate-unknotted", "pipeline-spine-link"])
    def test_traced_job_matches_untraced(self, tmp_path, argv, layers):
        spans_path = tmp_path / "spans.json"
        traced = run_python(TRACER, spans_path, "--", *argv)
        plain = run_python("-c", ENTRY, *argv)
        assert traced.returncode == plain.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        spans = json.loads(spans_path.read_text())["spans"]
        assert {name.split(".", 1)[0] for name, *_ in spans} == layers
        assert "cli.main" in {name for name, *_ in spans}


# The names `knotcert` re-exported when it imported every layer eagerly,
# by the module that now defines them.
PUBLIC_NAMES = {
    "words": [
        "commutator_word", "concat", "conjugate", "format_word", "generators_in", "invert",
        "kill_generators", "parse_word", "reduce_word",
    ],
    "magnus": [
        "NCPolynomial", "expand", "lcs_at_least", "lcs_degree", "nc_add", "nc_inverse", "nc_mul",
    ],
    "milnor": ["LongitudeSystem", "fox_coefficient", "milnor_invariant", "milnor_vanish_upto"],
    "decomp": ["CommutatorCombination", "decompose", "lie_component"],
    "schreier": [
        "NotInNormalClosure", "SchreierLetter", "normal_closure_lcs_degree",
        "schreier_rewrite", "schreier_substitute",
    ],
    "trivializer": [
        "FamilyCheck", "LetterSetFamily", "TaggedWord", "build_letter_sets", "delete_letters",
        "extremal_entry_word", "insert_canceling_pair", "simple_commutator",
        "successive_entry_check", "verify_family",
    ],
    "seifert": [
        "SeifertMatrix", "alexander", "alternating_sum", "anti_block_determinant_check",
        "apply_basis_change", "classify_form", "symmetrize",
    ],
    "series": ["LaurentPolynomial", "RationalSeries", "mmr_series"],
    "certify": [
        "CertificateError", "CertificateReport", "GuardViolation", "SurfaceCertificate",
        "TranslationError", "certificate_from_dict", "certificate_to_dict",
        "certify_hyperbolic",
    ],
    "closure": ["certify_elliptic", "certify_parabolic", "certify_unknotted"],
    "translate": ["translate_certificate"],
    "pipeline": ["spine_link_pipeline"],
}
PUBLIC = [(layer, name) for layer, names in PUBLIC_NAMES.items() for name in names]


class TestPublicNames:
    def test_count(self):
        assert len(PUBLIC) == 61
        assert sorted(knotcert.__all__) == sorted(name for _, name in PUBLIC)

    @pytest.mark.parametrize("layer, name", PUBLIC, ids=[name for _, name in PUBLIC])
    def test_name_is_its_layers_object(self, layer, name):
        # the import binds translate and pipeline, plain modules, on the package
        importlib.import_module(f"knotcert.{layer}")
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

    @pytest.mark.parametrize("old, new, names", [
        ("magnus", "milnor", PUBLIC_NAMES["milnor"]),
        ("words", "trivializer", ["TaggedWord", "delete_letters", "insert_canceling_pair",
                                  "simple_commutator", "successive_entry_check"]),
    ], ids=["milnor", "tagged-words"])
    def test_moved_names_left_their_old_module(self, old, new, names):
        # neither old module re-exports the names that moved out of it, so a
        # star import binds each of them from the module that defines it
        scope = {}
        exec("from knotcert import *", scope)
        for name in names:
            assert not hasattr(getattr(knotcert, old), name)
            assert scope[name].__module__ == f"knotcert.{new}"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            knotcert.no_such_name
        with pytest.raises(ImportError):
            exec("from knotcert import no_such_name", {})
