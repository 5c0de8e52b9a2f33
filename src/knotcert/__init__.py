"""Free-group commutator calculus and Seifert-surface certificate checks.

The nine library layers (``words``, ``magnus``, ``lyndon``, ``decomp``,
``schreier``, ``trivializer``, ``bounds``, ``seifert``, ``certify``) are
lazy: importing the package registers each one in ``sys.modules`` as an
``importlib.util.LazyLoader`` module and binds it here, and a layer is
compiled and run on its first attribute access.  knotcert runs one job
per process, so a CLI job pays only for the layers its command calls
into: an ``alexander`` job loads ``seifert`` alone (with the plain
``series``), and no ``word`` or ``magnus`` job loads ``certify`` or its
``dataclasses``.  The public names below are served from ``_EXPORTS``
by ``__getattr__`` and load their module when first read.

Two rules keep this working:

- ``cli`` stays an ordinary module.  ``python -m knotcert.cli`` runs it
  as ``__main__``, and runpy warns ("found in sys.modules ... prior to
  execution") when the module is already in ``sys.modules``, which a
  lazy entry would be.
- Only these nine layers are lazy, not ``_value`` or ``synth``.
  ``bench/tracer.py`` reads ``vars()`` of every layer, which loads it,
  and then walks ``sys.modules`` reading ``vars()`` of every knotcert
  module.  Any other lazy module would load during that walk and change
  the dict it iterates.  Traced jobs therefore still load and wrap all
  nine layers.

The modules that only one command runs are plain modules for the same
reason, and need no laziness: nothing imports them before that command
does.  ``translate`` (the index shifts) and ``pipeline`` (the spine-link
pipeline) are imported by their own CLI handler, or by ``__getattr__``
below when their public name is first read, so a ``certify`` job never
compiles them.  ``closure`` (the elliptic, parabolic and unknotted
verifiers) is imported by ``certify.certifier`` for those three kinds
and by ``translate``, so a ``certify hyperbolic`` or ``pipeline`` job
compiles neither it nor ``schreier``, which only its normal-closure
memberships reach.  ``series`` (Laurent polynomials and the canonical
series) is plain too: ``seifert.alexander`` imports it for its
result, and ``cmd_seifert`` imports it for ``mmr``, so an ``mmr`` job
compiles it without ``seifert``, and a ``classify`` or ``altsum`` job
compiles ``seifert`` without it.  ``milnor`` (the Fox coefficients and
Milnor invariants) is plain for the same reason: ``cmd_words`` imports
it for ``magnus fox`` and the ``milnor`` commands, so a ``certify`` job
compiles ``magnus`` without it.  The CLI handlers sit in one module
per command family (``cmd_words``, ``cmd_seifert``, ``cmd_bounds``,
``cmd_certify``), which ``cli.main`` imports for the leaf it runs.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# the lazy library layers
_LAYERS = (
    "words", "magnus", "lyndon", "decomp", "schreier", "trivializer", "bounds", "seifert",
    "certify",
)
# module -> the public names the package re-exports from it
_EXPORTS = {
    "words": (
        "commutator_word", "concat", "conjugate", "format_word", "generators_in", "invert",
        "kill_generators", "parse_word", "reduce_word",
    ),
    "magnus": (
        "NCPolynomial", "expand", "lcs_at_least", "lcs_degree", "nc_add", "nc_inverse", "nc_mul",
    ),
    "milnor": ("LongitudeSystem", "fox_coefficient", "milnor_invariant", "milnor_vanish_upto"),
    "decomp": ("CommutatorCombination", "decompose", "lie_component"),
    "schreier": (
        "NotInNormalClosure", "SchreierLetter", "normal_closure_lcs_degree",
        "schreier_rewrite", "schreier_substitute",
    ),
    "trivializer": (
        "FamilyCheck", "LetterSetFamily", "TaggedWord", "build_letter_sets", "delete_letters",
        "extremal_entry_word", "insert_canceling_pair", "simple_commutator",
        "successive_entry_check", "verify_family",
    ),
    "seifert": (
        "SeifertMatrix", "alexander", "alternating_sum", "anti_block_determinant_check",
        "apply_basis_change", "classify_form", "symmetrize",
    ),
    "series": ("LaurentPolynomial", "RationalSeries", "mmr_series"),
    "certify": (
        "CertificateError", "CertificateReport", "GuardViolation", "SurfaceCertificate",
        "TranslationError", "certificate_from_dict", "certificate_to_dict",
        "certify_hyperbolic",
    ),
    "closure": ("certify_elliptic", "certify_parabolic", "certify_unknotted"),
    "translate": ("translate_certificate",),
    "pipeline": ("spine_link_pipeline",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def _lazy(layer: str):
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
