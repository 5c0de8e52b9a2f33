"""Verifiers for surface certificates built on pushoff words.

A certificate fixes a genus-g surface with dual generators ordered
x_1, y_1, ..., x_g, y_g (indices 1..2g, so x_i = 2i-1 and y_i = 2i),
pushoff words for its basis curves, and the integers the definitions
quantify over.  The verifiers check every condition that is decidable
from the word data (quotient and normal-closure memberships, the
q-value arithmetic) and treat the geometric hypotheses (regular spine,
geometric unrelatedness, admissibility, simplicity) as asserted flags;
reports keep the two kinds of condition separate, and a certificate
whose algebra passes but whose assertions are missing is
"not-checkable-from-words" rather than valid.

The index-shift translations and the spine-link pipeline build on these
verifiers in their own modules, ``translate`` and ``pipeline``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# bounds and decomp are lazy modules (see knotcert/__init__.py), used
# qualified: a certificate rejected before any q-value loads neither them
# nor lyndon, which decomp imports
from . import bounds, decomp
from ._value import KINDS, Record, as_dict, json_int
from .magnus import MAX_GENERATOR, NCPolynomial, expand, staged_expand
from .schreier import NotInNormalClosure, rewrite_to_word
from .words import (
    WordSyntaxError,
    concat,
    format_word,
    generators_in,
    invert,
    kill_generators,
    parse_word,
    reduce_word,
)

FLAG_REGULAR_SPINE = "regular-spine"
FLAG_UNRELATED = "geometrically-unrelated"
FLAG_ADMISSIBLE = "admissible-spine"
_SIMPLICITY_RE = re.compile(r"^simplicity=(\d+)$")

_TRIVIAL_BOUNDARY = "genus 0: boundary is the trivial knot"


def vassiliev_conclusion(l_value: int, bound: str) -> str:
    """``bound``, the Vassiliev bound that l = ``l_value`` gives, when it says
    anything.  Vassiliev invariants of order <= 1 are constant on knots, so
    for l <= 1 the conclusion is instead that no bound follows."""
    if l_value >= 2:
        return bound
    return f"l = {l_value} <= 1: no Vassiliev bound follows"


class CertificateError(ValueError):
    """Structurally malformed certificate (CLI exit code 2)."""


class TranslationError(ValueError):
    """A certificate translation could not be carried out."""


class GuardViolation(TranslationError):
    """An index-shift hypothesis (such as n > s+1) fails."""


# ---------------------------------------------------------------------------
# Certificate data model


class UnknottedFactors(Record):
    """Per-pair witness factorization for the mixed-type definition."""

    x_exponent: int = 0
    chi: tuple[int, ...] = ()
    mu: tuple[int, ...] = ()
    zeta: tuple[int, ...] = ()
    m_mu: int | None = None
    m_chi: int | None = None
    m_zeta: int | None = None


# Curve and SurfaceCertificate stay dataclasses, unlike the Record values:
# the benchmark's mutant builder (bench/inputs.py) copies them with
# dataclasses.replace.
@dataclass(frozen=True)
class Curve:
    name: str
    role: str
    index: int
    pushoff_plus: tuple[int, ...] | None = None
    pushoff_minus: tuple[int, ...] | None = None
    m: int | None = None
    pair: str | None = None
    factors: UnknottedFactors | None = None

    def pushoff(self, sign: str) -> tuple[int, ...] | None:
        return self.pushoff_plus if sign == "+" else self.pushoff_minus


@dataclass(frozen=True)
class SurfaceCertificate:
    kind: str
    genus: int
    n: int
    curves: tuple[Curve, ...]
    asserted_flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CertificateError(f"unknown certificate kind {self.kind!r}")
        if self.genus < 0:
            raise CertificateError("genus must be >= 0")
        if 2 * self.genus > MAX_GENERATOR:
            # the dual generators are 1..2g; checked before any per-handle set is built
            raise CertificateError(f"genus {self.genus} exceeds the limit {MAX_GENERATOR // 2}")
        if self.n < 0:
            raise CertificateError("n must be >= 0")
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise CertificateError("curve names must be distinct")
        for curve in self.curves:
            if curve.role not in ("A", "B"):
                raise CertificateError(f"curve {curve.name}: role must be A or B")
            if not 1 <= curve.index <= self.genus:
                raise CertificateError(
                    f"curve {curve.name}: index {curve.index} out of range 1..{self.genus}"
                )
            f = curve.factors or UnknottedFactors()
            depths = {"m": curve.m, "m_mu": f.m_mu, "m_chi": f.m_chi, "m_zeta": f.m_zeta}
            for field, depth in depths.items():
                if depth is not None and depth < 0:
                    raise CertificateError(f"curve {curve.name}: {field} must be >= 0")
            for word in self._curve_words(curve):
                for letter in word:
                    if abs(letter) > 2 * self.genus:
                        raise CertificateError(
                            f"curve {curve.name}: generator {abs(letter)} exceeds 2g = {2 * self.genus}"
                        )
        for role in ("A", "B"):
            indices = sorted(c.index for c in self.curves if c.role == role)
            if indices != sorted(set(indices)):
                raise CertificateError(f"duplicate {role}-curve indices")

    @staticmethod
    def _curve_words(curve: Curve) -> list[tuple[int, ...]]:
        words = [w for w in (curve.pushoff_plus, curve.pushoff_minus) if w is not None]
        if curve.factors is not None:
            words.extend([curve.factors.chi, curve.factors.mu, curve.factors.zeta])
        return words

    def curves_of_role(self, role: str) -> list[Curve]:
        return sorted((c for c in self.curves if c.role == role), key=lambda c: c.index)

    def has_flag(self, flag: str) -> bool:
        return flag in self.asserted_flags

    def simplicity(self) -> int | None:
        for flag in self.asserted_flags:
            match = _SIMPLICITY_RE.match(flag)
            if match:
                return int(match.group(1))
        return None


def x_generator(index: int) -> int:
    return 2 * index - 1


def y_generator(index: int) -> int:
    return 2 * index


def prefix_kill_set(index: int) -> frozenset[int]:
    """Duals of the first index-1 handle pairs: {x_1, y_1, ..., x_{i-1}, y_{i-1}}."""
    return a_dual_set(index - 1) | b_dual_set(index - 1)


def a_dual_set(genus: int) -> frozenset[int]:
    return frozenset(map(x_generator, range(1, genus + 1)))


def b_dual_set(genus: int) -> frozenset[int]:
    return frozenset(map(y_generator, range(1, genus + 1)))


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _integer(value, field: str) -> int:
    """``value`` if it is a JSON integer; TypeError naming ``field`` otherwise."""
    if not json_int(value):
        raise TypeError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def _optional_integer(value, field: str) -> int | None:
    return None if value is None else _integer(value, field)


def _string(value, field: str) -> str:
    """``value`` if it is a JSON string; TypeError naming ``field`` otherwise."""
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string, got {json.dumps(value)}")
    return value


def _word(value, field: str) -> tuple[int, ...] | None:
    """The word a JSON string spells, None for null; any error names ``field``."""
    if value is None:
        return None
    try:
        return parse_word(_string(value, field))
    except WordSyntaxError as exc:
        raise ValueError(f"{field}: {exc}") from exc


def certificate_from_dict(data: dict) -> SurfaceCertificate:
    """Build a certificate from its JSON document.

    Every field is checked here, so any malformed document raises
    CertificateError (CLI exit code 2) and nothing later trips over it.
    """
    if not isinstance(data, dict):
        raise CertificateError(f"certificate must be a JSON object, got {json.dumps(data)}")
    try:
        kind = data["kind"]
        genus = _integer(data["genus"], "genus")
        n = _integer(data["n"], "n")
        raw_curves = data["curves"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad certificate document: {exc}") from exc
    if not isinstance(raw_curves, list):
        raise CertificateError("curves must be a list")
    flags = data.get("asserted_flags", [])
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise CertificateError("asserted_flags must be a list of strings")
    curves = []
    for i, raw in enumerate(raw_curves):
        if not isinstance(raw, dict):
            raise CertificateError(f"curves[{i}] must be a JSON object, got {json.dumps(raw)}")
        try:
            factors = None
            f = raw.get("factors")
            if f is not None:
                if not isinstance(f, dict):
                    raise TypeError(f"factors must be an object, got {json.dumps(f)}")
                factors = UnknottedFactors(
                    x_exponent=_integer(f.get("x_exponent", 0), "x_exponent"),
                    chi=_word(f.get("chi"), "chi") or (),
                    mu=_word(f.get("mu"), "mu") or (),
                    zeta=_word(f.get("zeta"), "zeta") or (),
                    m_mu=_optional_integer(f.get("m_mu"), "m_mu"),
                    m_chi=_optional_integer(f.get("m_chi"), "m_chi"),
                    m_zeta=_optional_integer(f.get("m_zeta"), "m_zeta"),
                )
            pair = raw.get("pair")
            curves.append(
                Curve(
                    name=_string(raw["name"], "name"),
                    role=_string(raw["role"], "role"),
                    index=_integer(raw["index"], "index"),
                    pushoff_plus=_word(raw.get("pushoff_plus"), "pushoff_plus"),
                    pushoff_minus=_word(raw.get("pushoff_minus"), "pushoff_minus"),
                    m=_optional_integer(raw.get("m"), "m"),
                    pair=None if pair is None else _string(pair, "pair"),
                    factors=factors,
                )
            )
        except KeyError as exc:
            raise CertificateError(f"curve entry missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"bad curve entry: {exc}") from exc
    return SurfaceCertificate(
        kind=kind, genus=genus, n=n, curves=tuple(curves), asserted_flags=tuple(flags)
    )


def certificate_to_dict(cert: SurfaceCertificate) -> dict:
    def word_field(w):
        return None if w is None else format_word(w)

    curves = []
    for c in cert.curves:
        entry: dict = {
            "name": c.name,
            "role": c.role,
            "index": c.index,
            "pushoff_plus": word_field(c.pushoff_plus),
            "pushoff_minus": word_field(c.pushoff_minus),
        }
        if c.m is not None:
            entry["m"] = c.m
        if c.pair is not None:
            entry["pair"] = c.pair
        if c.factors is not None:
            f = c.factors
            entry["factors"] = {
                "x_exponent": f.x_exponent,
                "chi": format_word(f.chi),
                "mu": format_word(f.mu),
                "zeta": format_word(f.zeta),
                "m_mu": f.m_mu,
                "m_chi": f.m_chi,
                "m_zeta": f.m_zeta,
            }
        curves.append(entry)
    return {
        "schema": 1,
        "kind": cert.kind,
        "genus": cert.genus,
        "n": cert.n,
        "asserted_flags": list(cert.asserted_flags),
        "curves": curves,
    }


# ---------------------------------------------------------------------------
# Reports


class ConditionResult(Record):
    name: str
    status: str  # pass | fail | error | vacuous | asserted
    curve: str | None = None
    detail: str = ""


class CertificateReport(Record):
    kind: str
    n: int
    verdict: str
    conditions: tuple[ConditionResult, ...]
    quantities: dict
    missing_flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return as_dict(self)


def _verdict(failed: bool, missing: Sequence[str]) -> str:
    if failed:
        return "invalid"
    return "not-checkable-from-words" if missing else "valid"


class _ReportBuilder:
    """One verifier's level (n, or the certificate's own), flags and conditions."""

    def __init__(self, kind: str, cert: SurfaceCertificate, n: int | None, flags: Sequence[str]):
        self.kind = kind
        self.n = cert.n if n is None else n
        if kind != "hyperbolic" and self.n <= 1:
            raise CertificateError(f"{kind} certificates need n > 1")
        if self.n < 0:
            raise CertificateError("n must be >= 0")
        self.conditions: list[ConditionResult] = []
        self.quantities: dict = {}
        self.missing: list[str] = []
        for flag in flags:
            if cert.has_flag(flag):
                self.add(f"asserted:{flag}", "asserted")
            else:
                self.missing.append(flag)

    def add(self, name: str, status: str, curve: str | None = None, detail: str = "") -> None:
        self.conditions.append(ConditionResult(name, status, curve, detail))

    def equation(self, name: str, curve: str, terms: Sequence[int]) -> None:
        """Record whether the q-terms sum to n + 1."""
        lhs = " + ".join(str(t) for t in terms)
        if sum(terms) == self.n + 1:
            self.add(name, "pass", curve, f"{lhs} = {self.n + 1}")
        else:
            self.add(name, "fail", curve, f"{lhs} != {self.n + 1}")

    def finish(self) -> CertificateReport:
        failed = any(c.status in ("fail", "error") for c in self.conditions)
        return CertificateReport(
            kind=self.kind,
            n=self.n,
            verdict=_verdict(failed, self.missing),
            conditions=tuple(self.conditions),
            quantities=self.quantities,
            missing_flags=tuple(self.missing),
        )


# ---------------------------------------------------------------------------
# q-values and memberships


class QInfo(Record):
    k: int
    q: int
    factor_count: int


def q_of_word(
    word: Sequence[int],
    m: int,
    exclude: frozenset[int] = frozenset(),
    expansion: NCPolynomial | None = None,
) -> QInfo:
    """q-value of a word lying in F^(m+1), from its factor partition.

    The word is w = G * r with G the product of the weight-(m+1)
    commutator factors of its degree-(m+1) Magnus slice and r a deeper
    residual; the factor generator sets and that of r (minus
    ``exclude``, the dual of the curve's own band) are partitioned into
    components and the minimal block generator count k feeds the
    two-branch bound at depth m.  A trivial word imposes no constraint
    and gets the k-free branch value q(m+1).

    ``expansion`` is the word's expansion at degree m+1 when the caller
    already has it (a passing membership's); otherwise the word is expanded
    here.  The residual is built only when it can change k: r = G^-1 * w
    uses only generators of w and of the factors, so when the factor
    sets form at most one block and that block covers the generators
    of w (both minus ``exclude``), r's set either is empty or lies inside
    the block and merges into it, and k is already exact.
    """
    word = reduce_word(word)
    if not word or m < 1:
        # trivial word, or depth 0 where membership in F^(1) says nothing:
        # no factorization constrains the curve
        return QInfo(0, bounds.q(m + 1), 0)
    if expansion is None:
        expansion = expand(word, m + 1)
    factors = decomp.stage_factors(expansion, m, m + 1)
    gensets = [s for s in (frozenset(entries) - exclude for entries, _ in factors) if s]
    partition, k = bounds.partition_k(gensets)
    covered = frozenset().union(*gensets)
    if len(partition.blocks) > 1 or not generators_in(word) - exclude <= covered:
        rest = generators_in(decomp.residual_word(word, factors)) - exclude
        if rest:
            _, k = bounds.partition_k(gensets + [rest])
    q = bounds.q_param(m, k) if k >= 1 else bounds.q(m + 1)
    return QInfo(k, q, len(factors))


class _Membership(Record):
    """One membership, kept for its q-value: ``word`` is the stage image or
    Schreier rewrite (None outside the closure), ``degree`` its lcs degree
    when at most ``depth``, ``expansion`` its staged expansion (up to depth+1)."""

    word: tuple[int, ...] | None
    depth: int
    exclude: frozenset[int]
    degree: int | None
    expansion: NCPolynomial | None
    detail: str

    @property
    def passed(self) -> bool:
        return self.word is not None and self.degree is None

    def q(self, depth: int | None = None) -> QInfo:
        """q-value at ``depth``; by default the membership depth, reusing the expansion."""
        if depth is None:
            return q_of_word(self.word, self.depth, self.exclude, self.expansion)
        return q_of_word(self.word, depth, self.exclude)


def _membership(word: Sequence[int], depth: int, *, index: int | None = None,
                subset: frozenset[int] | None = None) -> _Membership:
    """Membership of ``word`` in the (depth+1)-st lower central term.

    With ``index``: its stage image in F, whose q-value excludes the
    handle's x-dual.  With ``subset``: its Schreier rewrite in the normal
    closure of ``subset``.  Depth 0 expands nothing; the staged caps end
    at depth+1, so a member's expansion is the one its q-value reads.
    """
    exclude: frozenset[int] = frozenset()
    if index is not None:
        target = kill_generators(word, prefix_kill_set(index))
        exclude = frozenset({x_generator(index)})
    else:
        try:
            target = rewrite_to_word(word, subset)
        except NotInNormalClosure as exc:
            return _Membership(None, depth, exclude, None, None, f"not in normal closure: {exc}")
    degree = expansion = None
    if depth >= 1 and target:
        expansion = staged_expand(target, depth + 1)
        low = expansion.min_positive_degree()
        if low is not None and low <= depth:
            degree = low
    if degree is None:
        return _Membership(target, depth, exclude, None, expansion, f"lies in G^({depth + 1})")
    detail = f"closure lcs degree below {depth + 1}"
    return _Membership(target, depth, exclude, degree, expansion, detail)


# ---------------------------------------------------------------------------
# Orientation search


def _orientations(curves: Sequence[Curve]) -> Iterator[tuple[str, list[tuple[int, ...]]]]:
    """(epsilon, words) for epsilon = +, then -: the first curve read at
    epsilon, a second at -epsilon; orientations missing a pushoff are skipped."""
    for eps in ("+", "-"):
        words = [c.pushoff(s) for c, s in zip(curves, (eps, "-" if eps == "+" else "+"))]
        if all(w is not None for w in words):
            yield eps, words


def _orient(
    curves: Sequence[Curve], check: Callable[..., Sequence[_Membership]]
) -> tuple[str | None, list[tuple[str, Sequence[_Membership]]]]:
    """The first epsilon whose memberships (``check`` of its words) all pass,
    or None, and the (epsilon, memberships) of every orientation tried."""
    attempts = []
    for eps, words in _orientations(curves):
        attempts.append((eps, check(*words)))
        if all(m.passed for m in attempts[-1][1]):
            return eps, attempts
    return None, attempts


# ---------------------------------------------------------------------------
# n-hyperbolic


def certify_hyperbolic(cert: SurfaceCertificate, n: int | None = None) -> CertificateReport:
    """Check the staged quotient memberships of an ordered gamma half basis.

    Stage i kills the duals of the first i-1 handle pairs and requires
    the image of one of the two pushoffs of gamma_i to lie in the
    (n+1)-st lower central term.  On success the factor partitions give
    k_i, the q-values, and the triviality bound l(n, S) = min q_i - 1.
    """
    rb = _ReportBuilder("hyperbolic", cert, n, [FLAG_REGULAR_SPINE])
    n = rb.n
    a_curves = cert.curves_of_role("A")
    if [c.index for c in a_curves] != list(range(1, cert.genus + 1)):
        raise CertificateError("hyperbolic certificate needs A-curves indexed 1..g")
    q_values = []
    per_curve = {}
    for curve in a_curves:
        sign, tried = _orient((curve,), lambda w: (_membership(w, n, index=curve.index),))
        if not tried:
            raise CertificateError(f"curve {curve.name} has no pushoff word")
        if sign is None:
            detail = "; ".join(f"pushoff {s}: lcs degree {m.degree}" for s, (m,) in tried)
            rb.add("quotient-membership", "fail", curve.name, detail + f" < {n + 1}")
            continue
        rb.add(
            "quotient-membership",
            "pass",
            curve.name,
            f"pushoff {sign}: image in F^({n + 1}) after killing "
            f"{sorted(prefix_kill_set(curve.index))}",
        )
        info = tried[-1][1][0].q()
        q_values.append(info.q)
        per_curve[curve.name] = {
            "sign": sign,
            "k": info.k,
            "q": info.q,
            "factors": info.factor_count,
        }
    rb.quantities["per_curve"] = per_curve
    if q_values:
        l_value = bounds.l_n_S(q_values)
        rb.quantities["l_n_S"] = l_value
        rb.quantities["conclusion"] = vassiliev_conclusion(
            l_value,
            f"boundary knot is at least {l_value}-trivial; Vassiliev invariants "
            f"of orders <= {l_value} vanish",
        )
    else:
        rb.quantities["l_n_S"] = None
        rb.quantities["conclusion"] = (
            _TRIVIAL_BOUNDARY
            if cert.genus == 0
            else "no A-curve passed its quotient membership: no triviality bound"
        )
    return rb.finish()


# ---------------------------------------------------------------------------
# n-elliptic


def _paired_curves(cert: SurfaceCertificate) -> list[tuple[Curve, Curve]]:
    b_by_name = {c.name: c for c in cert.curves_of_role("B")}
    b_by_index = {c.index: c for c in cert.curves_of_role("B")}
    pairs = []
    used = set()
    for a in cert.curves_of_role("A"):
        if a.pair is not None:
            b = b_by_name.get(a.pair)
            if b is None:
                raise CertificateError(f"curve {a.name}: no B-curve named {a.pair!r}")
        else:
            b = b_by_index.get(a.index)
            if b is None:
                raise CertificateError(f"curve {a.name}: no dual B-curve with index {a.index}")
        if b.name in used:
            raise CertificateError(f"B-curve {b.name} paired twice")
        used.add(b.name)
        pairs.append((a, b))
    return pairs


def certify_elliptic(cert: SurfaceCertificate, n: int | None = None) -> CertificateReport:
    """Check paired normal-closure memberships and the q-sum for each pair.

    For each dual pair (A, B) one orientation epsilon must put the
    A-pushoff in the (m_A+1)-st lower central term of the closure of
    the A-duals and the opposite pushoff of B in the (m_B+1)-st term of
    the closure of the B-duals, with q_A + q_B = n + 1 computed from
    the Schreier-alphabet decompositions at depths m_A and m_B.
    """
    rb = _ReportBuilder("elliptic", cert, n, [FLAG_REGULAR_SPINE, FLAG_UNRELATED])
    s_a = a_dual_set(cert.genus)
    s_b = b_dual_set(cert.genus)
    per_pair = {}
    for a, b in _paired_curves(cert):
        if a.m is None or b.m is None:
            raise CertificateError(f"pair ({a.name}, {b.name}): membership depths m required")
        eps, tried = _orient(
            (a, b),
            lambda wa, wb: (_membership(wa, a.m, subset=s_a), _membership(wb, b.m, subset=s_b)),
        )
        if not tried:
            raise CertificateError(f"pair ({a.name}, {b.name}): no orientation has both pushoffs")
        if eps is None:
            for curve, at in zip((a, b), tried[0][1]):
                rb.add("closure-membership", "pass" if at.passed else "fail", curve.name, at.detail)
            continue
        at_a, at_b = tried[-1][1]
        rb.add("closure-membership", "pass", a.name, f"epsilon {eps}: {at_a.detail}")
        rb.add("closure-membership", "pass", b.name, f"epsilon -{eps}: {at_b.detail}")
        qa, qb = at_a.q(), at_b.q()
        per_pair[a.name] = {
            "epsilon": eps,
            "m_A": a.m,
            "m_B": b.m,
            "q_A": qa.q,
            "q_B": qb.q,
            "k_A": qa.k,
            "k_B": qb.k,
        }
        rb.equation("q-sum", a.name, (qa.q, qb.q))
    rb.quantities["per_pair"] = per_pair
    return rb.finish()


# ---------------------------------------------------------------------------
# n-parabolic


def certify_parabolic(
    cert: SurfaceCertificate, n: int | None = None, s: int | None = None
) -> CertificateReport:
    """Check the B-side closure memberships guarded by the simplicity s.

    With n <= s the definition imposes no word conditions and the
    certificate is vacuously acceptable; with n > s every B-pushoff must
    lie in the (m+1)-st term of the B-closure with q + s = n + 1.
    """
    rb = _ReportBuilder("parabolic", cert, n, [FLAG_REGULAR_SPINE, FLAG_UNRELATED])
    n = rb.n
    if s is None:
        s = cert.simplicity()
    if s is None:
        rb.missing.append("simplicity=<s>")
        rb.quantities["simplicity"] = None
        return rb.finish()
    if s < 1:
        raise CertificateError("simplicity must be >= 1")
    rb.quantities["simplicity"] = s
    if n <= s:
        rb.add("b-closure-conditions", "vacuous", None, f"n = {n} <= s = {s}")
        return rb.finish()
    s_b = b_dual_set(cert.genus)
    per_curve = {}
    for curve in cert.curves_of_role("B"):
        if curve.m is None:
            raise CertificateError(f"curve {curve.name}: membership depth m required")
        eps, tried = _orient((curve,), lambda w: (_membership(w, curve.m, subset=s_b),))
        if not tried:
            raise CertificateError(f"curve {curve.name} has no pushoff word")
        if eps is None:
            rb.add("closure-membership", "fail", curve.name, tried[0][1][0].detail)
            continue
        at = tried[-1][1][0]
        rb.add("closure-membership", "pass", curve.name, f"epsilon {eps}: {at.detail}")
        info = at.q()
        per_curve[curve.name] = {"epsilon": eps, "m": curve.m, "q": info.q, "k": info.k}
        rb.equation("q-plus-s", curve.name, (info.q, s))
    rb.quantities["per_curve"] = per_curve
    return rb.finish()


# ---------------------------------------------------------------------------
# n-unknotted


def _exclusion_holds(chi_a: bool, chi_b: bool, zeta: bool, mu: bool, x: bool) -> bool:
    """The mixed-type definition's exclusions, given which of chi_A, chi_B,
    zeta, mu and x^l are nontrivial: chi_A and chi_B are trivial together,
    and nontrivial exactly when zeta, mu and x^l are all trivial."""
    return chi_a == chi_b == (not (zeta or mu or x))


def certify_unknotted(cert: SurfaceCertificate, n: int | None = None) -> CertificateReport:
    """Check the witness factorizations of the mixed-type definition.

    Per pair: the supplied factors must multiply to the pushoffs; mu
    must survive the staged quotient at depth m_mu with q_mu = n+1; a
    chi-pair must sit in the two closures with q-sum n+1; zeta must sit
    in the B-closure with q + s = n+1; and the triviality pattern among
    the factors must match the definition's exclusions.  Equations are
    checked exactly as written even where the triviality bounds
    elsewhere use q-1; the report notes that tension.
    """
    rb = _ReportBuilder("unknotted", cert, n, [FLAG_REGULAR_SPINE])
    n = rb.n
    s = cert.simplicity()
    rb.quantities["simplicity"] = s
    rb.quantities["note"] = (
        "q-equations checked as written; the triviality bound downstream uses q-1"
    )
    s_a = a_dual_set(cert.genus)
    s_b = b_dual_set(cert.genus)
    per_pair = {}
    for a, b in _paired_curves(cert):
        fa = a.factors or UnknottedFactors()
        fb = b.factors or UnknottedFactors()
        # gamma_A = x^l chi mu exactly when gamma_A (chi mu)^-1 reduces to |l|
        # letters x, with x = x_i or x_i^-1 by the sign of l; x^l is never built
        x = x_generator(a.index) if fa.x_exponent >= 0 else -x_generator(a.index)
        chi_mu_inverse = invert(concat(fa.chi, fa.mu))
        product_b = concat(fb.zeta, fb.chi)
        eps = None
        for e, (wa, wb) in _orientations((a, b)):
            rest = concat(wa, chi_mu_inverse)
            if len(rest) == abs(fa.x_exponent) == rest.count(x) and product_b == reduce_word(wb):
                eps = e
                break
        if eps is None:
            rb.add(
                "factorization-product",
                "error",
                a.name,
                "supplied factors do not multiply to the pushoff words",
            )
            continue
        rb.add("factorization-product", "pass", a.name, f"epsilon {eps}")
        pair_data: dict = {"epsilon": eps}

        # (a) staged quotient membership of mu with q_mu = n+1
        if fa.mu:
            if fa.m_mu is None:
                raise CertificateError(f"curve {a.name}: m_mu required for nontrivial mu")
            mu = _membership(fa.mu, fa.m_mu, index=a.index)
            if mu.passed:
                rb.add("mu-membership", "pass", a.name, f"in F^({fa.m_mu + 1}) after quotient")
                info = mu.q()
                pair_data["q_mu"] = info.q
                if info.q == n + 1:
                    rb.add("mu-q-equation", "pass", a.name, f"q_mu = {n + 1}")
                else:
                    rb.add("mu-q-equation", "fail", a.name, f"q_mu = {info.q} != {n + 1}")
            else:
                rb.add("mu-membership", "fail", a.name, f"not in F^({fa.m_mu + 1})")
        else:
            rb.add("mu-membership", "vacuous", a.name, "mu = 1")

        # (b) chi-pair closure memberships with q-sum n+1
        if fa.chi or fb.chi:
            if not (fa.chi and fb.chi):
                rb.add("chi-pairing", "fail", a.name, "exactly one of chi_A, chi_B is trivial")
            else:
                if fa.m_chi is None or fb.m_chi is None:
                    raise CertificateError(
                        f"pair ({a.name}, {b.name}): m_chi required for nontrivial chi"
                    )
                at_a = _membership(fa.chi, fa.m_chi, subset=s_a)
                at_b = _membership(fb.chi, fb.m_chi, subset=s_b)
                for curve, at in ((a, at_a), (b, at_b)):
                    rb.add("chi-membership", "pass" if at.passed else "fail", curve.name, at.detail)
                if at_a.passed and at_b.passed:
                    qa, qb = at_a.q(), at_b.q()
                    pair_data["q_chi_A"] = qa.q
                    pair_data["q_chi_B"] = qb.q
                    rb.equation("chi-q-sum", a.name, (qa.q, qb.q))
        else:
            rb.add("chi-membership", "vacuous", a.name, "chi_A = chi_B = 1")

        # (c) exclusion pattern
        chi_a, chi_b, zeta, mu, x = map(bool, (fa.chi, fb.chi, fb.zeta, fa.mu, fa.x_exponent))
        if _exclusion_holds(chi_a, chi_b, zeta, mu, x):
            rb.add("exclusion-pattern", "pass", a.name)
        else:
            rb.add(
                "exclusion-pattern",
                "fail",
                a.name,
                f"chi_both={chi_a and chi_b} zeta=1:{not zeta} mu=1:{not mu} x^l=1:{not x}",
            )

        # (d) zeta closure membership with q + s = n+1
        if fb.zeta:
            if fb.m_zeta is None:
                raise CertificateError(f"curve {b.name}: m_zeta required for nontrivial zeta")
            zeta = _membership(fb.zeta, fb.m_zeta, subset=s_b)
            rb.add("zeta-membership", "pass" if zeta.passed else "fail", b.name, zeta.detail)
            if zeta.passed and s is not None:
                info = zeta.q()
                pair_data["q_zeta"] = info.q
                rb.equation("zeta-q-equation", b.name, (info.q, s))
            elif zeta.passed and "simplicity=<s>" not in rb.missing:
                rb.missing.append("simplicity=<s>")
        else:
            rb.add("zeta-membership", "vacuous", b.name, "zeta = 1")
        per_pair[a.name] = pair_data
    rb.quantities["per_pair"] = per_pair
    return rb.finish()


CERTIFIERS: dict[str, Callable[..., CertificateReport]] = {
    "hyperbolic": certify_hyperbolic,
    "elliptic": certify_elliptic,
    "parabolic": certify_parabolic,
    "unknotted": certify_unknotted,
}
