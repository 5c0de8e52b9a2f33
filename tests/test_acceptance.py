"""Acceptance suite: one test per criterion, timed against its budget.

Each test prints a single ``criterion N: PASS`` line (run pytest with
``-s`` to see them live).  Expected values come from independent
oracles computed inline: hand expansions, closed-form series, direct
polynomial determinants, and re-derivations of the arithmetic bounds.
"""

import json
import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

from knotcert.bounds import (
    check_inequalities,
    conflict_max,
    l_n_S,
    product_bound_check,
    q,
    q_param,
    t,
)
from knotcert.certify import (
    CertificateError,
    GuardViolation,
    certificate_from_dict,
    certifier,
)
from knotcert.decomp import decompose
from knotcert.magnus import expand, lcs_degree, nc_mul
from knotcert.milnor import LongitudeSystem, milnor_invariant
from knotcert.pipeline import spine_link_pipeline
from knotcert.schreier import normal_closure_lcs_degree, schreier_rewrite, schreier_substitute
from knotcert.seifert import SeifertMatrix, alexander, anti_block_determinant_check
from knotcert.series import LaurentPolynomial, mmr_series
from knotcert.synth import (
    mutate_certificate,
    twist_unknotted_example,
)
from knotcert.translate import translate_certificate
from knotcert.trivializer import build_letter_sets, successive_entry_check, verify_family
from knotcert.words import commutator_word, conjugate, invert, reduce_word

from conftest import expand_commutator, spine_example
from det_oracle import poly_matrix_det

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"


class Budget:
    def __init__(self, number: int, limit: float, what: str):
        self.number = number
        self.limit = limit
        self.what = what

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"criterion {self.number}: PASS ({elapsed:.2f}s / {self.limit:.0f}s) {self.what}")
            assert elapsed <= self.limit, f"criterion {self.number} exceeded {self.limit}s"
        else:
            print(f"criterion {self.number}: FAIL ({elapsed:.2f}s) {self.what}")
        return False


def random_word(rng, max_gen, max_len):
    letters = [s * g for g in range(1, max_gen + 1) for s in (1, -1)]
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def test_criterion_1_magnus_correctness():
    with Budget(1, 10.0, "Magnus multiplicativity and inverse law, 500 pairs"):
        rng = random.Random(101)
        for _ in range(500):
            max_gen = rng.randint(1, 4)
            u = random_word(rng, max_gen, 12)
            v = random_word(rng, max_gen, 12)
            eu, ev = expand(u, 6), expand(v, 6)
            assert nc_mul(eu, ev) == expand(u + v, 6)
            assert nc_mul(eu, expand(invert(u), 6)).is_one()


def test_criterion_2_weight_realization():
    with Budget(2, 5.0, "lcs degree of simple commutators equals weight, 2..6"):
        # exhaustive over all orderings of the w-letter alphabet, via the
        # sparse structural expansion
        for weight in range(2, 7):
            for entries in permutations(range(1, weight + 1)):
                assert expand_commutator(entries, weight).min_positive_degree() == weight
        # independent letterwise route: exhaustive through weight 5,
        # sampled at weight 6
        for weight in range(2, 6):
            for entries in permutations(range(1, weight + 1)):
                assert lcs_degree(commutator_word(entries), weight) == weight
        rng = random.Random(102)
        pool = list(permutations(range(1, 7)))
        for entries in rng.sample(pool, 8):
            assert lcs_degree(commutator_word(entries), 6) == 6


def test_criterion_3_trivializer_exhaustive():
    with Budget(3, 60.0, "all small entry sequences and sampled products trivialize"):
        letters = [s * g for g in (1, 2, 3) for s in (1, -1)]
        for weight in (2, 3, 4):
            for entries in product(letters, repeat=weight):
                if not successive_entry_check(entries):
                    continue
                tagged, family = build_letter_sets([entries])
                check = verify_family(tagged, family)
                assert check.ok, entries
                assert check.checked == (1 << weight) - 1
        rng = random.Random(103)
        for _ in range(300):
            weight = rng.choice([2, 3, 4])
            factors = []
            for _ in range(rng.randint(2, 3)):
                while True:
                    e = tuple(rng.choice(letters) for _ in range(weight))
                    if successive_entry_check(e):
                        factors.append(e)
                        break
            tagged, family = build_letter_sets(factors)
            insertions = [
                (rng.randrange(len(tagged) + 1), rng.choice(letters))
                for _ in range(rng.randint(0, 2))
            ]
            tagged, family = build_letter_sets(factors, insertions)
            assert verify_family(tagged, family).ok, (factors, insertions)


def test_criterion_4_decomposition_soundness():
    with Budget(4, 60.0, "decompose leaves residual of degree > 5, 200 cases"):
        rng = random.Random(104)
        letters = [s * g for g in (1, 2, 3) for s in (1, -1)]
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(1, 2)):
                entries = tuple(rng.choice([1, 2, 3]) for _ in range(3))
                conj = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                parts.append(conjugate(commutator_word(entries), conj))
            word = reduce_word([letter for p in parts for letter in p])
            comb = decompose(word, 2, 5)
            assert lcs_degree(comb.residual, 5) is None
            assert reduce_word(comb.product_word() + comb.residual) == word


def test_criterion_5_schreier_consistency():
    with Budget(5, 30.0, "Schreier round-trip and full-subset degree agreement"):
        rng = random.Random(105)
        letters = [s * g for g in (1, 2, 3, 4) for s in (1, -1)]
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(1, 6)):
                conj = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                base = rng.choice([1, -1, 2, -2])
                parts.append(conjugate((base,), conj))
            word = reduce_word([letter for p in parts for letter in p])
            assert schreier_substitute(schreier_rewrite(word, {1, 2})) == word
            everything = {1, 2, 3, 4}
            assert normal_closure_lcs_degree(word, everything, 5) == lcs_degree(word, 5)


def test_criterion_6_milnor_values():
    with Budget(6, 1.0, "Hopf and Borromean-style Milnor invariants"):
        hopf = LongitudeSystem(2, ((2,), (1,)))
        assert milnor_invariant(hopf, (1, 2)) == 1
        borromean = LongitudeSystem(
            3,
            (commutator_word((2, 3)), commutator_word((3, 1)), commutator_word((1, 2))),
        )
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    assert milnor_invariant(borromean, (i, j)) == 0
        assert milnor_invariant(borromean, (1, 2, 3)) in (1, -1)
        assert milnor_invariant(borromean, (1, 2, 3)) == 1


def test_criterion_7_alexander_values():
    with Budget(7, 1.0, "trefoil, figure-eight and Whitehead-double family"):
        trefoil = alexander(SeifertMatrix(1, ((-1, 1), (0, -1))))
        assert trefoil.as_dict() == {-1: 1, 0: -1, 1: 1}
        figure8 = alexander(SeifertMatrix(1, ((1, 1), (0, -1))))
        assert figure8.as_dict() == {-1: -1, 0: 3, 1: -1}
        for twists in range(-5, 6):
            doubled = alexander(SeifertMatrix(1, ((0, 1), (0, twists))))
            assert doubled.as_dict() == {0: 1}


def test_criterion_8_anti_block_identity():
    with Budget(8, 10.0, "block determinant identity vs direct oracle, 100 cases"):
        rng = random.Random(108)
        for _ in range(100):
            g = rng.randint(1, 3)
            mk = lambda: tuple(
                tuple(rng.randint(-3, 3) for _ in range(g)) for _ in range(g)
            )
            a, b, z = mk(), mk(), mk()
            assert anti_block_determinant_check(a, b, z)
            # independent oracle: direct 2g x 2g polynomial determinant is
            # unchanged when Z is replaced
            rows1 = [list((0,) * g) + list(a[i]) for i in range(g)]
            rows1 += [list(b[i]) + list(z[i]) for i in range(g)]
            trimmed = [
                [_trim([rows1[i][j], -rows1[j][i]]) for j in range(2 * g)]
                for i in range(2 * g)
            ]
            zero_z = [list((0,) * g) + list(a[i]) for i in range(g)]
            zero_z += [list(b[i]) + list((0,) * g) for i in range(g)]
            trimmed_zero = [
                [_trim([zero_z[i][j], -zero_z[j][i]]) for j in range(2 * g)]
                for i in range(2 * g)
            ]
            assert poly_matrix_det(trimmed) == poly_matrix_det(trimmed_zero)


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_criterion_9_mmr_series():
    with Budget(9, 5.0, "canonical series against the closed-form oracle"):
        # oracle: p(h) = sum (h/2)^{2k} / (2k+1)!
        oracle = [Fraction(0)] * 5
        for k in range(3):
            if 2 * k <= 4:
                oracle[2 * k] = Fraction(1, 4**k) / factorial(2 * k + 1)
        series = mmr_series(LaurentPolynomial.one(), 4)
        assert list(series.coefficients) == oracle
        # v1 vanishes for 50 random symmetric polynomials with Delta(1) = 1
        rng = random.Random(109)
        for _ in range(50):
            data = {0: 1}
            for e in range(1, rng.randint(2, 4)):
                c = rng.randint(-3, 3)
                if c:
                    data[e] = data.get(e, 0) + c
                    data[-e] = data.get(-e, 0) + c
                    data[0] -= 2 * c
            delta = LaurentPolynomial.from_dict(data)
            assert delta.is_symmetric() and delta(1) == 1
            assert mmr_series(delta, 3)[1] == 0
        # trefoil v2 by explicit series division: Delta(e^h) = 1 + h^2 + ...
        trefoil = alexander(SeifertMatrix(1, ((-1, 1), (0, -1))))
        series = mmr_series(trefoil, 2)
        assert series[2] == Fraction(1, 24) - 1 == Fraction(-23, 24)


def test_criterion_10_bounds():
    with Budget(10, 1.0, "bound functions vs re-derivations and inequality sweep"):
        # independent re-derivations
        for m in range(0, 60):
            quotient = 0
            while 6 * (quotient + 1) <= m:
                quotient += 1
            assert q(m) == quotient
            quarter = 0
            while 4 * (quarter + 1) <= m:
                quarter += 1
            assert t(m) == quarter
        for n in range(0, 40):
            for k in range(1, 5):
                if n < 6 * k:
                    expected = q(n + 1)
                else:
                    value = Fraction(n + 1 - 6 * k, 6)
                    e = -10
                    while Fraction(2) ** (e + 1) <= value:
                        e += 1
                    expected = k + e
                assert q_param(n, k) == expected, (n, k)
        rng = random.Random(110)
        for _ in range(40):
            qs = [rng.randint(-3, 9) for _ in range(rng.randint(1, 6))]
            assert l_n_S(qs) == min(qs) - 1
        for n in range(6, 201):
            assert check_inequalities(n).all_hold, n
        assert conflict_max(2) == 2 and conflict_max(3) == 6 and conflict_max(1) == 0
        assert product_bound_check(13, 1, 4, 2)
        assert product_bound_check(20, 1, 3, 3)
        assert product_bound_check(22, 2, 3, 2)


def _load(name):
    return certificate_from_dict(json.loads((DATA / name).read_text()))


def test_criterion_11_certificates_and_mutation():
    with Budget(11, 120.0, "shipped certificates verify; >= 95% of mutants flip"):
        shipped = [
            _load("hyperbolic_g2_n3.json"),
            _load("hyperbolic_g3_n5.json"),
            _load("elliptic_g1_n2.json"),
            _load("parabolic_g1_n2.json"),
            _load("unknotted_g1_n2.json"),
        ]
        for cert in shipped:
            report = certifier(cert.kind)(cert)
            assert report.verdict == "valid", (cert.kind, report.conditions)
        rng = random.Random(111)
        flips = 0
        for i in range(100):
            cert = shipped[i % len(shipped)]
            mutant = mutate_certificate(cert, rng)
            try:
                flips += certifier(mutant.kind)(mutant).verdict != "valid"
            except (CertificateError, ValueError):
                flips += 1
        print(f"  [criterion 11] mutants flipped: {flips}/100")
        assert flips >= 95


def test_criterion_12_level_shift_translations():
    with Budget(12, 30.0, "valid sources re-verify after translation; guards reject"):
        # (a) 2n-elliptic -> n-hyperbolic on the shipped certificate
        result = translate_certificate(_load("elliptic_g1_n2.json"), 1)
        assert result.certificate.kind == "hyperbolic"
        assert result.certificate.n == 1
        assert result.report.verdict == "valid"
        # (c) 2n-unknotted -> (2n-s-1)-unknotted on the twist family
        for n, s in ((4, 1), (6, 1), (6, 3)):
            source = twist_unknotted_example(n=n, s=s)
            result = translate_certificate(source, n // 2)
            assert result.certificate.n == n - s - 1
            assert result.report.verdict == "valid", (n, s)
        # identity translation
        cert = _load("hyperbolic_g2_n3.json")
        assert translate_certificate(cert, 3).report.verdict == "valid"
        # guard rejections: the parabolic shift needs n > s+1 and the
        # unknotted shift 2n > s+1
        with pytest.raises(GuardViolation):
            translate_certificate(_load("parabolic_g1_n2.json"), 2)
        with pytest.raises(GuardViolation):
            translate_certificate(twist_unknotted_example(n=4, s=3), 2)


def test_criterion_13_spine_pipeline():
    with Budget(13, 5.0, "weight-(n+1) pushoffs vanish exactly; generators fail at 2"):
        for genus, n in ((1, 2), (2, 3)):
            cert = spine_example(genus, n)
            signs = "+" * (2 * genus)
            report = spine_link_pipeline(cert, signs, n)
            assert report.verdict == "valid" and report.milnor_vanish
            # each pushoff decomposes into one pair-alphabet factor, so
            # every curve contributes q_param(n, 1)
            assert report.l_n_S == q_param(n, 1) - 1
            deeper = spine_link_pipeline(cert, signs, n + 1)
            assert deeper.milnor_vanish is False
        # single-generator pushoff fails at length 2
        from knotcert.certify import Curve, SurfaceCertificate

        cert = SurfaceCertificate(
            kind="hyperbolic",
            genus=1,
            n=1,
            curves=(
                Curve(name="a1", role="A", index=1, pushoff_plus=(2,)),
                Curve(name="b1", role="B", index=1, pushoff_plus=()),
            ),
            asserted_flags=("admissible-spine",),
        )
        report = spine_link_pipeline(cert, "++", 1)
        assert report.milnor_vanish is False
