import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert.magnus import (
    LongitudeSystem,
    NCPolynomial,
    expand,
    fox_coefficient,
    lcs_at_least,
    lcs_degree,
    milnor_invariant,
    milnor_vanish_upto,
    nc_add,
    nc_inverse,
    nc_mul,
)
from knotcert.words import commutator_word, concat, invert, reduce_word

from conftest import words_strategy


def poly(degree, *terms):
    return NCPolynomial.from_terms(degree, terms)


class TestRingOps:
    def test_truncated_geometric_inverse(self):
        # (1+X)(1-X+X^2) = 1 at D=2
        a = poly(2, ((), 1), ((1,), 1))
        b = poly(2, ((), 1), ((1,), -1), ((1, 1), 1))
        assert nc_mul(a, b).is_one()

    def test_product_of_generators(self):
        a = poly(2, ((), 1), ((1,), 1))
        b = poly(2, ((), 1), ((2,), 1))
        assert nc_mul(a, b) == poly(2, ((), 1), ((1,), 1), ((2,), 1), ((1, 2), 1))

    def test_inverse_of_two_generator_unit(self):
        a = poly(2, ((), 1), ((1,), 1), ((2,), 1))
        inv = nc_inverse(a)
        assert nc_mul(a, inv).is_one()
        assert inv == poly(
            2, ((), 1), ((1,), -1), ((2,), -1),
            ((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), 1),
        )

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            nc_mul(NCPolynomial.one(2), NCPolynomial.one(3))
        with pytest.raises(ValueError):
            nc_add(NCPolynomial.one(2), NCPolynomial.one(3))

    def test_inverse_needs_unit(self):
        with pytest.raises(ValueError):
            nc_inverse(poly(2, ((), 2)))
        with pytest.raises(ValueError):
            nc_inverse(poly(2, ((1,), 1)))

    def test_terms_ordering(self):
        p = poly(2, ((2, 1), 1), ((1,), 2), ((), 3), ((1, 2), -1))
        assert p.terms() == [((), 3), ((1,), 2), ((1, 2), -1), ((2, 1), 1)]


class TestExpand:
    def test_generator(self):
        assert expand((1,), 3).terms() == [((), 1), ((1,), 1)]

    def test_inverse_generator(self):
        assert expand((-1,), 3).terms() == [
            ((), 1), ((1,), -1), ((1, 1), 1), ((1, 1, 1), -1)
        ]

    def test_commutator(self):
        p = expand(commutator_word((1, 2)), 2)
        assert p.terms() == [((), 1), ((1, 2), 1), ((2, 1), -1)]

    @settings(max_examples=60, deadline=None)
    @given(words_strategy(max_len=10), words_strategy(max_len=10))
    def test_multiplicative(self, u, v):
        d = 5
        assert nc_mul(expand(u, d), expand(v, d)) == expand(tuple(u) + tuple(v), d)

    @settings(max_examples=60, deadline=None)
    @given(words_strategy(max_len=10))
    def test_inverse_law(self, w):
        d = 5
        assert nc_mul(expand(w, d), expand(invert(w), d)).is_one()


def letter_series(letter, degree):
    """Magnus image of one letter built from its terms: 1 + X_g, or the
    truncated geometric series sum_j (-1)^j X_g^j for g^-1."""
    g = abs(letter)
    if letter > 0:
        return poly(degree, ((), 1), ((g,), 1))
    return poly(degree, *(((g,) * j, (-1) ** j) for j in range(degree + 1)))


def run_words(max_gen=4, max_len=25):
    """Words with a long run of one inverse letter between two short words."""
    return st.tuples(
        words_strategy(max_gen, 6),
        st.integers(1, max_gen),
        st.integers(5, 13),
        words_strategy(max_gen, 6),
    ).map(lambda t: (t[0] + (-t[1],) * t[2] + t[3])[:max_len])


class TestExpandAgainstSeriesProducts:
    """The in-place letterwise kernel against ordered products of
    independently built single-letter series."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(words_strategy(max_gen=4, max_len=25), run_words()),
        st.integers(1, 6),
    )
    def test_matches_product_of_letter_series(self, word, degree):
        expected = NCPolynomial.one(degree)
        for i, letter in enumerate(word):
            expected = nc_mul(expected, letter_series(letter, degree))
            # every prefix: the accumulator after each letter, not just the end
            got = expand(word[: i + 1], degree)
            assert got == expected
            assert all(c for bucket in got.buckets for c in bucket.values())
        assert expand(word, degree) == expected

    def test_long_inverse_run(self):
        # g^-13 has coefficient (-1)^j C(12+j, j) on X_g^j
        from math import comb

        p = expand((-2,) * 13, 6)
        assert p.terms() == [((2,) * j, (-1) ** j * comb(12 + j, j)) for j in range(7)]

    def test_cancelling_letters_leave_no_zeros(self):
        p = expand((1, 2, -2, -1, 3, 1, -1, -3), 4)
        assert p.is_one()
        assert p.buckets == [{0: 1}, {}, {}, {}, {}]

    def test_generator_range_checked(self):
        with pytest.raises(ValueError):
            expand((1, 1024), 3)
        with pytest.raises(ValueError):
            expand((-1024,), 3)


class TestLcsDegree:
    def test_weight_two(self):
        assert lcs_degree(commutator_word((1, 2)), 4) == 2

    def test_generator(self):
        assert lcs_degree((1,), 4) == 1

    def test_weight_three(self):
        assert lcs_degree(commutator_word((1, 2, 3)), 4) == 3

    def test_empty_exceeds(self):
        assert lcs_degree((), 4) is None

    def test_exceeds_bound(self):
        assert lcs_degree(commutator_word((1, 2, 3)), 2) is None

    def test_membership_helper(self):
        w = commutator_word((1, 2))
        assert lcs_at_least(w, 2) and not lcs_at_least(w, 3)

    def test_superadditivity(self, rng):
        for _ in range(25):
            u = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
            v = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
            u, v = reduce_word(u), reduce_word(v)
            bracket = concat(u, v, invert(u), invert(v))
            d = 6
            du = lcs_degree(u, d) or d + 1
            dv = lcs_degree(v, d) or d + 1
            db = lcs_degree(bracket, d) or d + 1
            assert db >= min(d + 1, du + dv)

    def test_weight_realization_small(self):
        for weight in (2, 3, 4):
            entries = tuple(range(1, weight + 1))
            assert lcs_degree(commutator_word(entries), weight) == weight


class TestFox:
    def test_single_letter(self):
        assert fox_coefficient((1,), (1,)) == 1

    def test_commutator_coefficients(self):
        w = commutator_word((1, 2))
        assert fox_coefficient(w, (1, 2)) == 1
        assert fox_coefficient(w, (2, 1)) == -1

    def test_empty_word(self):
        assert fox_coefficient((), (1, 2)) == 0


def hopf():
    return LongitudeSystem(2, ((2,), (1,)))


def borromean():
    return LongitudeSystem(
        3,
        (commutator_word((2, 3)), commutator_word((3, 1)), commutator_word((1, 2))),
    )


class TestMilnor:
    def test_hopf_linking(self):
        assert milnor_invariant(hopf(), (1, 2)) == 1

    def test_borromean_triple(self):
        system = borromean()
        assert milnor_invariant(system, (1, 2, 3)) == 1
        assert milnor_invariant(system, (2, 1, 3)) == -1
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    assert milnor_invariant(system, (i, j)) == 0

    def test_trivial_system(self):
        system = LongitudeSystem(2, ((), ()))
        assert milnor_invariant(system, (1, 2)) == 0
        assert milnor_vanish_upto(system, 7) is True

    def test_index_validation(self):
        with pytest.raises(ValueError):
            milnor_invariant(hopf(), (1,))
        with pytest.raises(ValueError):
            milnor_invariant(hopf(), (1, 3))

    def test_gcd_reduction(self):
        # l3 = g1^3 g2: mu(13) = 3, mu(23) = 1; mu(123) reduced modulo
        # gcd over single-deletion subindices
        system = LongitudeSystem(3, ((), (), reduce_word((1, 1, 1, 2))))
        raw = milnor_invariant(system, (1, 1, 3))
        assert raw == 3
        reduced = milnor_invariant(system, (1, 1, 3), reduced=True)
        assert reduced == raw % 3

    def test_gcd_zero_means_raw(self):
        assert milnor_invariant(hopf(), (1, 2), reduced=True) == 1

    def test_vanish_thresholds(self):
        assert milnor_vanish_upto(hopf(), 1) is False
        assert milnor_vanish_upto(borromean(), 1) is True
        assert milnor_vanish_upto(borromean(), 2) is False

    def test_vanish_equivalence_with_coefficients(self, rng):
        # coefficient vanishing up to length n+1 == every longitude in F^(n+1)
        from itertools import product

        for _ in range(10):
            n = rng.randint(1, 3)
            r = rng.randint(2, 3)
            longs = []
            for _ in range(r):
                if rng.random() < 0.4:
                    longs.append(())
                else:
                    longs.append(
                        tuple(rng.choice([1, -1, 2, -2, r, -r]) for _ in range(rng.randint(0, 6)))
                    )
            system = LongitudeSystem(r, tuple(reduce_word(w) for w in longs))
            by_lcs = milnor_vanish_upto(system, n)
            by_coeffs = True
            for k in range(2, n + 2):
                for index in product(range(1, r + 1), repeat=k):
                    if milnor_invariant(system, index) != 0:
                        by_coeffs = False
                        break
                if not by_coeffs:
                    break
            assert by_lcs == by_coeffs

    def test_longitude_generator_range(self):
        with pytest.raises(ValueError):
            LongitudeSystem(2, ((3,), ()))
