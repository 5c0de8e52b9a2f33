from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert import magnus
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


# up to twelve (monomial, coefficient) terms of degree <= 3 over three generators
TERMS = st.lists(st.tuples(st.lists(st.integers(1, 3), max_size=3).map(tuple),
                           st.integers(-3, 3)), max_size=12)


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

    def test_unhashable(self):
        # a class that defines __eq__ alone gets __hash__ = None
        with pytest.raises(TypeError, match="unhashable type: 'NCPolynomial'"):
            hash(NCPolynomial.one(2))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            nc_mul(NCPolynomial.one(2), NCPolynomial.one(3))
        with pytest.raises(ValueError):
            nc_add(NCPolynomial.one(2), NCPolynomial.one(3))

    @given(TERMS, TERMS)
    def test_add_against_coefficient_sums(self, a_terms, b_terms):
        # b also carries the negation of every other term of a, so sums
        # that cancel to zero must drop out
        b_terms += [(mon, -c) for mon, c in a_terms[::2]]
        sums = {}
        for mon, c in a_terms + b_terms:
            sums[mon] = sums.get(mon, 0) + c
        total = nc_add(poly(3, *a_terms), poly(3, *b_terms))
        assert dict(total.terms()) == {mon: c for mon, c in sums.items() if c}
        assert total == poly(3, *sums.items())

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

    def test_degree_checked_by_polynomial(self):
        # NCPolynomial owns the degree check, after the generator check
        with pytest.raises(ValueError, match="truncation degree must be >= 1"):
            expand((1, 2), 0)
        with pytest.raises(ValueError, match="generator index 1024 out of range"):
            expand((1024,), 0)


def sparse_expand(word, degree):
    """The dict kernel alone, letter by letter."""
    p = NCPolynomial.one(degree)
    for letter in word:
        magnus._mul_letter(p, letter)
    return p


def packed_expand(word, degree):
    """The packed-slot kernel alone, from the first letter."""
    p = NCPolynomial.one(degree)
    gens = sorted({abs(letter) for letter in word})
    p.buckets[1:] = magnus._expand_packed(tuple(word), degree, gens)
    return p


def no_zeros(p):
    return all(c for bucket in p.buckets for c in bucket.values())


SCATTERED = (1, 2, 7, 1023)


def scattered_words(max_len=30):
    """Words over non-contiguous generators, some with long inverse runs."""
    relabel = lambda w: tuple(SCATTERED[abs(x) - 1] * (1 if x > 0 else -1) for x in w)
    return st.one_of(words_strategy(4, max_len), run_words(4, max_len)).map(relabel)


class TestPackedKernel:
    """Packed slots against the dict kernel, and the rule choosing them."""

    @settings(max_examples=60, deadline=None)
    @given(scattered_words(), st.integers(1, 8))
    def test_matches_sparse(self, word, degree):
        expected = sparse_expand(word, degree)
        got = packed_expand(word, degree)
        assert got == expected and no_zeros(got)
        assert expand(word, degree) == expected

    @pytest.mark.parametrize("length,degree", [(13, 6), (40, 8), (200, 4)])
    def test_slot_width_is_tight(self, monkeypatch, length, degree):
        # g^-L has coefficient (-1)^d C(L+d-1, d) on X_g^d: at d = D this
        # is the bound the width is set from, so one bit less must fail
        word = (-7,) * length
        want = [((7,) * d, (-1) ** d * comb(length + d - 1, d)) for d in range(degree + 1)]
        assert packed_expand(word, degree).terms() == want
        width = magnus._slot_width(length, degree)
        assert comb(length + degree - 1, degree).bit_length() == width - 1
        monkeypatch.setattr(magnus, "_slot_width", lambda n, d: width - 1)
        try:
            narrow = packed_expand(word, degree).terms()
        except IndexError:  # the overflow carried past the last slot
            narrow = None
        assert narrow != want

    def test_cancelling_word_stores_no_zeros(self):
        word = (1, 7, -2, 7, 1023, -1, 2, 2)
        p = packed_expand(word + invert(word), 6)
        assert p.buckets == [{0: 1}, {}, {}, {}, {}, {}, {}]

    @staticmethod
    def spy(monkeypatch):
        calls = []
        packed = magnus._expand_packed

        def recorded(word, degree, gens):
            calls.append(len(word))
            return packed(word, degree, gens)

        monkeypatch.setattr(magnus, "_expand_packed", recorded)
        return calls

    def test_table_cap(self, monkeypatch):
        word, degree = (1, 2, -1, 7) * 10, 5
        table = sum(3**d for d in range(degree + 1))
        expected = sparse_expand(word, degree)
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(magnus, "_PACK_FILL", table * len(word))
        for cap, packs in ((table, True), (table - 1, False)):
            calls.clear()
            monkeypatch.setattr(magnus, "_PACK_SLOTS", cap)
            assert expand(word, degree) == expected
            assert bool(calls) is packs

    def test_fill_switch(self, monkeypatch):
        # the smallest fill constant that switches at some letter does,
        # and one less never does
        word, degree = (1, -2, -2, 7, 1, -7, 2, 1) * 3, 7
        table, length = sum(3**d for d in range(degree + 1)), len(word)
        p, needed = NCPolynomial.one(degree), []
        for done, letter in enumerate(word, 1):
            magnus._mul_letter(p, letter)
            rest = length - done - magnus._PACK_DECODE
            if rest > 0:
                count = sum(map(len, p.buckets))
                needed.append(-(-table * length // (count * rest)))
        fill = min(needed)
        expected = sparse_expand(word, degree)
        calls = self.spy(monkeypatch)
        for constant, packs in ((fill, True), (fill - 1, False)):
            calls.clear()
            monkeypatch.setattr(magnus, "_PACK_FILL", constant)
            assert expand(word, degree) == expected
            assert bool(calls) is packs

    @pytest.mark.parametrize("bad", [0, 1024, -1024])
    def test_range_checked_on_both_paths(self, monkeypatch, bad):
        word = (1, 2, -1, -2) * 8 + (bad, 1)
        messages = []
        for fill in (0, 1 << 40):  # never packs / packs after one letter
            monkeypatch.setattr(magnus, "_PACK_FILL", fill)
            with pytest.raises(ValueError) as exc:
                expand(word, 4)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert f"generator index {abs(bad)} out of range" in messages[0]


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
    @settings(max_examples=60, deadline=None)
    @given(
        words_strategy(max_gen=5, max_len=30),
        st.lists(st.integers(1, 5), min_size=1, max_size=4),
    )
    def test_unused_generators_dropped(self, word, indices):
        k = len(indices)
        assert fox_coefficient(word, indices) == expand(word, k).coefficient(indices)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.sampled_from([1, -1]), st.integers(1, 5)),
            max_size=10,
        ),
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=4),
    )
    def test_runs_against_dense_expansion(self, letter_runs, index_runs):
        # runs of one inverse letter and indices repeating one generator
        # are where the bottom-up and top-down order of the count matters
        word = [g * sign for g, sign, n in letter_runs for _ in range(n)]
        indices = [g for g, n in index_runs for _ in range(n)][:6]
        k = len(indices)
        assert fox_coefficient(word, indices) == expand(word, k).coefficient(indices)

    def test_range_checked_before_dropping(self):
        with pytest.raises(ValueError, match="2000"):
            fox_coefficient((1, 2000), (1,))
        with pytest.raises(ValueError, match="1024"):
            fox_coefficient((1, 2), (1, 1024))

    @pytest.mark.parametrize(
        "word,indices,bad", [((1,), (0,), 0), ((1,), (2, -3), -3), ((1, 0), (1,), 0)]
    )
    def test_zero_and_negative_rejected(self, word, indices, bad):
        with pytest.raises(ValueError, match=f"generator index {bad} out of range 1..1023"):
            fox_coefficient(word, indices)

    def test_empty_index_is_one_before_any_check(self):
        assert fox_coefficient((2000, 0), ()) == 1

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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.lists(words_strategy(r, 14), min_size=r, max_size=r),
                st.lists(st.integers(1, r), min_size=2, max_size=5),
            )
        )
    )
    def test_reduced_against_recursion(self, case):
        r, longitudes, index = case
        system = LongitudeSystem(r, tuple(longitudes))

        def by_recursion(index):
            raw = milnor_invariant(system, index)
            modulus = 0
            for drop in range(len(index)):
                sub = tuple(index[:drop]) + tuple(index[drop + 1:])
                if len(sub) >= 2:
                    modulus = gcd(modulus, milnor_invariant(system, sub))
            return raw % modulus if modulus else raw

        assert milnor_invariant(system, index, reduced=True) == by_recursion(index)

    @pytest.mark.parametrize(
        "longitudes",
        [
            # only mu(12) = 2 (from l2 = g1^2) reduces mu(123) = 3
            ((), (1, 1), (1, 2, -1, -2) * 3),
            # only mu(13) = 2 (from l3's g1^2) reduces it
            ((), (), (1, 1) + (1, 2, -1, -2) * 3),
        ],
    )
    def test_each_sub_index_reduces(self, longitudes):
        system = LongitudeSystem(3, longitudes)
        assert milnor_invariant(system, (1, 2, 3)) == 3
        assert milnor_invariant(system, (1, 2, 3), reduced=True) == 1

    def test_no_series_expansion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("series expansion")

        for name in ("expand", "_mul_letter", "_expand_packed"):
            monkeypatch.setattr(magnus, name, refuse)
        assert fox_coefficient(commutator_word((1, 2)), (2, 1)) == -1
        assert milnor_invariant(borromean(), (1, 2, 3)) == 1
        # mu(123) = 3 reduced modulo mu(12) = 2
        system = LongitudeSystem(3, ((), (1, 1), (1, 2, -1, -2) * 3))
        assert milnor_invariant(system, (1, 2, 3), reduced=True) == 1

    def test_longitude_generator_range(self):
        with pytest.raises(ValueError):
            LongitudeSystem(2, ((3,), ()))
