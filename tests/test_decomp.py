import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_commutator, letters_strategy, words_strategy
from knotcert import decomp, words
from knotcert.certify import certificate_from_dict
from knotcert.cli import main
from knotcert.decomp import decompose, lie_component
from knotcert.lyndon import (
    bracketing,
    is_lyndon,
    left_normed_combination,
    left_normed_form,
    left_normed_lie_polynomial,
    lie_coordinates,
    lyndon_lie_polynomial,
    standard_factorization,
)
from knotcert.magnus import expand, lcs_degree
from knotcert.schreier import rewrite_to_word
from knotcert.words import commutator_word, concat, conjugate, invert, reduce_word

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"


def lyndon_words(alphabet, length):
    """All Lyndon words of the given length over a sorted alphabet (Duval)."""
    letters = sorted(alphabet)
    if not letters or length < 1:
        return []
    k = len(letters)
    out = []
    w = [0]
    while True:
        if len(w) == length:
            out.append(tuple(letters[i] for i in w))
        # extend periodically, then increment
        w = [w[i % len(w)] for i in range(length)]
        while w and w[-1] == k - 1:
            w.pop()
        if not w:
            return out
        w[-1] += 1


class TestLyndonWords:
    def test_counts_two_letters(self):
        # necklace counts over a binary alphabet
        for length, count in [(1, 2), (2, 1), (3, 2), (4, 3), (5, 6), (6, 9)]:
            words = lyndon_words((1, 2), length)
            assert len(words) == count
            assert words == sorted(words)
            assert all(is_lyndon(w) for w in words)

    def test_rejects_non_lyndon(self):
        assert not is_lyndon((2, 1))
        assert not is_lyndon((1, 2, 1, 2))
        assert not is_lyndon(())

    def test_standard_factorization(self):
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
        assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))

    def test_bracketing_shape(self):
        assert bracketing((1, 1, 2)) == (1, (1, 2))
        assert bracketing((1, 2, 2)) == ((1, 2), 2)


class TestTriangularity:
    def test_leading_coefficient(self):
        for degree in range(2, 7):
            for u in lyndon_words((1, 2, 3), degree):
                poly = lyndon_lie_polynomial(u)
                assert poly[u] == 1
                assert min(poly) == u

    def test_left_normed_form_matches_lie_element(self):
        for degree in range(2, 6):
            for u in lyndon_words((1, 2, 3), degree):
                total = {}
                for entries, c in left_normed_form(u).items():
                    for mon, pc in left_normed_lie_polynomial(entries).items():
                        total[mon] = total.get(mon, 0) + c * pc
                        if not total[mon]:
                            del total[mon]
                assert total == lyndon_lie_polynomial(u)

    def test_lie_coordinates_roundtrip(self, rng):
        for _ in range(25):
            degree = rng.randint(2, 5)
            basis = lyndon_words((1, 2), degree)
            combo = {}
            for _ in range(rng.randint(1, 3)):
                u = rng.choice(basis)
                c = rng.choice([-2, -1, 1, 2, 3])
                combo[u] = combo.get(u, 0) + c
            combo = {k: v for k, v in combo.items() if v}
            element = {}
            for u, c in combo.items():
                for mon, pc in lyndon_lie_polynomial(u).items():
                    element[mon] = element.get(mon, 0) + c * pc
                    if not element[mon]:
                        del element[mon]
            assert dict(lie_coordinates(element)) == combo

    def test_non_lie_element_detected(self):
        with pytest.raises(RuntimeError):
            lie_coordinates({(2, 1): 1})  # yx alone is not a Lie element

    def test_left_normed_combination_drops_degenerate(self):
        out = left_normed_combination({(1, 2): 1, (2, 1): -1})
        assert out == {(1, 2): 1}

    def test_left_normed_combination_degree_one(self):
        # a one-letter Lyndon word is its own left-normed bracket
        assert left_normed_combination({(3,): 2, (1,): -1}) == {(3,): 2, (1,): -1}

    def test_returned_dicts_are_fresh(self):
        # a caller that edits a result must not change the next call's result
        poly = lyndon_lie_polynomial((1, 2))
        poly[(1, 2)] = 5
        assert lyndon_lie_polynomial((1, 2)) == {(1, 2): 1, (2, 1): -1}
        form = left_normed_form((1, 1, 2))
        expected = dict(form)
        form[(1, 2)] = 7
        assert left_normed_form((1, 1, 2)) == expected


class TestExpandCommutator:
    def test_matches_letterwise(self):
        for entries in [(1, 2), (1, 2, 3), (2, 1, 3, 1), (1, 2, 1, 2), (1, 2, 3, 2)]:
            degree = len(entries) + 1
            assert expand_commutator(entries, degree) == expand(
                commutator_word(entries), degree
            )

    def test_weight_realized(self):
        for weight in range(2, 7):
            entries = tuple(range(1, weight + 1))
            assert expand_commutator(entries, weight).min_positive_degree() == weight


class TestLieComponent:
    def test_commutator(self):
        assert lie_component(commutator_word((1, 2)), 2) == {(1, 2): 1, (2, 1): -1}

    def test_empty(self):
        assert lie_component((), 3) == {}

    def test_square(self):
        w = concat(commutator_word((1, 2)), commutator_word((1, 2)))
        assert lie_component(w, 2) == {(1, 2): 2, (2, 1): -2}

    def test_too_shallow(self):
        with pytest.raises(ValueError):
            lie_component((1,), 2)


def random_f3_element(rng):
    parts = []
    for _ in range(rng.randint(1, 2)):
        entries = tuple(rng.choice([1, 2, 3]) for _ in range(3))
        conj = tuple(
            rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 4))
        )
        parts.append(conjugate(commutator_word(entries), conj))
    return reduce_word([letter for p in parts for letter in p])


class TestDecompose:
    def test_single_commutator(self):
        comb = decompose(commutator_word((1, 2)), 1, 2)
        assert comb.factors == (((1, 2), 1),)
        assert comb.residual == ()
        assert comb.valid_mod_degree == 2

    def test_two_factor_product(self):
        w = concat(commutator_word((1, 2)), commutator_word((2, 3)))
        comb = decompose(w, 1, 2)
        assert len(comb.factors) == 2
        assert lcs_degree(comb.residual, 2) is None

    def test_inverse_factor(self):
        comb = decompose(invert(commutator_word((1, 2))), 1, 2)
        assert comb.factors == (((1, 2), -1),)

    def test_conjugated_weight3(self, rng):
        for _ in range(8):
            w = conjugate(commutator_word((1, 2, 3)), (rng.choice([1, -2, 3]), rng.choice([2, -1])))
            comb = decompose(w, 2, 5)
            # residual is trivial through degree 5 by the Magnus check
            assert lcs_degree(comb.residual, 5) is None
            # exact group identity: w = product * residual
            assert reduce_word(comb.product_word() + comb.residual) == w

    def test_already_simple_stays_single_at_lead(self, rng):
        for entries in [(1, 2, 3), (2, 3, 1), (1, 3, 2)]:
            comb = decompose(commutator_word(entries), 2, 3)
            weight3 = [f for f in comb.factors if len(f[0]) == 3]
            assert len(weight3) == 1

    def test_single_factor_search_falls_back_to_lyndon_solve(self):
        # the entry multiset of (1, 2, 1, 2, 3, 3, 4) has 7!/2!^3 = 630
        # orderings, over the single-factor search's limit of 300, so the
        # weight-7 slice goes through the Lyndon solve
        w = commutator_word((1, 2, 1, 2, 3, 3, 4))
        comb = decompose(w, 6, 7)
        assert len(comb.factors) == 95
        assert reduce_word(comb.product_word() + comb.residual) == w

    def test_precondition(self):
        with pytest.raises(ValueError):
            decompose((1,), 1, 3)
        with pytest.raises(ValueError):
            decompose(commutator_word((1, 2)), 2, 3)

    def test_degree_window(self):
        with pytest.raises(ValueError):
            decompose(commutator_word((1, 2)), 1, 1)

    def test_empty_word(self):
        comb = decompose((), 1, 4)
        assert comb.factors == () and comb.residual == ()

    def test_residual_exact_identity(self, rng):
        for _ in range(10):
            w = random_f3_element(rng)
            if lcs_degree(w, 2) is not None:
                continue
            comb = decompose(w, 2, 4)
            assert reduce_word(comb.product_word() + comb.residual) == w
            assert lcs_degree(comb.residual, 4) is None


class TestStageCheck:
    @pytest.mark.parametrize("m, degree", [(2, 3), (2, 4)])
    def test_solver_defect_raises(self, monkeypatch, m, degree):
        # two weight-3 nests on different letter multisets, so the
        # general solver runs; (2, 3) is a single stage and (2, 4) has
        # the defect at its non-final stage 3
        solve = decomp.left_normed_combination

        def off_by_one(component):
            combo = dict(solve(component))
            combo[min(combo)] += 1
            return combo

        monkeypatch.setattr(decomp, "left_normed_combination", off_by_one)
        word = concat(commutator_word((1, 2, 3)), commutator_word((2, 1, 1)))
        with pytest.raises(RuntimeError, match="stage 3"):
            decompose(word, m, degree)

    def test_weight_mismatch_raises(self):
        with pytest.raises(RuntimeError, match="degree-3 slice got weight-2 factor"):
            decomp._check_stage({(1, 2): 1}, {(1, 2): 1, (2, 1): -1}, 3)


def per_factor_sum(combo):
    """Sum of coeff * [y1, ..., yd] with each factor expanded on its own.

    The stage check's former method; its 2^(d-1) monomials per factor
    make it the slow, independent oracle for ``decomp._bracket_sum``.
    """
    total = {}
    for entries, coeff in combo.items():
        for mon, c in left_normed_lie_polynomial(entries).items():
            total[mon] = total.get(mon, 0) + coeff * c
    return {mon: c for mon, c in total.items() if c}


def combinations(weight):
    """Random left-normed combinations of one weight.

    Entries repeat letters, so [y, y, ...] (zero) and shared suffixes
    occur; each term may be joined by its first-two-swapped twin with
    the same coefficient, which cancels it exactly.
    """
    term = st.tuples(
        st.lists(letters_strategy(3), min_size=weight, max_size=weight).map(tuple),
        st.integers(-3, 3).filter(bool),
        st.booleans(),
    )

    def build(terms):
        combo = {}
        for entries, coeff, cancel in terms:
            combo[entries] = combo.get(entries, 0) + coeff
            if cancel and weight >= 2:
                twin = (entries[1], entries[0]) + entries[2:]
                combo[twin] = combo.get(twin, 0) + coeff
        return {e: c for e, c in combo.items() if c}

    return st.lists(term, max_size=8).map(build)


class TestBracketSum:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(combinations))
    def test_matches_per_factor_sum(self, combo):
        assert decomp._bracket_sum(combo) == per_factor_sum(combo)

    def test_empty_combination(self):
        assert decomp._bracket_sum({}) == {}

    def test_degenerate_and_cancelling(self):
        assert decomp._bracket_sum({(2, 2, 1): 5}) == {}
        assert decomp._bracket_sum({(1, 2, 3): 2, (2, 1, 3): 2}) == {}
        # Jacobi: [a, b, c] + [b, c, a] + [c, a, b] = 0
        assert decomp._bracket_sum({(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}) == {}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda m: st.tuples(st.just(m), conjugated_commutator_products(m))))
    def test_solver_output_sums_to_slice(self, case):
        m, word = case
        component = lie_component(word, m + 1)
        combo = left_normed_combination(component)
        assert decomp._bracket_sum(combo) == per_factor_sum(combo) == component


class TestStageDefects:
    WORD = concat(commutator_word((1, 2, 3)), commutator_word((2, 1, 1)))

    @staticmethod
    def _perturbed(monkeypatch, change):
        solve = decomp.left_normed_combination

        def broken(component):
            combo = dict(solve(component))
            change(combo)
            return combo

        monkeypatch.setattr(decomp, "left_normed_combination", broken)

    @staticmethod
    def _swap_first_two(combo):
        # [b, a, ...] = -[a, b, ...], so the sum moves by 2c [a, b, ...]
        entries = next(e for e in sorted(combo) if e[0] != e[1])
        coeff = combo.pop(entries)
        twin = (entries[1], entries[0]) + entries[2:]
        combo[twin] = combo.get(twin, 0) + coeff

    @pytest.mark.parametrize("delta", [1, -1])
    def test_coefficient_off_by_one(self, monkeypatch, delta):
        def change(combo):
            key = max(combo)
            combo[key] += delta
        self._perturbed(monkeypatch, change)
        with pytest.raises(RuntimeError, match="stage 3: the factors do not sum"):
            decomp.stage_factors(expand(self.WORD, 3), 2, 3)

    def test_entry_permuted(self, monkeypatch):
        self._perturbed(monkeypatch, self._swap_first_two)
        with pytest.raises(RuntimeError, match="stage 3: the factors do not sum"):
            decomp.stage_factors(expand(self.WORD, 4), 2, 4)

    @pytest.mark.parametrize("change", ["off-by-one", "permuted"])
    def test_cli_exits_4(self, monkeypatch, capsys, change):
        def off_by_one(combo):
            combo[min(combo)] -= 1
        self._perturbed(monkeypatch, off_by_one if change == "off-by-one" else self._swap_first_two)
        code = main(["decompose", words.format_word(self.WORD), "-m", "2", "-D", "3"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("internal error: stage ")


class TestStageCheckBuildsNoFactorPolynomial:
    def test_elliptic_without_wide_factor_polynomials(self, monkeypatch):
        # _try_single_factor expands factors of weight <= 7 only; the
        # weight-12 stage of the shipped elliptic certificate's a1 image
        # (its q-value reads k off the slice, so the solve is called here)
        # must be checked without expanding any of its factors on its own
        real = decomp.left_normed_lie_polynomial

        def bounded(entries):
            if len(entries) > 7:
                raise AssertionError(f"per-factor polynomial of weight {len(entries)}")
            return real(entries)

        monkeypatch.setattr(decomp, "left_normed_lie_polynomial", bounded)
        decomp._expand_nest_pair.cache_clear()
        cert = certificate_from_dict(json.loads((DATA / "elliptic_g1_n2.json").read_text()))
        a1 = next(c for c in cert.curves if c.name == "a1")
        image = rewrite_to_word(a1.pushoff_plus, frozenset({1}))
        factors = decomp.stage_factors(expand(image, a1.m + 1), a1.m, a1.m + 1)
        assert len({entries for entries, _ in factors}) == 60


def conjugated_commutator_products(m):
    factor = st.tuples(
        st.lists(letters_strategy(3), min_size=m + 1, max_size=m + 1),
        words_strategy(max_gen=3, max_len=3),
    )
    return st.lists(factor, min_size=1, max_size=2).map(
        lambda parts: concat(*(conjugate(commutator_word(e), c) for e, c in parts))
    )


class TestSingleStageAgainstDenseExpansion:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda m: st.tuples(st.just(m), conjugated_commutator_products(m))))
    def test_residual_is_deeper(self, case):
        m, word = case
        comb = decompose(word, m, m + 1)
        assert reduce_word(comb.product_word() + comb.residual) == word
        assert lcs_degree(comb.residual, m + 1) is None


def plain_residual(comb, word):
    """G^-1 * w by reducing the whole concatenation letter by letter."""
    merged = []
    for w in reversed(comb.factor_words()):
        merged.extend(invert(w))
    merged.extend(word)
    return reduce_word(merged)


class TestResidualAgainstPlainReduction:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), conjugated_commutator_products(m))),
        st.integers(1, 2),
    )
    def test_matches_reduced_concatenation(self, case, extra):
        m, word = case
        comb = decompose(word, m, m + extra)
        assert comb.residual == plain_residual(comb, word)
        assert comb.product_word() == reduce_word(
            [letter for w in comb.factor_words() for letter in w]
        )

    def test_whole_piece_cancels(self):
        # G = [g1, g2] = w: the word cancels its whole inverse at the
        # junction and nothing is left
        word = commutator_word((1, 2))
        comb = decompose(word, 1, 2)
        assert plain_residual(comb, word) == comb.residual == ()
        # [g1, g2]^2: pushing the word cancels both inverse factors, the
        # word's first half the second factor and its second half the first
        word = concat(word, word)
        comb = decompose(word, 1, 3)
        assert comb.factors == (((1, 2), 1), ((1, 2), 1))
        assert plain_residual(comb, word) == comb.residual == ()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(words_strategy(max_gen=3, max_len=8), st.integers(0, 8)), max_size=6))
    def test_push_reduced_is_free_reduction(self, parts):
        # pieces that start with the inverse of a tail of what is built
        # cancel partly or wholly at the junction
        out, merged = [], []
        for letters, back in parts:
            piece = reduce_word(invert(out[max(0, len(out) - back):] if back else ()) + letters)
            words._push_reduced(out, piece)
            merged.extend(piece)
            assert out == list(reduce_word(merged))


class TestSingleFactorWithSigns:
    def test_signed_nest_is_one_factor(self):
        # the nest on (x, y^-1, x) matches a single positive-alphabet
        # left-normed bracket with exponent -1
        for entries in [(1, -2, 1), (2, 1, -2, 1), (-1, 2, 2, 1)]:
            word = commutator_word(entries)
            weight = len(entries)
            comb = decompose(word, weight - 1, weight)
            lead = [f for f in comb.factors if len(f[0]) == weight]
            assert len(lead) == 1, (entries, comb.factors)

    def test_commutator_square_two_copies(self):
        w = concat(commutator_word((1, 2)), commutator_word((1, 2)))
        comb = decompose(w, 1, 2)
        assert comb.factors == (((1, 2), 1), ((1, 2), 1))


class TestDeterminism:
    def test_repeat_runs_identical(self, rng):
        for _ in range(5):
            w = random_f3_element(rng)
            first = decompose(w, 2, 4)
            second = decompose(w, 2, 4)
            assert first == second
