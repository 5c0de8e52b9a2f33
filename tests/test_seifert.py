from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from det_oracle import _poly_trim, fraction_det, poly_matrix_det
from knotcert import _det
from knotcert.cli import main
from knotcert.seifert import (
    SeifertMatrix,
    alexander,
    alternating_sum,
    anti_block_determinant_check,
    apply_basis_change,
    classify_form,
    int_det,
    pencil_det,
    symmetrize,
)
from knotcert.series import LaurentPolynomial, mmr_series

TREFOIL = ((-1, 1), (0, -1))
FIGURE8 = ((1, 1), (0, -1))


def random_seifert(rng, genus):
    """Rejection-sample an integer matrix with unimodular antisymmetrization."""
    while True:
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(2 * genus)) for _ in range(2 * genus)
        )
        anti = tuple(
            tuple(rows[i][j] - rows[j][i] for j in range(2 * genus))
            for i in range(2 * genus)
        )
        if int_det(anti) == 1:
            return SeifertMatrix(genus, rows)


class TestSeifertMatrix:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SeifertMatrix(1, ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            SeifertMatrix(1, ((0, 1), (0, 0), (0, 0)))

    def test_genus_zero(self):
        assert SeifertMatrix(0, ()).rows == ()

    @pytest.mark.parametrize("call, entry", [
        (lambda: SeifertMatrix(1, ((-1.7, "1"), (0, True))), "(0, 0) must be an integer, got -1.7"),
        (lambda: int_det([[2.9, 0], [0, 1]]), "(0, 0) must be an integer, got 2.9"),
        (lambda: classify_form([["0", 1.2], [1, 0]], 1), "(0, 0) must be an integer, got '0'"),
        (lambda: int_det([[1, 0], [0, True]]), "(1, 1) must be an integer, got True"),
    ], ids=["seifert-matrix", "int-det", "classify-form", "bool"])
    def test_entries_are_checked_not_coerced(self, call, entry):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"matrix entry {entry}"

    @pytest.mark.parametrize("call, genus", [
        (lambda: SeifertMatrix(1.0, TREFOIL), "1.0"),
        (lambda: SeifertMatrix(True, TREFOIL), "True"),
        (lambda: classify_form([[0, 1], [1, 0]], 1.0), "1.0"),
    ], ids=["float", "bool", "classify-form-float"])
    def test_genus_is_checked_not_coerced(self, call, genus):
        # 2 * 1.0 == 2 and 2 * True == 2, so the size checks alone pass them
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"genus must be an integer, got {genus}"


class TestAlexander:
    def test_unknot(self):
        assert alexander(SeifertMatrix(0, ())).as_dict() == {0: 1}

    def test_trefoil(self):
        delta = alexander(SeifertMatrix(1, TREFOIL))
        assert delta.as_dict() == {-1: 1, 0: -1, 1: 1}
        assert delta.pretty() == "t^-1 - 1 + t"

    def test_figure_eight(self):
        assert alexander(SeifertMatrix(1, FIGURE8)).as_dict() == {-1: -1, 0: 3, 1: -1}

    def test_whitehead_double_family(self):
        for twists in range(-5, 6):
            v = SeifertMatrix(1, ((0, 1), (0, twists)))
            assert alexander(v).as_dict() == {0: 1}

    def test_randomized_symmetry_and_value(self, rng):
        for genus in (1, 2, 3):
            for _ in range(6):
                delta = alexander(random_seifert(rng, genus))
                assert delta(1) == 1
                assert delta.is_symmetric()


def test_zero_polynomial():
    zero = LaurentPolynomial.from_dict({})
    assert (zero.coefficient_list(), zero.pretty()) == ((0, ()), "0")


class TestLaurentEvaluation:
    @given(st.dictionaries(st.integers(0, 6), st.integers(-5, 5)),
           st.integers(-4, 4).filter(lambda t: t not in (1, -1)))
    def test_integer_point_against_sum(self, data, t):
        assert LaurentPolynomial.from_dict(data)(t) == sum(c * t**e for e, c in data.items())

    def test_negative_exponent_needs_unit_point(self):
        delta = alexander(SeifertMatrix(1, TREFOIL))  # t^-1 - 1 + t
        assert (delta(1), delta(-1)) == (1, -3)
        with pytest.raises(ValueError, match=r"t = \+-1"):
            delta(2)


class TestForms:
    def test_symmetrize(self):
        assert symmetrize(((0, 1), (0, 0))) == ((0, 1), (1, 0))
        assert symmetrize(((0, 0), (0, 0))) == ((0, 0), (0, 0))

    def test_symmetrize_linear(self, rng):
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4))
        b = tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4))
        summed = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
        lhs = symmetrize(summed)
        rhs = tuple(
            tuple(x + y for x, y in zip(ra, rb))
            for ra, rb in zip(symmetrize(a), symmetrize(b))
        )
        assert lhs == rhs

    def test_elliptic_blocks(self):
        assert classify_form(((0, 1), (1, 0)), 1) == "elliptic"
        diag2 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        assert classify_form(diag2, 2) == "elliptic"

    def test_hyperbolic_shape(self):
        m = ((0, 0, 1, 2), (0, 0, 0, 1), (1, 0, 3, 0), (2, 1, 0, 5))
        assert classify_form(m, 2) == "hyperbolic"

    def test_parabolic_shape(self):
        m = ((1, 0, 2, 0), (0, 3, 0, 4), (2, 0, 0, 0), (0, 4, 0, 0))
        assert classify_form(m, 2) == "parabolic"

    def test_none_shape(self):
        m = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert classify_form(m, 2) == "none"

    def test_order_elliptic_before_hyperbolic(self):
        # genus 1: the J block has zero top-left corner, so it is also
        # hyperbolic-shaped; the strongest label wins
        assert classify_form(((0, 1), (1, 0)), 1) == "elliptic"

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            classify_form(((0, 1), (0, 0)), 1)

    def test_stability_under_block_permutation(self):
        diag2 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        swap_pairs = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
        moved = apply_basis_change(diag2, swap_pairs)
        assert classify_form(moved, 2) == "elliptic"


class TestBasisChange:
    def test_identity(self):
        m = ((0, 1), (1, 0))
        assert apply_basis_change(m, ((1, 0), (0, 1))) == m

    def test_permutation(self):
        m = ((1, 2), (2, 3))
        assert apply_basis_change(m, ((0, 1), (1, 0))) == ((3, 2), (2, 1))

    def test_unimodular_required(self):
        with pytest.raises(ValueError):
            apply_basis_change(((0, 1), (1, 0)), ((2, 0), (0, 2)))


class TestAntiBlock:
    def test_one_by_one(self):
        assert anti_block_determinant_check(((1,),), ((0,),), ((9,),))
        assert anti_block_determinant_check(((1,),), ((1,),), ((-4,),))

    def test_z_independence(self, rng):
        a = ((1, 2), (0, 1))
        b = ((0, 1), (1, 1))
        for _ in range(5):
            z = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
            assert anti_block_determinant_check(a, b, z)

    def test_random_blocks(self, rng):
        for _ in range(60):
            g = rng.randint(1, 3)
            mk = lambda: tuple(
                tuple(rng.randint(-3, 3) for _ in range(g)) for _ in range(g)
            )
            assert anti_block_determinant_check(mk(), mk(), mk())

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            anti_block_determinant_check(((1,),), ((1, 0), (0, 1)), ((0,),))


def p_series_oracle(order):
    """sum_k (h/2)^{2k} / (2k+1)!, the closed form of (e^{h/2}-e^{-h/2})/h."""
    coeffs = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k <= order:
        coeffs[2 * k] = Fraction(1, 2 ** (2 * k)) / factorial(2 * k + 1)
        k += 1
    return coeffs


class TestMmr:
    def test_delta_one_matches_oracle(self):
        series = mmr_series(LaurentPolynomial.one(), 8)
        assert list(series.coefficients) == p_series_oracle(8)

    def test_h4_term(self):
        series = mmr_series(LaurentPolynomial.one(), 4)
        assert series.coefficients == (
            Fraction(1), Fraction(0), Fraction(1, 24), Fraction(0), Fraction(1, 1920)
        )

    def test_order(self):
        for order in (0, 1, 4):
            assert mmr_series(LaurentPolynomial.one(), order).order == order

    def test_trefoil_v2(self):
        delta = alexander(SeifertMatrix(1, TREFOIL))
        series = mmr_series(delta, 2)
        assert series[0] == 1
        assert series[1] == 0
        assert series[2] == Fraction(-23, 24)

    def test_v1_vanishes_for_symmetric_delta(self, rng):
        for _ in range(50):
            spread = rng.randint(1, 3)
            data = {0: 1}
            for e in range(1, spread + 1):
                c = rng.randint(-3, 3)
                if c:
                    data[e] = c
                    data[-e] = c
                    data[0] -= 2 * c
            delta = LaurentPolynomial.from_dict(data)
            assert delta(1) == 1 and delta.is_symmetric()
            assert mmr_series(delta, 5)[1] == 0

    def test_delta_one_required(self):
        with pytest.raises(ValueError):
            mmr_series(LaurentPolynomial.from_dict({0: 2}), 2)


class TestAlternatingSum:
    def test_equal_values_cancel(self):
        values = {(): 7, (1,): 7, (2,): 7, (1, 2): 7}
        assert alternating_sum(values) == 0

    def test_single_crossing_set(self):
        assert alternating_sum({(): Fraction(3), (1,): Fraction(1)}) == 2

    def test_cardinality_function(self):
        values = {(): 0, (1,): 1, (2,): 1, (1, 2): 2}
        assert alternating_sum(values) == 0

    def test_binomial_cancellation(self, rng):
        # values depending only on |C| with any coefficients sum against
        # alternating binomials; degree reasons kill polynomials of low degree
        n = 3
        f = lambda size: size**2 + 2 * size
        universe = range(1, n + 2)
        from itertools import combinations

        values = {}
        for k in range(n + 2):
            for sub in combinations(universe, k):
                values[sub] = Fraction(f(k))
        assert alternating_sum(values) == 0

    def test_missing_subset_reported(self):
        with pytest.raises(ValueError) as err:
            alternating_sum({(1,): 1, (): 0, (2,): 1})
        assert "missing subset [1, 2]" in str(err.value)

    def test_duplicate_subset_rejected(self):
        with pytest.raises(ValueError):
            alternating_sum({(1, 2): 1, (2, 1): 1, (): 0, (1,): 0, (2,): 0})


class TestPolyDet:
    def test_two_by_two(self):
        m = [[(2,), (3,)], [(5,), (7,)]]
        assert poly_matrix_det(m) == (-1,)

    def test_empty(self):
        assert poly_matrix_det([]) == (1,)

    def test_against_int_det(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            as_polys = [[(x,) if x else () for x in row] for row in rows]
            det = poly_matrix_det(as_polys)
            expected = int_det(rows)
            assert (det[0] if det else 0) == expected


@st.composite
def sparse_matrices(draw, max_n=10):
    """Integer matrices up to max_n x max_n with at least half zeros."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = [[0] * n for _ in range(n)]
    if n:
        cells = st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(-9, 9).filter(bool),
        )
        for i, j, value in draw(st.lists(cells, max_size=n * n // 2)):
            rows[i][j] = value
    return rows


@st.composite
def banded_matrices(draw, max_n=24):
    """Integer matrices up to max_n x max_n, 0 more than 1-3 places off the diagonal."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    below, above = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.integers(-9, 9)
    return [[draw(values) if -below <= j - i <= above else 0 for j in range(n)] for i in range(n)]


@st.composite
def row_shuffled(draw, matrices):
    """A matrix of ``matrices`` with its rows permuted: rows start out of
    order, so zero pivots, swaps and rows past the reach all occur."""
    rows = draw(matrices)
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@st.composite
def row_shuffled_pencils(draw, max_n=12):
    """Two banded matrices of one size, their rows permuted alike."""
    x, y = draw(banded_matrices(max_n)), draw(banded_matrices(max_n))
    n = min(len(x), len(y))
    order = draw(st.permutations(range(n)))
    return [x[i][:n] for i in order], [y[i][:n] for i in order]


def square_matrices(n, bound=3):
    values = st.integers(-bound, bound)
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


def sylvester(k):
    """The 2^k x 2^k Sylvester Hadamard matrix, |det| = 2^(k 2^(k-1))."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-a for a in row] for row in h]
    return h


def oracle_pencil(x, y):
    """det(X - tY) by subset-minor expansion (``det_oracle``)."""
    n = len(x)
    return poly_matrix_det([[_poly_trim([x[i][j], -y[i][j]]) for j in range(n)] for i in range(n)])


class TestIntDet:
    @given(sparse_matrices())
    def test_sparse_against_fraction_elimination(self, rows):
        assert int_det(rows) == fraction_det(rows)

    @given(banded_matrices())
    def test_banded_against_fraction_elimination(self, rows):
        # row updates stop at the last nonzero column of the two rows
        assert int_det(rows) == fraction_det(rows)

    @given(row_shuffled(st.one_of(sparse_matrices(), banded_matrices())))
    def test_row_shuffled_against_fraction_elimination(self, rows):
        # the pivot search and the updates stop at the last row that
        # starts at or before the pivot column
        assert int_det(rows) == fraction_det(rows)

    def test_zero_leading_pivot(self):
        # each of the first two steps needs a row swap
        rows = ((0, 2, 1), (0, 0, 3), (5, 1, 1))
        assert int_det(rows) == fraction_det(rows) == 30

    def test_rows_left_unscaled_across_steps(self):
        # lower rows of a banded matrix sit out several steps behind
        # non-unit pivots before they take part
        rows = (
            (2, 1, 0, 0, 0),
            (3, 5, 1, 0, 0),
            (0, 4, 7, 1, 0),
            (0, 0, 2, 3, 1),
            (0, 0, 0, 6, 9),
        )
        assert int_det(rows) == fraction_det(rows)

    def test_lagging_row_swapped_in_as_pivot(self):
        # step 0 brings rows 1 and 2 up to pivot 2 and leaves row 3 at
        # pivot 1; column 1 is then nonzero only in row 3, which becomes
        # the pivot row of step 1 and must carry its own lag there
        rows = ((2, 0, -1, -3), (3, 0, -3, 0), (-1, 0, 3, 0), (0, 1, 0, -1))
        assert int_det(rows) == fraction_det(rows) == -18


class TestPencilDet:
    # entries up to 10^12 take the digit width past 64 bits, and their
    # negative coefficients borrow from the digit above
    @given(st.sampled_from((3, 10 ** 12)).flatmap(lambda bound: st.integers(0, 7).flatmap(
        lambda n: st.tuples(square_matrices(n, bound), square_matrices(n, bound)))))
    def test_against_subset_minor_oracle(self, pencil):
        x, y = pencil
        assert pencil_det(x, y) == oracle_pencil(x, y)

    def test_hadamard_matrix_meets_the_bound(self):
        # |det H_8| = 8^4 = 4096 is the Hadamard bound itself
        h, zero = sylvester(3), [[0] * 8 for _ in range(8)]
        assert pencil_det(h, zero) == oracle_pencil(h, zero) == (4096,)

    def test_hadamard_pencil(self):
        h = sylvester(2)
        assert pencil_det(h, h) == oracle_pencil(h, h) == (16, -64, 96, -64, 16)

    @given(banded_matrices(12), banded_matrices(12), st.integers(-5, 5))
    def test_banded_pencil_at_a_point(self, x, y, t):
        n = min(len(x), len(y))
        x, y = [row[:n] for row in x[:n]], [row[:n] for row in y[:n]]
        coeffs = pencil_det(x, y)
        value = sum(c * t ** i for i, c in enumerate(coeffs))
        assert value == fraction_det([[a - t * b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)])

    @given(row_shuffled_pencils(), st.integers(-5, 5))
    def test_row_shuffled_pencil_at_a_point(self, pencil, t):
        # rows out of order: zero pivots and swaps in the one elimination at t = 2^b
        x, y = pencil
        coeffs = pencil_det(x, y)
        value = sum(c * t ** i for i, c in enumerate(coeffs))
        assert value == fraction_det([[a - t * b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)])

    def test_empty(self):
        assert pencil_det((), ()) == (1,)

    def test_singular_pencil(self):
        assert pencil_det(((1, 2), (2, 4)), ((1, 2), (2, 4))) == ()

    def test_zero_row(self):
        # a row that is zero in both X and Y is built as n zeros
        assert pencil_det(((1, 0), (0, 0)), ((0, 1), (0, 0))) == ()
        assert pencil_det(((0, 0), (0, 1)), ((1, 0), (0, 0))) == (0, -1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pencil_det(((1,),), ((1, 0), (0, 1)))

    def test_digits_past_the_bound_are_a_defect(self, monkeypatch):
        # a 2 x 2 pencil has at most 3 coefficients; 2^200 has 41 base-2^5 digits
        monkeypatch.setattr(_det, "_bareiss", lambda m, ends, reach: 1 << 200)
        with pytest.raises(RuntimeError, match="exceeds its coefficient bound"):
            pencil_det(TREFOIL, tuple(zip(*TREFOIL)))

    def test_digits_past_the_bound_exit_4(self, monkeypatch, capsys, tmp_path):
        # the first value passes SeifertMatrix's det(V - V^T) = 1 check
        values = iter((1, 1 << 200))
        monkeypatch.setattr(_det, "_bareiss", lambda m, ends, reach: next(values))
        path = tmp_path / "trefoil.mat"
        path.write_text("1\n-1 1\n0 -1\n")
        assert main(["alexander", str(path)]) == 4
        assert capsys.readouterr() == (
            "", "internal error: pencil determinant exceeds its coefficient bound\n")


def torus_seifert(genus):
    """T(2, 2g+1): -1 on the diagonal, 1 just above it."""
    n = 2 * genus
    return tuple(
        tuple(-1 if i == j else 1 if j == i + 1 else 0 for j in range(n)) for i in range(n)
    )


class TestLargeGenus:
    @pytest.mark.parametrize("genus", [12, 30, 60])
    def test_torus_closed_form(self, genus):
        delta = alexander(SeifertMatrix(genus, torus_seifert(genus)))
        assert delta.as_dict() == {i: (-1) ** (i + genus) for i in range(-genus, genus + 1)}

    def test_dense_genus_ten(self, rng):
        genus, n = 10, 20
        # V = S + J: S symmetric, J the upper half of the symplectic form
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((-2, -1, 1, 2))
        for i in range(0, n, 2):
            rows[i][i + 1] += 1
        delta = alexander(SeifertMatrix(genus, rows))
        assert delta(1) == 1
        assert delta.is_symmetric()
        assert delta(-1) == (-1) ** genus * fraction_det(symmetrize(rows))


class TestTrivialAlexanderFamily:
    def test_zero_block_with_monomial_det(self, rng):
        # zero top-left block and det(A - tB^T) a signed monomial force
        # the normalized polynomial to 1, whatever Z is
        a = ((1, 0), (0, 0))
        b = ((0, 0), (0, 1))
        for _ in range(8):
            z = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
            rows = (
                (0, 0) + a[0],
                (0, 0) + a[1],
                b[0] + z[0],
                b[1] + z[1],
            )
            delta = alexander(SeifertMatrix(2, rows))
            assert delta.as_dict() == {0: 1}

    def test_genus_one_twisted_family(self):
        for k in range(-5, 6):
            rows = ((0, 1), (0, k))
            assert alexander(SeifertMatrix(1, rows)).as_dict() == {0: 1}
