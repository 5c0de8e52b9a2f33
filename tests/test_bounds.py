from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcert import bounds
from knotcert.bounds import (
    check_inequalities,
    conflict_max,
    floor_log2,
    good_arc_bound,
    l_n_S,
    partition_k,
    product_bound_check,
    q,
    q_param,
    ratio_check,
    t,
)


class TestQuotients:
    def test_q_values(self):
        assert q(13) == 2
        assert q(0) == 0
        assert q(36) == 6

    def test_t_values(self):
        assert t(9) == 2
        assert t(4) == 1
        assert t(3) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q(-1)
        with pytest.raises(ValueError):
            t(-1)


class TestFloorLog2:
    def test_examples(self):
        assert floor_log2(1, 6) == -3
        assert floor_log2(7, 6) == 0
        assert floor_log2(8) == 3
        assert floor_log2(1, 8) == -3

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_against_float_log(self, num, den):
        exact = floor_log2(num, den)
        # verify by the defining inequalities, not by floats
        assert Fraction(2) ** exact <= Fraction(num, den) < Fraction(2) ** (exact + 1)

    # up to 200 bits, and exact powers of two (c·2^a)/(c·2^b) and their
    # neighbours, where the single comparison decides between e and e-1
    @given(st.one_of(
        st.tuples(st.integers(1, 1 << 200), st.integers(1, 1 << 200)),
        st.builds(lambda c, a, b, d: ((c << a) + d, (c << b)),
                  st.integers(1, 1 << 60), st.integers(0, 140), st.integers(0, 140),
                  st.sampled_from((0, 0, -1, 1))).filter(lambda pair: pair[0] > 0),
    ))
    def test_defining_inequalities_at_200_bits(self, pair):
        num, den = pair
        e = floor_log2(num, den)
        assert Fraction(2) ** e <= Fraction(num, den) < Fraction(2) ** (e + 1)

    def test_exact_powers_of_two(self):
        for k in range(200):
            assert floor_log2(1 << k) == k
            assert floor_log2(1, 1 << k) == -k
            assert floor_log2(3 << k, 3) == k
            assert floor_log2(5, 5 << k) == -k

    def test_positive_required(self):
        with pytest.raises(ValueError):
            floor_log2(0)

    def test_denominator_positive_required(self):
        with pytest.raises(ValueError):
            floor_log2(1, 0)
        with pytest.raises(ValueError):
            floor_log2(-3, -2)


class TestQParam:
    def test_branch_below(self):
        assert q_param(5, 1) == 1  # q(6)

    def test_negative_branch(self):
        assert q_param(6, 1) == -2  # 1 + floor(log2(1/6))

    def test_branch_above(self):
        assert q_param(18, 2) == 2  # 2 + floor(log2(7/6))

    def test_monotone_in_n_on_upper_branch(self):
        for k in (1, 2, 3):
            values = [q_param(n, k) for n in range(6 * k, 200)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            q_param(-1, 1)
        with pytest.raises(ValueError):
            q_param(5, 0)


class TestPartition:
    def test_two_blocks(self):
        partition, k = partition_k([{1, 2}, {2, 3}, {4, 5}])
        assert partition.blocks == ((0, 1), (2,))
        assert partition.block_generator_counts() == (3, 2)
        assert k == 2

    def test_single_factor(self):
        assert partition_k([{1, 2, 3}])[1] == 3

    def test_repeated_factor(self):
        partition, k = partition_k([{1}, {1}])
        assert partition.blocks == ((0, 1),)
        assert k == 1

    def test_empty(self):
        assert partition_k([])[1] == 0

    def test_reorder_invariance(self, rng):
        gensets = [{1, 2}, {3}, {2, 4}, {5, 6}, {6, 7}]
        _, base = partition_k(gensets)
        for _ in range(10):
            shuffled = gensets[:]
            rng.shuffle(shuffled)
            assert partition_k(shuffled)[1] == base

    def test_renaming_invariance(self, rng):
        gensets = [{1, 2}, {2, 3}, {5}]
        _, base = partition_k(gensets)
        names = list(range(1, 8))
        for _ in range(10):
            rng.shuffle(names)
            renamed = [{names[g - 1] for g in s} for s in gensets]
            assert partition_k(renamed)[1] == base


class TestLnS:
    def test_examples(self):
        assert l_n_S([3, 5, 4]) == 2
        assert l_n_S([1]) == 0
        assert l_n_S([7, 7]) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            l_n_S([])


class TestInequalities:
    def test_n11(self):
        assert check_inequalities(11).all_hold

    def test_n6(self):
        report = check_inequalities(6)
        assert report.q_bound_holds  # q(7) = 1 > 1/6

    def test_log_argument_at_149(self):
        report = check_inequalities(149)
        assert report.l_bound_argument == Fraction(1)
        assert report.all_hold

    def test_range_6_to_200(self):
        for n in range(6, 201):
            report = check_inequalities(n)
            assert report.all_hold, (n, report.violations)

    def test_no_violation_to_3000(self):
        # the docstring's proof: 6 q(n+1) >= n - 4, and with m = n + 1 - 6k
        # the two-branch bound k + floor(log2(m/6)) exceeds floor(log2((n-5)/72))
        for n in range(6, 3001):
            report = check_inequalities(n)
            assert report.all_hold and report.violations == (), n

    def test_violations_guard_q_and_q_param(self, monkeypatch):
        # the checks guard q and q_param against a change that breaks the
        # proof.  q one too small fails the first for every n; q_param's
        # smallest margin is 3, at n = 12 and k = 2, so one 3 too small
        # fails there and nowhere else at n = 12
        real_q, real_q_param = bounds.q, bounds.q_param
        monkeypatch.setattr(bounds, "q", lambda m: real_q(m) - 1)
        monkeypatch.setattr(bounds, "q_param", lambda n, k: real_q_param(n, k) - 3)
        report = check_inequalities(12)
        assert (report.q_bound_holds, report.q_param_bounds_hold, report.all_hold) == (
            False, False, False)
        assert report.violations == (
            "q(13) <= (12 - 5)/6", "q_param(12, 2) <= log2((12 - 5)/72)")
        assert real_q_param(12, 2) - bounds.floor_log2(12 - 5, 72) == 3

    def test_l_bound_grows(self):
        args = [check_inequalities(n).l_bound_argument for n in (10, 50, 100, 200)]
        assert args == sorted(args)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            check_inequalities(5)


class TestGoodArcBound:
    def test_direct_dominates(self):
        assert good_arc_bound(5, 1, 2, embedded=True) == 4

    def test_nonembedded_low_branch(self):
        assert good_arc_bound(11, 2, 12, embedded=False) == 2

    def test_minimal(self):
        assert good_arc_bound(1, 1, 0, embedded=True) == 2

    def test_nonembedded_high_branch(self):
        # m >= 6k: k + floor((m-6k)/2)
        assert good_arc_bound(14, 2, 15, embedded=False) == 3

    def test_always_positive_without_bad_sets(self):
        for m in range(1, 30):
            for k in (1, 2, 3):
                for embedded in (True, False):
                    assert good_arc_bound(m, k, 0, embedded) >= 1


class TestRatioAndConflicts:
    def test_ratio_examples(self):
        assert ratio_check(4, 3)
        assert not ratio_check(4, 4)
        assert ratio_check(8, 6)
        assert ratio_check(0, 0)

    def test_conflict_values(self):
        assert conflict_max(1) == 0
        assert conflict_max(2) == 2
        assert conflict_max(3) == 6

    def test_conflict_guard(self):
        with pytest.raises(OverflowError):
            conflict_max(62)
        with pytest.raises(ValueError):
            conflict_max(0)


class TestProductBound:
    def test_scenarios(self):
        # k + floor(r/2) + k(s-2) > log2((m+1-6k)/6) at the length relation
        assert product_bound_check(13, 1, 4, 2)   # m+1 = 14
        assert product_bound_check(20, 1, 3, 3)   # m+1 = 21
        assert product_bound_check(22, 2, 3, 2)   # m+1 = 23

    def test_length_relation_enforced(self):
        with pytest.raises(ValueError):
            product_bound_check(10, 1, 4, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            product_bound_check(13, 1, 2, 2)
        with pytest.raises(ValueError):
            product_bound_check(13, 1, 4, 1)

    def test_holds_on_grid(self):
        for k in (1, 2, 3):
            for s in (2, 3, 4):
                for r in (3, 4, 5, 6):
                    m = 6 * k + r + 2 * k * ((1 << s) - 2) - 1
                    assert product_bound_check(m, k, r, s), (k, s, r)


# The rational routines that decided every log2 bound before the integer
# floor_log2; the differential tests below hold the bounds to them.
def _ref_floor_log2(value: Fraction) -> int:
    num, den = value.numerator, value.denominator
    e = num.bit_length() - den.bit_length()
    while (den << e if e >= 0 else den) <= (num if e >= 0 else num << -e):
        e += 1
    return e - 1


def _ref_exceeds_log2(v: int, value: Fraction) -> bool:
    power = Fraction(1 << v) if v >= 0 else Fraction(1, 1 << -v)
    return power > value


def _ref_q_param(n: int, k: int) -> int:
    if n < 6 * k:
        return q(n + 1)
    return k + _ref_floor_log2(Fraction(n + 1 - 6 * k, 6))


def _ref_inequalities(n: int) -> tuple:
    violations = []
    q_ok = Fraction(q(n + 1)) > Fraction(n - 5, 6)
    if not q_ok:
        violations.append(f"q({n + 1}) <= ({n} - 5)/6")
    param_ok = True
    target = Fraction(n - 5, 72)
    for k in range(1, n // 6 + 1):
        if not _ref_exceeds_log2(_ref_q_param(n, k), target):
            param_ok = False
            violations.append(f"q_param({n}, {k}) <= log2(({n} - 5)/72)")
    return n, q_ok, param_ok, tuple(violations), Fraction(n - 5, 144)


class TestAgainstRationalReference:
    def test_q_param(self):
        for n in range(400):
            for k in range(1, 12):
                assert q_param(n, k) == _ref_q_param(n, k), (n, k)

    def test_check_inequalities(self):
        for n in [*range(6, 1500), *range(1500, 3000, 7)]:
            report = check_inequalities(n)
            got = (report.n, report.q_bound_holds, report.q_param_bounds_hold,
                   report.violations, report.l_bound_argument)
            assert got == _ref_inequalities(n), n
            assert type(report.l_bound_argument) is Fraction

    def test_product_bound_check(self):
        for k in range(1, 5):
            for s in range(2, 7):
                for r in range(3, 60):
                    m = 6 * k + r + 2 * k * ((1 << s) - 2) - 1
                    count = k + r // 2 + k * (s - 2)
                    expected = _ref_exceeds_log2(count, Fraction(m + 1 - 6 * k, 6))
                    assert product_bound_check(m, k, r, s) is expected, (k, s, r)
