import pytest

from knotcert.magnus import lcs_degree
from knotcert.schreier import (
    NotInNormalClosure,
    SchreierLetter,
    normal_closure_lcs_degree,
    schreier_alphabet_word,
    schreier_rewrite,
    schreier_substitute,
)
from knotcert.words import commutator_word, concat, conjugate, invert, reduce_word


def random_closure_word(rng, subset, ambient, conjugates=6, conj_len=4):
    letters = [s * g for g in range(1, ambient + 1) for s in (1, -1)]
    parts = []
    for _ in range(rng.randint(1, conjugates)):
        t = tuple(rng.choice(letters) for _ in range(rng.randint(0, conj_len)))
        base = rng.choice(sorted(subset)) * rng.choice([1, -1])
        parts.append(conjugate((base,), t))
    return reduce_word([letter for p in parts for letter in p])


class TestRewrite:
    def test_bare_generator(self):
        letters = schreier_rewrite((1,), {1})
        assert letters == (SchreierLetter((), 1),)

    def test_single_conjugate(self):
        letters = schreier_rewrite(conjugate((1,), (2,)), {1})
        assert letters == (SchreierLetter((2,), 1),)

    def test_commutator_of_conjugates(self):
        w = concat(
            conjugate((1,), (2,)), (3,), invert(conjugate((1,), (2,))), (-3,)
        )
        letters = schreier_rewrite(w, {1, 3})
        assert len(letters) == 4
        relabeled, table = schreier_alphabet_word(letters)
        assert len(table) == 2
        assert relabeled == commutator_word((relabeled[0], relabeled[1]))

    def test_not_in_closure(self):
        with pytest.raises(NotInNormalClosure):
            schreier_rewrite((3,), {1})
        with pytest.raises(NotInNormalClosure):
            schreier_rewrite((2, 1), {1})

    def test_roundtrip_random(self, rng):
        for _ in range(60):
            w = random_closure_word(rng, {1, 2}, ambient=4)
            assert schreier_substitute(schreier_rewrite(w, {1, 2})) == w

    def test_alphabet_table_deterministic(self, rng):
        w = random_closure_word(rng, {1, 2}, ambient=3)
        first = schreier_alphabet_word(schreier_rewrite(w, {1, 2}))
        second = schreier_alphabet_word(schreier_rewrite(w, {1, 2}))
        assert first == second


class TestClosureDegree:
    def test_commutator_of_distinct_letters(self):
        w = concat((1,), conjugate((2,), (3,)), (-1,), invert(conjugate((2,), (3,))))
        assert normal_closure_lcs_degree(w, {1, 2}, 4) == 2

    def test_generator(self):
        assert normal_closure_lcs_degree((1,), {1}, 3) == 1

    def test_all_generators_is_plain_degree(self, rng):
        everything = {1, 2, 3}
        for _ in range(40):
            w = random_closure_word(rng, everything, ambient=3)
            assert normal_closure_lcs_degree(w, everything, 5) == lcs_degree(w, 5)

    def test_conjugation_invariance(self, rng):
        # conjugating by complement words does not change the closure degree
        for _ in range(20):
            w = random_closure_word(rng, {1}, ambient=3, conjugates=4)
            d = normal_closure_lcs_degree(w, {1}, 5)
            for t in [(2,), (3, -2), (2, 3, 2)]:
                assert normal_closure_lcs_degree(conjugate(w, t), {1}, 5) == d

    def test_deep_membership(self):
        a = (1,)
        b = conjugate((1,), (2,))
        nest = a
        for part in (b, a, b):
            nest = concat(nest, part, invert(nest), invert(part))
        assert normal_closure_lcs_degree(nest, {1}, 5) == 4
