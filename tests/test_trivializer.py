from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import letters_strategy, words_strategy
from knotcert import trivializer
from knotcert.trivializer import (
    FamilyCheck,
    LetterSetFamily,
    TaggedWord,
    build_letter_sets,
    delete_letters,
    extremal_entry_word,
    simple_commutator,
    successive_entry_check,
    verify_family,
)
from knotcert.words import _cancel_length, reduce_word

LETTERS = [s * g for g in (1, 2, 3) for s in (1, -1)]


def oracle_verify(tagged: TaggedWord, family: LetterSetFamily) -> FamilyCheck:
    """One ``delete_letters`` pass over the whole word per subfamily."""
    indices = range(len(family))
    checked = 0
    for size in range(1, len(family) + 1):
        for chosen in combinations(indices, size):
            positions: set[int] = set()
            for i in chosen:
                positions |= family.sets[i]
            checked += 1
            leftover = delete_letters(tagged, positions)
            if leftover:
                return FamilyCheck(False, checked, chosen, leftover)
    return FamilyCheck(True, checked)


def family_of(letters, owners, k: int) -> tuple[TaggedWord, LetterSetFamily]:
    """Set j collects the positions whose owner is j + 1; owner 0 is no set."""
    tagged = TaggedWord(tuple(letters), tuple(o or None for o in owners))
    sets = tuple(frozenset(i for i, o in enumerate(owners) if o == j + 1) for j in range(k))
    return tagged, LetterSetFamily(sets)


@st.composite
def random_families(draw):
    """Random words over +-1..+-3, mostly not commutators, with 2-7 sets."""
    letters = draw(st.lists(letters_strategy(3), max_size=400))
    k = draw(st.integers(2, 7))
    owners = draw(st.lists(st.integers(0, k), min_size=len(letters), max_size=len(letters)))
    return family_of(letters, owners, k)


@st.composite
def built_families(draw):
    """``build_letter_sets`` output with insertions, some positions moved.

    Moving a position to another set or to none breaks the family at
    some subfamilies and not others, so failures come at varied places
    in the enumeration.
    """
    weight = draw(st.integers(2, 7))
    entries = st.lists(letters_strategy(3), min_size=weight, max_size=weight)
    factors = draw(st.lists(entries, min_size=1, max_size=3))
    tagged, _ = build_letter_sets(factors)
    pairs = st.tuples(st.integers(0, len(tagged)), letters_strategy(3))
    insertions = draw(st.lists(pairs, max_size=3))
    tagged, _ = build_letter_sets(factors, insertions)
    owners = [t or 0 for t in tagged.tags]
    moves = st.tuples(st.integers(0, len(owners) - 1), st.integers(0, weight))
    for position, owner in draw(st.lists(moves, max_size=3)):
        owners[position] = owner
    return family_of(tagged.letters, owners, weight)


class TestBuild:
    def test_single_weight_two(self):
        tagged, family = build_letter_sets([(1, 2)])
        assert family.sets == (frozenset({0, 2}), frozenset({1, 3}))
        assert delete_letters(tagged, family.sets[0]) == ()
        assert delete_letters(tagged, family.sets[1]) == ()

    def test_single_weight_three(self):
        tagged, family = build_letter_sets([(1, 2, 3)])
        assert delete_letters(tagged, family.sets[2]) == ()
        assert delete_letters(tagged, family.sets[0]) == ()

    def test_two_factors_span(self):
        tagged, family = build_letter_sets([(1, 2, 3), (3, 2, 1)])
        first = simple_commutator((1, 2, 3))
        # every set draws positions from both factors
        for s in family.sets:
            assert any(p < len(first) for p in s)
            assert any(p >= len(first) for p in s)
        check = verify_family(tagged, family)
        assert check.ok and check.checked == 7

    def test_unequal_weights_rejected(self):
        with pytest.raises(ValueError):
            build_letter_sets([(1, 2), (1, 2, 3)])

    def test_no_deletion_reproduces_element(self):
        factors = [(1, 2, 3), (2, 1, 3)]
        tagged, _ = build_letter_sets(factors)
        expected = reduce_word(
            simple_commutator(factors[0]).letters + simple_commutator(factors[1]).letters
        )
        assert tagged.word() == expected

    def test_insertions_keep_element_and_sets(self):
        tagged, family = build_letter_sets([(1, 2, 3)], insertions=[(2, 2), (5, -3)])
        bare, _ = build_letter_sets([(1, 2, 3)])
        assert tagged.word() == bare.word()
        inserted = [i for i, t in enumerate(tagged.tags) if t is None]
        assert len(inserted) == 4
        assert all(i not in s for s in family.sets for i in inserted)
        assert verify_family(tagged, family).ok

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            LetterSetFamily((frozenset({0, 1}), frozenset({1, 2})))


class TestVerify:
    def test_builder_output_verifies(self):
        tagged, family = build_letter_sets([(1, 2), (2, 3)])
        assert verify_family(tagged, family)

    def test_emptied_set_fails(self):
        tagged, family = build_letter_sets([(1, 2)])
        crippled = LetterSetFamily((frozenset(), family.sets[1]))
        check = verify_family(tagged, crippled)
        assert not check.ok
        assert check.failing_subfamily == (0,)
        assert check.failing_word == tagged.word()

    def test_empty_word_empty_sets(self):
        check = verify_family(TaggedWord((), ()), LetterSetFamily((frozenset(), frozenset())))
        assert check.ok

    def test_exhaustive_small(self):
        for weight in (2, 3):
            for entries in product(LETTERS, repeat=weight):
                if not successive_entry_check(entries):
                    continue
                tagged, family = build_letter_sets([entries])
                assert verify_family(tagged, family).ok, entries

    def test_random_products_with_insertions(self, rng):
        for _ in range(50):
            weight = rng.choice([2, 3, 4])
            factors = []
            for _ in range(rng.randint(1, 3)):
                while True:
                    e = tuple(rng.choice(LETTERS) for _ in range(weight))
                    if successive_entry_check(e):
                        factors.append(e)
                        break
            tagged, family = build_letter_sets(factors)
            insertions = []
            for _ in range(rng.randint(0, 2)):
                insertions.append((rng.randrange(len(tagged) + 1), rng.choice(LETTERS)))
            tagged, family = build_letter_sets(factors, insertions)
            assert verify_family(tagged, family).ok, (factors, insertions)


class TestSharedDeletions:
    """The segment-memoized ``verify_family`` against the per-subfamily oracle."""

    @settings(max_examples=200)
    @given(st.one_of(random_families(), built_families()), st.sampled_from([(64, 7), (8, 3), (2, 1)]))
    def test_matches_oracle(self, case, shape):
        # small leaves and label limits put memos below the root and
        # junctions everywhere, even in short words
        tagged, family = case
        leaf_letters, memo_labels = shape
        with patch.object(trivializer, "_LEAF_LETTERS", leaf_letters), \
                patch.object(trivializer, "_MEMO_LABELS", memo_labels):
            assert verify_family(tagged, family) == oracle_verify(tagged, family)

    @given(words_strategy(3, 40), words_strategy(3, 40))
    def test_cancel_length(self, left, right):
        left, right = reduce_word(left), reduce_word(right)
        joined = reduce_word(left + right)
        assert _cancel_length(left, right) == (len(left) + len(right) - len(joined)) // 2

    def test_failure_after_a_whole_size(self):
        # an empty third set leaves the commutator whole: the first failure
        # is (2,), the third subfamily by size (the third mask in numeric
        # order would be (0, 1))
        tagged, family = build_letter_sets([(1, 2)])
        padded = LetterSetFamily(family.sets + (frozenset(),))
        check = verify_family(tagged, padded)
        assert check == FamilyCheck(False, 3, (2,), tagged.word())
        assert check == oracle_verify(tagged, padded)

    def test_weight_ten_family(self, monkeypatch):
        # every kept image is keyed by the deletion mask restricted to its
        # segment's labels, so a segment keeps at most 2^labels images
        nodes = []
        build = trivializer._segment

        def recording(*args):
            node = build(*args)
            nodes.append(node)
            return node

        monkeypatch.setattr(trivializer, "_segment", recording)
        entries = (1, 2, -3, 1, 1, -2, 3, 3, -1, 2)
        tagged, family = build_letter_sets([entries, entries[::-1]], insertions=[(700, 2)])
        check = verify_family(tagged, family)
        assert check.ok and check.checked == 1023
        kept = [(held, memo) for held, memo, _, _ in nodes if memo is not None]
        assert len(kept) > 1  # below the root, which carries all ten labels
        for held, memo in kept:
            assert held.bit_count() <= trivializer._MEMO_LABELS
            assert all(key & ~held == 0 for key in memo)
            assert len(memo) == 1 << held.bit_count()

    @pytest.mark.parametrize("bad", [5, -1])
    def test_position_out_of_range(self, bad):
        # set 0 alone already fails; the bad position in set 1 is reported
        # before any deletion
        tagged = TaggedWord((1, -1), (1, 2))
        family = LetterSetFamily((frozenset({0}), frozenset({bad})))
        with pytest.raises(ValueError, match=rf"position {bad} out of range 0\.\.1"):
            verify_family(tagged, family)


class TestExtremal:
    def test_minimal_k1(self):
        assert extremal_entry_word(1, 6) == (1, 2, 2, 1, 1, 2, 2)

    def test_k2_prefix(self):
        assert extremal_entry_word(2, 12)[:9] == (1, 2, 2, 1, 1, 3, 3, 1, 1)

    def test_always_passes_successive_check(self):
        for k in (1, 2, 3):
            for m in range(2, 40):
                entries = extremal_entry_word(k, m)
                assert len(entries) == m + 1
                assert successive_entry_check(entries)

    def test_uses_k_plus_one_generators(self):
        entries = extremal_entry_word(2, 12)
        assert set(entries) == {1, 2, 3}

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extremal_entry_word(1, 1)
        with pytest.raises(ValueError):
            extremal_entry_word(0, 6)
