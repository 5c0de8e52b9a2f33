import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotcert import words
from knotcert.words import (
    TaggedWord,
    WordSyntaxError,
    commutator_word,
    concat,
    conjugate,
    delete_letters,
    format_word,
    insert_canceling_pair,
    invert,
    kill_generators,
    parse_letters,
    parse_word,
    reduce_word,
    simple_commutator,
    successive_entry_check,
)

from conftest import words_strategy


def cyclic_reduce(word):
    """Cyclically reduced form (a conjugate of ``word``)."""
    w = reduce_word(word)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(w[lo:hi])


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([1, -1]) == ()

    def test_nested_cancellation(self):
        assert reduce_word([1, 2, -2, -1]) == ()

    def test_already_reduced(self):
        assert reduce_word([1, 2, -1]) == (1, 2, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reduce_word([1, 0])

    @given(words_strategy())
    def test_idempotent(self, w):
        assert reduce_word(reduce_word(w)) == reduce_word(w)


class TestGroupOps:
    def test_identity_conjugation(self):
        assert conjugate((), (1, 2)) == ()

    def test_inverse_law(self):
        w = (1, 2, -3)
        assert concat(w, invert(w)) == ()

    def test_anti_homomorphism(self):
        assert invert((1, 2)) == (-2, -1)

    @given(words_strategy())
    def test_double_inverse(self, w):
        assert invert(invert(w)) == tuple(w)

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_concat_associative(self, u, v, w):
        assert concat(concat(u, v), w) == concat(u, concat(v, w))

    @given(words_strategy())
    def test_empty_identity(self, w):
        assert concat(w, ()) == concat((), w) == reduce_word(w)

    @given(words_strategy())
    def test_cyclic_reduce_is_conjugate(self, w):
        core = cyclic_reduce(w)
        assert len(core) <= len(reduce_word(w))
        if core:
            assert core[0] != -core[-1]


class TestKillGenerators:
    def test_kill_single(self):
        assert kill_generators((1, 2, -1), {1}) == (2,)

    def test_kill_commutator(self):
        assert kill_generators(commutator_word((1, 2)), {1, 2}) == ()

    def test_kill_nothing(self):
        assert kill_generators((1, 2, -2, 3), set()) == (1, 3)

    @given(words_strategy(), words_strategy(), st.sets(st.integers(1, 4)))
    def test_homomorphism(self, u, v, s):
        assert kill_generators(concat(u, v), s) == concat(
            kill_generators(u, s), kill_generators(v, s)
        )


class TestSimpleCommutator:
    def test_weight_two(self):
        tw = simple_commutator((1, 2))
        assert tw.letters == (1, 2, -1, -2)
        assert tw.tags == (1, 2, 1, 2)

    def test_weight_three_expansion(self):
        tw = simple_commutator((1, 2, 3))
        assert tw.letters == (1, 2, -1, -2, 3, 2, 1, -2, -1, -3)
        assert tw.tags.count(1) == 4

    def test_equal_entries_trivial(self):
        assert simple_commutator((1, 1)).word() == ()

    def test_repeated_stage_collapses(self):
        # empty inner word at any stage collapses the whole nest
        assert simple_commutator((1, 1, 2)).word() == ()
        assert simple_commutator((2, 2, 1, 3)).word() == ()

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            simple_commutator((1,))

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3]), min_size=2, max_size=5))
    def test_tags_cover_entries(self, entries):
        tw = simple_commutator(tuple(entries))
        assert set(t for t in tw.tags) == set(range(1, len(entries) + 1))
        # stripping tags and reducing gives the group element of the nest
        by_group = tw.word()
        expected = tuple(entries[:1])
        for stage, y in enumerate(entries[1:], start=2):
            expected = concat(expected, (y,), invert(expected), (-y,))
        assert by_group == expected


class TestCommutatorWord:
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=2, max_size=8))
    def test_matches_reduced_nest(self, entries):
        # repeats and negative letters make the junctions cancel, down to
        # the trivial word when an inner stage collapses
        assert commutator_word(entries) == reduce_word(simple_commutator(entries).letters)

    @pytest.mark.parametrize("entries, message", [
        ((1,), "at least two entries"),
        ((), "at least two entries"),
        ((1, 0, 2), "nonzero letters"),
    ])
    def test_errors_match_simple_commutator(self, entries, message):
        for build in (commutator_word, simple_commutator):
            with pytest.raises(ValueError, match=message):
                build(entries)


class TestInsertDelete:
    def test_insert_into_empty(self):
        tw = TaggedWord((), ())
        out = insert_canceling_pair(tw, 0, 3)
        assert out.letters == (3, -3) and out.word() == ()

    def test_insert_position(self):
        tw = simple_commutator((1, 2))
        out = insert_canceling_pair(tw, 2, 3)
        assert out.letters == (1, 2, 3, -3, -1, -2)
        assert out.word() == tw.word()

    def test_double_insert_reduces_back(self):
        tw = simple_commutator((1, 2))
        out = insert_canceling_pair(insert_canceling_pair(tw, 1, 3), 4, 2)
        assert out.word() == tw.word()

    def test_delete_pair(self):
        tw = TaggedWord((1, -1), (1, 1))
        assert delete_letters(tw, {0, 1}) == ()

    def test_delete_entry_one_of_weight3(self):
        tw = simple_commutator((1, 2, 3))
        assert delete_letters(tw, tw.positions_with_tag(1)) == ()

    def test_delete_nothing(self):
        tw = simple_commutator((1, 2))
        assert delete_letters(tw, set()) == tw.word()

    def test_delete_out_of_range(self):
        with pytest.raises(ValueError):
            delete_letters(simple_commutator((1, 2)), {99})


class TestSuccessiveEntries:
    def test_two_ok(self):
        assert successive_entry_check((1, 2, 2, 3)) is True

    def test_three_fail(self):
        assert successive_entry_check((1, 2, 2, 2)) is False

    def test_short(self):
        assert successive_entry_check((1, 2)) is True

    def test_signs_ignored(self):
        assert successive_entry_check((1, 2, -2, 2)) is False


class TestTextSyntax:
    def test_tokens(self):
        assert parse_word("g1 g3^-1 g1^-1") == (1, -3, -1)

    def test_integers(self):
        assert parse_word("1 -3 -1") == (1, -3, -1)

    def test_mixed(self):
        assert parse_word("g2 -1") == (2, -1)

    def test_empty(self):
        assert parse_word("") == ()

    def test_parse_does_reduce(self):
        assert parse_word("g1 g1^-1") == ()
        assert parse_letters("g1 g1^-1") == (1, -1)

    def test_bad_token_diagnostic(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("g1 gX")
        assert err.value.line == 1 and err.value.column == 4

    def test_zero_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("0")

    @given(words_strategy())
    def test_roundtrip(self, w):
        w = reduce_word(w)
        assert parse_word(format_word(w)) == w


def parse_outcome(parse, text):
    """Letters, or the error's message, line and column."""
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return str(exc), exc.line, exc.column


GOOD_TOKENS = ["g1", "g3^-1", "g12", "-3", "2", "+4", "g2"]
BAD_TOKENS = ["gx", "g0", "0", "g", "x", "g1^-2", "g-1", "g\u00b2", "--1"]
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\f", "\v", "\x1c", "\x85", "\u2028"]


class TestParseFastPath:
    """``parse_letters`` against the line-by-line scan it falls back to."""

    @given(st.lists(st.tuples(st.sampled_from(SEPARATORS),
                              st.sampled_from(GOOD_TOKENS + BAD_TOKENS)), max_size=30),
           st.sampled_from(["", " ", "\n", "\r\n"]))
    def test_matches_line_scan(self, parts, tail):
        text = "".join(sep + tok for sep, tok in parts) + tail
        assert parse_outcome(parse_letters, text) == parse_outcome(words._scan_lines, text)

    @pytest.mark.parametrize("text, expected", [
        ("", ()),
        ("  \n\r\n\f ", ()),
        ("g3^-1 -3 g2\r\n2 g1\f-1", (-3, -3, 2, 2, 1, -1)),
        ("g1 g1 g1^-1\n+2 g1", (1, 1, -1, 2, 1)),
    ])
    def test_letters(self, text, expected):
        assert parse_letters(text) == words._scan_lines(text) == expected

    @pytest.mark.parametrize("text, message", [
        ("g1 g2\ng3 g1 gx", "line 2, col 7: bad generator token 'gx'"),
        ("g1\r\n g2\r\n\t-1 0 g1", "line 3, col 5: generator index 0 is not allowed"),
        ("g1\fg2 g3 x2", "line 2, col 7: bad token 'x2'"),
        # the same bad token twice: the first occurrence is reported
        ("g1 q\nq", "line 1, col 4: bad token 'q'"),
        # a good token repeated before the bad one
        ("g2 g2 g2 g2^-1 g2^-2", "line 1, col 16: bad generator token 'g2^-2'"),
        ("g\u00b2", "line 1, col 1: bad generator token 'g\u00b2'"),
    ])
    def test_error_position(self, text, message):
        assert parse_outcome(parse_letters, text)[0] == message
        assert parse_outcome(parse_letters, text) == parse_outcome(words._scan_lines, text)
