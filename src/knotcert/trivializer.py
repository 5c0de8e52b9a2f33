"""Disjoint letter sets whose every nonempty subfamily deletion kills a word.

For a product of simple quasi-commutators of equal weight m+1, the
positions realizing entry i across all factors form the set C_i; the
C_1..C_{m+1} are disjoint, inserted canceling pairs belong to none of
them, and deleting the union of any nonempty subfamily frees the whole
word to the identity.  ``verify_family`` checks all 2^(m+1)-1 deletions
exhaustively rather than trusting the construction.  It joins reduced
segment images with ``words._cancel_length``, the junction cancellation
that ``words`` builds its reduced products on.

The tagged words live here too: ``simple_commutator`` keeps the
unreduced letter sequence of a commutator expansion together with the
index of the entry each letter realizes, ``insert_canceling_pair`` and
``delete_letters`` edit it, and ``successive_entry_check`` bounds the
entry runs.  ``words`` keeps only reduced words, so a certificate
check, which never builds a tagged word, does not compile them.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterable, Sequence

from ._value import Record, quoted
from .words import _cancel_length, _check_entries, reduce_word


class TaggedWord(Record):
    """Unreduced letter sequence with per-letter origin tags.

    ``tags[i]`` is the 1-based index of the commutator entry that letter
    ``letters[i]`` realizes, or ``None`` for letters of an inserted
    canceling pair.
    """

    letters: tuple[int, ...]
    tags: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.letters) != len(self.tags):
            raise ValueError("letters and tags must have equal length")

    def __len__(self) -> int:
        return len(self.letters)

    def word(self) -> tuple[int, ...]:
        """The reduced word, tags dropped."""
        return reduce_word(self.letters)

    def positions_with_tag(self, tag: int) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.tags) if t == tag)


def simple_commutator(entries: Sequence[int]) -> TaggedWord:
    """Expand the left-normed commutator [y1, y2, ..., y_{m+1}].

    The nest [[..[[y1,y2],y3]..], y_{m+1}] is expanded fully, with the
    inverse of each stage written out letter by letter, so every letter
    carries the index of the entry it realizes.  No free reduction is
    performed; use ``.word()`` for the group element.
    """
    _check_entries(entries)
    letters = [entries[0]]
    tags: list[int | None] = [1]
    for stage, y in enumerate(entries[1:], start=2):
        inv_letters = [-l for l in reversed(letters)]
        inv_tags = list(reversed(tags))
        letters = letters + [y] + inv_letters + [-y]
        tags = tags + [stage] + inv_tags + [stage]
    return TaggedWord(tuple(letters), tuple(tags))


def insert_canceling_pair(tagged: TaggedWord, position: int, letter: int) -> TaggedWord:
    """Insert ``letter * letter^-1`` at ``position``; element unchanged."""
    if letter == 0:
        raise ValueError("letter must be nonzero")
    if not 0 <= position <= len(tagged):
        raise ValueError(f"position {quoted(str(position), str)} out of range 0..{len(tagged)}")
    letters = tagged.letters[:position] + (letter, -letter) + tagged.letters[position:]
    tags = tagged.tags[:position] + (None, None) + tagged.tags[position:]
    return TaggedWord(letters, tags)


def delete_letters(tagged: TaggedWord, positions: Iterable[int]) -> tuple[int, ...]:
    """Delete the letters at ``positions`` (unreduced indices), then reduce."""
    drop = set(positions)
    for p in drop:
        if not 0 <= p < len(tagged):
            raise ValueError(f"position {quoted(str(p), str)} out of range 0..{len(tagged) - 1}")
    return reduce_word(l for i, l in enumerate(tagged.letters) if i not in drop)


def successive_entry_check(entries: Sequence[int]) -> bool:
    """True iff no generator occupies three or more consecutive entries.

    Signs are ignored: y and y^-1 count as the same generator.
    """
    run = 0
    prev = 0
    for e in entries:
        g = abs(e)
        if g == prev:
            run += 1
            if run >= 3:
                return False
        else:
            prev = g
            run = 1
    return True


class LetterSetFamily(Record):
    """m+1 pairwise disjoint position sets into an unreduced tagged word."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.sets) < 2:
            raise ValueError("a family needs at least two sets")
        seen: set[int] = set()
        for s in self.sets:
            if seen & s:
                raise ValueError("letter sets must be pairwise disjoint")
            seen |= s

    def __len__(self) -> int:
        return len(self.sets)


class FamilyCheck(Record):
    ok: bool
    checked: int
    failing_subfamily: tuple[int, ...] | None = None
    failing_word: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def build_letter_sets(
    factors: Sequence[Sequence[int]],
    insertions: Sequence[tuple[int, int]] = (),
) -> tuple[TaggedWord, LetterSetFamily]:
    """Concatenate tagged commutator expansions and collect entry sets.

    All factors must have the same weight m+1; ``insertions`` is a list
    of (position, letter) canceling pairs applied in order to the
    growing concatenation (positions index the word as it stands when
    the insertion happens).  C_i collects every position whose tag is i;
    inserted letters carry no tag and land in no set.
    """
    if not factors:
        raise ValueError("need at least one factor")
    weights = {len(f) for f in factors}
    if len(weights) != 1:
        raise ValueError(f"factors have unequal weights {sorted(weights)}")
    (weight,) = weights
    if weight < 2:
        raise ValueError("factor weight must be >= 2")

    letters: list[int] = []
    tags: list[int | None] = []
    for entries in factors:
        expansion = simple_commutator(entries)
        letters.extend(expansion.letters)
        tags.extend(expansion.tags)
    tagged = TaggedWord(tuple(letters), tuple(tags))
    for position, letter in insertions:
        tagged = insert_canceling_pair(tagged, position, letter)

    family = LetterSetFamily(
        tuple(
            frozenset(i for i, t in enumerate(tagged.tags) if t == entry)
            for entry in range(1, weight + 1)
        )
    )
    return tagged, family


# Segments of at most this many letters are leaves of the deletion tree.
_LEAF_LETTERS = 64
# A segment carrying at most this many labels keeps its images.
_MEMO_LABELS = 7


def _segment(letters: Sequence[int], labels: Sequence[int], lo: int, hi: int,
             kept_above: bool) -> list:
    """Deletion tree over ``letters[lo:hi]``.

    A node is [held, memo, letters, labels] for a leaf and [held, memo,
    left node, right node] otherwise, where ``held`` is the OR of its
    positions' labels.  Only the largest segments with few labels keep a
    memo (a dict, else None): below one, a segment is asked for at most
    as many images as its ancestor keeps, so a second memo would save
    little and cost as much.
    """
    held = 0
    for t in labels[lo:hi]:
        held |= t
    memo = {} if not kept_above and held.bit_count() <= _MEMO_LABELS else None
    if hi - lo <= _LEAF_LETTERS:
        return [held, memo, tuple(letters[lo:hi]), tuple(labels[lo:hi])]
    mid = (lo + hi) // 2
    kept = kept_above or memo is not None
    return [held, memo, _segment(letters, labels, lo, mid, kept),
            _segment(letters, labels, mid, hi, kept)]


def _image(node: list, mask: int, pool: dict) -> tuple[int, ...]:
    """Reduced word of the node's segment with the labels in ``mask`` deleted.

    A kept image is stored through ``pool``, so each distinct word is
    held once however many memos refer to it.
    """
    held, memo, first, second = node
    key = mask & held
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit
    if type(first) is tuple:
        out: list[int] = []
        for letter, label in zip(first, second):
            if label & key:
                continue
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        word = tuple(out)
    else:
        left, right = _image(first, key, pool), _image(second, key, pool)
        cut = _cancel_length(left, right)
        word = left[:len(left) - cut] + right[cut:] if cut else left + right
    if memo is not None:
        word = memo[key] = pool.setdefault(word, word)
    return word


def verify_family(tagged: TaggedWord, family: LetterSetFamily) -> FamilyCheck:
    """Check that every nonempty subfamily deletion reduces to the identity.

    Walks all 2^(m+1)-1 nonempty subfamilies, by size and then in
    ``combinations`` order, and reports the first one whose deletion
    leaves a nontrivial word.  Every position must index the word; one
    that does not raises ValueError before any deletion.

    Deletion work is shared between subfamilies.  Each position gets the
    bitmask of the set it lies in, and the word is split into a balanced
    tree of segments with leaves of at most 64 letters.  The reduced
    image of a segment under a deletion mask depends only on the mask
    restricted to the segment's own labels, so the largest segments with
    at most 7 labels keep their images keyed by that restriction.  That
    is at most 128 images per kept segment, none longer than it, so at
    most 128 letters per letter of the word; each distinct image is
    stored once.  Every other image is recomputed, a node's by joining
    its children's images with cancellation at the junction only.  Free
    reduction is confluent, so each subfamily still gets exactly the
    reduced word that deleting its letters and reducing gives, and it is
    compared with the empty word.
    """
    n = len(tagged)
    labels = [0] * n
    for j, chosen in enumerate(family.sets):
        bit = 1 << j
        for p in chosen:
            if not 0 <= p < n:
                raise ValueError(f"position {quoted(str(p), str)} out of range 0..{n - 1}")
            labels[p] |= bit
    root = _segment(tagged.letters, labels, 0, n, False)
    pool: dict[tuple[int, ...], tuple[int, ...]] = {}
    indices = range(len(family))
    checked = 0
    for size in range(1, len(family) + 1):
        for chosen in combinations(indices, size):
            mask = 0
            for i in chosen:
                mask |= 1 << i
            checked += 1
            leftover = _image(root, mask, pool)
            if leftover:
                return FamilyCheck(False, checked, chosen, leftover)
    return FamilyCheck(True, checked)


def extremal_entry_word(k: int, m: int) -> tuple[int, ...]:
    """Entry sequence with the bad-set-maximizing parity pattern.

    Generator 1 plays the band generator x0 and 1+i plays y_i.  The
    full period [x0, y1, y1, x0, x0, ..., yk, yk, x0, x0, y1, y1, ...,
    yk, yk] has length 6k+1; the sequence is cycled or truncated to
    weight m+1 and always passes the successive-entry check.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m + 1 < 3:
        raise ValueError("need weight m+1 >= 3")
    x0 = 1
    period: list[int] = [x0]
    for i in range(1, k + 1):
        period.extend((1 + i, 1 + i, x0, x0))
    for i in range(1, k + 1):
        period.extend((1 + i, 1 + i))
    entries = tuple(period[i % len(period)] for i in range(m + 1))
    if not successive_entry_check(entries):  # pragma: no cover - by construction
        raise RuntimeError("parity pattern violated the successive-entry bound")
    return entries
