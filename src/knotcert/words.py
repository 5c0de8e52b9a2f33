"""Exact free-group word arithmetic.

A letter is a nonzero integer: ``+k`` is the k-th free generator, ``-k``
its inverse.  A word is a tuple of letters kept in freely reduced form;
since reduced forms are unique, tuple equality is equality in the free
group.  Tagged words keep the unreduced letter sequence of a commutator
expansion together with the index of the entry each letter realizes,
which is what the letter-set trivializer needs.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from ._value import Record, located_tokens


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent g, g^-1 pairs)."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValueError("letters must be nonzero integers")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def concat(*words: Sequence[int]) -> tuple[int, ...]:
    merged: list[int] = []
    for w in words:
        merged.extend(w)
    return reduce_word(merged)


def invert(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.neg, reversed(word)))


def conjugate(word: Sequence[int], by: Sequence[int]) -> tuple[int, ...]:
    """Return by * word * by^-1."""
    return concat(by, word, invert(by))


def generators_in(word: Sequence[int]) -> frozenset[int]:
    return frozenset(map(abs, word))


def kill_generators(word: Sequence[int], subset: Iterable[int]) -> tuple[int, ...]:
    """Image of ``word`` in the free group on the complement of ``subset``.

    Killing the normal closure of a generator subset leaves a free group
    on the remaining generators; the induced quotient map just deletes
    the killed letters (and reduces).
    """
    killed = frozenset(subset)
    return reduce_word(l for l in word if abs(l) not in killed)


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


def _check_entries(entries: Sequence[int]) -> None:
    """ValueError unless ``entries`` are two or more nonzero letters."""
    if len(entries) < 2:
        raise ValueError("a commutator needs at least two entries")
    if any(e == 0 for e in entries):
        raise ValueError("entries must be nonzero letters")


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


def _push_reduced(out: list[int], piece: Sequence[int]) -> None:
    """Append a reduced word to the reduced word ``out``, keeping it reduced.

    Both sides are already reduced, so letters can cancel only at the
    junction: pop while the end of ``out`` inverts the head of ``piece``.
    """
    i, n = 0, len(piece)
    while i < n and out and out[-1] == -piece[i]:
        out.pop()
        i += 1
    out.extend(piece[i:] if i else piece)


def commutator_word(entries: Sequence[int]) -> tuple[int, ...]:
    """Reduced word of the left-normed commutator on ``entries``.

    Built stage by stage from the reduced prefix as w' = w y w^-1 y^-1,
    cancelling only at the junctions, so the unreduced nest of
    3*2^(k-1)-2 letters (weight k) that ``simple_commutator`` spells out
    is never formed.
    """
    _check_entries(entries)
    w: tuple[int, ...] = (entries[0],)
    for y in entries[1:]:
        out = list(w)
        for piece in ((y,), invert(w), (-y,)):
            _push_reduced(out, piece)
        w = tuple(out)
    return w


def insert_canceling_pair(tagged: TaggedWord, position: int, letter: int) -> TaggedWord:
    """Insert ``letter * letter^-1`` at ``position``; element unchanged."""
    if letter == 0:
        raise ValueError("letter must be nonzero")
    if not 0 <= position <= len(tagged):
        raise ValueError(f"position {position} out of range 0..{len(tagged)}")
    letters = tagged.letters[:position] + (letter, -letter) + tagged.letters[position:]
    tags = tagged.tags[:position] + (None, None) + tagged.tags[position:]
    return TaggedWord(letters, tags)


def delete_letters(tagged: TaggedWord, positions: Iterable[int]) -> tuple[int, ...]:
    """Delete the letters at ``positions`` (unreduced indices), then reduce."""
    drop = set(positions)
    for p in drop:
        if not 0 <= p < len(tagged):
            raise ValueError(f"position {p} out of range 0..{len(tagged) - 1}")
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


# ---------------------------------------------------------------------------
# Text syntax: whitespace-separated tokens `g<k>` / `g<k>^-1`, or signed
# integers.  Emitted form is the token form.


class WordSyntaxError(ValueError):
    """A bad token; ``message`` names it without its position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _parse_token(tok: str, line: int, column: int) -> int:
    if tok.startswith("g"):
        body = tok[1:]
        sign = 1
        if body.endswith("^-1"):
            sign = -1
            body = body[:-3]
        try:
            index = int(body) if body.isdecimal() else 0
        except ValueError:  # more digits than int() converts
            index = 0
        if index < 1:
            raise WordSyntaxError(f"bad generator token {tok!r}", line, column)
        return sign * index
    try:
        value = int(tok)
    except ValueError:
        raise WordSyntaxError(f"bad token {tok!r}", line, column) from None
    if value == 0:
        raise WordSyntaxError("generator index 0 is not allowed", line, column)
    return value


def parse_letters(text: str) -> tuple[int, ...]:
    """Parse word text into a raw (unreduced) letter sequence.

    Accepts ``g3 g1^-1`` tokens and signed integers (``3 -1``), mixed
    freely.  The empty string is the empty sequence.  Each distinct
    token is parsed once; every line break is whitespace to
    ``str.split``, so the tokens are those of the line-by-line scan,
    which runs only to place the first bad token by line and column.
    """
    tokens = text.split()
    try:
        table = {tok: _parse_token(tok, 1, 1) for tok in set(tokens)}
    except WordSyntaxError:
        table = None
    if table is None:
        return _scan_lines(text)  # raises at the first bad token
    return tuple(map(table.__getitem__, tokens))


def _scan_lines(text: str) -> tuple[int, ...]:
    """``parse_letters`` token by token, placing a bad token by line and column."""
    return tuple(
        _parse_token(tok, lineno, col)
        for lineno, linetext in enumerate(text.splitlines(), start=1)
        for col, tok in located_tokens(linetext)
    )


def parse_word(text: str) -> tuple[int, ...]:
    """Parse word text into a reduced word."""
    return reduce_word(parse_letters(text))


def format_word(word: Sequence[int]) -> str:
    return " ".join(f"g{l}" if l > 0 else f"g{-l}^-1" for l in word)
