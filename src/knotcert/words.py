"""Exact free-group word arithmetic.

A letter is a nonzero integer: ``+k`` is the k-th free generator, ``-k``
its inverse.  A word is a tuple of letters kept in freely reduced form;
since reduced forms are unique, tuple equality is equality in the free
group.  The tagged, unreduced commutator expansions that the letter-set
trivializer needs are in ``trivializer``.
"""

from __future__ import annotations

from itertools import compress, count
from operator import add, neg
from collections.abc import Iterable, Sequence

from ._value import IntegerTooLong, integer, located_tokens, quoted


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
    return tuple(map(neg, reversed(word)))


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


def _check_entries(entries: Sequence[int]) -> None:
    """ValueError unless ``entries`` are two or more nonzero letters."""
    if len(entries) < 2:
        raise ValueError("a commutator needs at least two entries")
    if any(e == 0 for e in entries):
        raise ValueError("entries must be nonzero letters")


def _cancel_length(left: Sequence[int], right: Sequence[int]) -> int:
    """Letters that cancel where reduced ``left`` meets reduced ``right``.

    Both sides are reduced, so letters cancel only at the junction: pair
    the end of ``left``, read backwards, with the head of ``right``, and
    the first pair whose sum is not 0 ends the cancellation.  The scan
    runs in C iterators, with no Python step per letter.
    """
    if not left or not right or left[-1] != -right[0]:
        return 0
    return next(compress(count(), map(add, reversed(left), right)), min(len(left), len(right)))


def _push_reduced(out: list[int], piece: Sequence[int]) -> None:
    """Append a reduced word to the reduced word ``out``, keeping it reduced."""
    cut = _cancel_length(out, piece)
    del out[len(out) - cut:]
    out.extend(piece[cut:] if cut else piece)


def _left_normed(parts: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Reduced word of the left-normed commutator [u1, ..., uk] of reduced
    words, built stage by stage as w' = w u w^-1 u^-1 with cancellation at
    the junctions only, so the unreduced nest is never formed."""
    w = tuple(parts[0])
    for u in parts[1:]:
        out = list(w)
        # u^-1 is spelled out, so a stage makes one public (traced) call, invert(w)
        for piece in (u, invert(w), [-l for l in reversed(u)]):
            _push_reduced(out, piece)
        w = tuple(out)
    return w


def commutator_word(entries: Sequence[int]) -> tuple[int, ...]:
    """Reduced word of the left-normed commutator on ``entries``.

    The one-letter case of ``_left_normed``: the unreduced nest of
    3*2^(k-1)-2 letters (weight k) that ``trivializer.simple_commutator``
    spells out is never formed.
    """
    _check_entries(entries)
    return _left_normed([(e,) for e in entries])


# ---------------------------------------------------------------------------
# Text syntax: whitespace-separated tokens `g<k>` / `g<k>^-1`, or signed
# integers, all in ASCII digits (``_value.integer``).  Emitted form is the
# token form.


class WordSyntaxError(ValueError):
    """A bad token; ``message`` names it without its position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _parse_token(tok: str, line: int, column: int) -> int:
    if tok.startswith("g"):
        body, sign = (tok[1:-3], -1) if tok.endswith("^-1") else (tok[1:], 1)
        try:
            index = integer(body, signed=False)
        except IntegerTooLong as exc:
            raise WordSyntaxError(str(exc), line, column) from None
        except ValueError:
            index = 0
        if index < 1:
            raise WordSyntaxError(f"bad generator token {quoted(tok)}", line, column)
        return sign * index
    try:
        value = integer(tok)
    except IntegerTooLong as exc:
        raise WordSyntaxError(str(exc), line, column) from None
    except ValueError:
        raise WordSyntaxError(f"bad token {quoted(tok)}", line, column) from None
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
