"""Reidemeister-Schreier rewriting for normal closures of generator sets.

The kernel of killing a generator subset S is the normal closure G_S,
which is free on the Schreier generators t s t^-1, where s runs over S
and t over reduced words in the complement letters (each coset of G_S
has a unique such representative, so there is no transversal choice to
make).  Rewriting a word of G_S over that alphabet is a single
left-to-right pass, and the lower central series degree of the word
inside G_S is the Magnus degree of the rewritten word in the free group
on the finitely many Schreier letters that occur.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .magnus import lcs_degree
from .words import kill_generators, reduce_word


class NotInNormalClosure(ValueError):
    """The word does not lie in the normal closure of the subset."""


class SchreierLetter(NamedTuple):
    """One Schreier generator occurrence: conjugator * base * conjugator^-1.

    ``conjugator`` is a reduced word over the non-killed generators and
    ``base`` a signed letter whose generator lies in the killed set; a
    negative base marks the inverse of the Schreier generator.
    """

    conjugator: tuple[int, ...]
    base: int


def schreier_rewrite(word: Sequence[int], subset: Sequence[int]) -> tuple[SchreierLetter, ...]:
    """Rewrite a word of the normal closure of ``subset`` over Schreier letters.

    Substituting conjugator * base * conjugator^-1 for every letter and
    reducing recovers the word exactly.  Raises NotInNormalClosure when
    the image under killing ``subset`` is nontrivial.
    """
    killed = frozenset(abs(s) for s in subset)
    word = reduce_word(word)
    image = kill_generators(word, killed)
    if image:
        raise NotInNormalClosure(
            f"word has nontrivial image {image} after killing {sorted(killed)}"
        )
    coset: list[int] = []
    out: list[SchreierLetter] = []
    for letter in word:
        if abs(letter) in killed:
            out.append(SchreierLetter(tuple(coset), letter))
        elif coset and coset[-1] == -letter:
            coset.pop()
        else:
            coset.append(letter)
    return tuple(out)


def schreier_substitute(letters: Sequence[SchreierLetter]) -> tuple[int, ...]:
    """Expand Schreier letters back into the ambient free group."""
    merged: list[int] = []
    for conj, base in letters:
        merged.extend(conj)
        merged.append(base)
        merged.extend(-c for c in reversed(conj))
    return reduce_word(merged)


def schreier_alphabet_word(
    letters: Sequence[SchreierLetter],
) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]:
    """Relabel Schreier letters as generators 1..K of a free group.

    Returns the reduced word over the new alphabet together with the
    table mapping each index (1-based) to its (conjugator, base
    generator) key, ordered by conjugator length, then conjugator, then
    base generator, for deterministic output.
    """
    keys = sorted(
        {(conj, abs(base)) for conj, base in letters},
        key=lambda k: (len(k[0]), k[0], k[1]),
    )
    index = {key: i + 1 for i, key in enumerate(keys)}
    relabeled = [
        index[(conj, abs(base))] * (1 if base > 0 else -1) for conj, base in letters
    ]
    return reduce_word(relabeled), keys


def rewrite_to_word(word: Sequence[int], subset: Sequence[int]) -> tuple[int, ...]:
    """Schreier rewriting straight to a word over generators 1..K."""
    relabeled, _ = schreier_alphabet_word(schreier_rewrite(word, subset))
    return relabeled


def normal_closure_lcs_degree(
    word: Sequence[int], subset: Sequence[int], degree: int
) -> int | None:
    """Lower-central-series degree of ``word`` inside the normal closure.

    The closure is free on its Schreier generators, and the lower
    central series of a free factor is the trace of the ambient one, so
    the Magnus degree of the rewritten word over the occurring letters
    is the answer.  None means the degree exceeds ``degree``.
    """
    return lcs_degree(rewrite_to_word(word, subset), degree)
