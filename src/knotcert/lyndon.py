"""Lyndon words and the degreewise free Lie algebra solver.

A homogeneous degree-d component of a Magnus expansion of a word in
F^(d) is a Lie element.  Writing it in the Lyndon basis is a triangular
peeling: the lexicographically smallest monomial of a Lie element is a
Lyndon word, the standard bracketing of that word has leading
coefficient 1, and every other monomial of the bracketing is strictly
larger.  Converting the standard bracketings back into left-normed
commutators uses [u, [a, b]] = [[u, a], b] - [[u, b], a] repeatedly,
so solutions come out as integer combinations of left-normed entry
sequences, the only shape the rest of the library emits.
"""

from __future__ import annotations

from collections.abc import Sequence

def is_lyndon(word: Sequence[int]) -> bool:
    w = tuple(word)
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Chen-Fox-Lyndon factorization u = v.w, w the least proper suffix."""
    w = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(w)], w


def bracketing(word: tuple[int, ...]):
    """Standard bracketing tree of a Lyndon word; leaves are letters."""
    if len(word) == 1:
        return word[0]
    left, right = standard_factorization(word)
    return (bracketing(left), bracketing(right))


def _poly_bracket(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            k = ma + mb
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                del out[k]
            k = mb + ma
            v = out.get(k, 0) - ca * cb
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _tree_poly(tree) -> dict[tuple[int, ...], int]:
    if isinstance(tree, int):
        return {(tree,): 1}
    return _poly_bracket(_tree_poly(tree[0]), _tree_poly(tree[1]))


def lyndon_lie_polynomial(word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Associative polynomial of the standard bracketing of a Lyndon word.

    Triangular: the coefficient of ``word`` itself is 1 and every other
    monomial is lexicographically larger.
    """
    poly = _tree_poly(bracketing(word))
    if poly.get(word) != 1 or min(poly) != word:
        raise RuntimeError(f"triangularity defect for Lyndon word {word}")
    return poly


def left_normed_lie_polynomial(entries: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Associative polynomial of the left-normed bracket [y1, ..., yd]."""
    poly: dict[tuple[int, ...], int] = {tuple(entries[:1]): 1}
    for y in entries[1:]:
        poly = _poly_bracket(poly, {(y,): 1})
    return poly


def _ln_append(base: dict[tuple[int, ...], int], tree, sign: int,
               out: dict[tuple[int, ...], int]) -> None:
    """Accumulate sign * [base, tree] into ``out`` as left-normed tuples."""
    if isinstance(tree, int):
        for entries, coeff in base.items():
            e = entries + (tree,)
            if len(e) == 2 and e[0] == e[1]:
                continue  # [y, y] = 0, and so is everything built on it
            v = out.get(e, 0) + sign * coeff
            if v:
                out[e] = v
            else:
                del out[e]
        return
    c, e = tree
    # [u, [c, e]] = [[u, c], e] - [[u, e], c]
    uc: dict[tuple[int, ...], int] = {}
    _ln_append(base, c, 1, uc)
    _ln_append(uc, e, sign, out)
    ue: dict[tuple[int, ...], int] = {}
    _ln_append(base, e, 1, ue)
    _ln_append(ue, c, -sign, out)


def left_normed_form(word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The standard bracketing of a Lyndon word as a left-normed combination.

    Returns entry-sequence -> integer coefficient with the same Lie
    element as ``lyndon_lie_polynomial(word)``.
    """
    return _left_normed(bracketing(word))


def _left_normed(tree) -> dict[tuple[int, ...], int]:
    """A bracketing tree as a left-normed combination: its left subtree's
    combination, bracketed key by key against the right subtree."""
    if isinstance(tree, int):
        return {(tree,): 1}
    out: dict[tuple[int, ...], int] = {}
    _ln_append(_left_normed(tree[0]), tree[1], 1, out)
    return out


def lie_coordinates(component: dict[tuple[int, ...], int]) -> list[tuple[tuple[int, ...], int]]:
    """Lyndon-basis coordinates of a homogeneous Lie element.

    Peels the lexicographically smallest monomial, which must be a
    Lyndon word with the basis coefficient, and subtracts its
    bracketing.  A residue whose smallest monomial is not Lyndon means
    the input was not a Lie element; that is a defect, not an error
    path, so it raises RuntimeError.
    """
    work = dict(component)
    coords: list[tuple[tuple[int, ...], int]] = []
    while work:
        mon = min(work)
        if not is_lyndon(mon):
            raise RuntimeError(f"non-Lie residue at monomial {mon}")
        coeff = work[mon]
        for m, c in lyndon_lie_polynomial(mon).items():
            v = work.get(m, 0) - coeff * c
            if v:
                work[m] = v
            else:
                del work[m]
        coords.append((mon, coeff))
    return coords


def left_normed_combination(component: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Express a homogeneous Lie element as sum of left-normed brackets.

    Returns entry-sequence -> integer coefficient; the sum of the
    left-normed Lie polynomials weighted by these coefficients equals
    the input exactly.
    """
    out: dict[tuple[int, ...], int] = {}
    for word, coeff in lie_coordinates(component):
        for entries, c in left_normed_form(word).items():
            v = out.get(entries, 0) + coeff * c
            if v:
                out[entries] = v
            else:
                del out[entries]
    return out
