"""Truncated non-commutative power series and the Magnus embedding.

The Magnus map sends x_k to 1 + X_k and x_k^-1 to the truncated
geometric series 1 - X_k + X_k^2 - ...; a word's expansion determines
its position in the lower central series: w lies in F^(k) iff the
expansion has no terms of degree 1..k-1.  The Milnor invariants and the
Fox coefficients that read these expansions are in ``milnor``, which a
certificate check never loads.

Monomials X_{i1}...X_{id} are packed into integers, 10 bits per index,
first index in the low bits, and stored in one dict per degree.  All
arithmetic is exact over the integers.  ``expand`` multiplies letter by
letter into those dicts; once a word over few generators has a large
enough state, it switches to one big integer per degree holding every
coefficient in a fixed-width slot (Kronecker substitution), where a
letter step is one shift and add per degree, and decodes into dicts at
the end.
"""

from __future__ import annotations

from math import comb
from collections.abc import Iterable, Sequence

_SHIFT = 10
_MASK = (1 << _SHIFT) - 1
MAX_GENERATOR = _MASK  # 1023


def pack_monomial(indices: Sequence[int]) -> int:
    acc = 0
    for i in reversed(indices):
        if not 1 <= i <= MAX_GENERATOR:
            raise ValueError(f"generator index {i} out of range 1..{MAX_GENERATOR}")
        acc = (acc << _SHIFT) | i
    return acc


def unpack_monomial(packed: int) -> tuple[int, ...]:
    out = []
    while packed:
        out.append(packed & _MASK)
        packed >>= _SHIFT
    return tuple(out)


class NCPolynomial:
    """Integer polynomial in non-commuting X_i, truncated beyond ``degree``.

    ``buckets[d]`` maps packed degree-d monomials to nonzero integer
    coefficients.  An instance is never mutated after it is returned; the
    functions that build one (``expand`` among them) fill it in place.
    """

    __slots__ = ("degree", "buckets")

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("truncation degree must be >= 1")
        self.degree = degree
        self.buckets = [{} for _ in range(degree + 1)]

    @classmethod
    def one(cls, degree: int) -> "NCPolynomial":
        p = cls(degree)
        p.buckets[0][0] = 1
        return p

    @classmethod
    def from_terms(cls, degree: int, terms: Iterable[tuple[Sequence[int], int]]) -> "NCPolynomial":
        p = cls(degree)
        for mon, coeff in terms:
            if len(mon) > degree:
                raise ValueError("monomial exceeds truncation degree")
            if coeff:
                key = pack_monomial(mon)
                bucket = p.buckets[len(mon)]
                val = bucket.get(key, 0) + coeff
                if val:
                    bucket[key] = val
                else:
                    bucket.pop(key, None)
        return p

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """All (monomial, coefficient) pairs, by degree then lexicographic."""
        out: list[tuple[tuple[int, ...], int]] = []
        for bucket in self.buckets:
            out.extend(sorted((unpack_monomial(m), c) for m, c in bucket.items()))
        return out

    def coefficient(self, mon: Sequence[int]) -> int:
        if len(mon) > self.degree:
            raise ValueError("monomial exceeds truncation degree")
        return self.buckets[len(mon)].get(pack_monomial(mon), 0)

    def is_one(self) -> bool:
        return self.buckets[0] == {0: 1} and all(not b for b in self.buckets[1:])

    def min_positive_degree(self) -> int | None:
        """Smallest degree 1..D carrying a nonzero coefficient, else None."""
        for d in range(1, self.degree + 1):
            if self.buckets[d]:
                return d
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.degree == other.degree and self.buckets == other.buckets

    def __repr__(self) -> str:
        parts = []
        for mon, c in self.terms()[:8]:
            parts.append(f"{c}*{'.'.join(f'X{i}' for i in mon) or '1'}")
        more = "..." if len(self.terms()) > 8 else ""
        return f"<NCPolynomial D={self.degree}: {' + '.join(parts)}{more}>"


def _check_degrees(a: NCPolynomial, b: NCPolynomial) -> int:
    if a.degree != b.degree:
        raise ValueError(f"mismatched truncation degrees {a.degree} != {b.degree}")
    return a.degree


def nc_add(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    degree = _check_degrees(a, b)
    out = NCPolynomial(degree)
    for d in range(degree + 1):
        bucket = dict(a.buckets[d])
        for m, c in b.buckets[d].items():
            val = bucket.get(m, 0) + c
            if val:
                bucket[m] = val
            else:
                bucket.pop(m, None)
        out.buckets[d] = bucket
    return out


def nc_mul(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    degree = _check_degrees(a, b)
    out = NCPolynomial(degree)
    obuckets = out.buckets
    for i, abucket in enumerate(a.buckets):
        if not abucket:
            continue
        shift = _SHIFT * i
        for j in range(degree - i + 1):
            bbucket = b.buckets[j]
            if not bbucket:
                continue
            target = obuckets[i + j]
            get = target.get
            for mb, cb in bbucket.items():
                high = mb << shift
                for ma, ca in abucket.items():
                    key = ma | high
                    val = get(key, 0) + ca * cb
                    if val:
                        target[key] = val
                    else:
                        del target[key]
    return out


def nc_inverse(a: NCPolynomial) -> NCPolynomial:
    """Inverse of a series with constant term 1 (truncated geometric series)."""
    if a.buckets[0] != {0: 1}:
        raise ValueError("nc_inverse requires constant term 1")
    degree = a.degree
    u = NCPolynomial(degree)
    u.buckets = [dict(b) for b in a.buckets]
    u.buckets[0] = {}
    if u.min_positive_degree() is None:
        return NCPolynomial.one(degree)
    # inv = 1 - u + u^2 - ...; the powers lose their low buckets to the
    # truncation, so each term is smaller than the last
    inv = NCPolynomial.one(degree)
    term = u
    sign = -1
    while any(term.buckets):
        for d, bucket in enumerate(term.buckets):
            target = inv.buckets[d]
            for mon, coeff in bucket.items():
                val = target.get(mon, 0) + sign * coeff
                if val:
                    target[mon] = val
                else:
                    del target[mon]
        term = nc_mul(term, u)
        sign = -sign
    return inv


# ---------------------------------------------------------------------------
# Magnus expansion of words


def _mul_letter(p: NCPolynomial, letter: int) -> None:
    """Multiply ``p`` in place on the right by the Magnus image of one letter.

    For x_g the new degree-d part is p_d + p_{d-1} X_g; walking d from
    the top down reads each p_{d-1} before it changes.  For x_g^-1 the
    product q = p (1 + X_g)^-1 solves q (1 + X_g) = p, so
    q_d = p_d - q_{d-1} X_g; walking d from the bottom up reads each
    q_{d-1} already updated.  Either way every bucket is touched once.
    """
    gen = abs(letter)
    buckets = p.buckets
    if letter > 0:
        sign, degrees = 1, range(p.degree, 0, -1)
    else:
        sign, degrees = -1, range(1, p.degree + 1)
    for d in degrees:
        source = buckets[d - 1]
        if not source:
            continue
        high = gen << (_SHIFT * (d - 1))
        target = buckets[d]
        get = target.get
        for m, c in source.items():
            key = m | high
            val = get(key, 0) + sign * c
            if val:
                target[key] = val
            else:
                del target[key]


# When packed slots pay (see ``expand``), measured in process on a 2-core
# Intel Xeon with Python 3.11.
# The table sum_{d<=D} r^d may hold at most this many slots: a 382-letter
# word at D = 17 (2^18 - 1 slots of 99 bits) peaks 12 MB above the
# interpreter, mostly the top degree's 3.2 MB integer, its shifted copy
# and their sum.
_PACK_SLOTS = 1 << 18
# On 200-letter words over 2 and 3 generators at D = 6..14, a packed
# letter step costs 3.4..6 ns per table slot and a sparse one 120..230 ns
# per monomial of the state: 26..43 times more.
_PACK_FILL = 32
# Decoding costs 0.6..0.8 us per nonzero slot of a dense part and up to
# 2.7 us in a sparse one, 4..15 sparse monomial steps.  Without this many
# letters of sparse work set aside for it, words of 6..14 letters at
# D = 6..14 expanded up to 4 times slower than with the dict kernel alone.
_PACK_DECODE = 8


def _slot_width(length: int, degree: int) -> int:
    """Bits per packed slot for a ``length``-letter word at ``degree``.

    A degree-d coefficient counts weakly increasing d-sequences of
    positions with signs, so |c| <= C(L+d-1, d) <= C(L+D-1, D); one more
    bit holds the sign.
    """
    return comb(length + degree - 1, degree).bit_length() + 1


def _unpack(value: int, d: int, width: int, gens: list[int], out: dict[int, int]) -> None:
    """Store the nonzero slots of a packed degree-``d`` part in ``out``.

    ``value`` holds width-bit two's-complement slots side by side, so a
    run of zero slots is a zero integer.  It is split by its last index
    until blocks of at most 64 slots remain, skipping zero blocks whole;
    each block is read slot by slot against a table of its low keys.
    """
    r, low, keys = len(gens), 0, [0]
    while low < d and len(keys) * r <= 64:
        keys = [k | (g << (_SHIFT * low)) for g in gens for k in keys]
        low += 1
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    blocks = [(width * r**level, (1 << (width * r**level)) - 1) for level in range(d)]
    stack = [(value, d, 0)]
    while stack:
        value, level, key = stack.pop()
        if level == low:
            slot = 0
            while value:
                c = value & mask
                if not c:
                    # jump over the zero slots below the lowest set bit
                    skip = ((value & -value).bit_length() - 1) // width
                    value >>= width * skip
                    slot += skip
                    c = value & mask
                out[key | keys[slot]] = c - ((c & sign) << 1)
                value >>= width
                slot += 1
            continue
        level -= 1
        block, block_mask = blocks[level]
        shift = _SHIFT * level
        for g in gens:
            part = value & block_mask
            if part:
                stack.append((part, level, key | (g << shift)))
            value >>= block
            if not value:
                break


def _expand_packed(word: Sequence[int], degree: int, gens: list[int]) -> list[dict[int, int]]:
    """Buckets 1..``degree`` of the expansion of ``word`` over ``gens``.

    Degree d is one integer, sum c * 2^(width * slot) over its r^d slots,
    where the slot of X_{i1}...X_{id} has the digits of i1 .. id in base
    r, i1 lowest.  Appending X_g at digit i moves slot s to s + i r^(d-1),
    so the letter step of ``_mul_letter`` is one shift and add per
    degree.  Shifts and adds are exact whatever the slots hold; only
    decoding needs every |c| < 2^(width-1), which ``_slot_width`` gives.
    """
    width, r = _slot_width(len(word), degree), len(gens)
    shifts = {g: [0] + [width * i * r ** (d - 1) for d in range(1, degree + 1)]
              for i, g in enumerate(gens)}
    packed = [1] + [0] * degree
    top_down, bottom_up = range(degree, 0, -1), range(1, degree + 1)
    for letter in word:
        if letter > 0:
            s = shifts[letter]
            for d in top_down:
                if packed[d - 1]:
                    packed[d] += packed[d - 1] << s[d]
        else:
            s = shifts[-letter]
            for d in bottom_up:
                if packed[d - 1]:
                    packed[d] -= packed[d - 1] << s[d]
    buckets: list[dict[int, int]] = []
    bias = 1 << (width - 1)
    for d in range(1, degree + 1):
        bias = sum(bias << shifts[g][d] for g in gens)
        bucket: dict[int, int] = {}
        if packed[d]:
            # adding 2^(width-1) to every slot makes each one nonnegative
            # with no carries; xor-ing it back gives two's complement
            _unpack((packed[d] + bias) ^ bias, d, width, gens, bucket)
        buckets.append(bucket)
    return buckets


def _alphabet(generators: Sequence[int]) -> list[int]:
    """The distinct ``generators``, sorted, each checked to lie in 1..MAX_GENERATOR."""
    gens = sorted(set(generators))
    if gens and not (1 <= gens[0] and gens[-1] <= MAX_GENERATOR):
        bad = next(g for g in generators if not 1 <= g <= MAX_GENERATOR)
        raise ValueError(f"generator index {bad} out of range 1..{MAX_GENERATOR}")
    return gens


def expand(word: Sequence[int], degree: int) -> NCPolynomial:
    """Magnus expansion of a word, truncated beyond ``degree``.

    The word runs letter by letter through the sparse ``_mul_letter``
    until its state is big enough for packed slots to pay: the table of
    sum_{d<=D} r^d slots over the word's r generators fits _PACK_SLOTS,
    and the sparse work still to come (at least the state's monomial
    count per letter, less _PACK_DECODE letters for decoding) outweighs
    replaying the whole word on the table at 1/_PACK_FILL per slot.
    ``_expand_packed`` then computes the expansion afresh.  Both paths
    are exact and give equal buckets, with no zero coefficients.
    """
    gens = _alphabet([abs(letter) for letter in word])
    table, size = 0, 1
    for _ in range(degree + 1):
        table += size
        size *= len(gens)
        if table > _PACK_SLOTS:
            break
    p = NCPolynomial.one(degree)
    buckets, length = p.buckets, len(word)
    pays = table <= _PACK_SLOTS
    for done, letter in enumerate(word, 1):
        _mul_letter(p, letter)
        rest = length - done - _PACK_DECODE
        if pays and sum(map(len, buckets)) * _PACK_FILL * rest >= table * length:
            buckets[1:] = _expand_packed(word, degree, gens)
            break
    return p


def staged_expand(word: Sequence[int], degree: int) -> NCPolynomial:
    """Expansion of ``word`` at the first staged cap with a nonzero term.

    The caps are 1, 3, 9, ... and finally ``degree`` itself, so a word
    shallow in the lower central series stops before paying for the
    full truncation degree, while a deep one ends with its expansion at
    ``degree``, which a caller can reuse.  Every coefficient up to the
    returned truncation is exact, so its lowest positive degree with a
    nonzero coefficient is the word's lcs degree when that is <= ``degree``.
    """
    cap = 1
    while True:
        cap = min(cap, degree)
        poly = expand(word, cap)
        if cap == degree or poly.min_positive_degree() is not None:
            return poly
        # release this cap's expansion before the next, larger one is built
        del poly
        cap *= 3


def lcs_degree(word: Sequence[int], degree: int) -> int | None:
    """Smallest d in 1..degree with a nonzero degree-d Magnus coefficient.

    Returns None when every coefficient of degree <= ``degree`` vanishes
    ("exceeds D"); then the word lies in F^(degree+1).  The empty word
    exceeds every bound.  Membership w in F^(k) is ``lcs_degree(w, k-1)
    is None`` for k >= 2.
    """
    if degree < 1:
        raise ValueError("truncation degree must be >= 1")
    if not word:
        return None
    return staged_expand(word, degree).min_positive_degree()


def lcs_at_least(word: Sequence[int], k: int) -> bool:
    """True iff the word lies in F^(k) (Magnus criterion)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 or not word:
        return True
    return lcs_degree(word, k - 1) is None
