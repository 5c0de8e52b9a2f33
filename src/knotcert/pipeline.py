"""The spine-link pipeline: Milnor vanishing of a certificate's spine link,
then the triviality bound.

This is a plain module, imported only by the ``pipeline`` command (and
by library callers), so a ``certify`` job never compiles it.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import bounds
from ._value import Record, as_dict
from .certify import (
    FLAG_ADMISSIBLE,
    _TRIVIAL_BOUNDARY,
    CertificateError,
    SurfaceCertificate,
    _image,
    _verdict,
    q_of_word,
    vassiliev_conclusion,
)
from .magnus import lcs_degree


class PipelineReport(Record):
    n: int
    verdict: str
    milnor_vanish: bool
    l_n_S: int | None
    conclusion: str
    slice_depth: int | None = None
    slice_vanish: bool | None = None
    slice_l: int | None = None
    slice_conclusion: str | None = None
    missing_flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return as_dict(self)


def spine_link_pipeline(
    cert: SurfaceCertificate,
    signs: Sequence[str],
    n: int | None = None,
    slice_depth: int | None = None,
) -> PipelineReport:
    """Milnor vanishing of the 2g-component spine link, then the bound.

    The longitudes are the pushoff words of gamma_1, beta_1, ...,
    gamma_g, beta_g at the chosen signs, over the 2g dual meridians.
    Vanishing of all Milnor invariants of length <= n+1 yields the
    triviality conclusion at l(n, S); a supplied slice depth d adds the
    variant at l(2d-1, S).  Spine admissibility is an asserted flag.
    """
    n = cert.n if n is None else n
    if n < 1:
        raise CertificateError("pipeline needs n >= 1")
    if slice_depth is not None and slice_depth < 1:
        raise CertificateError("slice depth must be >= 1")
    signs = list(signs)
    if len(signs) != 2 * cert.genus or any(s not in "+-" for s in signs):
        raise CertificateError(f"need {2 * cert.genus} signs drawn from +/-")
    by_slot = {(c.role, c.index): c for c in cert.curves}
    longitudes = []  # (curve, word) for gamma_1, beta_1, ..., gamma_g, beta_g
    for i, sign in enumerate(signs):
        role, index = "AB"[i % 2], i // 2 + 1
        curve = by_slot.get((role, index))
        if curve is None:
            raise CertificateError(f"missing {role}-curve with index {index}")
        word = curve.pushoff(sign)
        if word is None:
            raise CertificateError(f"curve {curve.name} lacks the pushoff at sign {sign}")
        longitudes.append((curve, word))
    # An invariant of length k reads a degree-(k-1) coefficient of a
    # longitude, so the lowest longitude lcs degree, taken once at the
    # higher level, settles vanishing at both levels.
    top = n if slice_depth is None else max(n, 2 * slice_depth - 1)
    lowest = min(filter(None, (lcs_degree(w, top) for _, w in longitudes)), default=top + 1)

    def level(depth: int) -> tuple[bool, int | None]:
        """(whether Milnor invariants of length <= depth+1 vanish, l(depth, S) if they do)."""
        if lowest <= depth:
            return False, None
        images = (_image(w, index=c.index) for c, w in longitudes[::2])
        q_values = [q_of_word(word, depth, exclude).q for word, exclude in images]
        return True, bounds.l_n_S(q_values) if q_values else None

    vanish, l_value = level(n)
    missing = () if cert.has_flag(FLAG_ADMISSIBLE) else (FLAG_ADMISSIBLE,)
    if not cert.genus:
        conclusion = _TRIVIAL_BOUNDARY
    elif vanish:
        conclusion = f"Milnor invariants of length <= {n + 1} vanish; " + vassiliev_conclusion(
            l_value, f"Vassiliev invariants of orders <= {l_value} vanish for the boundary knot")
    else:
        conclusion = f"some Milnor invariant of length <= {n + 1} is nonzero"

    slice_vanish = slice_l = slice_conclusion = None
    if slice_depth is not None:
        slice_vanish, slice_l = level(2 * slice_depth - 1)
        if not cert.genus:
            slice_conclusion = _TRIVIAL_BOUNDARY
        elif slice_vanish:
            slice_conclusion = f"{slice_depth}-slice input: " + vassiliev_conclusion(
                slice_l, f"Vassiliev invariants of orders <= {slice_l} vanish")
        else:
            slice_conclusion = (
                f"{slice_depth}-slice input fails: invariants of length <= "
                f"{2 * slice_depth} do not vanish"
            )

    return PipelineReport(
        n=n,
        verdict=_verdict(not vanish, missing),
        milnor_vanish=vanish,
        l_n_S=l_value,
        conclusion=conclusion,
        slice_depth=slice_depth,
        slice_vanish=slice_vanish,
        slice_l=slice_l,
        slice_conclusion=slice_conclusion,
        missing_flags=missing,
    )
