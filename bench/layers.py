"""Per-layer metrics from the spans that ``tracer.py`` records.

A layer is one ``src/knotcert`` module.  A span's self time is its
duration minus the time its child spans cover; job time that no span
covers (interpreter start, import, argument parsing) goes to ``cli``.
Counts are exact and must repeat between traced runs of the same inputs.
"""

from __future__ import annotations

from tracer import LAYERS

MEMBERSHIP = {
    "magnus.lcs_at_least", "magnus.lcs_degree", "magnus.milnor_vanish_upto",
    "schreier.normal_closure_lcs_at_least", "schreier.normal_closure_lcs_degree",
}

# (metric, unit); the self times and cli.import_s are seconds per pass
SELF_TIMES = [(f"{layer}.self_s", "s") for layer in LAYERS]
COUNTS = [
    ("words.calls", "count"),
    ("words.letters_in", "count"),
    ("schreier.letters_out", "count"),
    ("magnus.expand_calls", "count"),
    ("magnus.expand_work", "count"),
    ("magnus.nc_mul_calls", "count"),
    ("lyndon.terms_out", "count"),
    ("decomp.factors_out", "count"),
    ("decomp.residual_letters", "count"),
    ("bounds.calls", "count"),
    ("trivializer.deletions", "count"),
    ("seifert.det_dim", "count"),
    ("certify.memberships", "count"),
    ("certify.q_values", "count"),
]
RATIOS = [
    ("magnus.expands_per_lcs", "ratio"),
    ("decomp.residual_ratio", "ratio"),
    ("certify.expands_per_q", "ratio"),
]
PER_LAYER = (
    [("cli.import_s", "s")] + SELF_TIMES + COUNTS + RATIOS + [("trace.overhead_ratio", "ratio")]
)

# raw tallies a pass sums before the ratios are formed
_RAW = [name for name, _ in COUNTS] + [
    "magnus.lcs_calls", "magnus.expands_in_lcs", "decomp.letters_in", "certify.expands_in_q",
]


class SpanError(ValueError):
    """Spans of one job that do not nest inside its wall time."""


def job_profile(trace: dict, wall: float) -> dict:
    """Self time per layer, span count per layer and raw tallies of one job."""
    spans = trace["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    span_counts = dict.fromkeys(LAYERS, 0)
    raw = dict.fromkeys(_RAW, 0)
    in_lcs = [False] * len(spans)
    in_q = [False] * len(spans)
    covered = 0.0
    for i, (name, start, end, parent, counters) in enumerate(spans):
        layer = name.split(".", 1)[0]
        own = end - start - children[i]
        if own < -1e-6:
            raise SpanError(f"span {name} has negative self time {own}")
        self_s[layer] += own
        span_counts[layer] += 1
        counters = counters or {}
        if parent < 0:
            covered += end - start
        else:
            parent_name = spans[parent][0]
            in_lcs[i] = in_lcs[parent] or parent_name == "magnus.lcs_degree"
            in_q[i] = in_q[parent] or parent_name == "certify.q_of_word"
            if name in MEMBERSHIP and parent_name.startswith("certify."):
                raw["certify.memberships"] += 1
        if layer == "words":
            raw["words.calls"] += 1
            raw["words.letters_in"] += counters.get("letters_in", 0)
        elif layer == "bounds":
            raw["bounds.calls"] += 1
        if name == "magnus.expand":
            raw["magnus.expand_calls"] += 1
            raw["magnus.expand_work"] += counters["letters"] * counters["degree"]
            raw["magnus.expands_in_lcs"] += in_lcs[i]
            raw["certify.expands_in_q"] += in_q[i]
        elif name == "magnus.nc_mul":
            raw["magnus.nc_mul_calls"] += 1
        elif name == "magnus.lcs_degree":
            raw["magnus.lcs_calls"] += 1
        elif name == "certify.q_of_word":
            raw["certify.q_values"] += 1
        elif name == "decomp.decompose":
            raw["decomp.factors_out"] += counters["factors"]
            raw["decomp.residual_letters"] += counters["residual"]
            raw["decomp.letters_in"] += counters["letters_in"]
        raw["schreier.letters_out"] += counters.get("letters_out", 0)
        raw["lyndon.terms_out"] += counters.get("terms", 0)
        raw["trivializer.deletions"] += counters.get("deletions", 0)
        raw["seifert.det_dim"] += counters.get("dim", 0)
    uncovered = wall - covered
    if uncovered < 0:
        raise SpanError(f"spans cover {covered:.6f} s of a {wall:.6f} s job")
    self_s["cli"] += uncovered
    total = sum(self_s.values())
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        raise SpanError(f"self times add to {total:.6f} s, job wall is {wall:.6f} s")
    return {
        "self_s": self_s,
        "uncovered_s": uncovered,
        "import_s": trace["import_s"],
        "spans": span_counts,
        "raw": raw,
    }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def pass_metrics(profiles: list[dict]) -> tuple[dict, dict, dict]:
    """(times, counts, span counts per layer) summed over one pass's jobs."""
    times = {"cli.import_s": sum(p["import_s"] for p in profiles)}
    for layer in LAYERS:
        times[f"{layer}.self_s"] = sum(p["self_s"][layer] for p in profiles)
    raw = {k: sum(p["raw"][k] for p in profiles) for k in _RAW}
    counts = {name: raw[name] for name, _ in COUNTS}
    counts["magnus.expands_per_lcs"] = _ratio(raw["magnus.expands_in_lcs"], raw["magnus.lcs_calls"])
    counts["decomp.residual_ratio"] = _ratio(raw["decomp.residual_letters"], raw["decomp.letters_in"])
    counts["certify.expands_per_q"] = _ratio(raw["certify.expands_in_q"], raw["certify.q_values"])
    spans = {layer: sum(p["spans"][layer] for p in profiles) for layer in LAYERS}
    return times, counts, spans
