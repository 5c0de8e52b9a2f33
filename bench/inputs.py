"""Seeded inputs and known answers for the three workloads.

``build_jobs(workload, seed, workdir, data_dir)`` writes every input file
under ``workdir`` and returns the job list.  Certificates come from the
``knotcert.synth`` builders and ``certificate_to_dict``; words and
matrices are built here.  Each job carries the exit code and a check of
its structured report whose expected values come from how the input was
built, worked out with ``oracle`` and never read back from knotcert.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from knotcert.certify import certificate_from_dict, certificate_to_dict, prefix_kill_set
from knotcert.synth import checked_words, hyperbolic_example, mutate_certificate

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Check


def fields(**expected) -> Check:
    def check(report: dict) -> str | None:
        for key, want in expected.items():
            if report.get(key) != want:
                return f"{key} = {report.get(key)!r}, expected {want!r}"
        return None

    return check


def all_of(*checks: Check) -> Check:
    def check(report: dict) -> str | None:
        for c in checks:
            err = c(report)
            if err:
                return err
        return None

    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _job(name: str, *argv, check: Check, exit_code: int = 0) -> Job:
    return Job(name, tuple(str(a) for a in argv) + ("--format", "structured"), exit_code, check)


# run at the end of every set-up, before the timed passes: a start-up-only job
WARMUP = _job("warm-up", "bounds", "q", 6, check=fields(value=1))


# ---------------------------------------------------------------------------
# certify: shipped certificates, seeded larger synth ones, and mutants

SHIPPED = {
    "hyperbolic_g2_n3": 3,
    "hyperbolic_g3_n5": 5,
}


def _hyperbolic_check(genus: int, n: int) -> Check:
    """Every stage image is one weight-(n+1) pair commutator on (x_i, y_i).

    Excluding x_i leaves the single generator y_i, so k = 1 and the
    q-value is the two-branch bound at depth n with k = 1.
    """
    q = oracle.q_param(n, 1)

    def check(report: dict) -> str | None:
        per_curve = report["quantities"]["per_curve"]
        want = {f"a{i}": {"sign": "+", "k": 1, "q": q} for i in range(1, genus + 1)}
        got = {name: {k: v[k] for k in ("sign", "k", "q")} for name, v in per_curve.items()}
        if got != want:
            return f"per_curve {got}, expected {want}"
        if report["quantities"]["l_n_S"] != q - 1:
            return f"l_n_S {report['quantities']['l_n_S']}, expected {q - 1}"
        return None

    return all_of(fields(verdict="valid"), check)


def _quantities(group: str, curve: str, want: dict) -> Check:
    def check(report: dict) -> str | None:
        got = report["quantities"][group][curve]
        got = {key: got.get(key) for key in want}
        return None if got == want else f"{group}[{curve}] {got}, expected {want}"

    return check


def _translated(kind: str, n: int) -> Check:
    """The source verifies, and so does the target of ``kind`` at level ``n``."""

    def check(report: dict) -> str | None:
        got = (report["source_verdict"], report["target"]["kind"], report["target"]["n"],
               report["target_report"]["verdict"])
        want = ("valid", kind, n, "valid")
        return None if got == want else f"translation {got}, expected {want}"

    return check


def _vacuous(condition: str) -> Check:
    def check(report: dict) -> str | None:
        statuses = [c["status"] for c in report["conditions"] if c["name"] == condition]
        return None if statuses == ["vacuous"] else f"{condition} statuses {statuses}"

    return check


def _seeded_hyperbolic(rng: random.Random, genus: int, n: int):
    """hyperbolic_example with each stage-i A-pushoff (i > 1) conjugated by
    a seeded 4-letter word in the duals killed at that stage, which leaves
    every stage image, and so every answer, unchanged."""
    cert = hyperbolic_example(genus, n, conjugated=False)
    curves = []
    for curve in cert.curves:
        if curve.role == "A" and curve.index > 1:
            killed = sorted(prefix_kill_set(curve.index))
            conj: tuple[int, ...] = ()
            while len(conj) < 4:
                conj = oracle.reduce(conj + (rng.choice(killed) * rng.choice((1, -1)),))
            curve = replace(curve, pushoff_plus=oracle.conjugate(curve.pushoff_plus, conj))
        curves.append(curve)
    return replace(cert, curves=tuple(curves))


def _must_be_commutators(cert) -> list[tuple[str, str, frozenset[int]]]:
    """(curve, field, killed generators) of words whose image must lie in [F, F].

    Hyperbolic stages kill the earlier duals; closure memberships at
    depth m >= 1 put the whole word in [G_S, G_S], inside [F, F].
    Only curves with a single pushoff are listed, so the verifier has no
    other orientation to fall back on.
    """
    out = []
    for c in cert.curves:
        words = [(f, getattr(c, f)) for f in ("pushoff_plus", "pushoff_minus") if getattr(c, f)]
        if len(words) != 1:
            continue
        field = words[0][0]
        if cert.kind == "hyperbolic" and c.role == "A":
            out.append((c.name, field, frozenset(prefix_kill_set(c.index))))
        elif cert.kind == "parabolic" and c.role == "B" and c.m:
            out.append((c.name, field, frozenset()))
        elif cert.kind == "elliptic" and c.m:
            out.append((c.name, field, frozenset()))
        elif cert.kind == "unknotted" and c.factors is not None and c.factors.chi:
            out.append((c.name, field, frozenset()))
    return out


def _provable_mutant(rng: random.Random, cert):
    """A one-letter mutant of the last checked word whose edit changes the
    exponent sums of a word that must lie in the commutator subgroup; such
    a mutant is invalid.

    Fixing the mutated word keeps the rejection work the same for every
    seed: the other curves are still checked in full.
    """
    required = {(name, field): killed for name, field, killed in _must_be_commutators(cert)}
    target = checked_words(cert)[-1]
    if target not in required:
        raise RuntimeError(f"{cert.kind}: {target} has no commutator-subgroup condition")
    name, field = target
    for _ in range(1000):
        mutant = mutate_certificate(cert, rng)
        (old,) = [c for c in cert.curves if c.name == name]
        (new,) = [c for c in mutant.curves if c.name == name]
        if getattr(old, field) != getattr(new, field) and oracle.exponent_sums(
            oracle.kill(getattr(new, field), required[target])
        ):
            return mutant
    raise RuntimeError(f"no provably invalid mutant of {cert.kind} certificate")


def _certify_jobs(rng: random.Random, workdir: Path, data_dir: Path) -> list[Job]:
    jobs = []
    certs = {}
    for stem, n in SHIPPED.items():
        path = data_dir / f"{stem}.json"
        certs[stem] = certificate_from_dict(json.loads(path.read_text()))
        genus = certs[stem].genus
        jobs.append(_job(f"certify-{stem}", "certify", "hyperbolic", path,
                         check=_hyperbolic_check(genus, n)))
    # two larger certificates, and four small ones whose jobs are start-up
    # dominated: they keep the median job inside the start-up cluster
    for genus, n in ((4, 6), (5, 7), (3, 3), (3, 4), (4, 3), (4, 4)):
        stem = f"synth_hyperbolic_g{genus}_n{n}"
        certs[stem] = _seeded_hyperbolic(rng, genus, n)
        path = _write(workdir / f"{stem}.json", json.dumps(certificate_to_dict(certs[stem])))
        jobs.append(_job(f"certify-{stem}", "certify", "hyperbolic", path,
                         check=_hyperbolic_check(genus, n)))

    # the genus-1 q-value certificates: q_A + q_B = 2 + 1 = 3 = n + 1 from a
    # depth-12 and a depth-6 balanced closure commutator; parabolic q + s = 2 + 1
    q_values = {
        "elliptic": ("per_pair", "a1", {"q_A": 2, "q_B": 1}),
        "parabolic": ("per_curve", "b1", {"q": 2}),
        "unknotted": ("per_pair", "a1", {"q_chi_A": 2, "q_chi_B": 1}),
    }
    for kind, (group, curve, want) in q_values.items():
        stem = f"{kind}_g1_n2"
        path = data_dir / f"{stem}.json"
        certs[stem] = certificate_from_dict(json.loads(path.read_text()))
        jobs.append(_job(f"certify-{stem}", "certify", kind, path,
                         check=all_of(fields(verdict="valid"), _quantities(group, curve, want))))

    # twist certificate at level 2n = 4, s = 1: target level 2n - s - 1 = 2
    jobs.append(_job(
        "translate-unknotted-twist", "translate", "unknotted",
        data_dir / "unknotted_twist_n4.json", "--n", 2,
        check=_translated("unknotted", 2),
    ))
    # weight-4 pair commutators: invariants of length <= 4 vanish, q = 0
    jobs.append(_job(
        "pipeline-spine-link", "pipeline", "spine-link",
        data_dir / "hyperbolic_g2_n3.json", "--signs", "++++",
        check=fields(verdict="valid", milnor_vanish=True, l_n_S=oracle.q_param(3, 1) - 1),
    ))

    # start-up dominated certify-layer jobs.  Weight-6 pair commutators lie
    # in F^(6): the spine link's invariants of length <= 6 vanish, so the
    # slice-depth-3 variant (level 2*3 - 1 = 5) holds too.
    jobs.append(_job(
        "pipeline-spine-link-slice", "pipeline", "spine-link",
        data_dir / "hyperbolic_g3_n5.json", "--signs", "++++++", "--slice-depth", 3,
        check=fields(verdict="valid", milnor_vanish=True, l_n_S=oracle.q_param(5, 1) - 1,
                     slice_vanish=True, slice_l=oracle.q_param(5, 1) - 1),
    ))
    # the same words checked at the lower level n = 3
    jobs.append(_job("certify-hyperbolic_g3_n5-at-n3", "certify", "hyperbolic",
                     data_dir / "hyperbolic_g3_n5.json", "--n", 3,
                     check=_hyperbolic_check(3, 3)))
    # the hyperbolic translation is the identity
    jobs.append(_job(
        "translate-hyperbolic", "translate", "hyperbolic",
        data_dir / "hyperbolic_g2_n3.json", "--n", 3,
        check=_translated("hyperbolic", 3),
    ))
    # n = 2 <= s = 3: the parabolic word conditions are vacuous
    jobs.append(_job(
        "certify-parabolic-vacuous", "certify", "parabolic",
        data_dir / "parabolic_g1_n2.json", "--simplicity", 3,
        check=all_of(fields(verdict="valid"), _vacuous("b-closure-conditions")),
    ))

    for stem, cert in certs.items():
        mutant = _provable_mutant(rng, cert)
        path = _write(workdir / f"mutant_{stem}.json", json.dumps(certificate_to_dict(mutant)))
        jobs.append(_job(f"certify-mutant-{stem}", "certify", cert.kind, path,
                         exit_code=1, check=fields(verdict="invalid")))
    return jobs


# ---------------------------------------------------------------------------
# words: membership ladders, Fox/Milnor, trivializer, small jobs


def lie_word(rng: random.Random, degree: int, leaves) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A group commutator with lower-central degree exactly ``degree``.

    ``leaves`` are (word, key) pairs whose degree-1 Lie parts are distinct
    free generators X_key.  Each node brackets two halves of different
    degrees (two leaves with different keys at degree 2).  Nonzero
    homogeneous Lie elements of different multidegree are linearly
    independent, so their bracket is nonzero and the group commutator
    has exactly the summed degree.
    Returns (word, multidegree over the sorted keys).
    """
    keys = sorted({key for _, key in leaves})
    if degree == 1:
        word, key = rng.choice(leaves)
        return word, tuple(int(k == key) for k in keys)
    low = degree // 2 - 1 if degree % 2 == 0 and degree > 2 else degree // 2
    left, left_md = lie_word(rng, degree - low, leaves)
    while True:
        right, right_md = lie_word(rng, low, leaves)
        if right_md != left_md:
            break
    return oracle.commutator(left, right), tuple(a + b for a, b in zip(left_md, right_md))


def banded_lie_word(rng: random.Random, degree: int, leaves, lengths: range) -> tuple[int, ...]:
    """``lie_word`` redrawn until its length falls in ``lengths``, so every
    seed gives the ladder about the same amount of work."""
    for _ in range(10000):
        word, _ = lie_word(rng, degree, leaves)
        if len(word) in lengths:
            return word
    raise RuntimeError(f"no degree-{degree} word with length in {lengths}")


def _random_word(rng: random.Random, length: int, gens: int) -> tuple[int, ...]:
    word: tuple[int, ...] = ()
    while len(word) < length:
        word = oracle.reduce(word + (rng.randint(1, gens) * rng.choice((1, -1)),))
    return word


DEPTH = 12
LADDER = (8, 10, 12)


def _words_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []

    # ambient ladder over two generators: g and t g t^-1 have Lie part X_g
    leaves = [((g,), g) for g in (1, 2)] + [
        (oracle.conjugate((g,), (t,)), g) for g in (1, 2) for t in (3 - g, g - 3)
    ]
    word = banded_lie_word(rng, DEPTH, leaves, range(290, 331))
    path = "@" + _write(workdir / "ladder.word", oracle.token_word(word))
    for d in LADDER:
        jobs.append(_job(f"magnus-degree-D{d}", "magnus", "degree", path, "-D", d,
                         check=fields(lcs_degree=DEPTH if d >= DEPTH else None)))

    # closure ladder: the Schreier letters g2 g1 g2^-1 and g3 g1 g3^-1 are
    # free generators of the normal closure of g1
    leaves = [(oracle.conjugate((1,), (t,)), t) for t in (2, 3)]
    word = banded_lie_word(rng, DEPTH, leaves, range(340, 381))
    path = "@" + _write(workdir / "closure.word", oracle.token_word(word))
    for d in LADDER:
        jobs.append(_job(f"schreier-degree-D{d}", "schreier", "degree", path, "--subset", "1",
                         "-D", d, check=fields(closure_lcs_degree=DEPTH if d >= DEPTH else None)))

    # Milnor invariant and Fox coefficient of long words, against the
    # position automaton
    longitudes = [_random_word(rng, 600, 3) for _ in range(3)]
    lfile = _write(workdir / "long.longitudes",
                   "3\n" + "".join(oracle.token_word(w) + "\n" for w in longitudes))
    index = tuple(rng.randint(1, 3) for _ in range(7))
    jobs.append(_job("milnor-invariant", "milnor", "invariant", lfile,
                     "--index", " ".join(map(str, index)),
                     check=fields(value=oracle.fox(longitudes[index[-1] - 1], index[:-1]))))
    word = _random_word(rng, 800, 3)
    index = tuple(rng.randint(1, 3) for _ in range(6))
    path = "@" + _write(workdir / "fox.word", oracle.token_word(word))
    jobs.append(_job("magnus-fox", "magnus", "fox", path, "--index", " ".join(map(str, index)),
                     check=fields(coefficient=oracle.fox(word, index))))

    # trivializer: deleting every letter of any entry kills a left-normed
    # expansion, so all 2^w - 1 subfamily deletions of a product trivialize
    letters = [s * g for g in (1, 2, 3) for s in (1, -1)]
    for weight in (8, 9, 10):
        factors = [tuple(rng.choice(letters) for _ in range(weight)) for _ in range(2)]
        expanded = [oracle.left_normed_expansion(f) for f in factors]
        word = [x for e in expanded for x in e[0]]
        tags = [t for e in expanded for t in e[1]]
        inserts = []
        for _ in range(2):
            pos, letter = rng.randrange(len(word) + 1), rng.choice(letters)
            word[pos:pos] = [letter, -letter]
            tags[pos:pos] = [0, 0]
            inserts.append(f"{pos}:{oracle.token_word((letter,))}")
        family = {
            "word": oracle.token_word(word),
            "tags": tags,
            "sets": [[i for i, t in enumerate(tags) if t == e] for e in range(1, weight + 1)],
        }
        argv = ["trivialize", "build"]
        for f in factors:
            argv += ["--factor", oracle.token_word(f)]
        for ins in inserts:
            argv += ["--insert", ins]
        jobs.append(_job(f"trivialize-build-w{weight}", *argv, check=fields(**family)))
        path = _write(workdir / f"family_w{weight}.json", json.dumps(family))
        jobs.append(_job(f"trivialize-verify-w{weight}", "trivialize", "verify", path,
                         check=fields(ok=True, checked_subfamilies=(1 << weight) - 1)))

    jobs += _small_jobs(rng, workdir)
    return jobs


def _decompose_check(word: tuple[int, ...], degree: int) -> Check:
    """Factors times residual must give the word back, by free reduction."""

    def check(report: dict) -> str | None:
        if report["valid_mod_degree"] != degree:
            return f"valid_mod_degree {report['valid_mod_degree']}"
        product: list[int] = []
        for entries, exponent in report["factors"]:
            f = oracle.left_normed_word(oracle.parse_tokens(entries))
            product.extend(f if exponent > 0 else oracle.inverse(f))
        product.extend(oracle.parse_tokens(report["residual"]))
        if oracle.reduce(product) != word:
            return "factors * residual != word"
        return None

    return check


def _small_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    """Start-up dominated jobs: they show any change in import time."""
    jobs = []
    # two of each word job: with 30 jobs in the list the 90th-percentile
    # job is the middle one of the magnus-fox / D=10 / milnor cluster
    for size, killed in ((200, (2, 4)), (400, (1, 3))):
        raw = [rng.randint(1, 4) * rng.choice((1, -1)) for _ in range(size)]
        jobs.append(_job(f"word-reduce-{size}", "word", "reduce", oracle.token_word(raw),
                         check=fields(word=oracle.token_word(oracle.reduce(raw)))))
        entries = tuple(rng.randint(1, 4) for _ in range(size // 40))
        letters, tags = oracle.left_normed_expansion(entries)
        jobs.append(_job(f"word-commutator-{size // 40}", "word", "commutator",
                         oracle.token_word(entries),
                         check=fields(expansion=oracle.token_word(letters), tags=list(tags),
                                      reduced=oracle.token_word(oracle.reduce(letters)))))
        jobs.append(_job(f"word-kill-{size}", "word", "kill", oracle.token_word(raw),
                         "--subset", " ".join(map(str, killed)),
                         check=fields(word=oracle.token_word(oracle.kill(raw, set(killed))))))

    m = rng.randint(20, 200)
    n = rng.randint(6, 60)
    k = rng.randint(1, 4)
    qs = [rng.randint(0, 9) for _ in range(4)]
    gensets = [sorted(rng.sample(range(1, 9), 2)) for _ in range(4)]
    w_y, s_y = rng.randint(0, 20), rng.randint(0, 20)
    jobs += [
        _job("bounds-q", "bounds", "q", m, check=fields(value=m // 6)),
        _job("bounds-t", "bounds", "t", m, check=fields(value=m // 4)),
        _job("bounds-q-param", "bounds", "q-param", n, k, check=fields(value=oracle.q_param(n, k))),
        _job("bounds-l-n-s", "bounds", "l-n-s", *qs, check=fields(value=min(qs) - 1)),
        _job("bounds-conflict-max", "bounds", "conflict-max", k + 3,
             check=fields(value=(1 << (k + 3)) - 2)),
        _job("bounds-ratio-check", "bounds", "ratio-check", w_y, s_y,
             check=fields(value=s_y == 0 or 3 * w_y >= 4 * s_y)),
        _job("bounds-partition-k", "bounds", "partition-k",
             "--factors", "|".join(" ".join(map(str, g)) for g in gensets),
             check=fields(k=oracle.partition_min_block(gensets))),
        _job("bounds-check-inequalities", "bounds", "check-inequalities", n,
             exit_code=0 if oracle.inequalities_hold(n) else 1,
             check=fields(all_hold=oracle.inequalities_hold(n))),
    ]

    # shallow decompose: conjugated weight-3 commutators lie in F^(3)
    parts = []
    for _ in range(3):
        c = oracle.left_normed_word(tuple(rng.randint(1, 3) for _ in range(3)))
        parts.append(oracle.conjugate(c, _random_word(rng, 3, 3)))
    word = oracle.reduce(x for p in parts for x in p)
    jobs.append(_job("decompose-shallow", "decompose", oracle.token_word(word), "-m", 2, "-D", 4,
                     check=_decompose_check(word, 4)))

    values = {}
    for mask in range(8):
        values[mask] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    records = [{"subset": [i + 1 for i in range(3) if mask >> i & 1], "value": str(v)}
               for mask, v in values.items()]
    total = sum(v if bin(mask).count("1") % 2 == 0 else -v for mask, v in values.items())
    path = _write(workdir / "altsum.json", json.dumps(records))
    jobs.append(_job("altsum", "altsum", path, check=fields(sum=str(total))))
    return jobs


# ---------------------------------------------------------------------------
# seifert: dense V = S + J and sparse torus-knot matrices

DENSE_GENERA = (2, 3, 4, 5, 6, 7, 8)
MMR_ORDER = 12


def dense_seifert(rng: random.Random, genus: int) -> list[list[int]]:
    """V = S + J: S random symmetric, J the upper half of the standard
    symplectic form, so V - V^T = J - J^T is unimodular.  S has no zero
    entries, so the determinant work does not depend on the seed's zeros."""
    n = 2 * genus
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v[i][j] = v[j][i] = rng.choice((-2, -1, 1, 2))
    for i in range(0, n, 2):
        v[i][i + 1] += 1
    return v


def torus_seifert(genus: int) -> list[list[int]]:
    """T(2, 2g+1): -1 on the diagonal, 1 just above it."""
    n = 2 * genus
    return [[-1 if i == j else 1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def _matrix_text(genus: int, rows) -> str:
    return f"{genus}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _alexander_check(run: tuple[int, tuple[int, ...]]) -> Check:
    lo, coeffs = run

    def check(report: dict) -> str | None:
        got = report["alexander"]
        if (got["min_exp"], tuple(got["coeffs"])) != (lo, coeffs):
            return f"alexander {got['min_exp']} {got['coeffs']}, expected {lo} {list(coeffs)}"
        return None

    return check


def _mmr_check(run) -> Check:
    def check(report: dict) -> str | None:
        series = [Fraction(c) for c in report["coefficients"]]
        if len(series) != MMR_ORDER + 1:
            return f"{len(series)} coefficients"
        defect = oracle.mmr_residue(run, series)
        return None if defect is None else f"series * Delta(e^h) - p(h) = {defect}"

    return check


def _seifert_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for genus in DENSE_GENERA:
        rows = dense_seifert(rng, genus)
        path = _write(workdir / f"dense_g{genus}.mat", _matrix_text(genus, rows))
        run = oracle.alexander(rows)
        jobs.append(_job(f"alexander-dense-g{genus}", "alexander", path,
                         check=_alexander_check(run)))
        n = 2 * genus
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        jobs.append(_job(f"classify-dense-g{genus}", "classify", path, "--symmetrize",
                         check=fields(form=oracle.form_shape(sym, genus), symmetrized=True)))
        lo, coeffs = run
        lp = _write(workdir / f"dense_g{genus}.lp", f"{lo}\n{' '.join(map(str, coeffs))}\n")
        jobs.append(_job(f"mmr-dense-g{genus}", "mmr", lp, "-N", MMR_ORDER,
                         check=_mmr_check(run)))
    # two more genus-7 matrices: with 28 jobs in the list the
    # 90th-percentile job is the middle one of the three genus-7 determinants
    for tag in ("b", "c"):
        rows = dense_seifert(rng, 7)
        path = _write(workdir / f"dense_g7{tag}.mat", _matrix_text(7, rows))
        jobs.append(_job(f"alexander-dense-g7{tag}", "alexander", path,
                         check=_alexander_check(oracle.alexander(rows))))
    for low, high in ((10, 14), (18, 22), (26, 30)):
        genus = rng.randint(low, high)
        path = _write(workdir / f"torus_g{genus}.mat", _matrix_text(genus, torus_seifert(genus)))
        jobs.append(_job(f"alexander-torus-{low}-{high}", "alexander", path,
                         check=_alexander_check(oracle.torus_alexander(genus))))
    # control: the bounds layer, which no Seifert job touches
    n, k = rng.randint(6, 60), rng.randint(1, 4)
    jobs.append(_job("bounds-q-param", "bounds", "q-param", n, k,
                     check=fields(value=oracle.q_param(n, k))))
    jobs.append(_job("bounds-check-inequalities", "bounds", "check-inequalities", n,
                     exit_code=0 if oracle.inequalities_hold(n) else 1,
                     check=fields(all_hold=oracle.inequalities_hold(n))))
    return jobs


def build_jobs(workload: str, seed: int, workdir: Path, data_dir: Path) -> list[Job]:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return _certify_jobs(rng, workdir, data_dir)
    if workload == "words":
        return _words_jobs(rng, workdir)
    if workload == "seifert":
        return _seifert_jobs(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
