"""Command-line interface: one job per invocation, structured reports.

Every subcommand parses documented text or JSON inputs, calls the
corresponding library operation and emits either a human-readable
summary or a structured JSON report (``--format structured``) with a
stable ``schema`` field.  Reports are deterministic: identical inputs
produce byte-identical structured output.

Exit codes: 0 success/valid verdict, 1 invalid (a checked property is
false), 2 malformed input, 3 not checkable from word data (required
geometric assertions missing), 4 internal error (an internal self-check
such as the Lyndon solve's or a decomposition stage's raised
RuntimeError: a defect in knotcert, not a verdict on the input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The library layers are lazy modules (see knotcert/__init__.py) that load
# on first use, so a job loads only the layers its handler calls into.
# Every use is qualified: a ``from .layer import name`` here would load
# that layer for every command.
from . import bounds, certify, decomp, magnus, schreier, seifert, trivializer, words
from ._value import KINDS, data_lines, int_tokens, token_error

SCHEMA = 1


class InputError(ValueError):
    """Malformed command input (exit code 2)."""


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc


def _raw_arg(value: str) -> str:
    if value.startswith("@"):
        return _read_text(value[1:])
    if value == "-":
        return _read_text("-")
    return value


def _word_arg(value: str) -> tuple[int, ...]:
    """A word given inline, or @path / - to read it from a file or stdin."""
    return words.parse_word(_raw_arg(value))


def _entries_arg(value: str) -> tuple[int, ...]:
    """An entry sequence: letters are kept as written, never reduced."""
    return words.parse_letters(_raw_arg(value))


def _subset_arg(value: str) -> frozenset[int]:
    try:
        out = frozenset(int(tok) for tok in value.split())
    except ValueError as exc:
        raise InputError(f"bad generator subset {value!r}") from exc
    if any(g < 1 for g in out):
        raise InputError("generator subsets need positive indices")
    return out


def _indices_arg(value: str) -> tuple[int, ...]:
    try:
        out = tuple(int(tok) for tok in value.split())
    except ValueError as exc:
        raise InputError(f"bad index sequence {value!r}") from exc
    if any(i < 1 for i in out):
        raise InputError("indices must be positive")
    return out


def read_matrix_file(source: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Matrix format: first value g, then 2g rows of 2g integers."""
    lines = [(lineno, body) for lineno, body in data_lines(_read_text(source)) if body.strip()]
    if not lines:
        raise InputError("line 1, col 1: empty matrix file")
    try:
        genus = int(lines[0][1].split()[0])
    except ValueError:
        raise token_error(*lines[0], 0, "genus must be an integer") from None
    if genus < 0:
        raise token_error(*lines[0], 0, "genus must be >= 0")
    entries = []
    for lineno, body in lines:
        entries += int_tokens(lineno, body, "bad matrix entry {tok!r}")
    del entries[0]  # the genus
    size = 2 * genus
    if len(entries) != size * size:
        raise InputError(f"expected {size * size} entries for genus {genus}, got {len(entries)}")
    return genus, tuple(tuple(entries[i * size: (i + 1) * size]) for i in range(size))


def read_laurent_file(source: str) -> seifert.LaurentPolynomial:
    """Laurent format: min exponent alone on one line, coefficient run on the next."""
    lines = [(lineno, body) for lineno, body in data_lines(_read_text(source)) if body.strip()]
    if len(lines) < 2:
        raise InputError("laurent file needs a min-exponent line and a coefficient line")
    if len(lines[0][1].split()) > 1:
        raise token_error(*lines[0], 1, "stray token {tok!r}")
    if len(lines) > 2:
        raise token_error(*lines[2], 0, "stray token {tok!r}")
    (min_exp,) = int_tokens(*lines[0], "bad laurent polynomial data")
    coeffs = int_tokens(*lines[1], "bad laurent polynomial data")
    return seifert.LaurentPolynomial.from_coefficient_list(min_exp, coeffs)


def read_longitudes_file(source: str) -> magnus.LongitudeSystem:
    """Longitude format: component count, then one word per line.

    Lines starting with ``#`` are comments; a blank line is the empty
    longitude.  Missing trailing lines count as empty longitudes, and
    no word may follow the last one.  The count is checked against
    ``magnus.MAX_GENERATOR`` before any longitude is built.
    """
    lines = data_lines(_read_text(source))
    if not lines:
        raise InputError("line 1, col 1: empty longitude file")
    (count_line, body), *rest = lines
    try:
        count = int(body.split()[0])
    except (IndexError, ValueError):  # a blank count line is a bad count too
        raise token_error(count_line, body, 0, "component count must be an integer") from None
    if count > magnus.MAX_GENERATOR:
        raise token_error(count_line, body, 0,
                          f"component count {count} exceeds the limit {magnus.MAX_GENERATOR}")
    if len(body.split()) > 1:
        raise token_error(count_line, body, 1, "stray token {tok!r}")
    longitudes = []
    for lineno, body in rest[:max(count, 0)]:
        try:
            longitudes.append(words.parse_word(body))
        except words.WordSyntaxError as exc:
            raise InputError(f"line {lineno}, col {exc.column}: {exc.message}") from None
    system = magnus.LongitudeSystem(count, tuple(longitudes) + ((),) * (count - len(longitudes)))
    for lineno, body in rest[count:]:
        if body.strip():
            raise token_error(lineno, body, 0, "stray token {tok!r}")
    return system


def _read_json(source: str):
    text = _read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        # a RuntimeError, which main would report as a defect in knotcert
        raise InputError("JSON nested too deeply") from None


def read_certificate_file(source: str):
    return certify.certificate_from_dict(_read_json(source))


def _poly_payload(poly) -> list:
    return [[list(mon), coeff] for mon, coeff in poly.terms()]


def _laurent_payload(poly: seifert.LaurentPolynomial) -> dict:
    min_exp, coeffs = poly.coefficient_list()
    return {"min_exp": min_exp, "coeffs": list(coeffs), "pretty": poly.pretty()}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, payload, human lines)


def _cmd_word_reduce(args):
    word = _word_arg(args.word)
    payload = {"word": words.format_word(word), "length": len(word)}
    return 0, payload, [words.format_word(word) or "(empty)"]


def _cmd_word_commutator(args):
    entries = _entries_arg(args.entries)
    if len(entries) < 2:
        raise InputError("need at least two entries")
    tagged = words.simple_commutator(entries)
    payload = {
        "entries": words.format_word(entries),
        "expansion": words.format_word(tagged.letters),
        "tags": list(tagged.tags),
        "reduced": words.format_word(tagged.word()),
    }
    return 0, payload, [payload["reduced"] or "(empty)"]


def _cmd_word_kill(args):
    word = _word_arg(args.word)
    out = words.kill_generators(word, _subset_arg(args.subset))
    return 0, {"word": words.format_word(out)}, [words.format_word(out) or "(empty)"]


def _cmd_magnus_expand(args):
    poly = magnus.expand(_word_arg(args.word), args.degree)
    payload = {"degree": args.degree, "terms": _poly_payload(poly)}
    lines = [f"{coeff} * {''.join(f'X{i}' for i in mon) or '1'}"
             for mon, coeff in poly.terms()]
    return 0, payload, lines or ["0"]


def _cmd_magnus_degree(args):
    d = magnus.lcs_degree(_word_arg(args.word), args.degree)
    payload = {"degree_bound": args.degree, "lcs_degree": d}
    return 0, payload, [f"exceeds {args.degree}" if d is None else str(d)]


def _cmd_magnus_fox(args):
    value = magnus.fox_coefficient(_word_arg(args.word), _indices_arg(args.index))
    return 0, {"index": list(_indices_arg(args.index)), "coefficient": value}, [str(value)]


def _cmd_decompose(args):
    comb = decomp.decompose(_word_arg(args.word), args.m, args.degree)
    payload = {
        "valid_mod_degree": comb.valid_mod_degree,
        "factors": [[words.format_word(e), x] for e, x in comb.factors],
        "residual": words.format_word(comb.residual),
    }
    lines = [f"{len(comb.factors)} factor(s), residual length {len(comb.residual)}"]
    lines += [f"  [{words.format_word(e)}]^{x:+d}" for e, x in comb.factors]
    return 0, payload, lines


def _cmd_schreier_degree(args):
    d = schreier.normal_closure_lcs_degree(
        _word_arg(args.word), _subset_arg(args.subset), args.degree)
    payload = {"degree_bound": args.degree, "closure_lcs_degree": d}
    return 0, payload, [f"exceeds {args.degree}" if d is None else str(d)]


def _cmd_trivialize_build(args):
    factors = [_entries_arg(f) for f in args.factor]
    insertions = []
    for ins in args.insert:
        try:
            pos_str, letter_str = ins.split(":", 1)
            letter_word = words.parse_word(letter_str)
            if len(letter_word) != 1:
                raise ValueError
            insertions.append((int(pos_str), letter_word[0]))
        except (ValueError, words.WordSyntaxError):
            raise InputError(f"bad insertion {ins!r}; expected POSITION:LETTER") from None
    tagged, family = trivializer.build_letter_sets(factors, insertions)
    payload = {
        "word": words.format_word(tagged.letters),
        "tags": [t if t is not None else 0 for t in tagged.tags],
        "sets": [sorted(s) for s in family.sets],
    }
    return 0, payload, [f"word length {len(tagged)}, {len(family)} letter sets"]


def _cmd_trivialize_verify(args):
    data = _read_json(args.report)
    try:
        word = data["word"]
        if not isinstance(word, str):
            raise InputError(f"bad trivializer report: word {json.dumps(word)} is not a string")
        letters = words.parse_letters(word)
        for tag in data["tags"]:
            if tag is not None and (not isinstance(tag, int) or isinstance(tag, bool)):
                raise InputError(
                    f"bad trivializer report: tag {json.dumps(tag)} is not an integer or null")
        tags = tuple(t if t else None for t in data["tags"])
        for position in (p for s in data["sets"] for p in s):
            # before the frozensets, which would merge true with 1 and 1.0 with 1
            if not isinstance(position, int) or isinstance(position, bool):
                raise InputError(
                    f"bad trivializer report: position {json.dumps(position)} is not an integer")
        sets = tuple(frozenset(s) for s in data["sets"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad trivializer report: {exc}") from exc
    result = trivializer.verify_family(
        words.TaggedWord(letters, tags), trivializer.LetterSetFamily(sets))
    payload = {
        "ok": result.ok,
        "checked_subfamilies": result.checked,
        "failing_subfamily": list(result.failing_subfamily) if result.failing_subfamily else None,
    }
    line = "all deletions trivialize" if result.ok else (
        f"subfamily {list(result.failing_subfamily)} fails")
    return (0 if result.ok else 1), payload, [line]


def _cmd_milnor_invariant(args):
    system = read_longitudes_file(args.longitudes)
    value = magnus.milnor_invariant(system, _indices_arg(args.index), reduced=args.mode == "gcd")
    return 0, {"index": list(_indices_arg(args.index)), "mode": args.mode, "value": value}, [str(value)]


def _cmd_milnor_vanish(args):
    system = read_longitudes_file(args.longitudes)
    ok = magnus.milnor_vanish_upto(system, args.n)
    return (0 if ok else 1), {"n": args.n, "vanish_up_to": args.n + 1, "vanish": ok}, [str(ok)]


def _cmd_alexander(args):
    genus, rows = read_matrix_file(args.matrix)
    delta = seifert.alexander(seifert.SeifertMatrix(genus, rows))
    return 0, {"genus": genus, "alexander": _laurent_payload(delta)}, [delta.pretty()]


def _cmd_classify(args):
    genus, rows = read_matrix_file(args.matrix)
    matrix = seifert.symmetrize(rows) if args.symmetrize else rows
    form = seifert.classify_form(matrix, genus)
    return 0, {"genus": genus, "form": form, "symmetrized": args.symmetrize}, [form]


def _cmd_mmr(args):
    delta = read_laurent_file(args.laurent)
    series = seifert.mmr_series(delta, args.order)
    payload = {
        "order": args.order,
        "coefficients": [str(c) for c in series.coefficients],
    }
    lines = [f"h^{i}: {c}" for i, c in enumerate(series.coefficients)]
    return 0, payload, lines


def _cmd_altsum(args):
    from fractions import Fraction

    data = _read_json(args.values)
    try:
        values = {}
        for entry in data:
            subset = entry["subset"]
            # bool is an int, and a string would iterate as its characters
            if not isinstance(subset, list) or any(
                    not isinstance(i, int) or isinstance(i, bool) for i in subset):
                raise ValueError(f"subset {json.dumps(subset)} is not a list of integers")
            values[tuple(subset)] = Fraction(str(entry["value"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad alternating-sum data: {exc}") from exc
    total = seifert.alternating_sum(values)
    return 0, {"sum": str(total)}, [str(total)]


def _bound_value(fn):
    """The handler of a bounds leaf that reports ``fn(args)`` as its value."""

    def handler(args):
        value = fn(args)
        return 0, {"fn": args.subcommand, "value": value}, [str(value)]

    return handler


def _conflict_max(args):
    try:
        return bounds.conflict_max(args.s)
    except OverflowError as exc:
        raise InputError(f"bounds conflict-max: s = {args.s} is out of range: {exc}") from exc


def _cmd_check_inequalities(args):
    report = bounds.check_inequalities(args.n)
    payload = {
        "n": report.n,
        "q_bound_holds": report.q_bound_holds,
        "q_param_bounds_hold": report.q_param_bounds_hold,
        "violations": list(report.violations),
        "l_bound_argument": str(report.l_bound_argument),
        "all_hold": report.all_hold,
    }
    line = "all inequalities hold" if report.all_hold else "; ".join(report.violations)
    return (0 if report.all_hold else 1), payload, [line]


def _cmd_partition_k(args):
    try:
        gensets = [_subset_arg(part) for part in args.factors.split("|") if part.strip()]
    except InputError as exc:
        raise InputError(f"bounds partition-k: --factors: {exc}") from exc
    partition, k = bounds.partition_k(gensets)
    payload = {
        "k": k,
        "blocks": [list(b) for b in partition.blocks],
        "block_generator_counts": list(partition.block_generator_counts()),
    }
    return 0, payload, [f"k = {k}; blocks {payload['blocks']}"]


_KIND_EXITS = {"valid": 0, "invalid": 1, "not-checkable-from-words": 3}


def _cmd_certify(args):
    kind = args.subcommand
    cert = read_certificate_file(args.certificate)
    if cert.kind != kind:
        raise InputError(f"certificate is of kind {cert.kind!r}, not {kind!r}")
    # only the parabolic leaf has --simplicity
    kwargs = {"s": args.simplicity} if "simplicity" in args else {}
    report = certify.CERTIFIERS[kind](cert, n=args.n, **kwargs)
    payload = report.to_dict()
    lines = [f"verdict: {report.verdict}"]
    lines += [
        f"  {c.name}{'[' + c.curve + ']' if c.curve else ''}: {c.status}"
        + (f" ({c.detail})" if c.detail else "")
        for c in report.conditions
    ]
    return _KIND_EXITS[report.verdict], payload, lines


def _cmd_translate(args):
    cert = read_certificate_file(args.certificate)
    result = certify.translate_certificate(cert, args.kind, args.n)
    payload = {
        "source_verdict": result.source_report.verdict,
        "target": certify.certificate_to_dict(result.certificate),
        "target_report": result.report.to_dict(),
    }
    lines = [
        f"source: {result.source_report.verdict}",
        f"target kind {result.certificate.kind} at n = {result.certificate.n}: "
        f"{result.report.verdict}",
    ]
    return _KIND_EXITS[result.report.verdict], payload, lines


def _cmd_pipeline(args):
    cert = read_certificate_file(args.certificate)
    report = certify.spine_link_pipeline(
        cert, list(args.signs), n=args.n, slice_depth=args.slice_depth
    )
    payload = report.to_dict()
    lines = [f"verdict: {report.verdict}", report.conclusion]
    if report.slice_conclusion:
        lines.append(report.slice_conclusion)
    return _KIND_EXITS[report.verdict], payload, lines


# ---------------------------------------------------------------------------
# parser


def _arg(*flags, **options):
    return flags, options


_FORMAT = _arg("--format", choices=("human", "structured"), default="human",
               help="output format (structured = JSON with schema field)")
_DEGREE = _arg("-D", "--degree", type=int, required=True)


def _ints(*names):
    return tuple(_arg(name, type=int) for name in names)


# The command table: name -> (help, handler, argument specs) for a leaf or
# (help, {name -> leaf row}, ()) for a group; a help of None lists no entry.
# Every leaf takes --format before its own arguments, and only those: argparse
# rejects any other.  A group's leaf finds its own name in args.subcommand.
COMMANDS = {
    "word": ("free-group word operations", {
        "reduce": (None, _cmd_word_reduce, (_arg("word"),)),
        "commutator": (None, _cmd_word_commutator, (
            _arg("entries", help="entry letters in word syntax"),)),
        "kill": (None, _cmd_word_kill, (
            _arg("word"),
            _arg("--subset", required=True, help="generator indices, e.g. '1 2'"))),
    }, ()),
    "magnus": ("Magnus expansion operations", {
        "expand": (None, _cmd_magnus_expand, (_arg("word"), _DEGREE)),
        "degree": (None, _cmd_magnus_degree, (_arg("word"), _DEGREE)),
        "fox": (None, _cmd_magnus_fox, (
            _arg("word"),
            _arg("--index", required=True, help="monomial indices, e.g. '1 2 1'"))),
    }, ()),
    "decompose": ("write a word as simple commutators", _cmd_decompose, (
        _arg("word"),
        _arg("-m", type=int, required=True, help="the word lies in F^(m+1)"),
        _DEGREE)),
    "schreier": ("normal closure operations", {
        "degree": (None, _cmd_schreier_degree, (
            _arg("word"), _arg("--subset", required=True), _DEGREE)),
    }, ()),
    "trivialize": ("letter-set trivializer", {
        "build": (None, _cmd_trivialize_build, (
            _arg("--factor", action="append", required=True,
                 help="entry sequence (repeatable)"),
            _arg("--insert", action="append", default=[],
                 help="canceling pair POSITION:LETTER (repeatable)"))),
        "verify": (None, _cmd_trivialize_verify, (
            _arg("report", help="JSON report from 'trivialize build' (path or -)"),)),
    }, ()),
    "milnor": ("Milnor invariants of longitude systems", {
        "invariant": (None, _cmd_milnor_invariant, (
            _arg("longitudes", help="longitude file (path or -)"),
            _arg("--index", required=True),
            _arg("--mode", choices=("raw", "gcd"), default="raw"))),
        "vanish": (None, _cmd_milnor_vanish, (
            _arg("longitudes"), _arg("-n", type=int, required=True))),
    }, ()),
    "alexander": ("Alexander polynomial of a Seifert matrix", _cmd_alexander, (
        _arg("matrix", help="matrix file (path or -)"),)),
    "classify": ("form shape of a symmetric matrix", _cmd_classify, (
        _arg("matrix"),
        _arg("--symmetrize", action="store_true",
             help="treat the file as a Seifert matrix and classify V + V^T"))),
    "mmr": ("canonical invariant series p(h)/Delta(e^h)", _cmd_mmr, (
        _arg("laurent", help="laurent polynomial file (path or -)"),
        _arg("-N", "--order", type=int, required=True))),
    "bounds": ("arithmetic bound functions", {
        "q": (None, _bound_value(lambda a: bounds.q(a.m)), _ints("m")),
        "t": (None, _bound_value(lambda a: bounds.t(a.n)), _ints("n")),
        "q-param": (None, _bound_value(lambda a: bounds.q_param(a.n, a.k)), _ints("n", "k")),
        "l-n-s": (None, _bound_value(lambda a: bounds.l_n_S(a.q)), (
            _arg("q", type=int, nargs="+"),)),
        "conflict-max": (None, _bound_value(_conflict_max), _ints("s")),
        "ratio-check": (None, _bound_value(lambda a: bounds.ratio_check(a.w_y, a.s_y)),
                        _ints("w_y", "s_y")),
        "good-arc-bound": (None, _bound_value(
            lambda a: bounds.good_arc_bound(a.m, a.k, a.s, a.embedded)), (
            *_ints("m", "k", "s"), _arg("--embedded", action="store_true"))),
        "product-bound-check": (None, _bound_value(
            lambda a: bounds.product_bound_check(a.m, a.k, a.r, a.s)), _ints("m", "k", "r", "s")),
        "check-inequalities": (None, _cmd_check_inequalities, _ints("n")),
        "partition-k": (None, _cmd_partition_k, (_arg(
            "--factors", required=True, help="generator sets split by '|', e.g. '1 2|2 3|4'"),)),
    }, ()),
    "certify": ("verify a surface certificate", {
        kind: (None, _cmd_certify, (
            _arg("certificate", help="certificate JSON (path or -)"), _arg("--n", type=int),
            *((_arg("--simplicity", type=int),) if kind == "parabolic" else ())))
        for kind in KINDS
    }, ()),
    "translate": ("apply a certificate index shift and re-verify", _cmd_translate, (
        _arg("kind", choices=KINDS),
        _arg("certificate"),
        _arg("--n", type=int, required=True, help="the level parameter of the shift"))),
    "pipeline": ("derived-link pipelines", {
        "spine-link": (None, _cmd_pipeline, (
            _arg("certificate"),
            _arg("--signs", required=True, help="one +/- per curve, e.g. '++-+'"),
            _arg("--n", type=int), _arg("--slice-depth", type=int))),
    }, ()),
    "altsum": ("alternating sum over a subset family", _cmd_altsum, (
        _arg("values", help="JSON list of {subset, value} records (path or -)"),)),
}


def _leaf_path(argv: list[str]) -> tuple[str, ...]:
    """The names ``argv`` starts with if they name a leaf of COMMANDS, else ()."""
    rows = COMMANDS
    for depth, name in enumerate(argv[:2], start=1):
        row = rows.get(name)
        if row is None:
            return ()
        if not isinstance(row[1], dict):
            return tuple(argv[:depth])
        rows = row[1]
    return ()


def build_parser(path: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The parser of every command, or of the one leaf that ``path`` names.

    A one-leaf parser lists every command name in its usage lines, so it
    parses, prints and fails on that leaf's command lines like the full one.
    """
    parser = argparse.ArgumentParser(
        prog="knotcert",
        description="Free-group commutator calculus and knot certificate checks",
    )

    def add(parent, dest, rows, path):
        # an unset metavar keeps "argument command: invalid choice" worded
        # as it is; only the full tree can reach that error
        metavar = {"metavar": "{" + ",".join(rows) + "}"} if path else {}
        sub = parent.add_subparsers(dest=dest, required=True, **metavar)
        for name in path[:1] or rows:
            help_, target, specs = rows[name]
            p = sub.add_parser(name, **({} if help_ is None else {"help": help_}))
            if isinstance(target, dict):
                add(p, "subcommand", target, path[1:])
                continue
            p.set_defaults(handler=target)
            for flags, arg_options in (_FORMAT, *specs):
                p.add_argument(*flags, **arg_options)

    add(parser, "command", COMMANDS, path)
    return parser


def _emit(args, code: int, payload: dict, lines: list[str]) -> int:
    """Print the report and return the job's exit code.

    A reader that has gone away (``| head``) does not change the exit
    code: stdout is pointed at the null device, so neither this flush
    nor the interpreter's final one can raise BrokenPipeError.
    """
    try:
        if args.format == "structured":
            doc = {"schema": SCHEMA, "command": args.command, "exit_code": code}
            doc.update(payload)
            print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_leaf_path(argv)).parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except ValueError as exc:
        # InputError, words.WordSyntaxError, CertificateError,
        # certify.TranslationError and schreier.NotInNormalClosure are all
        # ValueErrors: malformed input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return _emit(args, code, payload, lines)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
