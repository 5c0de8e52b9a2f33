"""Command-line interface: one job per invocation, structured reports.

Every subcommand parses documented text or JSON inputs, calls the
corresponding library operation and emits either a human-readable
summary or a structured JSON report (``--format structured``) with a
stable ``schema`` field.  Reports are deterministic: identical inputs
produce byte-identical structured output.

A command line is read straight from the ``COMMANDS`` table when it is
plain: a leaf's names, its positionals in order, then exact ``--flag
value`` pairs and ``store_true`` flags (``_read_plain``).  Any other line,
including ``-h``, abbreviations, ``--flag=value`` and every malformed
line, goes to the argparse parser of every command (``build_parser``),
which stays the parser of record: both give the same arguments, and only
argparse prints usage, help and diagnostics.  So ``argparse``, and the
``gettext`` and ``locale`` that it imports, load only for those lines.
Both read numbers with ``_value.integer``, as every text input does.

Exit codes: 0 success/valid verdict, 1 invalid (a checked property is
false), 2 malformed input, 3 not checkable from word data (required
geometric assertions missing), 4 internal error (an internal self-check
such as the Lyndon solve's or a decomposition stage's raised
RuntimeError: a defect in knotcert, not a verdict on the input).
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from ._value import KINDS, IntegerTooLong, function_at, integer, quoted

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import argparse

SCHEMA = 1


# ---------------------------------------------------------------------------
# parser


def _arg(*flags, **options):
    return flags, options


_FORMAT = _arg("--format", choices=("human", "structured"), default="human",
               help="output format (structured = JSON with schema field)")
_DEGREE = _arg("-D", "--degree", type=integer, required=True)


def _ints(*names):
    return tuple(_arg(name, type=integer) for name in names)


# The command table: name -> (help, handler, argument specs) for a leaf or
# (help, {name -> leaf row}, ()) for a group; a help of None lists no entry.
# A handler is named as "module:function" of one command module per family
# (cmd_words, cmd_seifert, cmd_bounds, cmd_certify), which main imports
# through _value.function_at only when it runs that leaf, so a job compiles
# its own family's handlers alone.
# Every leaf takes --format besides its own arguments, and only those: the
# reader and argparse reject any other.  A group's leaf finds its own name in
# args.subcommand.
COMMANDS = {
    "word": ("free-group word operations", {
        "reduce": (None, "cmd_words:word_reduce", (_arg("word"),)),
        "commutator": (None, "cmd_words:word_commutator", (
            _arg("entries", help="entry letters in word syntax"),)),
        "kill": (None, "cmd_words:word_kill", (
            _arg("word"),
            _arg("--subset", required=True, help="generator indices, e.g. '1 2'"))),
    }, ()),
    "magnus": ("Magnus expansion operations", {
        "expand": (None, "cmd_words:magnus_expand", (_arg("word"), _DEGREE)),
        "degree": (None, "cmd_words:magnus_degree", (_arg("word"), _DEGREE)),
        "fox": (None, "cmd_words:magnus_fox", (
            _arg("word"),
            _arg("--index", required=True, help="monomial indices, e.g. '1 2 1'"))),
    }, ()),
    "decompose": ("write a word as simple commutators", "cmd_words:decompose", (
        _arg("word"),
        _arg("-m", type=integer, required=True, help="the word lies in F^(m+1)"),
        _DEGREE)),
    "schreier": ("normal closure operations", {
        "degree": (None, "cmd_words:schreier_degree", (
            _arg("word"), _arg("--subset", required=True), _DEGREE)),
    }, ()),
    "trivialize": ("letter-set trivializer", {
        "build": (None, "cmd_words:trivialize_build", (
            _arg("--factor", action="append", required=True,
                 help="entry sequence (repeatable)"),
            _arg("--insert", action="append", default=[],
                 help="canceling pair POSITION:LETTER (repeatable)"))),
        "verify": (None, "cmd_words:trivialize_verify", (
            _arg("report", help="JSON report from 'trivialize build' (path or -)"),)),
    }, ()),
    "milnor": ("Milnor invariants of longitude systems", {
        "invariant": (None, "cmd_words:milnor_invariant", (
            _arg("longitudes", help="longitude file (path or -)"),
            _arg("--index", required=True),
            _arg("--mode", choices=("raw", "gcd"), default="raw"))),
        "vanish": (None, "cmd_words:milnor_vanish", (
            _arg("longitudes"), _arg("-n", type=integer, required=True))),
    }, ()),
    "alexander": ("Alexander polynomial of a Seifert matrix", "cmd_seifert:alexander", (
        _arg("matrix", help="matrix file (path or -)"),)),
    "classify": ("form shape of a symmetric matrix", "cmd_seifert:classify", (
        _arg("matrix"),
        _arg("--symmetrize", action="store_true",
             help="treat the file as a Seifert matrix and classify V + V^T"))),
    "mmr": ("canonical invariant series p(h)/Delta(e^h)", "cmd_seifert:mmr", (
        _arg("laurent", help="laurent polynomial file (path or -)"),
        _arg("-N", "--order", type=integer, required=True))),
    "bounds": ("arithmetic bound functions", {
        "q": (None, "cmd_bounds:q", _ints("m")),
        "t": (None, "cmd_bounds:t", _ints("n")),
        "q-param": (None, "cmd_bounds:q_param", _ints("n", "k")),
        "l-n-s": (None, "cmd_bounds:l_n_s", (_arg("q", type=integer, nargs="+"),)),
        "conflict-max": (None, "cmd_bounds:conflict_max", _ints("s")),
        "ratio-check": (None, "cmd_bounds:ratio_check", _ints("w_y", "s_y")),
        "good-arc-bound": (None, "cmd_bounds:good_arc_bound", (
            *_ints("m", "k", "s"), _arg("--embedded", action="store_true"))),
        "product-bound-check": (None, "cmd_bounds:product_bound_check", _ints("m", "k", "r", "s")),
        "check-inequalities": (None, "cmd_bounds:check_inequalities", _ints("n")),
        "partition-k": (None, "cmd_bounds:partition_k", (_arg(
            "--factors", required=True, help="generator sets split by '|', e.g. '1 2|2 3|4'"),)),
    }, ()),
    "certify": ("verify a surface certificate", {
        kind: (None, "cmd_certify:certify_kind", (
            _arg("certificate", help="certificate JSON (path or -)"), _arg("--n", type=integer),
            *((_arg("--simplicity", type=integer),) if kind == "parabolic" else ())))
        for kind in KINDS
    }, ()),
    "translate": ("apply a certificate index shift and re-verify", "cmd_certify:translate", (
        _arg("kind", choices=KINDS),
        _arg("certificate"),
        _arg("--n", type=integer, required=True, help="the level parameter of the shift"))),
    "pipeline": ("derived-link pipelines", {
        "spine-link": (None, "cmd_certify:pipeline", (
            _arg("certificate"),
            _arg("--signs", required=True, help="one +/- per curve, e.g. '++-+'"),
            _arg("--n", type=integer), _arg("--slice-depth", type=integer))),
    }, ()),
    "altsum": ("alternating sum over a subset family", "cmd_seifert:altsum", (
        _arg("values", help="JSON list of {subset, value} records (path or -)"),)),
}


def _leaf_path(argv: list[str]) -> tuple[str, ...]:
    """The names ``argv`` starts with if they name a leaf of COMMANDS, else ()."""
    rows = COMMANDS
    for depth, name in enumerate(argv[:2], start=1):
        row = rows.get(name)
        if row is None:
            return ()
        if isinstance(row[1], str):
            return tuple(argv[:depth])
        rows = row[1]
    return ()


# the argument options that _read_plain applies itself; a spec with any
# other option, nargs or action is left to argparse
_PLAIN_OPTIONS = {"help", "type", "choices", "required", "default", "action", "nargs"}


def _dashed(token: str) -> bool:
    return token.startswith("-") and token != "-"


def _dest(flags: tuple[str, ...]) -> str:
    """argparse's attribute name for ``flags``: a positional's name, else
    the first long flag (or the first flag) without its dashes, ``-`` as ``_``."""
    if not flags[0].startswith("-"):
        return flags[0]
    flag = next((f for f in flags if f.startswith("--")), flags[0])
    return flag.lstrip("-").replace("-", "_")


def _value(options: dict, token: str):
    """``token`` read as argparse reads it: ``type`` applied, ``choices`` checked."""
    value = options.get("type", str)(token)
    if "choices" in options and value not in options["choices"]:
        raise ValueError(f"invalid choice: {token!r}")
    return value


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line, as ``build_parser()`` parses
    them, or None to leave the line to argparse.

    A plain line names a leaf, gives its positionals in spec order (an
    ``nargs="+"`` one takes the rest), then exact ``--flag value`` pairs
    and ``store_true`` flags.  Anything else (help, an abbreviated or
    ``--flag=value`` option, a value that starts with ``-``, a positional
    after an option, a bad value or a missing argument) is declined, so
    argparse reads it or prints its usage and message.
    """
    path = _leaf_path(argv)
    if not path:
        return None
    rows = COMMANDS
    for name in path[:-1]:
        rows = rows[name][1]
    _, handler, specs = rows[path[-1]]
    args = dict(zip(("command", "subcommand"), path), handler=handler)
    tokens = argv[len(path):]
    split = next((i for i, token in enumerate(tokens) if _dashed(token)), len(tokens))
    positionals, rest = tokens[:split], iter(tokens[split:])
    flags, required = {}, set()
    try:
        for names, options in (_FORMAT, *specs):
            action, nargs = options.get("action"), options.get("nargs")
            if not (options.keys() <= _PLAIN_OPTIONS and nargs in (None, "+")
                    and action in (None, "store_true", "append")):
                return None
            dest = _dest(names)
            if names[0].startswith("-"):
                flags.update(dict.fromkeys(names, (dest, options)))
                args[dest] = False if action == "store_true" else options.get("default")
                if options.get("required"):
                    required.add(dest)
            elif not positionals:
                return None
            elif nargs == "+":
                args[dest] = [_value(options, token) for token in positionals]
                positionals = []
            else:
                args[dest] = _value(options, positionals.pop(0))
        if positionals:
            return None
        for token in rest:
            if token not in flags:
                return None
            dest, options = flags[token]
            required.discard(dest)
            if options.get("action") == "store_true":
                args[dest] = True
                continue
            token = next(rest, None)
            if token is None or _dashed(token):
                return None
            value = _value(options, token)
            # append copies the default list, as argparse does
            args[dest] = [*(args[dest] or ()), value] if options.get("action") == "append" else value
    except ValueError:
        return None
    return None if required else SimpleNamespace(**args)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for the lines that ``_read_plain`` declines."""
    import argparse  # with gettext and locale: only for lines _read_plain declines

    parser = argparse.ArgumentParser(
        prog="knotcert",
        description="Free-group commutator calculus and knot certificate checks",
    )

    def numeric(token: str) -> int:
        # argparse would show a refused value whole
        try:
            return integer(token)
        except IntegerTooLong as exc:
            message = f"invalid int value {quoted(token)}: {exc}"
        except ValueError:
            message = f"invalid int value: {quoted(token)}"
        raise argparse.ArgumentTypeError(message)

    def add(parent, dest, rows):
        sub = parent.add_subparsers(dest=dest, required=True)
        for name, (help_, target, specs) in rows.items():
            p = sub.add_parser(name, **({} if help_ is None else {"help": help_}))
            if not isinstance(target, str):
                add(p, "subcommand", target)
                continue
            p.set_defaults(handler=target)
            for flags, arg_options in (_FORMAT, *specs):
                if arg_options.get("type") is integer:
                    arg_options = {**arg_options, "type": numeric}
                p.add_argument(*flags, **arg_options)

    add(parser, "command", COMMANDS)
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
    args = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        code, payload, lines = function_at(args.handler)(args)
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
