"""CLI handlers of the certificate commands: ``certify``, ``translate``
and ``pipeline``.

Each handler takes the parsed arguments and returns (exit code, payload,
human lines); ``cli.main`` imports this module only when it runs one of
these commands.  The translations and the pipeline are plain modules,
imported by their own handler, so a ``certify`` job compiles neither.
Each handler imports its module after reading the certificate, which
loads ``certify``: the larger ``certify.py`` then compiles first, and
the job's peak RSS stays lower than the other way round.
"""

from __future__ import annotations

from . import certify
from ._value import InputError, read_json

_KIND_EXITS = {"valid": 0, "invalid": 1, "not-checkable-from-words": 3}


def read_certificate_file(source: str, kind: str | None = None):
    cert = certify.certificate_from_dict(read_json(source))
    if kind is not None and cert.kind != kind:
        raise InputError(f"certificate kind {cert.kind!r} does not match {kind!r}")
    return cert


def certify_kind(args):
    kind = args.subcommand
    cert = read_certificate_file(args.certificate, kind)
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


def translate(args):
    cert = read_certificate_file(args.certificate, args.kind)
    from .translate import translate_certificate

    result = translate_certificate(cert, args.n)
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


def pipeline(args):
    cert = read_certificate_file(args.certificate)
    from .pipeline import spine_link_pipeline

    report = spine_link_pipeline(cert, list(args.signs), n=args.n, slice_depth=args.slice_depth)
    payload = report.to_dict()
    lines = [f"verdict: {report.verdict}", report.conclusion]
    if report.slice_conclusion:
        lines.append(report.slice_conclusion)
    return _KIND_EXITS[report.verdict], payload, lines
