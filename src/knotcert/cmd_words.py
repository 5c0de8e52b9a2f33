"""CLI handlers of the free-group commands: ``word``, ``magnus``,
``decompose``, ``schreier``, ``trivialize`` and ``milnor``.

Each handler takes the parsed arguments and returns (exit code, payload,
human lines); ``cli.main`` imports this module only when it runs one of
these commands.  The library layers are lazy modules, so every use is
qualified: a ``from .layer import name`` here would load that layer for
every command of the family.  ``milnor`` is a plain module, imported by
the ``magnus fox`` and ``milnor`` handlers that use it, and the tagged
commutator expansions are reached through ``trivializer``.
"""

from __future__ import annotations

import json

from . import decomp, magnus, schreier, trivializer, words
from ._value import (
    InputError, IntegerTooLong, data_lines, generator_subset, integer, json_int, quoted,
    read_json, read_text, token_error)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from . import milnor


def _raw_arg(value: str) -> str:
    if value.startswith("@"):
        return read_text(value[1:])
    if value == "-":
        return read_text("-")
    return value


def _word_arg(value: str) -> tuple[int, ...]:
    """A word given inline, or @path / - to read it from a file or stdin."""
    return words.parse_word(_raw_arg(value))


def _entries_arg(value: str) -> tuple[int, ...]:
    """An entry sequence: letters are kept as written, never reduced."""
    return words.parse_letters(_raw_arg(value))


def _indices_arg(value: str) -> tuple[int, ...]:
    try:
        out = tuple(map(integer, value.split()))
    except IntegerTooLong as exc:
        raise InputError(f"bad index sequence {quoted(value)}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"bad index sequence {quoted(value)}") from exc
    if any(i < 1 for i in out):
        raise InputError("indices must be positive")
    return out


def read_longitudes_file(source: str) -> milnor.LongitudeSystem:
    """Longitude format: component count, then one word per line.

    Lines starting with ``#`` are comments; a blank line is the empty
    longitude.  Missing trailing lines count as empty longitudes, and
    no word may follow the last one.  The count is checked against
    ``magnus.MAX_GENERATOR`` before any longitude is built.
    """
    from . import milnor

    lines = data_lines(read_text(source))
    if not lines:
        raise InputError("line 1, col 1: empty longitude file")
    (count_line, body), *rest = lines
    try:
        count = integer(body.split()[0])
    except IntegerTooLong as exc:
        raise token_error(count_line, body, 0, str(exc)) from None
    except (IndexError, ValueError):  # a blank count line is a bad count too
        raise token_error(count_line, body, 0, "component count must be an integer") from None
    if count < 1:
        raise token_error(count_line, body, 0, "component count must be >= 1")
    if count > magnus.MAX_GENERATOR:
        raise token_error(count_line, body, 0,
                          f"component count {quoted(str(count), str)} exceeds the limit "
                          f"{magnus.MAX_GENERATOR}")
    if len(body.split()) > 1:
        raise token_error(count_line, body, 1, "stray token {tok!r}")
    longitudes = []
    for lineno, body in rest[:count]:
        try:
            longitudes.append(words.parse_word(body))
        except words.WordSyntaxError as exc:
            raise InputError(f"line {lineno}, col {exc.column}: {exc.message}") from None
    system = milnor.LongitudeSystem(count, tuple(longitudes) + ((),) * (count - len(longitudes)))
    for lineno, body in rest[count:]:
        if body.strip():
            raise token_error(lineno, body, 0, "stray token {tok!r}")
    return system


def word_reduce(args):
    word = _word_arg(args.word)
    payload = {"word": words.format_word(word), "length": len(word)}
    return 0, payload, [words.format_word(word) or "(empty)"]


def word_commutator(args):
    entries = _entries_arg(args.entries)
    tagged = trivializer.simple_commutator(entries)
    payload = {
        "entries": words.format_word(entries),
        "expansion": words.format_word(tagged.letters),
        "tags": list(tagged.tags),
        "reduced": words.format_word(tagged.word()),
    }
    return 0, payload, [payload["reduced"] or "(empty)"]


def word_kill(args):
    word = _word_arg(args.word)
    out = words.kill_generators(word, generator_subset(args.subset))
    return 0, {"word": words.format_word(out)}, [words.format_word(out) or "(empty)"]


def magnus_expand(args):
    poly = magnus.expand(_word_arg(args.word), args.degree)
    payload = {"degree": args.degree, "terms": [[list(mon), coeff] for mon, coeff in poly.terms()]}
    lines = [f"{coeff} * {''.join(f'X{i}' for i in mon) or '1'}"
             for mon, coeff in poly.terms()]
    return 0, payload, lines or ["0"]


def magnus_degree(args):
    d = magnus.lcs_degree(_word_arg(args.word), args.degree)
    payload = {"degree_bound": args.degree, "lcs_degree": d}
    return 0, payload, [f"exceeds {args.degree}" if d is None else str(d)]


def magnus_fox(args):
    from . import milnor

    value = milnor.fox_coefficient(_word_arg(args.word), _indices_arg(args.index))
    return 0, {"index": list(_indices_arg(args.index)), "coefficient": value}, [str(value)]


def decompose(args):
    comb = decomp.decompose(_word_arg(args.word), args.m, args.degree)
    payload = {
        "valid_mod_degree": comb.valid_mod_degree,
        "factors": [[words.format_word(e), x] for e, x in comb.factors],
        "residual": words.format_word(comb.residual),
    }
    lines = [f"{len(comb.factors)} factor(s), residual length {len(comb.residual)}"]
    lines += [f"  [{words.format_word(e)}]^{x:+d}" for e, x in comb.factors]
    return 0, payload, lines


def schreier_degree(args):
    d = schreier.normal_closure_lcs_degree(
        _word_arg(args.word), generator_subset(args.subset), args.degree)
    payload = {"degree_bound": args.degree, "closure_lcs_degree": d}
    return 0, payload, [f"exceeds {args.degree}" if d is None else str(d)]


def trivialize_build(args):
    factors = [_entries_arg(f) for f in args.factor]
    insertions = []
    for ins in args.insert:
        try:
            pos_str, letter_str = ins.split(":", 1)
            letter_word = words.parse_word(letter_str)
            if len(letter_word) != 1:
                raise ValueError
            insertions.append((integer(pos_str), letter_word[0]))
        except (ValueError, words.WordSyntaxError):
            raise InputError(f"bad insertion {ins!r}; expected POSITION:LETTER") from None
    tagged, family = trivializer.build_letter_sets(factors, insertions)
    payload = {
        "word": words.format_word(tagged.letters),
        "tags": [t if t is not None else 0 for t in tagged.tags],
        "sets": [sorted(s) for s in family.sets],
    }
    return 0, payload, [f"word length {len(tagged)}, {len(family)} letter sets"]


def trivialize_verify(args):
    data = read_json(args.report)
    try:
        word = data["word"]
        if not isinstance(word, str):
            raise InputError(f"bad trivializer report: word {json.dumps(word)} is not a string")
        letters = words.parse_letters(word)
        for tag in data["tags"]:
            if tag is not None and not json_int(tag):
                raise InputError(
                    f"bad trivializer report: tag {json.dumps(tag)} is not an integer or null")
        tags = tuple(t if t else None for t in data["tags"])
        for position in (p for s in data["sets"] for p in s):
            # before the frozensets, which would merge true with 1 and 1.0 with 1
            if not json_int(position):
                raise InputError(
                    f"bad trivializer report: position {json.dumps(position)} is not an integer")
        sets = tuple(frozenset(s) for s in data["sets"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad trivializer report: {exc}") from exc
    result = trivializer.verify_family(
        trivializer.TaggedWord(letters, tags), trivializer.LetterSetFamily(sets))
    payload = {
        "ok": result.ok,
        "checked_subfamilies": result.checked,
        "failing_subfamily": list(result.failing_subfamily) if result.failing_subfamily else None,
    }
    line = "all deletions trivialize" if result.ok else (
        f"subfamily {list(result.failing_subfamily)} fails")
    return (0 if result.ok else 1), payload, [line]


def milnor_invariant(args):
    from . import milnor

    system = read_longitudes_file(args.longitudes)
    value = milnor.milnor_invariant(system, _indices_arg(args.index), reduced=args.mode == "gcd")
    return 0, {"index": list(_indices_arg(args.index)), "mode": args.mode, "value": value}, [str(value)]


def milnor_vanish(args):
    from . import milnor

    system = read_longitudes_file(args.longitudes)
    ok = milnor.milnor_vanish_upto(system, args.n)
    return (0 if ok else 1), {"n": args.n, "vanish_up_to": args.n + 1, "vanish": ok}, [str(ok)]
