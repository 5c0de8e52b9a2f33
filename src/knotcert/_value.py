"""Frozen value records built without generated code.

``Record`` gives its subclasses what ``@dataclass(frozen=True)`` gave
them: an ``__init__`` over the annotated fields that ends in
``__post_init__``, field-wise ``__eq__`` and ``__hash__``, the
``Name(field=value, ...)`` repr, and instances whose attributes cannot
be assigned or deleted.  The methods are generic and read the field
names that ``__init_subclass__`` records once per class, so creating a
class compiles and executes nothing.  This module imports no other
knotcert module when it loads, so any layer can use it; ``function_at``
imports the module it is asked for.

``KINDS`` lives here too, so that the CLI can offer the certificate
kinds as argument choices without loading ``certify``, and so do the
one integer rule of every text input (``integer``), the one
``"module:function"`` resolver (``function_at``), the line primitives of
the text readers (``located_tokens`` places every token of a word,
matrix, Laurent or longitude input by its column, and ``quoted`` shows
a token in a diagnostic, capped at 32 characters) and the input helpers
that ``cli`` and its command modules share (``InputError``,
``read_text``, ``read_json``, ``json_int``, ``generator_subset``).
The command modules import these from here, never from ``cli``: under
``python -m knotcert.cli`` the running ``cli`` is ``__main__``, and an
import of ``knotcert.cli`` would execute it a second time.  ``read_text``
opens files with ``open``, not ``pathlib``, which would load ``pathlib``,
``urllib.parse`` and ``ipaddress`` into every job.
"""

import json
import sys
from importlib import import_module

KINDS = ("hyperbolic", "elliptic", "parabolic", "unknotted")


class InputError(ValueError):
    """Malformed command input (CLI exit code 2)."""


class IntegerTooLong(ValueError):
    """A well-formed integer token of more digits than ``int`` converts."""

    def __init__(self, digits: int):
        super().__init__(f"integer of {digits} digits exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits")


def read_text(source: str) -> str:
    """The text of file ``source``, or of stdin for ``-``."""
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc


def read_json(source: str):
    """The JSON document of file ``source``, or of stdin for ``-``."""
    text = read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        # a RuntimeError, which the CLI would report as a defect in knotcert
        raise InputError("JSON nested too deeply") from None
    except ValueError:
        # int() refuses a JSON integer of more digits than the interpreter's
        # limit, with no position and with advice to raise the limit
        error = _long_integer_error(text)
        if error is None:
            raise
        raise error from None


def _long_integer_error(text: str) -> InputError | None:
    """The error that places the first JSON integer of ``text`` with more
    digits than ``int`` converts; None if there is none.  Strings are
    skipped whole, and a number with a fraction or an exponent is a
    float, which has no digit limit."""
    import re

    limit = sys.get_int_max_str_digits()
    for match in re.finditer(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?', text):
        digits, fraction, exponent = match.groups()
        if digits and fraction is None and exponent is None and 0 < limit < len(digits):
            pos = match.start()
            line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
            return InputError(f"line {line}, col {col}: {IntegerTooLong(len(digits))}")
    return None


def integer(token: str, *, signed: bool = True) -> int:
    """The integer that ``token`` spells in ASCII digits: ``[+-]?[0-9]+``, or
    ``[0-9]+`` when not ``signed``.  ValueError for any other token (``int``
    alone reads ``_`` grouping, non-ASCII digits and surrounding whitespace);
    ``IntegerTooLong``, a ValueError too, for more digits than ``int`` converts."""
    digits = token[1:] if signed and token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    try:
        return int(token)
    except ValueError:
        raise IntegerTooLong(len(digits)) from None


def function_at(ref: str):
    """The function that ``ref`` names as ``"module:function"`` of knotcert,
    read from its module on each call, so a function rebound there (as
    ``bench/tracer.py`` rebinds every public function) is the one returned."""
    module, _, name = ref.partition(":")
    return getattr(import_module(f".{module}", __package__), name)


def json_int(value) -> bool:
    """Whether ``value`` is a JSON integer: an ``int``, but not a ``bool``, which subclasses it."""
    return isinstance(value, int) and type(value) is not bool


def generator_subset(value: str) -> frozenset[int]:
    """The generator indices that ``value`` lists, such as ``'1 2'``."""
    try:
        out = frozenset(map(integer, value.split()))
    except IntegerTooLong as exc:
        raise InputError(f"bad generator subset {quoted(value)}: {exc}") from None
    except ValueError as exc:
        raise InputError(f"bad generator subset {quoted(value)}") from exc
    if any(g < 1 for g in out):
        raise InputError("generator subsets need positive indices")
    return out


def located_tokens(line: str) -> list[tuple[int, str]]:
    """(1-based character column, token) of each whitespace-separated token of ``line``."""
    out = []
    col = 0
    for tok in line.split():
        col = line.index(tok, col)
        out.append((col + 1, tok))
        col += len(tok)
    return out


def data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text before any ``#``) of each line that is not a ``#`` comment line."""
    return [(lineno, line.split("#", 1)[0])
            for lineno, line in enumerate(text.splitlines(), start=1)
            if not line.lstrip().startswith("#")]


def quoted(tok: str, show=repr) -> str:
    """``show(tok)`` for a diagnostic; a token of more than 32 characters is
    shown by its first 32 and its length, so one huge token cannot make a
    diagnostic line of thousands of characters.  ``show=str`` caps a text
    that is already rendered, such as a JSON value."""
    if len(tok) <= 32:
        return show(tok)
    return f"{show(tok[:32])}... ({len(tok)} characters)"


class _Quoted:
    """A token that ``{tok!r}`` in a message shows as ``quoted(token)``."""

    def __init__(self, tok: str):
        self.tok = tok

    def __repr__(self) -> str:
        return quoted(self.tok)


def token_error(lineno: int, body: str, index: int, message: str) -> ValueError:
    """Malformed input at the ``index``-th token of line ``lineno`` (one past the
    last: just after the text), by column; ``message`` may name it as ``{tok!r}``,
    which shows ``quoted(token)``."""
    col, tok = (located_tokens(body) + [(len(body.rstrip()) + 1, "")])[index]
    return ValueError(f"line {lineno}, col {col}: {message.format(tok=_Quoted(tok))}")


def int_tokens(lineno: int, body: str, message: str) -> list[int]:
    """The integers that the tokens of line ``lineno`` spell; columns are looked
    up only once ``integer`` refuses a token, which ``token_error`` names with
    ``message``, or with its own message for a token of too many digits."""
    values: list[int] = []
    try:
        for tok in body.split():
            values.append(integer(tok))
    except IntegerTooLong as exc:
        raise token_error(lineno, body, len(values), str(exc)) from None
    except ValueError:
        raise token_error(lineno, body, len(values), message) from None
    return values


class Record:
    """Base class of an immutable value with named fields.

    The fields are the subclass's own annotated names, in order; a class
    attribute of the same name is the field's default.  ``__post_init__``
    may validate the fields, and may normalise one with
    ``object.__setattr__``.  Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # own annotations only (Python >= 3.10); the values are unused
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing required argument {key!r}")
                values[key] = self._defaults[key]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")


def as_dict(value):
    """``value`` with every Record turned into a dict of its fields.

    Lists, tuples and dicts are rebuilt with their items converted, so
    the result shares no container with ``value``; other values are
    returned as they are.  This is the nesting ``dataclasses.asdict``
    gives.
    """
    if isinstance(value, Record):
        return {key: as_dict(getattr(value, key)) for key in value._fields}
    if type(value) in (list, tuple):
        return type(value)(as_dict(item) for item in value)
    if type(value) is dict:
        return {as_dict(key): as_dict(item) for key, item in value.items()}
    return value
