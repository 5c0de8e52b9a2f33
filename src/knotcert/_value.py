"""Frozen value records built without generated code.

``Record`` gives its subclasses what ``@dataclass(frozen=True)`` gave
them: an ``__init__`` over the annotated fields that ends in
``__post_init__``, field-wise ``__eq__`` and ``__hash__``, the
``Name(field=value, ...)`` repr, and instances whose attributes cannot
be assigned or deleted.  The methods are generic and read the field
names that ``__init_subclass__`` records once per class, so creating a
class compiles and executes nothing.  This module imports no other
knotcert module, so any layer can use it.

``KINDS`` lives here too, so that the CLI can offer the certificate
kinds as argument choices without loading ``certify``, and so do the
line primitives of the text readers (``located_tokens`` places every
token of a word, matrix, Laurent or longitude input by its column) and
the input helpers that ``cli`` and its command modules share
(``InputError``, ``read_text``, ``read_json``, ``json_int``,
``generator_subset``).
The command modules import these from here, never from ``cli``: under
``python -m knotcert.cli`` the running ``cli`` is ``__main__``, and an
import of ``knotcert.cli`` would execute it a second time.
"""

import json
import sys
from pathlib import Path

KINDS = ("hyperbolic", "elliptic", "parabolic", "unknotted")


class InputError(ValueError):
    """Malformed command input (CLI exit code 2)."""


def read_text(source: str) -> str:
    """The text of file ``source``, or of stdin for ``-``."""
    if source == "-":
        return sys.stdin.read()
    try:
        return Path(source).read_text()
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


def json_int(value) -> bool:
    """Whether ``value`` is a JSON integer: an ``int``, but not a ``bool``, which subclasses it."""
    return isinstance(value, int) and type(value) is not bool


def generator_subset(value: str) -> frozenset[int]:
    """The generator indices that ``value`` lists, such as ``'1 2'``."""
    try:
        out = frozenset(int(tok) for tok in value.split())
    except ValueError as exc:
        raise InputError(f"bad generator subset {value!r}") from exc
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


def token_error(lineno: int, body: str, index: int, message: str) -> ValueError:
    """Malformed input at the ``index``-th token of line ``lineno`` (one past the
    last: just after the text), by column; ``message`` may name it as ``{tok!r}``."""
    col, tok = (located_tokens(body) + [(len(body.rstrip()) + 1, "")])[index]
    return ValueError(f"line {lineno}, col {col}: {message.format(tok=tok)}")


def int_tokens(lineno: int, body: str, message: str) -> list[int]:
    """The integers that the tokens of line ``lineno`` spell; columns are looked
    up only once ``int`` refuses a token, which ``token_error`` names with ``message``."""
    values: list[int] = []
    try:
        for tok in body.split():
            values.append(int(tok))
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
