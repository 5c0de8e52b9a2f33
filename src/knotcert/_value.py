"""Frozen value records built without generated code.

``Record`` gives its subclasses what ``@dataclass(frozen=True)`` gave
them: an ``__init__`` over the annotated fields that ends in
``__post_init__``, field-wise ``__eq__`` and ``__hash__``, the
``Name(field=value, ...)`` repr, and instances whose attributes cannot
be assigned or deleted.  The methods are generic and read the field
names that ``__init_subclass__`` records once per class, so creating a
class compiles and executes nothing.  This module imports nothing, so
any layer can use it.

``KINDS`` lives here too, so that the CLI can offer the certificate
kinds as argument choices without loading ``certify``.
"""

KINDS = ("hyperbolic", "elliptic", "parabolic", "unknotted")


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
