"""Frozen value types whose methods are written once, not generated, and
the helpers every module shares.

``record`` reads a class's annotated fields once and installs shared
methods, where ``dataclasses`` writes and compiles new ones per class
(about 0.75 ms each at import on Python 3.11).  A ``by_value`` record
compares and hashes by its field values and equals only its own type; any
other compares by identity, as types holding arrays must, since ``==`` on
arrays is elementwise.  Every array lelab builds on first read is a
``functools.cached_property``, of a record or of ``dynamics.Hamiltonian``.
"""

from functools import cached_property


def _frozen(a):
    """Mark ``a`` read-only in place and return it."""
    a.setflags(write=False)
    return a


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices cutting ``rows`` rows of ``width`` elements into blocks of
    max(1, 2**16 // width) rows (a width of 0 counts as 1): an elementwise
    sweep over an n x n matrix or a grid holds temporaries of about 2**16
    elements, never the whole."""
    step = max(1, (1 << 16) // max(1, width))
    return [slice(r, r + step) for r in range(0, rows, step)]


def record(cls=None, /, *, by_value=False, hide=()):
    """Make ``cls`` a frozen record of its annotated fields: ``__init__`` takes
    them positionally or by keyword, defaulting to the class attributes of the
    same names, then calls ``self.__post_init__()`` if the class has one;
    setting or deleting an attribute raises AttributeError; ``repr`` leaves out
    the fields in ``hide`` and the lazy ones, whose class attribute is a
    ``cached_property``: ``__init__`` puts a lazy field in ``vars(self)``
    only when it is given, and otherwise the property builds it on first read."""

    def make(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._lazy = frozenset(name for name in cls._fields
                              if isinstance(cls.__dict__.get(name), cached_property))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__ and name not in cls._lazy}
        cls._shown = tuple(name for name in cls._fields
                           if name not in hide and name not in cls._lazy)
        cls.__init__ = _init
        cls.__setattr__ = cls.__delattr__ = _refuse
        cls.__repr__ = _repr
        if by_value:
            cls.__eq__, cls.__hash__ = _eq, _hash
        return cls

    return make if cls is None else make(cls)


def asdict(obj) -> dict:
    """Field name -> value of a record; the values are not copied."""
    return {name: getattr(obj, name) for name in obj._fields}


def _init(self, *args, **kwargs):
    cls = type(self)
    values = {**cls._defaults, **dict(zip(cls._fields, args)), **kwargs}
    if (len(args) > len(cls._fields) or kwargs.keys() & cls._fields[: len(args)]
            or values.keys() | cls._lazy != set(cls._fields)):
        raise TypeError(f"{cls.__name__}() takes ({', '.join(cls._fields)}), each once, "
                        f"got {len(args)} positional and {sorted(kwargs)} by keyword")
    for name, value in values.items():
        object.__setattr__(self, name, value)
    check = getattr(self, "__post_init__", None)
    if check is not None:
        check()


def _refuse(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self)._shown)
    return f"{type(self).__qualname__}({shown})"


def _eq(self, other):
    return asdict(self) == asdict(other) if type(other) is type(self) else NotImplemented


def _hash(self):
    return hash(tuple(asdict(self).values()))
