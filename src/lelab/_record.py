"""Frozen value types whose methods are written once, not generated, and
the helpers every module shares.

``record`` reads a class's annotated fields once and installs shared
methods, where ``dataclasses`` writes and compiles new ones per class
(about 0.75 ms each at import on Python 3.11).  A ``by_value`` record
compares and hashes by its field values and equals only its own type; any
other compares by identity, as types holding arrays must, since ``==`` on
arrays is elementwise.
"""


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


class _DenseOnDemand:
    """A record field's default that holds the array it was given, or else
    ``build(instance)``, formed on first read and kept read-only (the
    ``matrix`` of ``states.DensityMatrix``, the ``values`` of
    ``koopman.PhaseSpaceDensity``).  The array lives in the instance's
    ``__dict__`` under the field's name with a leading underscore."""

    def __init__(self, build):
        self._build = build

    def __set_name__(self, owner, name):
        self._key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        m = obj.__dict__[self._key]
        if m is None:
            m = _frozen(self._build(obj))
            obj.__dict__[self._key] = m
        return m

    def __set__(self, obj, m):  # reached only from __init__ and __post_init__
        # __init__ passes the field's default, this descriptor, when no array is given
        obj.__dict__[self._key] = None if m is self else m


def record(cls=None, /, *, by_value=False, hide=()):
    """Make ``cls`` a frozen record of its annotated fields: ``__init__`` takes
    them positionally or by keyword, defaulting to the class attributes of the
    same names, then calls ``self.__post_init__()`` if the class has one;
    setting or deleting an attribute raises AttributeError; ``repr`` leaves out
    the fields in ``hide`` and those whose default is a ``_DenseOnDemand``."""

    def make(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._shown = tuple(name for name in cls._fields if name not in hide
                           and not isinstance(cls._defaults.get(name), _DenseOnDemand))
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
            or values.keys() != set(cls._fields)):
        raise TypeError(f"{cls.__name__}() takes ({', '.join(cls._fields)}), each once, "
                        f"got {len(args)} positional and {sorted(kwargs)} by keyword")
    for name in cls._fields:
        object.__setattr__(self, name, values[name])
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
