"""The immutable value class behind brat's records: a subclass lists its
fields as annotations, in order, and a class attribute of the same name
is that field's default.  `__post_init__`, if defined, validates and
normalizes fields with `object.__setattr__`, and `as_int` is the check
its integer fields share.  `clipped` keeps an echoed input short."""


def clipped(value, limit: int = 40) -> str:
    """repr(value), cut to its first `limit` characters plus its length when longer."""
    text = repr(value)
    return text if len(text) <= limit else "%s... (%d characters)" % (text[:limit], len(text))


def as_int(value, message: str) -> int:
    """`value` if it is an int and not a bool; else ValueError("<message>, got <value>")."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s, got %r" % (message, value))
    return value


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
        if len(args) > len(fields) or not set(kwargs) <= set(fields[len(args):]) or len(values) < len(fields):
            raise TypeError("%s() takes the fields %s" % (type(self).__name__, ", ".join(fields)))
        for name in fields:
            object.__setattr__(self, name, values[name])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable: cannot change %r" % (type(self).__name__, name))

    __delattr__ = __setattr__
