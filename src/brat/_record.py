"""The immutable value class behind brat's records: a subclass lists its
fields as annotations, in order, and a class attribute of the same name
is that field's default.  `__post_init__`, if defined, validates and
normalizes fields with `object.__setattr__`, and `as_int` is the check
its integer fields share.  `clipped` and `reason` keep an echoed input short;
`max_digits` reads Python's int-to-str digit limit, and a LimitError with
the message TOO_MANY_DIGITS refuses an answer past it."""

import sys


class LimitError(OverflowError):
    """A request refused for its size: the CLI reports it as a `limit` error."""


# the LimitError message, formatted with the limit, of an answer holding an integer past it
TOO_MANY_DIGITS = ("the answer holds an integer of more than %d digits, Python's int-to-str limit "
                   "(sys.get_int_max_str_digits)")


def max_digits() -> int:
    """Python's int-to-str digit limit; 0, or no such limit before 3.10.7, means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _cut(text: str) -> str:
    return text if len(text) <= 40 else "%s... (%d characters)" % (text[:40], len(text))


def clipped(value) -> str:
    """repr(value), cut to its first 40 characters plus its length when longer."""
    return _cut(repr(value))


def reason(exc: Exception, text: str) -> str:
    """str(exc) with each echo of `text`, even one Python cut at 200 characters, cut to 40 plus its length."""
    message, echo = str(exc), repr(text)[:200]  # a cut echo, such as int()'s, ends the message
    return message[:-len(echo)] + repr(_cut(text)) if message.endswith(echo) else message.replace(text, _cut(text))


def as_int(value, message: str) -> int:
    """`value` if it is an int and not a bool; else ValueError("<message>, got <value, clipped>")."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s, got %s" % (message, clipped(value)))
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
