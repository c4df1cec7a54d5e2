"""The JSON text brat reads and writes, without importing `json` on the
common path.

`loads(text)` runs json.loads's C scanner, `_json.make_scanner`, wrapped
as `json.JSONDecoder.decode` wraps it, so each value and error is json's
own, except that a document nested more than DEPTH deep is refused on
every Python with one JSONDecodeError at its first bracket past DEPTH;
`json` is imported only for a decode error or its NaN and infinities.
`dumps(value)` equals `json.dumps(value, default=str)`: ints, lists and
dicts of them and printable ASCII strings with no quote or backslash are
written here, and any other string and any float by `json.dumps`.
`pieces(payload)` is the same encoding of an answer, cut into strings,
and refuses an integer past the digit limit with LimitError."""

from itertools import accumulate

from ._record import TOO_MANY_DIGITS, LimitError, max_digits

# brat's deepest document, a diagram, nests 4 deep; Python 3.11's decoder
# runs out of recursion near 1000 deep, while 3.12 and later decode deeper
DEPTH = 100

_WHITESPACE = " \t\n\r"
_STEPS = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}
_NOT_BRACKETS = bytes(set(range(128)) - set(_STEPS))


def _error(message: str, text: str, pos: int):
    from json import JSONDecodeError
    return JSONDecodeError(message, text, pos)


class _Decoder:
    """The settings the scanner reads off json's default decoder."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int

    @staticmethod
    def parse_constant(name: str) -> float:
        import json
        return json.loads(name)  # json's own NaN object, which json.loads returns for every NaN


def _refuse_deep(text: str, end: int) -> None:
    """Raise JSONDecodeError at the first bracket of text[:end] nested past DEPTH, if there is one.
    A string runs from a quote to the next quote no backslash escapes; its contents are blanked
    with as many spaces, so every bracket keeps its place and one inside a string does not count."""
    blanked, quoted = [], False
    for part in text[:end].split('"'):
        blanked.append(" " * len(part) if quoted else part)
        # the quote after a part opens a string, or closes one unless an odd run of backslashes escapes it
        quoted = not quoted or (len(part) - len(part.rstrip("\\"))) % 2 == 1
    blanked = '"'.join(blanked)
    # only brackets are left: the ASCII encoding drops each non-ASCII character, lone surrogates too
    brackets = blanked.encode("ascii", "ignore").translate(None, _NOT_BRACKETS)
    if max(accumulate(map(_STEPS.__getitem__, brackets)), default=0) <= DEPTH:
        return
    depth = 0
    for index, char in enumerate(blanked):
        depth += _STEPS.get(ord(char), 0)
        if depth > DEPTH:
            raise _error("Nested more than %d deep" % DEPTH, text, index) from None


def loads(text: str):
    """json.loads(text), with documents nested past DEPTH refused (see the module docstring)."""
    from _json import make_scanner
    if text.startswith("\ufeff"):
        raise _error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = make_scanner(_Decoder)(text, start)
        if rest := text[end:].lstrip(_WHITESPACE):
            raise _error("Extra data", text, len(text) - len(rest))
    except StopIteration as stop:  # no value where the document starts
        raise _error("Expecting value", text, stop.value) from None
    except (RecursionError, ValueError) as exc:  # RecursionError: 1000 deep on Python 3.11
        if exc.__class__ is not ValueError:  # a plain ValueError is an integer past the digit limit
            _refuse_deep(text, getattr(exc, "pos", len(text)))  # a nest past DEPTH before the error is refused
        raise
    _refuse_deep(text, len(text))
    return value


def dumps(value) -> str:
    """json.dumps(value, default=str)."""
    kind = value.__class__
    if kind is int:
        return int.__repr__(value)  # past Python's digit limit, the ValueError json.dumps raises
    if kind is str and value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return '"%s"' % value
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        # one join, with the brackets on the end items: a bracketed copy of the
        # joined text left holes in the heap, 2.5 MB more peak RSS on 3.5 MB of towers
        items = list(map(int.__repr__ if set(map(type, value)) <= {int} else dumps, value))
        items[0] = "[" + items[0]
        items[-1] += "]"
        return ", ".join(items)
    if kind is dict and all(key.__class__ is str for key in value):
        return "{%s}" % ", ".join("%s: %s" % (dumps(key), dumps(item)) for key, item in value.items())
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if not isinstance(value, (str, int, float, list, tuple, dict)):
        return dumps(str(value))  # json.dumps calls default=str on such a value
    import json
    return json.dumps(value, default=str)


def pieces(payload: dict) -> list[str]:
    """Strings that join to json.dumps(payload, default=str) + "\\n" for a
    non-empty dict with str keys, the shape of every handler's JSON answer.
    Each top-level list or tuple of rows is encoded one row per string, so
    no one string holds a large answer.  An integer, or a Rational's term,
    past the digit limit raises LimitError."""
    out = []
    try:
        for key, value in payload.items():
            out += [", " if out else "{", dumps(key), ": "]
            if isinstance(value, (list, tuple)) and value and all(isinstance(row, (list, tuple)) for row in value):
                out.append("[")
                for row in value:  # the encoder separates items with ", " at every depth
                    out += [dumps(row), ", "]
                out[-1] = "]"
            else:
                out.append(dumps(value))
    except ValueError:  # int-to-str's refusal
        raise LimitError(TOO_MANY_DIGITS % max_digits()) from None
    return out + ["}", "\n"]
