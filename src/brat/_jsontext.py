"""The JSON text brat reads and writes, without importing `json` on the
common path.

`loads(text)` equals `json.loads(text)` except that a document nested
more than DEPTH deep is refused on every Python with one JSONDecodeError
at its first bracket past DEPTH.  A document of at most SMALL characters
that uses only objects, arrays, integers, strings with no escape or
control character, and true, false and null is read here; any other
text goes to `json.loads`, which returns the same value or raises its
own error.  `dumps(value)` equals `json.dumps(value, default=str)`: ints,
lists and dicts of them and printable ASCII strings with no quote or
backslash are written here, and any other string and any float by
`json.dumps`.  `pieces(payload)` is the same encoding of an answer, cut
into strings, and refuses an integer past the digit limit with LimitError."""

from itertools import accumulate

from ._record import TOO_MANY_DIGITS, LimitError, max_digits

# Reading here takes 0.2-0.4 us per character, 0.68 ms for 2100 characters
# of small integers, the costliest kind, while `import json` takes 1.9-2.9 ms
# (Python 3.11.7, a shared 2-CPU VM), so this reader wins up to about 5000
# characters; past SMALL, with margin, json's C scanner reads the document.
SMALL = 2048
# brat's deepest document, a diagram, nests 4 deep; Python 3.11's decoder
# runs out of recursion near 1000 deep, while 3.12 and later decode deeper
DEPTH = 100

_SPACED = str.maketrans({**{mark: " %s " % mark for mark in "[]{},:"}, "\t": " ", "\n": " ", "\r": " "})
_CONSTANTS = {"true": True, "false": False, "null": None}
_OUTSIDE = object()
_STEPS = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}
_NOT_BRACKETS = bytes(set(range(128)) - set(_STEPS))


def _read(text: str):
    """The value of `text`, or _OUTSIDE when the text leaves the subset or is malformed."""
    parts = text.split('"')
    if len(parts) % 2 == 0:  # an unterminated string
        return _OUTSIDE
    tokens = []  # punctuation and bare words as str, each string as a 1-tuple
    for index, part in enumerate(parts):
        if index % 2 == 0:
            tokens += filter(None, part.translate(_SPACED).split(" "))
        elif "\\" in part or not part.isprintable():
            return _OUTSIDE
        else:
            tokens.append((part,))
    containers, keys, state = [], [], "value"
    for token in tokens:
        if state == "next":  # after a value: a comma or the closer of its container
            if not containers:
                return _OUTSIDE
            top = containers[-1]
            if token == ",":
                state = "key" if top.__class__ is dict else "value"
                continue
            if token != ("]" if top.__class__ is list else "}"):
                return _OUTSIDE
            value = containers.pop()
        elif state == "colon":
            if token != ":":
                return _OUTSIDE
            state = "value"
            continue
        elif token.__class__ is tuple:  # a key or a string value
            if state == "key":
                keys.append(token[0])
                state = "colon"
                continue
            value = token[0]
        elif state == "key":
            if token != "}" or containers[-1]:  # only an empty object closes where a key belongs
                return _OUTSIDE
            value = containers.pop()
        elif token == "[" or token == "{":
            containers.append([] if token == "[" else {})
            state = "value" if token == "[" else "key"
            continue
        elif token == "]" and containers and containers[-1] == []:  # an empty array
            value = containers.pop()
        elif token in _CONSTANTS:
            value = _CONSTANTS[token]
        else:
            digits = token[1:] if token[0] == "-" else token
            if not (digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0")):
                return _OUTSIDE
            try:
                value = int(token)
            except ValueError:  # past Python's digit limit: json.loads raises the same error
                return _OUTSIDE
        if containers:
            top = containers[-1]
            if top.__class__ is list:
                top.append(value)
            else:
                top[keys.pop()] = value
        else:
            result = value
        state = "next"
    return result if state == "next" and not containers else _OUTSIDE


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
            from json import JSONDecodeError
            raise JSONDecodeError("Nested more than %d deep" % DEPTH, text, index) from None


def loads(text: str):
    """json.loads(text), with documents nested past DEPTH refused (see the module docstring)."""
    value = _read(text) if len(text) <= SMALL else _OUTSIDE
    if value is _OUTSIDE:
        import json
        try:
            value = json.loads(text)
        except (RecursionError, json.JSONDecodeError) as exc:  # RecursionError: 1000 deep on Python 3.11
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
