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
`json.dumps`."""

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
_OUTSIDE, _TOO_DEEP = object(), object()


def _read(text: str):
    """The value of `text`, _TOO_DEEP, or _OUTSIDE when the text leaves the subset or is malformed."""
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
            if len(containers) > DEPTH:
                return _TOO_DEEP
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


def _depth(value) -> int:
    """How deep arrays and objects nest in a decoded value, found level by level."""
    depth, level = 0, [value] if isinstance(value, (list, dict)) else []
    while level:
        depth += 1
        level = [item for node in level for item in (node.values() if isinstance(node, dict) else node)
                 if isinstance(item, (list, dict))]
    return depth


def _too_deep(text: str, end: int):
    """The JSONDecodeError at the first bracket of text[:end] nested past DEPTH, or None."""
    depth, quoted, escaped = 0, False, False
    for index, char in enumerate(text[:end]):
        if quoted:  # an unescaped quote ends the string; a backslash escapes the next character
            quoted, escaped = escaped or char != '"', not escaped and char == "\\"
        elif char == '"':
            quoted = True
        elif char in "[{":
            depth += 1
            if depth > DEPTH:
                from json import JSONDecodeError
                return JSONDecodeError("Nested more than %d deep" % DEPTH, text, index)
        elif char in "]}":
            depth -= 1
    return None


def loads(text: str):
    """json.loads(text), with documents nested past DEPTH refused (see the module docstring)."""
    if len(text) <= SMALL:
        value = _read(text)
        if value is _TOO_DEEP:
            raise _too_deep(text, len(text))
        if value is not _OUTSIDE:
            return value
    import json
    try:
        value = json.loads(text)
    except (RecursionError, json.JSONDecodeError) as exc:  # RecursionError: 1000 deep on Python 3.11
        # a nest past DEPTH before the error is refused, as the reader refuses it
        raise _too_deep(text, getattr(exc, "pos", len(text))) or exc from None
    if text.count("[") + text.count("{") > DEPTH and _depth(value) > DEPTH:
        raise _too_deep(text, len(text))
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
