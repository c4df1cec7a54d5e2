"""The `brat` command line: exact AF-algebra invariants from the shell.

Every command reads a diagram or group either from a JSON file or from
the built-in catalog via `catalog:NAME`.  Results go to stdout as a
single JSON line; problems go to stderr as a JSON error object with
exit status 2.  Boolean queries answer through the exit status: 0 when
the property holds (member, yes, valid), 1 when it fails.  Outputs are
deterministic byte for byte, and any output that depends on a depth
truncation says so inline.
"""

import math
import sys
import types

from ._jsontext import dumps, loads, pieces
from ._record import TOO_MANY_DIGITS, LimitError, clipped, max_digits, reason
from .supernatural import SupernaturalNumber

DEFAULT_DEPTH = 16


def _emit_error(message: str, kind: str = "input") -> int:
    sys.stderr.write(dumps({"error": {"type": kind, "message": message}}) + "\n")
    return 2


def _catalog_entry(name: str):
    from .catalog import get_entry
    try:
        return get_entry(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _load(source: str, want: str):
    """The diagram or group (`want`) named by a file path or catalog:NAME."""
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        entry = _catalog_entry(name)
        if entry.kind != want:
            raise ValueError("catalog entry %r is a %s, not a %s" % (name, entry.kind, want))
        return entry.payload
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError("cannot read %r: %s" % (source, exc)) from None
    try:
        data = loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a plain ValueError for an integer past the digit limit
        if type(exc) is ValueError:  # main reports it in Python's words
            raise
        raise ValueError("bad JSON in %r: %s" % (source, exc)) from None
    if want == "diagram":
        from .bratteli import BratteliDiagram
        return BratteliDiagram.from_data(data)
    from .ordered_group import group_from_data
    return group_from_data(data)


def _depth_for(diagram: "BratteliDiagram", requested) -> int:
    if requested is not None:
        return requested
    return DEFAULT_DEPTH if diagram.is_infinite else diagram.given_depth


def _parse_supernatural(text: str) -> SupernaturalNumber:
    try:
        return SupernaturalNumber.from_data(loads(text))
    except ValueError as exc:
        raise ValueError("bad supernatural number %s: %s" % (clipped(text), exc)) from None


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("bad integer vector %s" % clipped(text)) from None


def _parse_rational(text: str) -> "Rational":
    from .rational import Rational
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad rational %s: %s" % (clipped(text), reason(exc, text))) from None


def _parse_group_element(group, text: str):
    from .ordered_group import CyclicOrderedGroup, QuadraticElement
    if isinstance(group, CyclicOrderedGroup):
        try:
            return int(text)
        except ValueError:
            raise ValueError("cyclic group elements are integers, got %s" % clipped(text)) from None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("quadratic elements look like 'q,z', got %s" % clipped(text))
    from .rational import Rational
    echoed = parts[0]  # the text that the failing call echoes
    try:
        return QuadraticElement(Rational(parts[0]), int(echoed := parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad quadratic element %s: %s" % (clipped(text), reason(exc, echoed))) from None


# -- handlers: (args, loaded source or None, resolved depth or None) ->
#    (exit status, payload); a str payload is written as is, a dict as
#    one JSON line ----------------------------------------------------------

def _stage_witness(witness, depth: int):
    if witness is None:
        return 1, {"witness": None, "depth": depth}
    return 0, {"stage": witness.stage, "vector": list(witness.entries)}


def _validate(args, subject, depth):
    from .bratteli import DiagramError
    try:
        _load(args.source, "diagram")
    except DiagramError as exc:  # a diagram that breaks a rule is never built
        return 1, {"ok": False, "violations": [
            {"kind": v.kind, "level": v.level, "position": v.position, "message": v.message}
            for v in exc.violations]}
    return 0, {"ok": True}


def _towers(args, diagram, depth):
    from .bratteli import tower_profile
    profile = tower_profile(diagram, depth)
    # the gcds form a divisibility chain, so the last one passes the digit limit
    # exactly when some gcd does; it is refused, and no height is built
    if math.prod(profile.ratios) >= 10 ** max_digits() > 1:
        raise LimitError(TOO_MANY_DIGITS % max_digits())
    return 0, {"depth": depth, "heights": profile.heights, "gcds": profile.gcds, "ratios": profile.ratios}


def _odometer(args, diagram, depth):
    from .bratteli import odometer
    from .dot import export_dot
    reduced = odometer(diagram, depth)
    return 0, export_dot(reduced, depth) if args.format == "dot" else reduced.to_data()


def _mu(args, diagram, depth):
    from .bratteli import maximal_uhf
    result = maximal_uhf(diagram, depth)
    return 0, {"mu": result.value.to_data(), "exactness": result.exactness}


def _premorphism(args, diagram, depth):
    from .bratteli import tower_profile, verify_premorphism
    profile = tower_profile(diagram, depth)
    if not args.verify:
        return 0, profile.premorphism().to_data()
    report = verify_premorphism(profile.premorphism(), profile.odometer(), diagram)
    if report.ok:
        return 0, {"verified": True, "depth": depth}
    return 1, {"verified": False, "level": report.level, "kind": report.kind}


def _embed(args, diagram, depth):
    from .bratteli import uhf_embeds
    answer = uhf_embeds(_parse_supernatural(args.uhf), diagram, depth)
    return (0 if answer == "yes" else 1), {"embeds": answer, "depth": depth}


def _k0_divides(args, diagram, depth):
    from .bratteli import k0_unit_divisor
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    return _stage_witness(k0_unit_divisor(diagram, args.n, depth), depth)


def _rsub(args, diagram, depth):
    from .bratteli import rational_subgroup_witness
    found = rational_subgroup_witness(diagram, _parse_vector(args.vector), args.stage, depth)
    if found is None:
        return 1, {"member": False, "reason": "no witness up to depth", "depth": depth}
    value, stage = found
    return 0, {"member": True, "stage": stage, "lambda": value,
               "m": value.denominator, "q": value.numerator}


def _theta(args, diagram, depth):
    from .bratteli import scale_unit_stage
    return _stage_witness(scale_unit_stage(diagram, _parse_rational(args.x), depth), depth)


def _divide(args, diagram, depth):
    from .bratteli import divide_element
    if args.m < 1:
        raise ValueError("--m must be a positive integer")
    vector = _parse_vector(args.vector)
    return _stage_witness(divide_element(diagram, vector, args.stage, args.m, depth), depth)


def _telescope(args, diagram, depth):
    from .bratteli import telescope
    return 0, telescope(diagram, _parse_vector(args.cuts)).to_data()


def _sn(args, subject, depth):
    op, operands = args.operation, args.operands
    if op == "ell":
        if len(operands) != 2:
            raise ValueError("ell takes a supernatural number and a stage")
        number = _parse_supernatural(operands[0])
        try:
            stage = int(operands[1])
        except ValueError:
            raise ValueError("bad stage %s" % clipped(operands[1])) from None
        return 0, {"ell": number.ell(stage, max_digits())}  # refused before any power is built
    numbers = [_parse_supernatural(text) for text in operands]
    if op == "divides":
        if len(numbers) != 2:
            raise ValueError("divides takes exactly two operands")
        holds = numbers[0].divides(numbers[1])
        return (0 if holds else 1), {"divides": holds}
    if op == "mul":
        return 0, {"product": math.prod(numbers, start=SupernaturalNumber()).to_data()}
    return 0, {op: getattr(SupernaturalNumber, op)(numbers).to_data()}  # sup or inf


def _group(args, group, depth):
    from .ordered_group import (QuadraticElement, coprime_divisor_property, max_supernatural,
                                rational_subgroup_member, unit_divisor)
    op = args.operation
    if op == "propd":
        report = coprime_divisor_property(group)
        if report.holds:
            return 0, {"holds": True}
        return 1, {"holds": False, "counterexample": list(report.counterexample)}
    if op == "maxsn":
        number = max_supernatural(group)
        return (1, {"maxsn": None}) if number is None else (0, {"maxsn": number.to_data()})
    if op == "divides":
        if args.n is None or args.n < 1:
            raise ValueError("divides needs --n with a positive integer")
        witness = unit_divisor(group, args.n)
        if isinstance(witness, QuadraticElement):
            witness = witness.to_data()
        return (1 if witness is None else 0), {"witness": witness}
    if args.g is None:  # rsub
        raise ValueError("rsub needs --g with a group element")
    element = _parse_group_element(group, args.g)
    try:
        found = rational_subgroup_member(group, element)
    except ValueError:  # the one refusal a parsed element can meet
        raise ValueError("element %s lies outside the group" % clipped(args.g)) from None
    if found is None:
        return 1, {"member": False}
    return 0, {"member": True, "m": found[0], "q": found[1]}


def _catalog(args, subject, depth):
    from .catalog import catalog_names
    if args.name is None:
        return 0, {"entries": catalog_names(), "patterns": ["uhf-<n>"]}
    entry = _catalog_entry(args.name)
    payload = entry.payload.to_data()
    if entry.kind == "diagram":  # a diagram entry's payload leads with the entry's name
        payload = {"name": entry.name, **payload}
    return 0, {"name": entry.name, "kind": entry.kind, "note": entry.note, "payload": payload,
               "expected": entry.expected}


# -- the command table ------------------------------------------------------

class _Command:
    """A row of the command table.  `source` is what main loads from the
    "source" argument: "diagram", "group" or None (validate loads its own);
    `arguments` holds (name, add_argument options) pairs, in the order the
    parser adds them."""

    def __init__(self, name: str, help: str, source, arguments: tuple, handler):
        self.name, self.help, self.source, self.arguments, self.handler = name, help, source, arguments, handler


_DIAGRAM = ("source", {"help": "diagram JSON file or catalog:NAME"})
_GROUP = ("source", {"help": "group JSON file or catalog:NAME"})
_DEPTH = ("--depth", {"type": int, "default": None,
                      "help": "levels to compute (default: all of a finite diagram, %d of an infinite one)"
                              % DEFAULT_DEPTH})
_STAGE = ("--stage", {"type": int, "required": True})
_VECTOR = ("--vector", {"required": True, "help": "comma-separated integers"})

_COMMANDS = (
    _Command("validate", "check the structural rules of a diagram", None, (_DIAGRAM,), _validate),
    _Command("towers", "heights, gcds, and ratios per level", "diagram", (_DIAGRAM, _DEPTH), _towers),
    _Command("odometer", "the single-vertex ratio diagram", "diagram",
             (_DIAGRAM, _DEPTH, ("--format", {"choices": ("json", "dot"), "default": "json"})), _odometer),
    _Command("mu", "supernatural invariant of the maximal UHF subalgebra", "diagram", (_DIAGRAM, _DEPTH), _mu),
    _Command("premorphism", "canonical odometer premorphism", "diagram",
             (_DIAGRAM, _DEPTH, ("--verify", {"action": "store_true", "help": "check the commuting squares"})),
             _premorphism),
    _Command("embed", "does the given UHF algebra embed unitally", "diagram",
             (_DIAGRAM, _DEPTH, ("--uhf", {"required": True, "help": "supernatural number as JSON"})), _embed),
    _Command("k0-divides", "stage witness that n divides the unit class", "diagram",
             (_DIAGRAM, _DEPTH, ("--n", {"type": int, "required": True})), _k0_divides),
    _Command("rsub", "rational-subgroup membership of a stage vector", "diagram",
             (_DIAGRAM, _DEPTH, _STAGE, _VECTOR), _rsub),
    _Command("theta", "represent x*[unit] as a stage vector", "diagram",
             (_DIAGRAM, _DEPTH, ("--x", {"required": True, "help": "rational like 5/6"})), _theta),
    _Command("divide", "divide a stage vector by m in K0", "diagram",
             (_DIAGRAM, _DEPTH, _STAGE, _VECTOR, ("--m", {"type": int, "required": True})), _divide),
    _Command("telescope", "compose matrices between cut points", "diagram",
             (_DIAGRAM, ("--cuts", {"required": True, "help": "comma-separated increasing levels"})), _telescope),
    _Command("sn", "supernatural-number arithmetic", None, (
        ("operation", {"choices": ("divides", "mul", "sup", "inf", "ell")}),
        ("operands", {"nargs": "+", "help": "supernatural numbers as JSON; "
                                            "ell takes one plus a stage index"}),
    ), _sn),
    _Command("group", "ordered-group divisibility", "group", (
        ("operation", {"choices": ("propd", "maxsn", "divides", "rsub")}),
        _GROUP,
        ("--n", {"type": int, "default": None, "help": "divisor (divides)"}),
        ("--g", {"default": None, "help": "element: integer, or 'q,z' (rsub)"}),
    ), _group),
    _Command("catalog", "list or show built-in examples", None, (("name", {"nargs": "?", "default": None}),),
             _catalog),
)


def build_parser():
    """The argparse parser of every row; it parses what `_plain_args` does not
    read and writes help and every usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = _Parser(prog="brat", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = commands.add_parser(command.name, help=command.help)
        for name, spec in command.arguments:
            p.add_argument(name, **spec)
        p.set_defaults(row=command)
    return parser


def _converted(spec: dict, text: str):
    """`text` through the argument's type and choices, or None where argparse would refuse it."""
    try:
        value = spec.get("type", str)(text)
    except (TypeError, ValueError):
        return None
    return value if value in spec.get("choices", (value,)) else None


def _plain_args(argv):
    """The namespace `build_parser().parse_args(argv)` returns, read straight off
    `_COMMANDS`, or None when argv is not plain.  Plain means: argv[0] names a row;
    each of its options appears at most once, by its full name: a flag alone, any
    other as `--name value` with a value that does not start with "-", or as
    `--name=value` with a value other than "--"; every type and choice check
    passes; every required option is given; and the positional words fill the
    row's positionals exactly."""
    row = next((row for row in _COMMANDS if argv and row.name == argv[0]), None)
    if row is None:
        return None
    specs = dict(row.arguments)
    values = {name.lstrip("-"): spec.get("default", False if spec.get("action") == "store_true" else None)
              for name, spec in row.arguments}
    values.update(command=row.name, row=row)
    words, given, tokens = [], set(), iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        name, equals, text = token.partition("=")
        spec = specs.get(name)
        if spec is None or name in given:
            return None
        given.add(name)
        if spec.get("action") == "store_true":
            if equals:
                return None
            values[name[2:]] = True
            continue
        if not equals:
            text = next(tokens, "-")  # a missing value is refused like a dashed one
            if text.startswith("-"):
                return None
        if text == "--" or (value := _converted(spec, text)) is None:
            return None
        values[name[2:]] = value
    if any(spec.get("required") and name not in given for name, spec in row.arguments):
        return None
    slots = [(name, spec) for name, spec in row.arguments if not name.startswith("-")]
    spare = len(words) - sum("nargs" not in spec for _, spec in slots)  # words for a "?" or "+" slot
    for name, spec in slots:
        nargs = spec.get("nargs")
        count = 1 if nargs is None else spare
        low, high = {None: (1, 1), "?": (0, 1), "+": (1, count)}[nargs]
        if not low <= count <= min(high, len(words)):
            return None
        taken, words = [_converted(spec, word) for word in words[:count]], words[count:]
        if None in taken:
            return None
        values[name] = taken if nargs == "+" else taken[0] if taken else values[name]
    return None if words else types.SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
        dropped = [name for name, _ in args.row.arguments if name[0] == "-" and vars(args)[name[2:]] in ([], "--")]
        if dropped:  # argparse's `--name=--`: [] before Python 3.13, "--" from 3.13
            raise ValueError("argument %s: expected one argument" % dropped[0])
        command = args.row
        subject = None if command.source is None else _load(args.source, command.source)
        depth = _depth_for(subject, args.depth) if _DEPTH in command.arguments else None
        status, payload = command.handler(args, subject, depth)
        sys.stdout.writelines([payload] if isinstance(payload, str) else pieces(payload))
        return status
    except LimitError as exc:
        return _emit_error(str(exc), "limit")
    except ValueError as exc:
        return _emit_error(str(exc))
    except (MemoryError, OverflowError):  # OverflowError: a size past sys.maxsize, as of a sieve to a huge prime
        return _emit_error("out of memory", "limit")
