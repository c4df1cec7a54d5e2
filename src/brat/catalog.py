"""Built-in worked examples, each with its documented expected outputs.

Fixed entries:

* example-5.5        infinite two-vertex diagram whose maximal UHF
                     subalgebra is M_{3^infinity}
* findim-4-6         one-step diagram of M_4 + M_6; the invariant is
                     the gcd 2
* cone-2-3-unit-2    integers ordered by the semigroup <2,3>, unit 2;
                     coprime unit divisors compose
* cone-2-3-unit-6    same cone with unit 6; 2 and 3 divide the unit
                     but 6 does not, so no maximum supernatural divisor
* free-product-2-3   the K0 model (Z, <2,3>, 6) of the reduced free
                     product of M_2 and M_3; same order data as
                     cone-2-3-unit-6
* quadratic-sqrt2    Q({2: inf}) + sqrt(2)*Z with unit 1; the rational
                     subgroup of the unit is exactly the rational part

Each fixed entry is stored as data: its payload in the JSON format the
README documents (a diagram, or a group tagged by "kind"), its note and
its expected outputs.  `get_entry` builds the payload at lookup time
with the loaders that read files, `BratteliDiagram.from_data` and
`group_from_data`, so importing this module builds no payload.

The name uhf-<n> is accepted for every positive integer n written in
ASCII digits without leading zeros, as many as int() reads.  It builds
the single-vertex diagram of the supernatural number of n up to the
first stage from which every stage ratio is 1, where the tail repeats;
the certified invariant is then exactly the factorization of n.
"""

from __future__ import annotations

import json
from typing import Union

from ._record import Record
from .bratteli import BratteliDiagram, uhf_diagram
from .ordered_group import OrderedGroup, group_from_data
from .supernatural import SupernaturalNumber

CatalogPayload = Union[BratteliDiagram, OrderedGroup]


class CatalogEntry(Record):
    name: str
    kind: str  # "diagram" or "group"
    payload: CatalogPayload
    note: str
    expected: dict = None

    def __post_init__(self):
        if self.expected is None:
            object.__setattr__(self, "expected", {})


_FIXED_ENTRIES = {
    "example-5.5": {
        "payload": {"levels": [1, 2, 2], "matrices": [[[1], [1]], [[2, 1], [1, 2]]], "tail": "repeat-last"},
        "note": "two vertices per level, multiplicities 2/1 crosswise; the "
                "height gcds are 1, 1, 3, 9, 27, ... and the maximal UHF "
                "subalgebra is M_{3^infinity}",
        "expected": {
            "mu": {"value": {"3": "inf"}, "exactness": "certified"},
            "gcds_0_4": [1, 1, 3, 9, 27],
        },
    },
    "findim-4-6": {
        "payload": {"levels": [1, 2], "matrices": [[[4], [6]]], "tail": "none"},
        "note": "the finite-dimensional algebra M_4 + M_6; the largest "
                "unital matrix subalgebra is M_2, the gcd of the sizes",
        "expected": {"mu": {"value": {"2": 1}, "exactness": "certified"}},
    },
    "cone-2-3-unit-2": {
        "payload": {"kind": "cyclic", "generators": [2, 3], "unit": 2},
        "note": "integers ordered by the semigroup <2,3> with unit 2; "
                "coprime unit divisors compose, and only 1 divides the "
                "unit because the witness for 2 would have to be 1, which "
                "sits outside the cone",
        "expected": {"propd": {"holds": True}, "maxsn": {}},
    },
    "cone-2-3-unit-6": {
        "payload": {"kind": "cyclic", "generators": [2, 3], "unit": 6},
        "note": "integers ordered by <2,3> with unit 6; 2 and 3 divide the "
                "unit but their product does not, since 1 is outside the cone",
        "expected": {"propd": {"holds": False, "counterexample": [2, 3]}, "maxsn": None},
    },
    "free-product-2-3": {
        "payload": {"kind": "cyclic", "generators": [2, 3], "unit": 6},
        "note": "K0 of the reduced free product of M_2 and M_3: the "
                "integers ordered by <2,3> with unit [1] = 6; no maximum "
                "supernatural divisor, hence no maximal UHF subalgebra",
        "expected": {"propd": {"holds": False, "counterexample": [2, 3]}, "maxsn": None},
    },
    "quadratic-sqrt2": {
        "payload": {"kind": "quadratic", "H": {"2": "inf"}, "alpha_square": 2, "unit": {"k": "1", "z": 0}},
        "note": "the dyadic rationals plus sqrt(2)*Z with the real order "
                "and unit 1; an element lies in the rational subgroup of "
                "the unit exactly when its sqrt(2) part vanishes",
        "expected": {"propd": {"holds": True}, "maxsn": {"2": "inf"}},
    },
}


def catalog_names() -> list[str]:
    """Fixed entry names; uhf-<n> is additionally accepted for n >= 1."""
    return sorted(_FIXED_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    if name in _FIXED_ENTRIES:
        entry = _FIXED_ENTRIES[name]
        data = entry["payload"]
        if "kind" in data:  # the group format is tagged, the diagram format is not
            kind, payload = "group", group_from_data(data)
        else:
            kind, payload = "diagram", BratteliDiagram.from_data({**data, "name": name})
        # a JSON round trip copies `expected`, so no caller can change the table
        return CatalogEntry(name, kind, payload, entry["note"], json.loads(json.dumps(entry["expected"])))
    if name.startswith("uhf-"):
        suffix = name[len("uhf-"):]
        try:
            n = int(suffix) if suffix.isascii() and suffix.isdigit() else 0
        except ValueError:  # more digits than Python's int-to-str limit
            n = 0
        if n >= 1 and str(n) == suffix:
            number = SupernaturalNumber.from_int(n)
            diagram = uhf_diagram(number)
            return CatalogEntry(
                name=name,
                kind="diagram",
                payload=BratteliDiagram(diagram.levels, diagram.matrices, diagram.tail, name),
                note="single-vertex diagram of the UHF algebra with "
                     "supernatural number %s" % number,
                expected={
                    "mu": {"value": number.to_data(), "exactness": "certified"},
                },
            )
    raise KeyError("unknown catalog entry %r" % (name,))
