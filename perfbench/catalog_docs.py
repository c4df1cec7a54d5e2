"""The catalog entries as brat's README and catalog documentation state them.

The checker compares `catalog:NAME` answers against these documented
payloads and expected values, never against brat's own tables.
"""

from __future__ import annotations

from . import arith

DIAGRAMS = {
    "example-5.5": {
        "levels": [1, 2, 2],
        "matrices": [[[1], [1]], [[2, 1], [1, 2]]],
        "tail": "repeat-last",
    },
    "findim-4-6": {"levels": [1, 2], "matrices": [[[4], [6]]], "tail": "none"},
}

GROUPS = {
    "cone-2-3-unit-2": {"kind": "cyclic", "generators": [2, 3], "unit": 2},
    "cone-2-3-unit-6": {"kind": "cyclic", "generators": [2, 3], "unit": 6},
    "free-product-2-3": {"kind": "cyclic", "generators": [2, 3], "unit": 6},
    "quadratic-sqrt2": {
        "kind": "quadratic",
        "H": {"2": "inf"},
        "alpha_square": 2,
        "unit": {"k": "1", "z": 0},
    },
}

# Invariants the documentation promises (supernatural numbers as JSON).
INVARIANTS = {"example-5.5": {"3": "inf"}, "findim-4-6": {"2": 1}}

EXPECTED = {
    "example-5.5": {"mu": {"value": {"3": "inf"}, "exactness": "certified"},
                    "gcds_0_4": [1, 1, 3, 9, 27]},
    "findim-4-6": {"mu": {"value": {"2": 1}, "exactness": "certified"}},
    "cone-2-3-unit-2": {"propd": {"holds": True}, "maxsn": {}},
    "cone-2-3-unit-6": {"propd": {"holds": False, "counterexample": [2, 3]}, "maxsn": None},
    "free-product-2-3": {"propd": {"holds": False, "counterexample": [2, 3]}, "maxsn": None},
    "quadratic-sqrt2": {"propd": {"holds": True}, "maxsn": {"2": "inf"}},
}

NAMES = sorted(list(DIAGRAMS) + list(GROUPS))


def uhf_ratios(n: int) -> list[int]:
    """Stage ratios ell(j)/ell(j-1) of uhf-<n>, up to the first stage
    whose ratio is 1 for good (or the single ratio 1 when n is 1)."""
    number = arith.factor_small(n)
    ells = [1]
    while ells[-1] != n:
        ells.append(arith.sn_ell(number, len(ells)))
    ratios = [b // a for a, b in zip(ells, ells[1:])]
    return ratios + [1]


def uhf_diagram(n: int) -> dict:
    ratios = uhf_ratios(n)
    return {
        "levels": [1] * (len(ratios) + 1),
        "matrices": [[[r]] for r in ratios],
        "tail": "repeat-last",
    }
