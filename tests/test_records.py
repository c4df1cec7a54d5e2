"""The contract every brat record keeps: construction, defaults, equality,
hashing, immutability, repr and pickling."""

import json
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from brat.bratteli import (
    BratteliDiagram,
    DimensionVector,
    MuResult,
    Premorphism,
    PremorphismReport,
    TowerProfile,
    Violation,
)
from brat.catalog import CatalogEntry
from brat.ordered_group import (
    CyclicOrderedGroup,
    DivisorClosureReport,
    QuadraticElement,
    QuadraticIrrationalGroup,
)
from brat.rational import Rational
from brat.supernatural import OMEGA, SupernaturalNumber

FINDIM = BratteliDiagram((1, 2), (((4,), (6,)),), None)
HALF = QuadraticElement(Rational(1, 2), 0)

# one normalized instance per class, as (class, field values in order)
RECORDS = [
    (Violation, dict(kind="shape", level=1, position=None, message="matrix 1 must be 2x1")),
    (BratteliDiagram, dict(levels=(1, 2), matrices=(((4,), (6,)),), tail=None)),
    (TowerProfile, dict(walked=(2,), kept=((1,), (2, 3)), period=None, depth=1)),
    (DimensionVector, dict(stage=1, entries=(2, 3))),
    (MuResult, dict(value=SupernaturalNumber({3: OMEGA}), exactness="certified")),
    (Premorphism, dict(level_map=(0, 1), matrices=(((1,),), ((2,), (3,))))),
    (PremorphismReport, dict(ok=False, level=1, kind="commutativity")),
    (CatalogEntry, dict(name="findim-4-6", kind="diagram", payload=FINDIM, note="M_4 + M_6",
                        expected={"mu": {"value": {"2": 1}, "exactness": "certified"}})),
    (CyclicOrderedGroup, dict(generators=(2, 3), unit=6)),
    (QuadraticElement, dict(q=Rational(1, 2), z=-3)),
    (Rational, dict(numerator=1, denominator=2)),
    (QuadraticIrrationalGroup, dict(h_number=SupernaturalNumber({2: OMEGA}), alpha_square=2,
                                    unit=HALF)),
    (DivisorClosureReport, dict(holds=False, counterexample=(2, 3))),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert {name: getattr(by_keyword, name) for name in fields} == fields
    assert repr(by_keyword) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % item for item in fields.items()))
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{next(iter(fields)): None})


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_and_hash_by_class_and_values(cls, fields):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    assert record != tuple(fields.values())
    if cls is CatalogEntry:
        with pytest.raises(TypeError):  # its expected dict is unhashable
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    for other_cls, other_fields in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(**other_fields)


def test_equal_values_in_another_class_differ():
    assert DimensionVector(1, (2, 3)) != MuResult(1, (2, 3))
    assert not DimensionVector(1, (2, 3)) == MuResult(1, (2, 3))


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_immutable(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields):
    record = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record
        with pytest.raises(AttributeError):
            setattr(copy, next(iter(fields)), None)


def test_defaults():
    assert BratteliDiagram((1, 2), (((4,), (6,)),)).tail is None
    assert PremorphismReport(True) == PremorphismReport(True, None, None)
    assert DivisorClosureReport(True).counterexample is None
    with pytest.raises(TypeError):
        BratteliDiagram((1, 2))


def test_post_init_normalizes():
    diagram = BratteliDiagram([1, 2], [[[4], [6]]])
    assert (diagram.levels, diagram.matrices) == ((1, 2), (((4,), (6,)),))
    assert CyclicOrderedGroup([3, 2, 3], 6).generators == (2, 3)
    assert QuadraticElement(Fraction(2, 4), 2).q == Fraction(1, 2)
    assert isinstance(QuadraticElement(1, 2).q, Rational)
    assert (Rational(6, -4).numerator, Rational(6, -4).denominator) == (-3, 2)
    assert DimensionVector(0, [True, 2]).entries == (1, 2)
    assert Premorphism([0], [[[1]]]).matrices == (((1,),),)


@pytest.mark.parametrize("build, message", [
    (lambda: BratteliDiagram((1,), (), "loop"), "tail must be absent"),
    (lambda: BratteliDiagram((1, 1), (((True,),),)), "matrix entries must be integers"),
    (lambda: Premorphism((1,), (((1,),),)), "level map must start at 0"),
    (lambda: Premorphism((), ()), "^level map must start at 0$"),  # an empty level map
    (lambda: Premorphism((0, 2, 1), (((1,),),) * 3), "nondecreasing"),
    (lambda: Premorphism((0, 1), (((1,),),)), "one matrix per mapped level"),
    (lambda: Premorphism((0,), (((2,),),)), "level-0 matrix"),
    (lambda: CyclicOrderedGroup((0, 3), 3), "generators must be positive"),
    (lambda: CyclicOrderedGroup((), 1), "^generators must be positive integers, got \\(\\)$"),
    (lambda: CyclicOrderedGroup((2, 3), 1), "not in the positive cone"),
    (lambda: CyclicOrderedGroup((2, 3), 0), "unit 0 is not"),  # 0 is in the semigroup, but not positive
    (lambda: QuadraticElement(Fraction(1), 1.5), "integer coefficient expected"),
    (lambda: QuadraticIrrationalGroup(SupernaturalNumber({2: OMEGA}), 4, HALF), "square-free"),
    (lambda: QuadraticIrrationalGroup(SupernaturalNumber({2: OMEGA}), 2,
                                      QuadraticElement(Fraction(1, 3), 0)), "outside Q\\(h\\)"),
    (lambda: QuadraticIrrationalGroup(SupernaturalNumber({2: OMEGA}), 2,
                                      QuadraticElement(Fraction(1), -1)), "is not positive"),
])
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# a plain request loads none of these, nor the layers listed with it; FILE is a
# small diagram file and WIDE one of more than 2048 characters, which brat reads
# without json; a request that reads no JSON text loads no `_json` either
UNUSED_AT_START = {"dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal", "numbers",
                   "json", "typing", "random", "__future__"}
PLAIN_REQUESTS = [
    (["mu", "catalog:example-5.5"], {"brat.ordered_group", "brat.dot", "brat.rational", "_json"}),
    (["mu", "FILE"], {"brat.ordered_group", "brat.dot", "brat.rational", "brat.catalog"}),
    (["mu", "WIDE"], {"brat.ordered_group", "brat.dot", "brat.rational", "brat.catalog"}),
    (["sn", "mul", '{"2":1}', '{"3":1}'], {"brat.bratteli", "brat.rational"}),
    (["group", "maxsn", "catalog:cone-2-3-unit-2"], {"brat.rational", "_json"}),
    (["catalog"], {"brat.rational", "_json"}),
]


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    (tmp_path / "fib.json").write_text('{"levels": [1, 2, 2], "matrices": [[[1], [1]], [[1, 1], [1, 0]]], '
                                       '"tail": "repeat-last"}')
    identity = [[int(i == j) for j in range(30)] for i in range(30)]
    (tmp_path / "wide.json").write_text(json.dumps({"levels": [1, 30, 30], "matrices": [[[1]] * 30, identity],
                                                    "tail": "repeat-last"}))
    assert (tmp_path / "wide.json").stat().st_size > 2048
    code = ("import sys; before = set(sys.modules); import brat, brat.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("[]\n", "")
    # what `python -m brat ARGS` loads past interpreter start, written to stderr after the answer
    code = ("import runpy, sys; before = set(sys.modules); sys.argv[0] = 'brat'\n"
            "try: runpy.run_module('brat', run_name='__main__')\n"
            "finally: sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))")
    for argv, layers in PLAIN_REQUESTS:
        files = {"FILE": "fib.json", "WIDE": "wide.json"}
        argv = [str(tmp_path / files[word]) if word in files else word for word in argv]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60)
        loaded = set(proc.stderr.split())
        assert proc.returncode == 0 and proc.stdout and "brat.cli" in loaded
        assert loaded & (UNUSED_AT_START | layers) == set(), argv


def test_rational_requests_load_neither_fractions_nor_decimal():
    # the exit statuses, then what of the three the requests loaded
    code = ("import sys; from brat.cli import main\n"
            "statuses = [main(['theta', 'catalog:example-5.5', '--x', '1/3']),\n"
            "            main(['rsub', 'catalog:example-5.5', '--stage', '1', '--vector', '1,2']),\n"
            "            main(['group', 'maxsn', 'catalog:quadratic-sqrt2'])]\n"
            "print(statuses, sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.stdout.splitlines()[-1], proc.stderr) == ("[0, 1, 0] []", "")


def test_each_public_name_loads_from_its_submodule(monkeypatch):
    import importlib

    import brat

    for name in brat.__all__:
        monkeypatch.delattr(brat, name, raising=False)  # a name read before is cached: load it again
        assert getattr(brat, name) is getattr(importlib.import_module("brat." + brat._SUBMODULE[name]), name)
    with pytest.raises(AttributeError) as info:
        brat.bogus
    assert str(info.value) == "module 'brat' has no attribute 'bogus'"
