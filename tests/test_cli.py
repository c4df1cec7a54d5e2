import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brat.bratteli
import brat.cli
from brat.bratteli import BratteliDiagram
from brat.catalog import get_entry
from brat.cli import main
from brat.dot import export_dot
from brat.ordered_group import group_from_data
from gen import diagrams, ordered_groups, supernaturals

E55 = "catalog:example-5.5"
FINDIM = "catalog:findim-4-6"

DRIFT_DATA = {
    "levels": [1, 2, 2],
    "matrices": [[[1], [1]], [[1, 1], [0, 1]]],
    "tail": "repeat-last",
}

# `brat catalog NAME` stdout for each fixed entry, byte for byte
CATALOG_GOLDENS = {
    "example-5.5": (
        '{"name": "example-5.5", "kind": "diagram", "note": "two vertices per level, '
        'multiplicities 2/1 crosswise; the height gcds are 1, 1, 3, 9, 27, ... and the maximal '
        'UHF subalgebra is M_{3^infinity}", "payload": {"name": "example-5.5", "levels": [1, 2, '
        '2], "matrices": [[[1], [1]], [[2, 1], [1, 2]]], "tail": "repeat-last"}, "expected": '
        '{"mu": {"value": {"3": "inf"}, "exactness": "certified"}, "gcds_0_4": [1, 1, 3, 9, 27]}}\n'
    ),
    "findim-4-6": (
        '{"name": "findim-4-6", "kind": "diagram", "note": "the finite-dimensional algebra M_4 + '
        'M_6; the largest unital matrix subalgebra is M_2, the gcd of the sizes", "payload": '
        '{"name": "findim-4-6", "levels": [1, 2], "matrices": [[[4], [6]]], "tail": "none"}, '
        '"expected": {"mu": {"value": {"2": 1}, "exactness": "certified"}}}\n'
    ),
    "cone-2-3-unit-2": (
        '{"name": "cone-2-3-unit-2", "kind": "group", "note": "integers ordered by the semigroup '
        '<2,3> with unit 2; coprime unit divisors compose, and only 1 divides the unit because '
        'the witness for 2 would have to be 1, which sits outside the cone", "payload": {"kind": '
        '"cyclic", "generators": [2, 3], "unit": 2}, "expected": {"propd": {"holds": true}, '
        '"maxsn": {}}}\n'
    ),
    "cone-2-3-unit-6": (
        '{"name": "cone-2-3-unit-6", "kind": "group", "note": "integers ordered by <2,3> with '
        'unit 6; 2 and 3 divide the unit but their product does not, since 1 is outside the '
        'cone", "payload": {"kind": "cyclic", "generators": [2, 3], "unit": 6}, "expected": '
        '{"propd": {"holds": false, "counterexample": [2, 3]}, "maxsn": null}}\n'
    ),
    "free-product-2-3": (
        '{"name": "free-product-2-3", "kind": "group", "note": "K0 of the reduced free product '
        'of M_2 and M_3: the integers ordered by <2,3> with unit [1] = 6; no maximum '
        'supernatural divisor, hence no maximal UHF subalgebra", "payload": {"kind": "cyclic", '
        '"generators": [2, 3], "unit": 6}, "expected": {"propd": {"holds": false, '
        '"counterexample": [2, 3]}, "maxsn": null}}\n'
    ),
    "quadratic-sqrt2": (
        '{"name": "quadratic-sqrt2", "kind": "group", "note": "the dyadic rationals plus '
        'sqrt(2)*Z with the real order and unit 1; an element lies in the rational subgroup of '
        'the unit exactly when its sqrt(2) part vanishes", "payload": {"kind": "quadratic", "H": '
        '{"2": "inf"}, "alpha_square": 2, "unit": {"k": "1", "z": 0}}, "expected": {"propd": '
        '{"holds": true}, "maxsn": {"2": "inf"}}}\n'
    ),
}

# a JSON array nested past the decoder's recursion limit on every supported Python
NESTED = "[" * 100000 + "]" * 100000


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        status, out, err = run(capsys, "validate", E55)
        assert (status, out, err) == (0, '{"ok": true}\n', "")

    def test_violations_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"levels": [1, 2], "matrices": [[[0], [1]]]}))
        status, out, err = run(capsys, "validate", str(path))
        assert status == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"][0]["kind"] == "zero-row"
        assert report["violations"][0]["level"] == 1

    @pytest.mark.parametrize("data, violations", [
        ({"levels": [], "matrices": []}, [("root", 0, None, "level 0 must hold exactly one vertex")]),
        ({"levels": [1, 2], "matrices": []}, [("shape", 0, None, "2 levels need 1 matrices, got 0")]),
        ({"levels": [1, 2], "matrices": [[[1], [1, 1]]]}, [("shape", 1, None, "matrix 1 must be 2x1")]),
        ({"levels": [1, 2], "matrices": [[[1], [-1]]]}, [("entry", 1, 1, "negative multiplicity in row 1")]),
        ({"levels": [1, 2, 2], "matrices": [[[1], [1]], [[1, 0], [1, 0]]]},
         [("zero-column", 2, 1, "vertex 1 at level 1 emits no edge")]),
        ({"levels": [1], "matrices": [], "tail": "repeat-last"},
         [("tail", 0, None, "a repeating tail needs a last matrix")]),
        ({"levels": [2, 2, 3], "matrices": [[[1, -1], [0, 0]], [[0, 0], [1, 0]]], "tail": "repeat-last"}, [
            ("root", 0, None, "level 0 must hold exactly one vertex"),
            ("entry", 1, 0, "negative multiplicity in row 0"),
            ("zero-row", 1, 1, "vertex 1 at level 1 receives no edge"),
            ("shape", 2, None, "matrix 2 must be 3x2"),
            ("tail", 2, None, "a repeating tail needs a square last matrix")]),
    ], ids=["empty-levels", "matrix-count", "ragged", "entry", "zero-column", "tail", "every-rule"])
    def test_prints_the_violations_that_building_refuses(self, capsys, tmp_path, data, violations):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, "validate", str(path))
        keys = ("kind", "level", "position", "message")
        assert (status, json.loads(out), err) == (1, {"ok": False, "violations": [
            dict(zip(keys, v)) for v in violations]}, "")
        with pytest.raises(brat.bratteli.DiagramError) as info:
            BratteliDiagram.from_data(data)
        assert [tuple(map(v.__getattribute__, keys)) for v in info.value.violations] == violations


# a diagram that breaks a rule is refused when it is read, before any other argument
NEGATIVE = {"levels": [1, 2], "matrices": [[[1], [-1]]]}


@pytest.mark.parametrize("argv", [
    ("k0-divides", "--n", "0"),
    ("divide", "--stage", "0", "--vector", "1", "--m", "0"),
    ("divide", "--stage", "0", "--vector", "x", "--m", "2"),
    ("rsub", "--stage", "0", "--vector", "x"),
    ("theta", "--x", "nope"),
    ("telescope", "--cuts", "x"),
    ("embed", "--uhf", "nope"),
], ids=lambda argv: " ".join(argv))
def test_an_invalid_diagram_is_reported_before_a_bad_operand(capsys, tmp_path, argv):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(NEGATIVE))
    status, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (status, out, json.loads(err)) == (2, "", {"error": {
        "type": "input", "message": "invalid diagram: negative multiplicity in row 1"}})


class TestTowers:
    GOLDEN = ('{"depth": 4, "heights": [[1], [1, 1], [3, 3], [9, 9], [27, 27]], '
              '"gcds": [1, 1, 3, 9, 27], "ratios": [1, 3, 3, 3]}\n')

    def test_golden(self, capsys):
        assert run(capsys, "towers", E55, "--depth", "4") == (0, self.GOLDEN, "")

    def test_golden_with_no_digit_limit(self, capsys):
        # a limit of 0 means none, so no gcd is too long to print
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            answer = run(capsys, "towers", E55, "--depth", "4")
        finally:
            sys.set_int_max_str_digits(limit)
        assert answer == (0, self.GOLDEN, "")

    def test_default_depth_infinite(self, capsys):
        status, out, _ = run(capsys, "towers", E55)
        payload = json.loads(out)
        assert status == 0 and payload["depth"] == 16
        assert len(payload["gcds"]) == 17

    def test_default_depth_clamps_to_finite_length(self, capsys):
        status, out, _ = run(capsys, "towers", FINDIM)
        payload = json.loads(out)
        assert status == 0 and payload["depth"] == 1
        assert payload["heights"] == [[1], [4, 6]]

    def test_explicit_depth_past_finite_end_is_an_error(self, capsys):
        status, out, err = run(capsys, "towers", FINDIM, "--depth", "8")
        assert (status, out) == (2, "")
        assert err == (
            '{"error": {"type": "input", "message": '
            '"depth 8 exceeds the 1 levels of a finite diagram"}}\n'
        )

    def test_negative_depth(self, capsys):
        status, _, err = run(capsys, "towers", E55, "--depth", "-3")
        assert status == 2
        assert "nonnegative" in json.loads(err)["error"]["message"]

    def test_unprintable_heights_are_an_error_with_nothing_on_stdout(self, capsys, tmp_path):
        # level 2 heights have 8001 digits, past what json.dumps will print
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"levels": [1, 1, 1], "matrices": [[[10**4000]], [[10**4000]]]}))
        status, out, err = run(capsys, "towers", str(path), "--depth", "2")
        assert (status, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


# 20 levels of [[2]] and no tail: the UHF algebra M_{2^20}
LONG_FINDIM = {"levels": [1] * 21, "matrices": [[[2]]] * 20}


@pytest.mark.parametrize("argv, walked, at_16", [
    (["mu"], (0, '{"mu": {"2": 20}, "exactness": "certified"}\n'),
     (0, '{"mu": {"2": 16}, "exactness": "truncated-at-depth"}\n')),
    (["embed", "--uhf", '{"2":20}'], (0, '{"embeds": "yes", "depth": 20}\n'),
     (1, '{"embeds": "no-within-depth", "depth": 16}\n')),
    (["k0-divides", "--n", "1048576"], (0, '{"stage": 20, "vector": [1]}\n'),
     (1, '{"witness": null, "depth": 16}\n')),
], ids=["mu", "embed", "k0-divides"])
def test_a_finite_diagram_is_walked_to_its_last_level_by_default(capsys, tmp_path, argv, walked, at_16):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(LONG_FINDIM))
    command, *options = argv
    assert run(capsys, command, str(path), *options) == (*walked, "")
    assert run(capsys, command, str(path), *options, "--depth", "20") == (*walked, "")
    assert run(capsys, command, str(path), *options, "--depth", "16") == (*at_16, "")


class TestMu:
    def test_example_golden(self, capsys):
        status, out, _ = run(capsys, "mu", E55)
        assert (status, out) == (0, '{"mu": {"3": "inf"}, "exactness": "certified"}\n')

    def test_findim_golden(self, capsys):
        status, out, _ = run(capsys, "mu", FINDIM)
        assert (status, out) == (0, '{"mu": {"2": 1}, "exactness": "certified"}\n')

    def test_truncated_flag(self, capsys, tmp_path):
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(DRIFT_DATA))
        status, out, _ = run(capsys, "mu", str(path))
        assert status == 0
        assert json.loads(out) == {"mu": {}, "exactness": "truncated-at-depth"}

    def test_uhf_catalog_pattern(self, capsys):
        status, out, _ = run(capsys, "mu", "catalog:uhf-12")
        assert (status, out) == (0, '{"mu": {"2": 2, "3": 1}, "exactness": "certified"}\n')

    def test_deterministic_bytes(self, capsys):
        first = run(capsys, "mu", E55)
        second = run(capsys, "mu", E55)
        assert first == second


class TestOdometer:
    def test_json_golden(self, capsys):
        status, out, _ = run(capsys, "odometer", E55, "--depth", "4")
        assert status == 0
        assert out == (
            '{"levels": [1, 1, 1, 1, 1], '
            '"matrices": [[[1]], [[3]], [[3]], [[3]]], "tail": "repeat-last"}\n'
        )

    def test_dot_golden(self, capsys):
        status, out, _ = run(capsys, "odometer", E55, "--depth", "2", "--format", "dot")
        assert status == 0
        assert out == (
            "digraph bratteli {\n"
            "  rankdir=TB;\n"
            '  node [shape=circle, label=""];\n'
            "  { rank=same; v_0_0; }\n"
            "  { rank=same; v_1_0; }\n"
            "  { rank=same; v_2_0; }\n"
            "  v_0_0 -> v_1_0;\n"
            "  v_1_0 -> v_2_0;\n"
            "  v_1_0 -> v_2_0;\n"
            "  v_1_0 -> v_2_0;\n"
            "}\n"
        )

    def test_output_feeds_back_into_validate(self, capsys, tmp_path):
        status, out, _ = run(capsys, "odometer", E55, "--depth", "3")
        path = tmp_path / "odo.json"
        path.write_text(out)
        status, out, _ = run(capsys, "validate", str(path))
        assert (status, out) == (0, '{"ok": true}\n')


class TestDot:
    def test_labels_past_parallel_limit(self):
        text = export_dot(BratteliDiagram((1, 1), (((5,),),)), 1)
        assert 'v_0_0 -> v_1_0 [label="5"];' in text
        assert text.count("v_0_0 -> v_1_0;") == 0

    def test_parallel_edges_at_limit(self):
        text = export_dot(BratteliDiagram((1, 1), (((4,),),)), 1)
        assert text.count("v_0_0 -> v_1_0;") == 4

    def test_zero_multiplicity_omitted(self):
        text = export_dot(BratteliDiagram((1, 2, 2), (((1,), (1,)), ((1, 0), (1, 1)))), 2)
        assert "v_1_1 -> v_2_0" not in text
        assert text.index("v_0_0 -> v_1_0") < text.index("v_0_0 -> v_1_1")


class TestPremorphism:
    def test_data_golden(self, capsys):
        status, out, _ = run(capsys, "premorphism", E55, "--depth", "2")
        assert status == 0
        assert out == (
            '{"level_map": [0, 1, 2], '
            '"matrices": [[[1]], [[1], [1]], [[1], [1]]]}\n'
        )

    def test_verify(self, capsys):
        status, out, _ = run(capsys, "premorphism", E55, "--depth", "3", "--verify")
        assert (status, out) == (0, '{"verified": true, "depth": 3}\n')

    def test_verify_catches_a_corrupted_walk(self, capsys, monkeypatch):
        walk = brat.bratteli.tower_profile

        def corrupted(diagram, depth):  # n_2 doubled breaks the square from level 1 to 2
            profile = walk(diagram, depth)
            vectors = [*profile.vectors[:2], tuple(2 * x for x in profile.vectors[2]), *profile.vectors[3:]]
            return brat.bratteli.TowerProfile(profile.ratios, tuple(vectors), None, depth)

        monkeypatch.setattr(brat.bratteli, "tower_profile", corrupted)
        status, out, _ = run(capsys, "premorphism", E55, "--depth", "3", "--verify")
        assert (status, out) == (1, '{"verified": false, "level": 1, "kind": "commutativity"}\n')


class TestEmbed:
    def test_yes(self, capsys):
        status, out, _ = run(capsys, "embed", E55, "--uhf", '{"3": "inf"}')
        assert (status, out) == (0, '{"embeds": "yes", "depth": 16}\n')

    def test_no_certified(self, capsys):
        status, out, _ = run(capsys, "embed", E55, "--uhf", '{"2": 1}')
        assert (status, out) == (1, '{"embeds": "no-certified", "depth": 16}\n')

    def test_no_within_depth(self, capsys, tmp_path):
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(DRIFT_DATA))
        status, out, _ = run(capsys, "embed", str(path), "--uhf", '{"2": 1}')
        assert (status, out) == (1, '{"embeds": "no-within-depth", "depth": 16}\n')

    def test_trivial_always_embeds(self, capsys):
        status, out, _ = run(capsys, "embed", FINDIM, "--uhf", "{}")
        assert (status, out) == (0, '{"embeds": "yes", "depth": 1}\n')

    def test_bad_number(self, capsys):
        status, _, err = run(capsys, "embed", E55, "--uhf", '{"4": 1}')
        assert status == 2 and "bad supernatural number" in json.loads(err)["error"]["message"]


class TestK0Divides:
    def test_witness(self, capsys):
        status, out, _ = run(capsys, "k0-divides", E55, "--n", "27")
        assert (status, out) == (0, '{"stage": 4, "vector": [1, 1]}\n')

    def test_miss(self, capsys):
        status, out, _ = run(capsys, "k0-divides", E55, "--n", "2")
        assert (status, out) == (1, '{"witness": null, "depth": 16}\n')

    def test_bad_n(self, capsys):
        status, _, err = run(capsys, "k0-divides", E55, "--n", "0")
        assert status == 2 and "positive" in json.loads(err)["error"]["message"]


class TestRsub:
    def test_member(self, capsys):
        status, out, _ = run(capsys, "rsub", E55, "--stage", "1", "--vector", "1,1")
        assert status == 0
        assert out == '{"member": true, "stage": 1, "lambda": "1", "m": 1, "q": 1}\n'

    def test_scaled_member(self, capsys):
        status, out, _ = run(capsys, "rsub", E55, "--stage", "2", "--vector", "6,6")
        assert status == 0
        assert json.loads(out) == {"member": True, "stage": 2, "lambda": "2", "m": 1, "q": 2}

    def test_miss(self, capsys):
        status, out, _ = run(capsys, "rsub", E55, "--stage", "1", "--vector", "1,0")
        assert status == 1
        assert out == '{"member": false, "reason": "no witness up to depth", "depth": 16}\n'

    def test_stage_out_of_range(self, capsys):
        status, _, err = run(capsys, "rsub", FINDIM, "--stage", "3", "--vector", "1,1")
        assert status == 2 and "outside" in json.loads(err)["error"]["message"]

    def test_bad_vector(self, capsys):
        status, _, err = run(capsys, "rsub", E55, "--stage", "1", "--vector", "1,x")
        assert status == 2 and "bad integer vector" in json.loads(err)["error"]["message"]

    def test_fractional_lambda(self, capsys):
        status, out, _ = run(capsys, "rsub", E55, "--stage", "2", "--vector", "1,1")
        assert (status, out) == (0, '{"member": true, "stage": 2, "lambda": "1/3", "m": 3, "q": 1}\n')

    def test_lambda_past_the_digit_limit_is_refused_as_a_limit(self, capsys, tmp_path):
        # lambda = 10**4000 / (10**4000 * p + p + 1): about 8000 digits below the bar
        p = 10**4000 + 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"levels": [1, 2, 2],
                                    "matrices": [[[p], [p + 1]], [[10**4000, 1], [10**4000, 1]]]}))
        status, out, err = run(capsys, "rsub", str(path), "--stage", "1", "--vector", "1,0",
                               "--depth", "2")
        assert (status, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "limit"


class TestTheta:
    def test_golden(self, capsys):
        status, out, _ = run(capsys, "theta", E55, "--x", "1/3")
        assert (status, out) == (0, '{"stage": 2, "vector": [1, 1]}\n')

    def test_unit_itself(self, capsys):
        status, out, _ = run(capsys, "theta", E55, "--x", "1")
        assert (status, out) == (0, '{"stage": 0, "vector": [1]}\n')

    def test_outside_rational_group(self, capsys):
        status, _, err = run(capsys, "theta", E55, "--x", "1/5")
        assert status == 2
        assert "outside the rational group" in json.loads(err)["error"]["message"]

    def test_admissible_but_too_shallow(self, capsys):
        status, _, err = run(capsys, "theta", E55, "--x", "1/27", "--depth", "3")
        assert status == 2
        assert "not yet divisible" in json.loads(err)["error"]["message"]

    def test_miss_on_a_truncated_invariant(self, capsys, tmp_path):
        # the tail's invariant is exactly 2^omega, which the walk never
        # certifies, so no miss on it is "outside the rational group"
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"levels": [1, 2, 2], "matrices": [[[1], [1]], [[3, 1], [1, 1]]],
                                    "tail": "repeat-last"}))
        message = '{"error": {"type": "input", "message": "denominator of 1/%d not yet divisible at depth 16"}}\n'
        assert run(capsys, "theta", str(path), "--x", "1/512") == (2, "", message % 512)
        assert run(capsys, "theta", str(path), "--x", "1/512", "--depth", "20") == (
            0, '{"stage": 18, "vector": [2744210, 1136689]}\n', "")
        assert run(capsys, "theta", str(path), "--x", "1/5") == (2, "", message % 5)

    def test_bad_fraction(self, capsys):
        status, _, err = run(capsys, "theta", E55, "--x", "1/0")
        assert status == 2 and "bad rational" in json.loads(err)["error"]["message"]


class TestDivide:
    def test_golden(self, capsys):
        status, out, _ = run(capsys, "divide", E55, "--stage", "1", "--vector", "1,1", "--m", "3")
        assert (status, out) == (0, '{"stage": 2, "vector": [1, 1]}\n')

    def test_miss(self, capsys):
        status, out, _ = run(capsys, "divide", E55, "--stage", "1", "--vector", "1,1", "--m", "2")
        assert (status, out) == (1, '{"witness": null, "depth": 16}\n')

    def test_negative_entries_rejected(self, capsys):
        status, _, err = run(capsys, "divide", E55, "--stage", "1", "--vector", "1,-1", "--m", "2")
        assert status == 2 and "nonnegative" in json.loads(err)["error"]["message"]

    def test_bad_m(self, capsys):
        assert run(capsys, "divide", E55, "--stage", "1", "--vector", "1,1", "--m", "0") == (
            2, "", '{"error": {"type": "input", "message": "--m must be a positive integer"}}\n')


class TestTelescope:
    def test_golden(self, capsys):
        status, out, _ = run(capsys, "telescope", E55, "--cuts", "1,3")
        assert status == 0
        assert out == (
            '{"levels": [1, 2, 2], '
            '"matrices": [[[1], [1]], [[5, 4], [4, 5]]], "tail": "repeat-last"}\n'
        )

    def test_bad_cuts(self, capsys):
        status, _, err = run(capsys, "telescope", E55, "--cuts", "3,2")
        assert status == 2 and "increasing" in json.loads(err)["error"]["message"]

    def test_finite_overrun(self, capsys):
        status, _, err = run(capsys, "telescope", FINDIM, "--cuts", "1,2")
        assert status == 2 and "exceeds" in json.loads(err)["error"]["message"]

    def test_cut_past_a_finite_diagram_exact_stderr(self, capsys):
        assert run(capsys, "telescope", FINDIM, "--cuts", "9") == (2, "", (
            '{"error": {"type": "input", "message": "cut 9 exceeds the 1 levels of a finite diagram"}}\n'))


class TestSn:
    def test_divides(self, capsys):
        status, out, _ = run(capsys, "sn", "divides", '{"2": 1}', '{"2": "inf"}')
        assert (status, out) == (0, '{"divides": true}\n')

    def test_divides_false_exit(self, capsys):
        status, out, _ = run(capsys, "sn", "divides", '{"2": 2}', '{"2": 1}')
        assert (status, out) == (1, '{"divides": false}\n')

    def test_mul(self, capsys):
        status, out, _ = run(capsys, "sn", "mul", '{"2": 1}', '{"2": "inf"}', '{"3": 2}')
        assert (status, out) == (0, '{"product": {"2": "inf", "3": 2}}\n')

    def test_sup_inf(self, capsys):
        status, out, _ = run(capsys, "sn", "sup", '{"2": 1}', '{"2": "inf", "3": 1}')
        assert (status, out) == (0, '{"sup": {"2": "inf", "3": 1}}\n')
        status, out, _ = run(capsys, "sn", "inf", '{"2": 1}', '{"2": "inf", "3": 1}')
        assert (status, out) == (0, '{"inf": {"2": 1}}\n')

    def test_ell(self, capsys):
        status, out, _ = run(capsys, "sn", "ell", '{"2": "inf"}', "3")
        assert (status, out) == (0, '{"ell": 8}\n')

    def test_ell_arity(self, capsys):
        status, _, err = run(capsys, "sn", "ell", '{"2": "inf"}')
        assert status == 2 and "stage" in json.loads(err)["error"]["message"]

    def test_ell_bad_stage(self, capsys):
        status, _, err = run(capsys, "sn", "ell", '{"2": "inf"}', "x")
        assert status == 2 and "bad stage" in json.loads(err)["error"]["message"]

    def test_divides_arity(self, capsys):
        status, _, _ = run(capsys, "sn", "divides", "{}")
        assert status == 2

    def test_bad_json_operand(self, capsys):
        status, _, err = run(capsys, "sn", "mul", "{oops}")
        assert status == 2 and "bad supernatural number" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("operand", [
        '{"\u0663": 1}', '{" 3": 1}', '{"+3": 1}', '{"03": 1}', '{"0_3": 1}', '{"3 ": 1}',
        # two spellings of one prime would overwrite each other
        '{"3": 5, "03": 1}', '{"3": 1, "03": 2}',
        '{"%s": 1}' % ("1" * 5000),
    ], ids=["arabic-indic", "space", "plus", "leading-zero", "underscore", "trailing-space",
            "alias-5-1", "alias-1-2", "past-the-digit-limit"])
    @pytest.mark.parametrize("command", ["divides", "mul"])
    def test_only_canonical_prime_keys(self, capsys, command, operand):
        status, out, err = run(capsys, "sn", command, operand, '{"3": 1}')
        error = json.loads(err)["error"]
        assert (status, out, error["type"]) == (2, "", "input")
        assert "bad prime key" in error["message"] and "Exceeds" not in error["message"]

    @pytest.mark.parametrize("operand, message", [
        ('{"%s": 1}' % ("1" * 5000), "bad prime key"),
        ('{"1%s": 1}' % ("0" * 199), "supernatural keys must be primes"),
    ], ids=["5000-digit-key", "200-digit-composite"])
    def test_oversized_operand_is_echoed_short(self, capsys, operand, message):
        status, out, err = run(capsys, "sn", "divides", operand, '{"3": 1}')
        assert (status, out, json.loads(err)["error"]["type"]) == (2, "", "input")
        assert message in err and len(err.encode()) < 400

    def test_canonical_prime_keys(self, capsys):
        big = "10000000000000000051"  # a 20-digit prime
        status, out, _ = run(capsys, "sn", "mul", '{"3": 1, "%s": 2}' % big, '{"3": 2}')
        assert (status, out) == (0, '{"product": {"3": 3, "%s": 2}}\n' % big)
        status, out, _ = run(capsys, "sn", "divides", '{"3": 5}', '{"3": 1}')
        assert (status, out) == (1, '{"divides": false}\n')


class TestGroup:
    def test_propd_holds(self, capsys):
        status, out, _ = run(capsys, "group", "propd", "catalog:cone-2-3-unit-2")
        assert (status, out) == (0, '{"holds": true}\n')

    def test_propd_counterexample(self, capsys):
        status, out, _ = run(capsys, "group", "propd", "catalog:cone-2-3-unit-6")
        assert (status, out) == (1, '{"holds": false, "counterexample": [2, 3]}\n')

    def test_maxsn_absent(self, capsys):
        status, out, _ = run(capsys, "group", "maxsn", "catalog:free-product-2-3")
        assert (status, out) == (1, '{"maxsn": null}\n')

    def test_maxsn_trivial_but_present(self, capsys):
        status, out, _ = run(capsys, "group", "maxsn", "catalog:cone-2-3-unit-2")
        assert (status, out) == (0, '{"maxsn": {}}\n')

    def test_maxsn_quadratic(self, capsys):
        status, out, _ = run(capsys, "group", "maxsn", "catalog:quadratic-sqrt2")
        assert (status, out) == (0, '{"maxsn": {"2": "inf"}}\n')

    def test_divides_witness(self, capsys):
        status, out, _ = run(capsys, "group", "divides", "catalog:cone-2-3-unit-6", "--n", "2")
        assert (status, out) == (0, '{"witness": 3}\n')

    def test_divides_miss(self, capsys):
        status, out, _ = run(capsys, "group", "divides", "catalog:cone-2-3-unit-6", "--n", "6")
        assert (status, out) == (1, '{"witness": null}\n')

    def test_divides_quadratic_witness(self, capsys):
        status, out, _ = run(capsys, "group", "divides", "catalog:quadratic-sqrt2", "--n", "2")
        assert (status, out) == (0, '{"witness": {"k": "1/2", "z": 0}}\n')

    def test_rsub_cyclic(self, capsys):
        status, out, _ = run(capsys, "group", "rsub", "catalog:free-product-2-3", "--g", "2")
        assert (status, out) == (0, '{"member": true, "m": 3, "q": 1}\n')

    def test_rsub_quadratic(self, capsys):
        status, out, _ = run(capsys, "group", "rsub", "catalog:quadratic-sqrt2", "--g", "3/4,0")
        assert (status, out) == (0, '{"member": true, "m": 4, "q": 3}\n')

    def test_rsub_quadratic_miss(self, capsys):
        status, out, _ = run(capsys, "group", "rsub", "catalog:quadratic-sqrt2", "--g", "0,1")
        assert (status, out) == (1, '{"member": false}\n')

    def test_rsub_negative_element_with_equals_form(self, capsys):
        status, out, _ = run(capsys, "group", "rsub", "catalog:free-product-2-3", "--g=-2")
        assert (status, out) == (0, '{"member": true, "m": 3, "q": -1}\n')

    def test_missing_flag(self, capsys):
        status, _, err = run(capsys, "group", "divides", "catalog:cone-2-3-unit-6")
        assert status == 2 and "--n" in json.loads(err)["error"]["message"]

    def test_outside_group_element(self, capsys):
        status, _, err = run(capsys, "group", "rsub", "catalog:quadratic-sqrt2", "--g", "1/3,0")
        assert status == 2 and "outside the group" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, message", [
        (("catalog:cone-2-3-unit-2",), "rsub needs --g with a group element"),
        (("catalog:cone-2-3-unit-2", "--g", "x"), "cyclic group elements are integers, got 'x'"),
        (("catalog:quadratic-sqrt2", "--g", "1"), "quadratic elements look like 'q,z', got '1'"),
        (("catalog:quadratic-sqrt2", "--g", "1/0,0"), "bad quadratic element '1/0,0': Fraction(1, 0)"),
    ], ids=["no-g", "cyclic-not-an-integer", "quadratic-one-part", "quadratic-zero-denominator"])
    def test_bad_rsub_element_exact_stderr(self, capsys, argv, message):
        assert run(capsys, "group", "rsub", *argv) == (
            2, "", '{"error": {"type": "input", "message": "%s"}}\n' % message)


class TestCatalog:
    def test_list_golden(self, capsys):
        status, out, _ = run(capsys, "catalog")
        assert status == 0
        assert out == (
            '{"entries": ["cone-2-3-unit-2", "cone-2-3-unit-6", "example-5.5", '
            '"findim-4-6", "free-product-2-3", "quadratic-sqrt2"], '
            '"patterns": ["uhf-<n>"]}\n'
        )

    def test_entry_payload(self, capsys):
        status, out, _ = run(capsys, "catalog", "findim-4-6")
        assert status == 0
        entry = json.loads(out)
        assert entry["kind"] == "diagram"
        assert entry["payload"]["matrices"] == [[[4], [6]]]
        assert entry["expected"]["mu"] == {"value": {"2": 1}, "exactness": "certified"}

    def test_uhf_pattern_entry(self, capsys):
        status, out, _ = run(capsys, "catalog", "uhf-30")
        entry = json.loads(out)
        assert status == 0 and entry["payload"]["tail"] == "repeat-last"
        assert entry["expected"]["mu"]["value"] == {"2": 1, "3": 1, "5": 1}

    def test_lookups_share_no_expected_dict(self):
        get_entry("findim-4-6").expected["mu"]["value"] = "x"
        assert get_entry("findim-4-6").expected == {"mu": {"value": {"2": 1}, "exactness": "certified"}}

    def test_unknown(self, capsys):
        status, _, err = run(capsys, "catalog", "uhf-0")
        assert status == 2 and "unknown catalog entry" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("name", sorted(CATALOG_GOLDENS))
    def test_fixed_entry_golden(self, capsys, name):
        assert run(capsys, "catalog", name) == (0, CATALOG_GOLDENS[name], "")

    @pytest.mark.parametrize("name", sorted(CATALOG_GOLDENS))
    def test_fixed_entry_expected_is_the_default_output(self, capsys, name):
        entry = json.loads(run(capsys, "catalog", name)[1])
        expected, source = entry["expected"], "catalog:" + name
        if entry["kind"] == "diagram":
            mu = json.loads(run(capsys, "mu", source)[1])
            assert {"value": mu["mu"], "exactness": mu["exactness"]} == expected["mu"]
            if "gcds_0_4" in expected:
                towers = json.loads(run(capsys, "towers", source, "--depth", "4")[1])
                assert towers["gcds"] == expected["gcds_0_4"]
        else:
            assert json.loads(run(capsys, "group", "propd", source)[1]) == expected["propd"]
            assert json.loads(run(capsys, "group", "maxsn", source)[1]) == {"maxsn": expected["maxsn"]}

    @pytest.mark.parametrize("name, shown", [
        ("nope", "'nope'"),
        ("uhf-0", "'uhf-0'"),
        ("uhf-", "'uhf-'"),
        ("uhf-x", "'uhf-x'"),
        ("uhf-²", "'uhf-\\u00b2'"),  # a superscript digit that int() refuses
        ("uhf-٣", "'uhf-\\u0663'"),  # Arabic-Indic 3, which int() reads as 3
        ("uhf-007", "'uhf-007'"),  # leading zeros: a second name for uhf-7
        ("uhf-00", "'uhf-00'"),
        # more digits than int() reads by default
        pytest.param("uhf-" + "1" * 5000, "'uhf-%s'" % ("1" * 5000), id="uhf-5000-ones"),
    ])
    def test_unknown_names_exact_stderr(self, capsys, name, shown):
        expected = '{"error": {"type": "input", "message": "unknown catalog entry %s"}}\n' % shown
        assert run(capsys, "catalog", name) == (2, "", expected)
        assert run(capsys, "mu", "catalog:" + name) == (2, "", expected)


class TestLoading:
    def test_diagram_from_file(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"levels": [1, 1], "matrices": [[[6]]], "tail": "repeat-last"}))
        status, out, _ = run(capsys, "mu", str(path))
        assert (status, out) == (0, '{"mu": {"2": "inf", "3": "inf"}, "exactness": "certified"}\n')

    def test_group_from_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "cyclic", "generators": [1], "unit": 12}))
        status, out, _ = run(capsys, "group", "maxsn", str(path))
        assert (status, out) == (0, '{"maxsn": {"2": 2, "3": 1}}\n')

    def test_quadratic_group_from_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "kind": "quadratic",
            "H": {"2": "inf", "3": 1},
            "alpha_square": 2,
            "unit": {"k": "3/2", "z": 4},
        }))
        status, out, _ = run(capsys, "group", "divides", str(path), "--n", "2")
        assert (status, out) == (0, '{"witness": {"k": "3/4", "z": 2}}\n')

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "mu", "no-such-file.json")
        assert status == 2 and "cannot read" in json.loads(err)["error"]["message"]

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        status, _, err = run(capsys, "mu", str(path))
        assert status == 2 and "bad JSON" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ("mu", "FILE"), ("validate", "FILE"), ("group", "maxsn", "FILE"),
        ("sn", "mul", NESTED, '{"2":1}'), ("embed", E55, "--uhf", NESTED),
    ], ids=["mu", "validate", "group-maxsn", "sn-mul", "embed-uhf"])
    def test_json_nested_too_deeply_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text(NESTED)
        echoed = "'%s... (200002 characters)" % ("[" * 39)  # the operand, clipped
        source = "bad JSON in %r" % str(path) if "FILE" in argv else "bad supernatural number " + echoed
        message = source + ": maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        argv = [str(path) if word == "FILE" else word for word in argv]
        assert run(capsys, *argv) == (2, "", json.dumps({"error": {"type": "input", "message": message}}) + "\n")

    @pytest.mark.parametrize("argv, data, message", [
        (("mu",), {"levels": [1, 1], "matrices": [[["x" * 100000]]]}, "matrix entries must be integers"),
        (("mu",), "x" * 100000, "diagram must be an object"),
        (("group", "maxsn"), "x" * 100000, "group must be an object"),
    ], ids=["mu-entry", "mu-string", "group-maxsn-string"])
    def test_a_long_bad_value_is_echoed_clipped(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        message += ", got '%s... (100002 characters)" % ("x" * 39)
        expected = json.dumps({"error": {"type": "input", "message": message}}) + "\n"
        assert run(capsys, *argv, str(path)) == (2, "", expected) and len(expected) < 300

    # brat's own echo of "x" * n, n >= 40, and Fraction's echo of it, each clipped
    CUT, ECHO = "'%s..." % ("x" * 39), "Invalid literal for Fraction: '%s..." % ("x" * 40)
    LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
             "use sys.set_int_max_str_digits() to increase the limit")

    @pytest.mark.parametrize("argv, message", [
        (("theta", E55, "--x", "x" * 1000), "bad rational %s (1002 characters): %s (1000 characters)'" % (CUT, ECHO)),
        (("group", "rsub", "catalog:quadratic-sqrt2", "--g", "x" * 1000 + ",1"),
         "bad quadratic element %s (1004 characters): %s (1000 characters)'" % (CUT, ECHO)),
        (("group", "maxsn", "FILE"), "bad group description: bad quadratic element {'k': '%s... (100017 "
                                     "characters): %s (100000 characters)'" % ("x" * 33, ECHO)),
        # 40 characters print whole, and so does a message that echoes nothing
        (("theta", E55, "--x", "x" * 40), "bad rational %s (42 characters): Invalid literal for Fraction: '%s'"
                                          % (CUT, "x" * 40)),
        (("theta", E55, "--x", "1" * 5000), "bad rational '%s... (5002 characters): %s" % ("1" * 39, LIMIT)),
        # int() cuts its own echo of the integer part at 200 characters of its repr
        *((("group", "rsub", "catalog:quadratic-sqrt2", "--g", "1," + "x" * n), "bad quadratic element '1,%s... "
           "(%d characters): invalid literal for int() with base 10: '%s... (%d characters)'"
           % ("x" * 37, n + 4, "x" * 40, n)) for n in (100, 300)),
        (("group", "rsub", "catalog:quadratic-sqrt2", "--g", "1," + "x" * 40), "bad quadratic element '1,%s... "
         "(44 characters): invalid literal for int() with base 10: '%s'" % ("x" * 37, "x" * 40)),
    ], ids=["theta-x", "group-rsub-g", "group-maxsn-unit", "theta-x-of-40", "theta-x-past-the-digit-limit",
            "group-rsub-z-of-100", "group-rsub-z-of-300", "group-rsub-z-of-40"])
    def test_python_s_own_echo_of_a_long_input_is_clipped(self, capsys, tmp_path, argv, message):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"kind": "quadratic", "H": {"2": "inf"}, "alpha_square": 2,
                                    "unit": {"k": "x" * 100000, "z": 0}}))
        expected = json.dumps({"error": {"type": "input", "message": message}}) + "\n"
        argv = [str(path) if word == "FILE" else word for word in argv]
        assert run(capsys, *argv) == (2, "", expected) and len(expected) < 300

    def test_kind_mismatch(self, capsys):
        status, _, err = run(capsys, "mu", "catalog:cone-2-3-unit-6")
        assert status == 2 and "is a group, not a diagram" in json.loads(err)["error"]["message"]
        status, _, err = run(capsys, "group", "propd", E55)
        assert status == 2 and "is a diagram, not a group" in json.loads(err)["error"]["message"]

    def test_bad_group_kind(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        status, _, err = run(capsys, "group", "propd", str(path))
        assert status == 2 and "cyclic" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, data", [
        (("validate",), {"levels": [1, 2], "matrices": [[1], [1]]}),
        (("mu",), {"levels": [1, 2], "matrices": [[1], [1]]}),
        (("towers",), {"levels": [1, 2], "matrices": [[1], [1]]}),
        (("validate",), {"levels": [1, [2]], "matrices": [[[1], [1]]]}),
        (("validate",), {"levels": [1, 2.9], "matrices": [[[1], [1]]]}),
        (("validate",), {"levels": [True, "2"], "matrices": [[[1], [1]]]}),
        (("group", "maxsn"), {"kind": "cyclic", "generators": [2.5, 3], "unit": 6}),
        (("group", "maxsn"), {"kind": "cyclic", "generators": [2, 3], "unit": 6.9}),
        (("group", "propd"), {"kind": "quadratic", "H": {"2": "inf"}, "alpha_square": 2,
                              "unit": {"k": "1/0", "z": 0}}),
        (("group", "propd"), {"kind": "quadratic", "H": {"2": "inf"}, "alpha_square": 2.7,
                              "unit": {"k": "1", "z": 0}}),
        (("group", "propd"), {"kind": "quadratic", "H": {"2": "inf"}, "alpha_square": 2,
                              "unit": {"k": "1", "z": 0.5}}),
    ], ids=["matrix-of-ints-validate", "matrix-of-ints-mu", "matrix-of-ints-towers", "list-level",
            "float-level", "bool-and-string-levels", "float-generator", "float-unit", "zero-denominator",
            "float-alpha-square", "float-z"])
    def test_malformed_or_non_integer_json_is_an_input_error(self, capsys, tmp_path, argv, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        status, out, err = run(capsys, *argv, str(path))
        assert (status, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "input"


class TestSerializationRoundTrips:
    @given(ordered_groups())
    def test_group_via_json_text(self, group):
        text = json.dumps(group.to_data())
        assert group_from_data(json.loads(text)) == group

    @given(diagrams())
    def test_diagram_via_json_text(self, diagram):
        text = json.dumps(diagram.to_data())
        assert BratteliDiagram.from_data(json.loads(text)) == diagram

    @given(supernaturals())
    def test_supernatural_via_json_text(self, number):
        from brat.supernatural import SupernaturalNumber

        text = json.dumps(number.to_data())
        assert SupernaturalNumber.from_data(json.loads(text)) == number


def readme_cli_examples():
    """(argv, expected stdout) for each `$ brat ...` example in the README's
    CLI section, leaving out those that need files outside the repository
    or whose output is elided."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n\n"):
        lines = block.strip("`\n").splitlines()
        if not lines or not lines[0].startswith("$ brat "):
            continue
        argv, output = shlex.split(lines[0])[2:], "".join(line + "\n" for line in lines[1:])
        if "my-diagram.json" not in argv and "{ ... }" not in output:
            examples.append((argv, output))
    return examples


@pytest.mark.parametrize("example", readme_cli_examples(), ids=lambda example: " ".join(example[0]))
def test_readme_cli_example(capsys, example):
    argv, expected = example
    _, out, err = run(capsys, *argv)
    assert (out, err) == (expected, "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "brat", "mu", E55],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"mu": {"3": "inf"}, "exactness": "certified"}\n'


def test_propd_enumerates_divisors_of_a_large_unit(tmp_path):
    # 1000000000002 = 2 * 3 * 166666666667 has eight divisors; a scan of
    # every integer up to the unit would not finish
    path = tmp_path / "wide-unit.json"
    path.write_text(json.dumps({"kind": "cyclic", "generators": [3, 5], "unit": 1000000000002}))
    proc = subprocess.run([sys.executable, "-m", "brat", "group", "propd", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, '{"holds": false, "counterexample": [3, 166666666667]}\n', "")


def capped_brat(*argv, cap_mb=512, cpu_s=None):
    """`python -m brat` in a child whose address space is capped at `cap_mb` MB
    and, if `cpu_s` is given, its CPU time at `cpu_s` seconds."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_mb << 20, cap_mb << 20))
        if cpu_s is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))

    return subprocess.run([sys.executable, "-m", "brat", *argv],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap)


def test_out_of_memory_is_a_limit_error_not_a_no(tmp_path):
    # three generators need the residue table of the smallest one, which
    # would take about 16 GB
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "cyclic", "generators": [2000000000, 2000000001, 2000000003],
                                "unit": 4000000001}))
    proc = capped_brat("group", "divides", str(path), "--n", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {"error": {"type": "limit", "message": "out of memory"}}


@pytest.mark.parametrize("argv", [
    ("mu", "catalog:uhf-18446744073709551557"),
    ("sn", "ell", '{"18446744073709551557": 1}', "1000000000000000000"),
], ids=["mu", "ell"])
def test_a_sieve_past_the_index_range_is_a_limit_error_not_a_no(argv):
    # prime_index's sieve for a prime above 2**63 cannot even be sized, so
    # bytearray raises OverflowError before it allocates anything
    proc = capped_brat(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {"error": {"type": "limit", "message": "out of memory"}}


def test_two_huge_generators_need_no_residue_table(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "cyclic", "generators": [2000000000, 2000000001],
                                "unit": 4000000001}))
    proc = capped_brat("group", "divides", str(path), "--n", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"witness": 4000000001}\n', "")


def test_ell_never_sieves_up_to_a_support_prime():
    proc = capped_brat("sn", "ell", '{"1000000007": 1}', "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"ell": 1}\n', "")


def test_ell_never_sieves_up_to_its_stage():
    # 2 <= j is among the first j primes, so no prime is counted at all
    proc = capped_brat("sn", "ell", '{"2": 1}', "100000000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"ell": 2}\n', "")


def test_deep_rsub_stops_at_its_first_hit():
    # the unit itself matches at stage 1; a profile down to the depth would not fit
    proc = capped_brat("rsub", E55, "--stage", "1", "--vector", "1,1", "--depth", "1000000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, '{"member": true, "stage": 1, "lambda": "1", "m": 1, "q": 1}\n', "")


def builds(monkeypatch, capsys, argv):
    """Diagrams built and tower profiles walked while `brat argv` answers."""
    calls = {"__post_init__": 0, "tower_profile": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BratteliDiagram, "__post_init__", counted("__post_init__", BratteliDiagram.__post_init__))
    monkeypatch.setattr(brat.bratteli, "tower_profile", counted("tower_profile", brat.bratteli.tower_profile))
    status, _, err = run(capsys, *argv)
    assert status in (0, 1, 2) and (err == "") == (status != 2)
    return calls


@pytest.mark.parametrize("argv", [
    ("rsub", E55, "--stage", "1", "--vector", "1,1"),
    ("rsub", E55, "--stage", "1", "--vector", "2,1"),
    ("k0-divides", E55, "--n", "9"),
    ("divide", E55, "--stage", "1", "--vector", "3,6", "--m", "9"),
], ids=lambda argv: argv[0] + ":" + argv[-1])
def test_witness_searches_validate_once_and_build_no_profile(monkeypatch, capsys, argv):
    # building a diagram validates it, so one build is one validation
    assert builds(monkeypatch, capsys, argv) == {"__post_init__": 1, "tower_profile": 0}


@pytest.mark.parametrize("argv, counts", [
    (("premorphism", E55, "--verify"), {"__post_init__": 2, "tower_profile": 1}),  # the diagram and its odometer
    (("theta", E55, "--x", "1/2"), {"__post_init__": 1, "tower_profile": 1}),  # a miss asks embed's question
    (("validate", E55), {"__post_init__": 1, "tower_profile": 0}),
], ids=["premorphism-verify", "theta-miss", "validate"])
def test_each_request_builds_and_validates_its_diagrams_once(monkeypatch, capsys, argv, counts):
    assert builds(monkeypatch, capsys, argv) == counts


@pytest.mark.parametrize("argv, message", [
    (("rsub", E55, "--stage", "-1", "--vector", "1,1"), "stage -1 outside 0..16"),
    (("group", "divides", "catalog:cone-2-3-unit-2", "--n", "0"), "divides needs --n with a positive integer"),
    # too few or too many positionals: not plain, so argparse words the error
    (("mu",), "the following arguments are required: source"),
    (("catalog", "a", "b"), "unrecognized arguments: b"),
    (("sn", "mul"), "the following arguments are required: operands"),
], ids=["rsub-negative-stage", "group-divides-zero", "mu-no-source", "catalog-two-names", "sn-mul-no-operand"])
def test_operand_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", json.dumps({"error": {"type": "input", "message": message}}) + "\n")


def test_cyclic_maxsn_exponent_reaches_the_units(capsys, tmp_path):
    # every power of 2 up to the unit's 2**2 divides it, so the scan stops at the cap
    path = tmp_path / "integers.json"
    path.write_text(json.dumps({"kind": "cyclic", "generators": [1], "unit": 4}))
    assert run(capsys, "group", "maxsn", str(path)) == (0, '{"maxsn": {"2": 2}}\n', "")


@pytest.mark.parametrize("argv, status, out, err", [
    (("mu",), 0, '{"mu": {"3": "inf"}, "exactness": "certified"}\n', ""),
    (("embed", "--uhf", '{"3":5}'), 0, '{"embeds": "yes", "depth": 100000000000000000000}\n', ""),
    (("theta", "--x", "1/2"), 2, "", '{"error": {"type": "input", "message": '
                                     '"1/2 lies outside the rational group of the invariant"}}\n'),
], ids=["mu", "embed", "theta-miss"])
def test_a_repeating_tail_stops_at_its_revisit_whatever_the_depth(argv, status, out, err):
    # the profile keeps the levels up to the first revisit, not one word per level
    proc = capped_brat(argv[0], E55, "--depth", str(10**20), *argv[1:])
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


# two 56-bit primes: Pollard's rho takes about 2**28 steps to split their product
P56, Q56 = 36028797018963971, 36028797019963987


@pytest.mark.parametrize("argv, status, out, err", [
    (("embed", "--uhf", '{"2":1}'), 1, '{"embeds": "no-certified", "depth": 16}\n', ""),
    (("theta", "--x", "1/2"), 2, "", '{"error": {"type": "input", "message": '
                                     '"1/2 lies outside the rational group of the invariant"}}\n'),
], ids=["embed", "theta-miss"])
def test_embed_and_a_theta_miss_factor_no_ratio(tmp_path, argv, status, out, err):
    # the tail ratio P56 * Q56 recurs from level 2 on, and both answers read only v_2
    path = tmp_path / "pq.json"
    path.write_text(json.dumps({"levels": [1, 1, 1], "matrices": [[[1]], [[P56 * Q56]]], "tail": "repeat-last"}))
    proc = capped_brat(argv[0], str(path), *argv[1:], cpu_s=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


@pytest.mark.parametrize("command", ["towers", "odometer", "premorphism"])
def test_an_answer_of_more_levels_than_sys_maxsize_is_a_limit_error(command):
    # the walk stops at its revisit, but these answers hold an entry per level
    proc = capped_brat(command, E55, "--depth", str(10**20))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {"error": {"type": "limit", "message": "out of memory"}}


def test_deep_constant_tail_answers_under_the_memory_cap():
    # the walk stops at the first revisit of the normalized heights and
    # replays the rest, so no height of 100000 levels is ever built
    proc = capped_brat("mu", E55, "--depth", "100000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, '{"mu": {"3": "inf"}, "exactness": "certified"}\n', "")
    proc = capped_brat("embed", E55, "--depth", "100000", "--uhf", '{"3":5}')
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"embeds": "yes", "depth": 100000}\n', "")


FIBONACCI = {"levels": [1, 2, 2], "matrices": [[[1], [1]], [[1, 1], [1, 0]]], "tail": "repeat-last"}
THREE_ONE = {"levels": [1, 2, 2], "matrices": [[[1], [1]], [[3, 1], [1, 1]]], "tail": "repeat-last"}


@pytest.mark.parametrize("data, argv, status, out", [
    (FIBONACCI, ("mu",), 0, '{"mu": {}, "exactness": "truncated-at-depth"}\n'),
    (FIBONACCI, ("embed", "--uhf", '{"2":1}'), 1, '{"embeds": "no-within-depth", "depth": 30000}\n'),
    (FIBONACCI, ("odometer",), 0, json.dumps(
        {"levels": [1] * 30001, "matrices": [[[1]]] * 30000, "tail": "none"}) + "\n"),
    (THREE_ONE, ("mu",), 0, '{"mu": {"2": 15000}, "exactness": "truncated-at-depth"}\n'),
    (THREE_ONE, ("embed", "--uhf", '{"2":1}'), 0, '{"embeds": "yes", "depth": 30000}\n'),
    (THREE_ONE, ("odometer",), 0, json.dumps(
        {"levels": [1] * 30001, "matrices": [[[n % 2 + 1]] for n in range(30000)], "tail": "none"}) + "\n"),
], ids=["fibonacci-mu", "fibonacci-embed", "fibonacci-odometer", "3-1-1-1-mu", "3-1-1-1-embed",
        "3-1-1-1-odometer"])
def test_deep_tail_that_never_revisits_keeps_no_vectors(tmp_path, data, argv, status, out):
    # the primitive vectors grow by a constant number of bits per level:
    # kept, 30000 levels take 100-170 MB; mu, embed and odometer keep the
    # ratios, the window's k+1 = 3 vectors and the current one, and on the
    # Fibonacci tail, whose ratios are all 1, end at level 4
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(data))
    proc = capped_brat(argv[0], str(path), "--depth", "30000", *argv[1:], cap_mb=96)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, "")


@pytest.mark.parametrize("argv, status, out, err", [
    (("mu",), 0, '{"mu": {}, "exactness": "truncated-at-depth"}\n', ""),
    (("embed", "--uhf", '{"2":1}'), 1, '{"embeds": "no-within-depth", "depth": 100000}\n', ""),
    (("theta", "--x", "1/2"), 2, "", '{"error": {"type": "input", "message": '
                                     '"denominator of 1/2 not yet divisible at depth 100000"}}\n'),
], ids=["mu", "embed", "theta"])
def test_a_tail_that_gains_no_prime_ends_its_walk_after_the_window(tmp_path, argv, status, out, err):
    # the window's ratios are 1 and the sum rises at level 4, so no later
    # ratio differs from 1 and no revisit follows: the walk pushes 4 levels,
    # where walking all 100000 takes about 3 s of CPU (Python 3.11, a 2-CPU VM)
    path = tmp_path / "fibonacci.json"
    path.write_text(json.dumps(FIBONACCI))
    proc = capped_brat(argv[0], str(path), "--depth", "100000", *argv[1:], cpu_s=2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)


DEEP_MISS = '{"witness": null, "depth": 300000}\n'


@pytest.mark.parametrize("argv, out", [
    (("k0-divides", E55, "--n", "2"), DEEP_MISS),
    (("divide", E55, "--stage", "1", "--vector", "1,1", "--m", "2"), DEEP_MISS),
    (("divide", E55, "--stage", "1", "--vector", "1,2", "--m", "2"), DEEP_MISS),
    (("rsub", E55, "--stage", "1", "--vector", "1,2"),
     '{"member": false, "reason": "no witness up to depth", "depth": 300000}\n'),
], ids=["k0-divides", "divide", "divide-off-ray", "rsub-off-ray"])
def test_deep_first_hit_miss_multiplies_no_content(argv, out):
    # the content 3**s grows by a ratio per level: multiplied out at every
    # level, a miss costs O(depth**2) bit operations, 10-20 s of CPU where
    # the walk alone takes about 1 s (Python 3.11, a 2-CPU VM).  (1, 2) pushes
    # to consecutive integers with content 1, about 1.6 bits more per level,
    # so only the tail's horizon, two levels past the stage, bounds its miss
    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (8, 8))

    proc = subprocess.run([sys.executable, "-m", "brat", *argv, "--depth", "300000"],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, out, "")


def counted_walks(monkeypatch):
    """Count the walks down the diagram, one per `tower_profile` call,
    wherever the call is made from (`maximal_uhf` and `odometer` make one
    that keeps no vectors, and the handlers read it off `brat.bratteli`
    at call time); returns the list of walks made."""
    walks = []
    walk = brat.bratteli.tower_profile

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(brat.bratteli, "tower_profile", counted)
    return walks


@pytest.mark.parametrize("argv", [
    ("validate", E55), ("towers", E55), ("odometer", E55), ("odometer", E55, "--format", "dot"),
    ("mu", E55), ("premorphism", E55), ("premorphism", E55, "--verify"), ("embed", E55, "--uhf", '{"2": 1}'),
    ("k0-divides", E55, "--n", "9"), ("rsub", E55, "--stage", "1", "--vector", "2,1"),
    ("theta", E55, "--x", "1/3"), ("theta", E55, "--x", "1/5"),
    ("divide", E55, "--stage", "1", "--vector", "3,6", "--m", "9"), ("telescope", E55, "--cuts", "1,3"),
], ids=" ".join)
def test_each_diagram_command_walks_at_most_once(monkeypatch, capsys, argv):
    walks = counted_walks(monkeypatch)
    status, _, err = run(capsys, *argv)
    # 1/5 is refused on the error path, which reads the invariant
    assert (status in (0, 1) and err == "") or "outside the rational group" in err
    assert len(walks) <= 1


def circulant_tail(tmp_path):
    """Width 8: level 1 is 2 * (1, ..., 1), and every row of the circulant
    tail matrix sums to 11, so the normalized heights revisit at once."""
    first = [3, 1, 0, 2, 1, 0, 1, 3]
    tail = [[first[(j - i) % 8] for j in range(8)] for i in range(8)]
    path = tmp_path / "circulant.json"
    path.write_text(json.dumps({"levels": [1, 8, 8], "matrices": [[[2]] * 8, tail], "tail": "repeat-last"}))
    return str(path)


@pytest.mark.parametrize("command", ["mu", "odometer", "towers"])
@pytest.mark.parametrize("source, pushes", [
    # L = given_depth - 1 = 1 and the period is 1, so at most L + 1 + 1 pushes
    (lambda tmp_path: E55, dict.fromkeys(["mu", "odometer", "towers"], range(4))),
    (circulant_tail, dict.fromkeys(["mu", "odometer", "towers"], range(4))),
    # Fibonacci heights never revisit.  Their ratios are all 1, so a walk
    # that keeps no vectors ends at the first rise of the sum past L + k = 3,
    # level 4; towers keeps the vectors and pushes every one of the 10000 levels
    (lambda tmp_path: str(tmp_path / "fibonacci.json"), {"mu": [4], "odometer": [4], "towers": [10000]}),
], ids=["example-5.5", "circulant-8", "fibonacci"])
def test_walk_replays_the_tail_after_its_first_revisit(monkeypatch, capsys, tmp_path, command, source, pushes):
    (tmp_path / "fibonacci.json").write_text(json.dumps(FIBONACCI))
    count = [0]
    mat_vec = brat.bratteli._mat_vec

    def counted(*args):
        count[0] += 1
        return mat_vec(*args)

    monkeypatch.setattr(brat.bratteli, "_mat_vec", counted)
    status, _, err = run(capsys, command, source(tmp_path), "--depth", "10000")
    # towers with a gcd past 4300 digits is refused as a limit
    assert status == 0 or json.loads(err)["error"]["type"] == "limit"
    assert count[0] in pushes[command]


def power_tower(tmp_path, first, second):
    """A one-vertex diagram whose level-2 height is 10**(first + second)."""
    path = tmp_path / "powers.json"
    path.write_text(json.dumps({"levels": [1, 1, 1], "matrices": [[[10**first]], [[10**second]]]}))
    return str(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80) | st.fractions()
    | st.floats() | st.text() | st.just(export_dot(get_entry("example-5.5").payload, 3)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=16)
ROWS = st.lists(st.lists(JSON_VALUES, max_size=3) | st.lists(st.lists(JSON_VALUES, max_size=2), max_size=2),
                max_size=12)


@settings(max_examples=300)
@given(st.dictionaries(st.text(), JSON_VALUES | ROWS, min_size=1, max_size=4))
def test_json_pieces_join_to_the_one_shot_encoding(payload):
    assert "".join(brat.cli._json_pieces(payload)) == json.dumps(payload, default=str) + "\n"


def test_answer_at_the_digit_limit_prints(capsys, tmp_path):
    # 10**4299 has 4300 digits, the most Python converts by default
    status, out, err = run(capsys, "towers", power_tower(tmp_path, 2150, 2149), "--depth", "2")
    assert (status, err) == (0, "")
    assert out == json.dumps({"depth": 2, "heights": [[1], [10**2150], [10**4299]],
                              "gcds": [1, 10**2150, 10**4299], "ratios": [10**2150, 10**2149]}) + "\n"


def test_answer_past_the_digit_limit_is_refused_as_a_limit(capsys, tmp_path):
    status, out, err = run(capsys, "towers", power_tower(tmp_path, 2150, 2150), "--depth", "2")
    assert (status, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "limit", "message": (
        "the answer holds an integer of more than 4300 digits, Python's int-to-str limit "
        "(sys.get_int_max_str_digits)")}}


def test_no_digit_limit_prints_past_4300_digits(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "brat", "towers", power_tower(tmp_path, 2150, 2150),
                           "--depth", "2"], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONINTMAXSTRDIGITS="0"))
    power = "1" + "0" * 2150
    top = "1" + "0" * 4300
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ('{"depth": 2, "heights": [[1], [%s], [%s]], "gcds": [1, %s, %s], '
                           '"ratios": [%s, %s]}\n' % (power, top, power, top, power, power))


def test_heights_past_the_digit_limit_are_refused_when_every_gcd_is_one(capsys, tmp_path):
    # h_3 = (10**4400 + 10**2200 + 1, 10**2200 + 1) has coprime entries, so
    # only the encoding of the heights meets the limit, before any write
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps({"levels": [1, 2, 2], "matrices": [[[1], [1]], [[10**2200, 1], [1, 0]]],
                                "tail": "repeat-last"}))
    status, out, err = run(capsys, "towers", str(path), "--depth", "3")
    assert (status, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "limit"
    assert run(capsys, "towers", str(path), "--depth", "2")[0] == 0


def test_deep_towers_are_refused_at_the_digit_limit_under_the_memory_cap():
    # 3**9013 is the first gcd past 4300 digits; the larger ones are never built
    proc = capped_brat("towers", E55, "--depth", "100000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {"error": {"type": "limit", "message": (
        "the answer holds an integer of more than 4300 digits, Python's int-to-str limit "
        "(sys.get_int_max_str_digits)")}}


def parsed(capsys, parse, argv):
    """(exit status or SystemExit code, stdout, stderr) of `parse(argv)`."""
    try:
        status = parse(argv)
    except SystemExit as exc:
        status = ("exit", exc.code)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("row", brat.cli._COMMANDS, ids=lambda row: row.name)
def test_one_command_parser_renders_the_full_parsers_help(capsys, row):
    # a request that names one command and asks for help is not plain: the
    # full parser prints that command's help
    full = parsed(capsys, brat.cli.build_parser().parse_args, [row.name, "-h"])
    assert full[0] == ("exit", 0) and full[1].startswith("usage: brat %s " % row.name)
    assert brat.cli._plain_args([row.name, "-h"]) is None
    assert parsed(capsys, main, [row.name, "-h"]) == full


HELP_AND_ERRORS = [
    [], ["-h"], ["--help"], ["bogus"], ["--depth", "3", "mu", "x"], ["mu"],
    ["mu", E55, "--bogus"], ["mu", E55, "--depth", "x"], ["mu", E55],
    *([row.name, "-h"] for row in brat.cli._COMMANDS),
    ["mu", E55, "--dep", "3"], ["mu", E55, "--depth=3"], ["mu", E55, "--depth", "3", "--depth", "4"],
    ["group", "rsub", "catalog:cone-2-3-unit-2", "--g", "-3"],
    ["group", "rsub", "catalog:quadratic-sqrt2", "--g=1/2,0"],
    ["sn", "mul", "{}", "-h"], ["catalog", "example-5.5", "findim-4-6"], ["premorphism", E55, "--verify=1"],
]


def test_main_reads_sys_argv_when_given_no_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["brat", "mu", E55])
    assert (main(), *capsys.readouterr()) == (0, '{"mu": {"3": "inf"}, "exactness": "certified"}\n', "")


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_main_answers_as_with_the_full_parser(monkeypatch, capsys, argv):
    answer = parsed(capsys, main, argv)
    monkeypatch.setattr(brat.cli, "_plain_args", lambda argv: None)
    assert parsed(capsys, main, argv) == answer


# `brat -h`, then `brat <command> -h` for each row, at COLUMNS=80, each after a "$ brat ..." line
_HELP = re.split(r"^\$ brat (.*)\n", (Path(__file__).parent / "help_goldens.txt").read_text(encoding="utf-8"),
                 flags=re.M)
HELP_GOLDENS = dict(zip(_HELP[1::2], _HELP[2::2]))
# from Python 3.13 argparse ends the command list's usage line with its "..."
_HELP_313 = HELP_GOLDENS.pop("-h (Python 3.13+)")
if sys.version_info >= (3, 13):
    HELP_GOLDENS["-h"] = _HELP_313


def test_help_goldens_name_every_command():
    assert list(HELP_GOLDENS) == ["-h", *("%s -h" % row.name for row in brat.cli._COMMANDS)]


@pytest.mark.parametrize("argv", HELP_GOLDENS)
def test_help_golden(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(capsys, main, argv.split()) == (("exit", 0), HELP_GOLDENS[argv], "")


def test_help_describes_brat_by_the_first_docstring_line(capsys):
    status, out, err = parsed(capsys, main, ["-h"])
    assert (status, err) == (("exit", 0), "")
    assert "\n\n%s\n\n" % brat.cli.__doc__.splitlines()[0] in out


OPTION_NAMES = sorted({name for row in brat.cli._COMMANDS for name, _ in row.arguments if name.startswith("-")})
@pytest.mark.parametrize("argv", [
    ("theta", E55, "--x=--"),
    ("embed", E55, "--uhf=--"),
    ("telescope", E55, "--cuts=--"),
], ids=lambda argv: argv[0])
def test_an_option_given_as_equals_dash_dash_is_refused(capsys, argv):
    # argparse stores `--name=--` as [] before Python 3.13 and as "--" from 3.13 on
    option = argv[-1][:-3]
    assert run(capsys, *argv) == (2, "", '{"error": {"type": "input", "message": '
                                          '"argument %s: expected one argument"}}\n' % option)


VALUES = ["-3", "-1/3", "--", "-", "", "-h", "5_0", "٣", "3", "0", "1,2", "1/2,0", "json", "dot", "x",
          E55, "{}", *(choice for row in brat.cli._COMMANDS for _, spec in row.arguments
                       for choice in spec.get("choices", ()))]


@st.composite
def argvs(draw):
    """A command name, or a stray word; then some of the row's own options, each
    as `--name value` or `--name=value` with a value that often fits its type,
    a few bare words, and at most one stray option, all shuffled."""
    row = draw(st.sampled_from(brat.cli._COMMANDS))
    tokens = []
    for name, spec in row.arguments:
        fits = ["3", "0", "5_0", "٣", "-3"] if spec.get("type") is int else list(spec.get("choices", [E55]))
        v = draw(st.sampled_from(VALUES) | st.sampled_from(fits))
        if name.startswith("-") and draw(st.sampled_from([True, True, False])):
            tokens.append(draw(st.sampled_from([[name, v], [name + "=" + v]])))
        elif not name.startswith("-"):
            tokens.append([v])
    tokens += draw(st.lists(st.sampled_from(VALUES).map(lambda v: [v]), max_size=2))
    stray, v = draw(st.sampled_from(OPTION_NAMES + ["--dep", "--ver", "-h", "--"])), draw(st.sampled_from(VALUES))
    tokens += draw(st.sampled_from([[], [[stray]], [[stray, v]], [[stray + "=" + v]]]))
    head = draw(st.sampled_from([row.name] * 8 + ["bogus", "-h", ""]))
    return [head, *(token for group in draw(st.permutations(tokens)) for token in group)]


@settings(max_examples=1000)
@given(argvs())
@example(["theta", E55, "--x=--"])  # argparse stores [] or "--" for x, by version
def test_plain_args_are_what_argparse_returns(argv):
    plain = brat.cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(brat.cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("workload", ["cold-cli", "diagram-sweep", "arith-sweep"])
@pytest.mark.parametrize("seed", [41, 97])
def test_every_workload_request_is_plain(monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    requests = workloads.build(workload, seed).requests
    assert requests and [r.argv for r in requests if brat.cli._plain_args(list(r.argv)) is None] == []
