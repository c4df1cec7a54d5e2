import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import brat.bratteli
import brat.supernatural
from brat.bratteli import (
    CERTIFIED,
    REPEAT_LAST,
    TRUNCATED,
    BratteliDiagram,
    DiagramError,
    MuResult,
    Premorphism,
    TowerProfile,
    canonical_premorphism,
    divide_element,
    k0_unit_divisor,
    maximal_uhf,
    odometer,
    rational_subgroup_witness,
    scale_unit_stage,
    telescope,
    tower_profile,
    uhf_diagram,
    uhf_embeds,
    verify_premorphism,
)
from brat.catalog import get_entry
from brat.supernatural import OMEGA, SupernaturalNumber
from gen import diagrams, random_diagram, supernaturals
from oracles import (
    edge_walk_heights,
    enumerated_path_heights,
    naive_ell,
    reference_divide,
    reference_first_revisit,
    reference_mu,
    reference_odometer_tail,
    reference_rsub,
    reference_walk_end,
    stabilization_stage,
)

E55 = get_entry("example-5.5").payload
FINDIM = get_entry("findim-4-6").payload

N3W = SupernaturalNumber({3: OMEGA})


def push(diagram, entries, stage, to_stage):
    v = tuple(entries)
    for n in range(stage + 1, to_stage + 1):
        m = diagram.matrix_at(n)
        v = tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)
    return v


def violations_of(*fields, **named):
    """The broken rules that building BratteliDiagram(*fields, **named) refuses."""
    with pytest.raises(DiagramError) as info:
        BratteliDiagram(*fields, **named)
    found = info.value.violations
    assert found and str(info.value) == "invalid diagram: " + found[0].message
    return found


class TestValidation:
    def test_trivial_diagram_is_valid(self):
        assert BratteliDiagram((1,), ()).given_depth == 0

    def test_catalog_diagrams_are_valid(self):
        # building validates, so a diagram that breaks a rule never exists
        for diagram in (E55, FINDIM):
            assert BratteliDiagram(diagram.levels, diagram.matrices, diagram.tail) == diagram
        assert not hasattr(BratteliDiagram, "check")

    def test_root_violation(self):
        kinds = [v.kind for v in violations_of((2, 2), (((1, 0), (0, 1)),))]
        assert kinds == ["root"]

    def test_matrix_count_mismatch_reported_once(self):
        found = violations_of((1, 2), ())
        assert len(found) == 1 and found[0].kind == "shape"

    def test_empty_levels_break_only_the_root_rule(self):
        root = brat.bratteli.Violation("root", 0, None, "level 0 must hold exactly one vertex")
        assert violations_of((), ()) == [root]
        assert violations_of((), (((1,),),), REPEAT_LAST) == [root]

    def test_matrix_shape(self):
        v = violations_of((1, 2), (((1,),),))[0]
        assert (v.kind, v.level) == ("shape", 1)

    def test_ragged_matrix_with_the_right_row_count(self):
        assert violations_of((1, 2), (((1,), (1, 1)),)) == [
            brat.bratteli.Violation("shape", 1, None, "matrix 1 must be 2x1")]

    def test_negative_entry(self):
        v = violations_of((1, 1), (((-1,),),))[0]
        assert (v.kind, v.level, v.position) == ("entry", 1, 0)

    def test_zero_row(self):
        v = violations_of((1, 2, 2), (((1,), (1,)), ((0, 0), (1, 1))))[0]
        assert (v.kind, v.level, v.position) == ("zero-row", 2, 0)

    def test_zero_column(self):
        v = violations_of((1, 2, 2), (((1,), (1,)), ((1, 0), (1, 0))))[0]
        assert (v.kind, v.level, v.position) == ("zero-column", 2, 1)

    def test_tail_needs_square_last_matrix(self):
        assert [v.kind for v in violations_of((1, 2), (((1,), (1,)),), tail=REPEAT_LAST)] == ["tail"]

    def test_tail_needs_a_matrix(self):
        assert [v.kind for v in violations_of((1,), (), tail=REPEAT_LAST)] == ["tail"]

    def test_bad_tail_string_rejected_eagerly(self):
        with pytest.raises(ValueError):
            BratteliDiagram((1,), (), tail="loop")

    def test_construction_raises_on_first_violation(self):
        with pytest.raises(DiagramError, match="^invalid diagram: vertex 0 at level 2 receives no edge$") as info:
            BratteliDiagram((1, 2, 2), (((1,), (1,)), ((0, 0), (1, 1))))
        assert [v.kind for v in info.value.violations] == ["zero-row"]

    def test_non_integer_entries_rejected(self):
        with pytest.raises(ValueError):
            BratteliDiagram((1, 1), (((1.5,),),))

    def test_width_zero_level_is_a_zero_column(self):
        # a 0 x 1 matrix has no rows, and its one column is empty
        assert violations_of((1, 0), ((),)) == [brat.bratteli.Violation(
            "zero-column", 1, 0, "vertex 0 at level 0 emits no edge")]
        below = violations_of((1, 0, 1), ((), ((),)))
        assert [(v.kind, v.level) for v in below] == [("zero-column", 1), ("zero-row", 2)]

    @pytest.mark.parametrize("lookup, message", [
        (lambda: FINDIM.width_at(2), "level 2 exceeds the 1 levels of a finite diagram"),
        (lambda: FINDIM.matrix_at(2), "level 2 exceeds the 1 levels of a finite diagram"),
        (lambda: E55.matrix_at(0), "matrix index must be >= 1, got 0"),
    ], ids=["width-past-the-end", "matrix-past-the-end", "matrix-zero"])
    def test_lookups_outside_the_diagram_are_refused(self, lookup, message):
        with pytest.raises(DiagramError) as info:
            lookup()
        assert str(info.value) == message

    def test_first_bad_cell_or_row_decides_the_error(self):
        with pytest.raises(ValueError, match="^matrix entries must be integers, got 'x'$"):
            BratteliDiagram((1, 2), (([1, "x"], 5),))
        with pytest.raises(ValueError, match="^each matrix must be a list of rows of integers$"):
            BratteliDiagram((1, 2), ((5, [1, "x"]),))
        with pytest.raises(ValueError, match="^matrix entries must be integers, got True$"):
            BratteliDiagram((1, 1), (([True],),))

    @given(diagrams())
    def test_generated_diagrams_are_valid(self, diagram):
        # the strategy builds each diagram, and building validates it
        assert BratteliDiagram(diagram.levels, diagram.matrices, diagram.tail) == diagram

    def test_serialization_round_trip(self):
        for diagram in (E55, FINDIM, BratteliDiagram((1,), ())):
            data = diagram.to_data()
            assert BratteliDiagram.from_data(data) == diagram
        assert E55.to_data()["tail"] == REPEAT_LAST
        assert FINDIM.to_data()["tail"] == "none"
        assert BratteliDiagram.from_data({"levels": [1], "matrices": [], "tail": "none"}).tail is None

    def test_from_data_rejects_garbage(self):
        with pytest.raises(ValueError):
            BratteliDiagram.from_data([1, 2])
        with pytest.raises(ValueError):
            BratteliDiagram.from_data({"levels": [1]})


class TestTowerProfile:
    def test_example_heights(self):
        profile = tower_profile(E55, 4)
        assert profile.heights == ((1,), (1, 1), (3, 3), (9, 9), (27, 27))
        assert profile.gcds == (1, 1, 3, 9, 27)
        assert profile.ratios == (1, 3, 3, 3)
        assert profile.depth == 4

    def test_walked_profile_keeps_the_record_contract(self):
        # the fields are what the walk computed: the levels up to the first
        # revisit n_2 = n_1, the period and the depth asked for; ratios,
        # vectors, heights and gcds are derived on first read and are no fields
        built = TowerProfile((1, 3), ((1,), (1, 1), (1, 1)), 1, 3)
        walked = tower_profile(E55, 3)
        assert TowerProfile._fields == ("walked", "kept", "period", "depth")
        assert walked.depth == 3 and not {"ratios", "vectors", "heights"} & set(vars(walked))
        assert walked == built and hash(walked) == hash(built) and repr(walked) == repr(built)
        assert pickle.loads(pickle.dumps(tower_profile(E55, 3))) == built
        assert walked.ratios == (1, 3, 3)
        assert walked.vectors == ((1,), (1, 1), (1, 1), (1, 1))
        assert walked.heights == ((1,), (1, 1), (3, 3), (9, 9))
        assert walked.gcds == (1, 1, 3, 9)
        with pytest.raises(AttributeError):
            walked.bogus
        with pytest.raises(AttributeError):
            walked.period = None
        with pytest.raises(AttributeError):
            walked.heights = ()

    def test_period_says_certified_and_exponent_reads_each_prime(self):
        # the period (2, 1) carries its 2 in its first ratio, not its last
        swap = BratteliDiagram((1, 2, 2), (((1,), (2,)), ((0, 1), (2, 0))), REPEAT_LAST)
        profile = tower_profile(swap, 10, keep=False)
        assert (profile.walked, profile.period) == ((1, 2, 1), 2)
        assert [profile.exponent(p) for p in (2, 3)] == [OMEGA, 0]
        assert [profile.divides(n) for n in (2**70, 3, 2**70 * 3)] == [True, False, False]
        assert maximal_uhf(swap, 10) == MuResult(SupernaturalNumber({2: OMEGA}), CERTIFIED)
        # a finite diagram walked to its end has period 0; one cut short, None
        walks = tower_profile(FINDIM, 1), tower_profile(FINDIM, 0)
        assert [(walk.period, walk.exponent(2)) for walk in walks] == [(0, 1), (None, 0)]
        assert [(walk.divides(2), walk.divides(4)) for walk in walks] == [(True, False), (False, False)]

    def test_findim(self):
        profile = tower_profile(FINDIM, 1)
        assert profile.heights == ((1,), (4, 6))
        assert profile.gcds == (1, 2)

    def test_depth_validation(self):
        with pytest.raises(DiagramError):
            tower_profile(FINDIM, 2)
        with pytest.raises(DiagramError):
            tower_profile(E55, -1)
        with pytest.raises(DiagramError):
            tower_profile(E55, True)
        tower_profile(E55, 40)  # infinite tail, any depth is fine
        with pytest.raises(OverflowError):  # the walk stops at its revisit, but no tuple holds 10**20 ratios
            tower_profile(E55, 10**20).ratios

    def test_invalid_diagram_refused(self):
        with pytest.raises(DiagramError):  # as it is built, so no walk starts
            tower_profile(BratteliDiagram((2,), ()), 0)

    @given(diagrams(max_width=3, max_depth=3, max_entry=2))
    def test_heights_match_path_enumeration(self, diagram):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        profile = tower_profile(diagram, depth)
        assert enumerated_path_heights(diagram, depth) == profile.heights
        assert edge_walk_heights(diagram, depth) == profile.heights

    @given(diagrams())
    def test_gcd_chain_divides(self, diagram):
        depth = diagram.given_depth + (3 if diagram.is_infinite else 0)
        profile = tower_profile(diagram, depth)
        for n in range(1, depth + 1):
            assert profile.gcds[n] == profile.gcds[n - 1] * profile.ratios[n - 1]
            assert math.gcd(*profile.heights[n]) == profile.gcds[n]


# The three tails that step C of the exact tail decision needs (levels [1, 3, 3]):
# the head u = h_1, the tail A, the minimal polynomial f of u under A from x^2 down,
# the prime that gets exponent OMEGA, and the walk's truncated mu at depths 16, 40,
# 80 and 160.  The prime divides every non-leading coefficient of f, so v_p(g_n)
# grows without bound, yet the walk never revisits a primitive height.
STEP_C_TAILS = [
    ((2, 2, 3), ((1, 4, 1), (2, 3, 1), (3, 2, 3)), (1, -8, 10), 2,
     ({2: 7}, {2: 19}, {2: 39}, {2: 79})),
    ((1, 1, 1), ((3, 3, 0), (1, 0, 3), (2, 3, 1)), (1, -3, -12), 3,
     ({2: 1, 3: 7}, {2: 1, 3: 19}, {2: 1, 3: 39}, {2: 1, 3: 79})),
    ((1, 1, 1), ((2, 0, 4), (0, 1, 1), (0, 2, 0)), (1, -4, 4), 2,
     ({2: 15}, {2: 39}, {2: 79}, {2: 159})),
]


class TestMaximalUhf:
    def test_example_certifies_from_depth_two(self):
        r1 = maximal_uhf(E55, 1)
        assert (r1.value, r1.exactness) == (SupernaturalNumber(), TRUNCATED)
        for depth in (2, 3, 4, 16):
            r = maximal_uhf(E55, depth)
            assert r.value == N3W
            assert r.exactness == CERTIFIED

    def test_finite_diagram_certified_when_consumed(self):
        r = maximal_uhf(FINDIM, 1)
        assert r.value == SupernaturalNumber({2: 1})
        assert r.exactness == CERTIFIED
        r0 = maximal_uhf(FINDIM, 0)
        assert (r0.value, r0.exactness) == (SupernaturalNumber(), TRUNCATED)

    def test_non_cycling_tail_stays_truncated(self):
        drift = BratteliDiagram((1, 2, 2), (((1,), (1,)), ((1, 1), (0, 1))), tail=REPEAT_LAST)
        for depth in (2, 6, 12):
            r = maximal_uhf(drift, depth)
            assert r.exactness == TRUNCATED
            assert r.value == SupernaturalNumber()

    @pytest.mark.parametrize("u, tail, _, prime, mus", STEP_C_TAILS)
    def test_step_c_tails_stay_truncated(self, u, tail, _, prime, mus):
        # the exact per-prime tail decision (ROADMAP item 1, step B or C) flips
        # each answer to certified with `prime` at OMEGA; until then the
        # exponent only rises with the depth
        diagram = BratteliDiagram((1, 3, 3), (tuple((x,) for x in u), tail), REPEAT_LAST)
        results = [maximal_uhf(diagram, depth) for depth in (16, 40, 80, 160)]
        assert [(r.value, r.exactness) for r in results] == [(SupernaturalNumber(mu), TRUNCATED) for mu in mus]
        exponents = [r.value.exponent(prime) for r in results]
        assert exponents == sorted(set(exponents))

    @pytest.mark.parametrize("u, tail, coefficients, prime, _", STEP_C_TAILS)
    def test_step_c_tails_minimal_polynomial(self, u, tail, coefficients, prime, _):
        import sympy
        a, krylov = sympy.Matrix(tail), [sympy.Matrix(u)]
        while not sympy.Matrix.hstack(*krylov).nullspace():
            krylov.append(a * krylov[-1])
        kernel = sympy.Matrix.hstack(*krylov).nullspace()[0]
        # the first dependent Krylov vector has coefficient 1 in f
        assert tuple(c / kernel[-1] for c in reversed(kernel)) == coefficients
        assert all(c % prime == 0 for c in coefficients[1:])

    def test_growing_tail_with_cycle(self):
        doubling = BratteliDiagram((1, 1), (((2,),),), tail=REPEAT_LAST)
        r = maximal_uhf(doubling, 5)
        assert r.value == SupernaturalNumber({2: OMEGA})
        assert r.exactness == CERTIFIED

    @given(diagrams(), st.integers(0, 3))
    def test_truncation_divides_deeper_value(self, diagram, extra):
        base = diagram.given_depth if not diagram.is_infinite else diagram.given_depth + extra
        shallow = maximal_uhf(diagram, max(base - 1, 0))
        deep = maximal_uhf(diagram, base)
        assert shallow.value.divides(deep.value)

    @given(diagrams(), st.integers(1, 4))
    def test_certified_value_is_stable(self, diagram, extra):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        result = maximal_uhf(diagram, depth)
        if result.exactness != CERTIFIED or not diagram.is_infinite:
            return
        later = maximal_uhf(diagram, depth + extra)
        assert later == result

    @settings(max_examples=80)
    @given(diagrams(max_width=3, max_depth=6, max_entry=6), st.integers(0, 20))
    def test_matches_gcd_factorization_oracle(self, diagram, depth):
        if not diagram.is_infinite:
            depth = min(depth, diagram.given_depth)
        result = maximal_uhf(diagram, depth)
        assert (result.value, result.exactness) == reference_mu(diagram, depth)

    def test_factorizes_nothing_wider_than_a_ratio(self, monkeypatch):
        # the gcd at depth 40 is 2 * p**39, 779 bits; no ratio exceeds p
        seen = []

        def recording(real):
            def factorize(n):
                seen.append(n)
                return real(n)
            return factorize

        for module in (brat.bratteli, brat.supernatural):
            monkeypatch.setattr(module, "factorize", recording(module.factorize))
        p = 1000003
        diagram = BratteliDiagram((1, 2, 2), (((6,), (10,)), ((p, 0), (0, p))), REPEAT_LAST)
        assert maximal_uhf(diagram, 40) == MuResult(SupernaturalNumber({2: 1, p: OMEGA}), CERTIFIED)
        assert seen and max(n.bit_length() for n in seen) <= p.bit_length() == 20

    def test_embed_factorizes_nothing_and_asks_no_mu(self, monkeypatch):
        # uhf_embeds reads the walk's record at the number's own primes
        p = 1000003
        diagram = BratteliDiagram((1, 2, 2), (((6,), (10,)), ((p, 0), (0, p))), REPEAT_LAST)
        numbers = [SupernaturalNumber(e) for e in ({2: 1, p: OMEGA}, {2: 2}, {3: 1, p: 5})]
        calls = []

        def recording(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for module in (brat.bratteli, brat.supernatural):
            monkeypatch.setattr(module, "factorize", recording("factorize", module.factorize))
        monkeypatch.setattr(brat.bratteli, "maximal_uhf", recording("maximal_uhf", brat.bratteli.maximal_uhf))
        assert [uhf_embeds(n, diagram, 40) for n in numbers] == ["yes", "no-certified", "no-certified"]
        assert [uhf_embeds(n, diagram, 1) for n in numbers] == ["no-within-depth"] * 3
        assert calls == []


class TestOdometer:
    def test_example(self):
        odo = odometer(E55, 4)
        assert odo.levels == (1, 1, 1, 1, 1)
        assert odo.matrices == (((1,),), ((3,),), ((3,),), ((3,),))
        assert odo.tail == REPEAT_LAST

    def test_depth_zero(self):
        odo = odometer(E55, 0)
        assert odo == BratteliDiagram((1,), ())

    def test_finite_diagram_odometer_is_finite(self):
        odo = odometer(FINDIM, 1)
        assert odo == BratteliDiagram((1, 1), (((2,),),))

    def test_long_cycles_cannot_repeat_last(self):
        # ratios alternate 1, 2, 1, 2 under this tail: a 2-cycle, so a
        # repeat-last tail on the odometer would lie
        flip = BratteliDiagram((1, 2, 2), (((1,), (2,)), ((0, 2), (1, 0))), tail=REPEAT_LAST)
        profile = tower_profile(flip, 6)
        assert profile.ratios[2:6] != (profile.ratios[2],) * 4
        odo = odometer(flip, 6)
        assert odo.tail is None
        assert maximal_uhf(flip, 6).exactness == CERTIFIED

    @given(diagrams(), st.integers(0, 2))
    def test_idempotent(self, diagram, extra):
        depth = diagram.given_depth + (extra if diagram.is_infinite else 0)
        once = odometer(diagram, depth)
        assert odometer(once, depth) == once

    @given(diagrams())
    def test_odometer_tracks_the_invariant(self, diagram):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        original = maximal_uhf(diagram, depth)
        odo = odometer(diagram, depth)
        through = maximal_uhf(odo, depth)
        assert through.value.divides(original.value)
        if odo.is_infinite:
            # a constant-ratio tail carries the full invariant across
            assert through.value == original.value


class TestTailPeriod:
    # the tail starts at level L = 3 with h_3 = (3, 6, 9); the tail matrix
    # sends (x, y, z) to (2z, 5x, y), so its cube is 10 times the identity
    # and the normalized heights cycle with period 3
    LATE = BratteliDiagram(
        (1, 1, 2, 3, 3),
        (((3,),), ((1,), (1,)), ((1, 0), (1, 1), (1, 2)), ((0, 0, 2), (5, 0, 0), (0, 1, 0))),
        REPEAT_LAST,
    )
    RATIOS = (3, 1, 1, 1, 1, 10, 1, 1, 10, 1)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5])
    def test_truncated_until_the_first_revisit(self, depth):
        expected = SupernaturalNumber({3: 1} if depth else {})
        assert maximal_uhf(self.LATE, depth) == MuResult(expected, TRUNCATED)

    @pytest.mark.parametrize("depth", [6, 7, 8, 9, 10, 11])
    def test_certified_from_one_period_on(self, depth):
        # each window of three ratios holds one 10, whatever the phase
        expected = SupernaturalNumber({2: OMEGA, 3: 1, 5: OMEGA})
        assert maximal_uhf(self.LATE, depth) == MuResult(expected, CERTIFIED)

    @pytest.mark.parametrize("depth", [0, 2, 3, 5, 6, 9, 10])
    def test_odometer_never_repeats_a_period_three_tail(self, depth):
        assert odometer(self.LATE, depth) == BratteliDiagram(
            (1,) * (depth + 1), tuple(((r,),) for r in self.RATIOS[:depth]))

    def test_telescoping_by_the_period_gives_a_constant_tail(self):
        cut = telescope(self.LATE, (3, 6))
        assert cut.matrix_at(2) == ((10, 0, 0), (0, 10, 0), (0, 0, 10))
        assert odometer(cut, 1).tail is None
        assert odometer(cut, 2) == BratteliDiagram((1, 1, 1), (((3,),), ((10,),)), REPEAT_LAST)
        assert maximal_uhf(cut, 2) == maximal_uhf(self.LATE, 6)

    @settings(max_examples=80)
    @given(diagrams(max_width=3, max_depth=4, max_entry=3), st.integers(0, 20))
    def test_odometer_tail_matches_first_revisit_oracle(self, diagram, depth):
        if not diagram.is_infinite:
            depth = min(depth, diagram.given_depth)
        assert odometer(diagram, depth).tail == reference_odometer_tail(diagram, depth)


@st.composite
def revisiting_diagrams(draw):
    """The period-3 tail, a random diagram continued by a P*I tail, or a
    random diagram, whose tail rarely revisits."""
    kind = draw(st.sampled_from(("period-3", "scalar", "random")))
    if kind == "period-3":
        return TestTailPeriod.LATE
    base = draw(diagrams(max_width=3, max_depth=3, max_entry=3))
    if kind == "random":
        return base
    p, w = draw(st.sampled_from((2, 3, 5, 7))), base.levels[-1]
    scalar = tuple(tuple(p if i == j else 0 for j in range(w)) for i in range(w))
    return BratteliDiagram(base.levels + (w,), base.matrices + (scalar,), REPEAT_LAST)


def clamped(diagram, depth):
    return depth if diagram.is_infinite else min(depth, diagram.given_depth)


FIBONACCI = BratteliDiagram((1, 2, 2), (((1,), (1,)), ((1, 1), (1, 0))), REPEAT_LAST)
THREE_ONE = BratteliDiagram((1, 2, 2), (((1,), (1,)), ((3, 1), (1, 1))), REPEAT_LAST)
# level 1 is 2 * (1, ..., 1) and every row of the circulant sums to 11
CIRCULANT = BratteliDiagram((1, 8, 8), (((2,),) * 8, tuple(
    tuple((3, 1, 0, 2, 1, 0, 1, 3)[(j - i) % 8] for j in range(8)) for i in range(8))), REPEAT_LAST)


# levels [1, 2, 2] with a singular tail: n_1 = (1, 2) lies off the line of
# im A, and n_2 = n_3 = (1, 1), so the first revisit is s = L + 1 = 2, t = 3
SINGULAR = BratteliDiagram((1, 2, 2), (((1,), (2,)), ((1, 1), (1, 1))), REPEAT_LAST)
# a singular 4-wide tail whose first revisit is s = L + 3 = 4, t = 5
LATE_SINGULAR = BratteliDiagram((1, 4, 4), (((1,), (1,), (1,), (2,)), (
    (1, 0, 0, 1), (2, 0, 0, 2), (0, 1, 2, 0), (2, 0, 2, 0))), REPEAT_LAST)


@st.composite
def singular_tails(draw):
    """A k-wide repeating tail, 1 <= k <= 4, after a head of one or two
    levels; the entries are drawn from 0, 0, 1, 1, 2, 3, so many tails are
    singular."""
    k = draw(st.integers(1, 4))
    square = st.lists(st.lists(st.sampled_from((0, 0, 1, 1, 2, 3)), min_size=k, max_size=k),
                      min_size=k, max_size=k).filter(lambda m: all(map(any, m)) and all(map(any, zip(*m))))
    column = st.lists(st.tuples(st.integers(1, 3)), min_size=k, max_size=k)
    matrices = [draw(column), *draw(st.lists(square, min_size=1, max_size=2))]
    return BratteliDiagram((1,) + (k,) * len(matrices), tuple(matrices), REPEAT_LAST)


def window_size(diagram, depth):
    """How many tail vectors `tower_profile`'s index holds when its walk returns."""
    sizes, previous = [], sys.gettrace()

    def local(frame, event, arg):
        if event == "return":
            sizes.append(len(frame.f_locals["window"]))
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is tower_profile.__code__ else None)
    try:
        tower_profile(diagram, depth, keep=False)
    finally:
        sys.settrace(previous)
    return sizes.pop()


class TestRevisitIndex:
    """The walk looks each tail vector up, exactly, among the k+1 levels
    L..L+k of a k-wide tail, where the first revisit's s lies by Fitting's
    lemma, whether the walk keeps its vectors or not."""

    @pytest.mark.parametrize("diagram, period, mu", [
        (E55, 1, MuResult(N3W, CERTIFIED)),
        (CIRCULANT, 1, MuResult(SupernaturalNumber({2: 1, 11: OMEGA}), CERTIFIED)),
        (FIBONACCI, None, MuResult(SupernaturalNumber(), TRUNCATED)),
        (THREE_ONE, None, MuResult(SupernaturalNumber({2: 15}), TRUNCATED)),
        (TestTailPeriod.LATE, 3, MuResult(SupernaturalNumber({2: OMEGA, 3: 1, 5: OMEGA}), CERTIFIED)),
    ], ids=["example-5.5", "circulant-8", "fibonacci", "3-1-1-1", "period-3"])
    def test_known_tails_keep_their_period_and_mu(self, diagram, period, mu):
        depth = 30
        revisit = reference_first_revisit(diagram, depth)
        assert tower_profile(diagram, depth).period == period == (revisit and revisit[1] - revisit[0])
        assert maximal_uhf(diagram, depth) == mu

    @pytest.mark.parametrize("diagram", [E55, CIRCULANT, FIBONACCI, THREE_ONE, TestTailPeriod.LATE, SINGULAR,
                                         LATE_SINGULAR],
                             ids=["example-5.5", "circulant-8", "fibonacci", "3-1-1-1", "period-3", "singular",
                                  "late-singular"])
    def test_index_holds_at_most_width_plus_one_vectors(self, diagram):
        assert window_size(diagram, 300) <= diagram.levels[-1] + 1

    @settings(max_examples=200)
    @given(singular_tails(), st.integers(0, 20))
    @example(SINGULAR, 8)
    @example(LATE_SINGULAR, 8)
    def test_first_revisit_lies_in_the_fitting_window(self, diagram, depth):
        # the oracle compares every pair of tail levels; its s never passes L + k
        profile = tower_profile(diagram, depth, keep=False)
        revisit = reference_first_revisit(diagram, depth)
        if revisit is None:
            # the walk's end, or the depth when the window's ratios are not all 1 or the sums never rise
            assert (profile.period, len(profile.walked)) == (None, reference_walk_end(diagram, depth))
        else:
            s, t = revisit
            assert (profile.period, len(profile.walked)) == (t - s, t)
            assert s <= diagram.given_depth - 1 + diagram.levels[-1]

    def test_singular_tail_revisits_past_its_first_tail_level(self):
        assert reference_first_revisit(SINGULAR, 8) == (2, 3)
        profile = tower_profile(SINGULAR, 8, keep=False)
        assert (profile.walked, profile.period) == ((1, 3, 2), 1)
        result = maximal_uhf(SINGULAR, 8)
        assert (result.value.to_data(), result.exactness) == ({"2": "inf", "3": 1}, CERTIFIED)
        assert reference_first_revisit(LATE_SINGULAR, 8) == (4, 5)
        assert tower_profile(LATE_SINGULAR, 8).period == 1

    def test_walk_reads_no_hash_and_pushes_once(self, monkeypatch):
        pushes = []
        pushed = brat.bratteli._pushed
        monkeypatch.setattr(brat.bratteli, "_pushed", lambda *args: pushes.append(args) or pushed(*args))
        monkeypatch.setattr(brat.bratteli, "hash", None, raising=False)  # a call would raise TypeError
        assert tower_profile(LATE_SINGULAR, 30).period == 1
        assert tower_profile(FIBONACCI, 30).period is None
        assert len(pushes) == 2

    def test_a_walk_that_keeps_no_vectors_holds_only_its_window(self):
        # [[3, 1], [1, 1]] never revisits and its ratios alternate 1 and 2, so
        # the walk reaches the depth; beside the ratios it holds the window's
        # 3 vectors and the current one, not a key per level
        tracemalloc.start()
        try:
            walked = len(tower_profile(THREE_ONE, 30000, keep=False).walked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walked == 30000 and peak < 2 << 20

    @settings(max_examples=150)
    @given(st.one_of(revisiting_diagrams(), diagrams(max_width=4, max_depth=4, max_entry=3)),
           st.integers(0, 24))
    def test_vector_free_walk_matches_the_profile(self, diagram, depth):
        depth = clamped(diagram, depth)
        profile = tower_profile(diagram, depth)
        walked = tower_profile(diagram, depth, keep=False)
        assert (walked.ratios, walked.period) == (profile.ratios, profile.period)
        assert walked.vectors == walked.heights == ()
        # both readings of either walk are the public answers; a walk that
        # kept no vectors refuses a premorphism rather than give part of one
        assert walked.odometer() == profile.odometer() == odometer(diagram, depth)
        assert profile.premorphism() == canonical_premorphism(diagram, depth)
        with pytest.raises(ValueError):
            walked.premorphism()


@st.composite
def unimodular_tails(draw):
    """A k-wide repeating tail, 1 <= k <= 5, of determinant +-1: a permutation
    matrix with up to four columns added to others, so the content of A n
    divides det A and every tail ratio is 1.  Its head is one column, or a
    column and a square level.  A bare permutation keeps the sums constant,
    and with k = 5 its order can be 6, past the window."""
    k = draw(st.integers(1, 5))
    permutation = draw(st.permutations(range(k)))
    tail = [[int(j == permutation[i]) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 4)) if k > 1 else 0):
        source, target = draw(st.permutations(range(k)))[:2]
        for row in tail:
            row[target] += row[source]
    column = st.lists(st.tuples(st.integers(1, 3)), min_size=k, max_size=k)
    square = st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k).filter(
        lambda m: all(map(any, m)) and all(map(any, zip(*m))))
    head = [draw(column), *draw(st.lists(square, max_size=1))]
    return BratteliDiagram((1,) + (k,) * (len(head) + 1), (*head, tail), REPEAT_LAST)


# the tail swaps the two entries, so the sums stay constant: n_1 = (1, 2),
# n_2 = (2, 1) and n_3 = n_1, a revisit with period 2 and no prime
SWAP = BratteliDiagram((1, 2, 2), (((1,), (2,)), ((0, 1), (1, 0))), REPEAT_LAST)
# a 7-wide permutation tail with cycles of 3 and 4: the sums stay constant
# and the first revisit is s = L = 1, t = L + 12, past the window's L + 7
LONG_CYCLE = BratteliDiagram((1, 7, 7), (tuple((x,) for x in range(1, 8)), tuple(
    tuple(int(j == (i + 1) % 3 if i < 3 else j == 3 + (i - 2) % 4) for j in range(7)) for i in range(7))),
    REPEAT_LAST)


class TestWalkEnd:
    """A walk that keeps no vectors and whose window ratios r_{L+1} ...
    r_{L+k} are all 1 ends at the first rise of the sum past L + k, and
    reads as the oracles, which walk to the depth with no window."""

    @settings(max_examples=100)
    @given(unimodular_tails(), st.integers(0, 30))
    @example(FIBONACCI, 30)
    @example(SWAP, 30)
    @example(LONG_CYCLE, 30)
    def test_a_walk_that_gains_no_prime_reads_as_the_oracles(self, diagram, depth):
        profile = tower_profile(diagram, depth, keep=False)
        revisit = reference_first_revisit(diagram, depth)
        end = revisit[1] if revisit else reference_walk_end(diagram, depth)
        assert len(profile.walked) == end and profile.period == (revisit and revisit[1] - revisit[0])
        assert profile.ratios == tower_profile(diagram, depth).ratios
        result = maximal_uhf(diagram, depth)
        assert (result.value, result.exactness) == reference_mu(diagram, depth)
        assert odometer(diagram, depth).tail == reference_odometer_tail(diagram, depth)


class TestWalkAgainstOracles:
    """One walk per (diagram, depth), replayed past its first revisit,
    against oracles that push whole vectors one edge at a time."""

    @settings(max_examples=60)
    @given(revisiting_diagrams(), st.integers(0, 24))
    def test_profile_mu_odometer_and_premorphism(self, diagram, depth):
        depth = clamped(diagram, depth)
        heights = edge_walk_heights(diagram, depth)
        profile = tower_profile(diagram, depth)
        assert profile.heights == heights
        assert profile.gcds == tuple(math.gcd(*v) for v in heights)
        result = maximal_uhf(diagram, depth)
        assert (result.value, result.exactness) == reference_mu(diagram, depth)
        reduced = odometer(diagram, depth)
        assert reduced.tail == reference_odometer_tail(diagram, depth)
        premorphism = canonical_premorphism(diagram, depth)
        for n, column in enumerate(premorphism.matrices):
            # each column is the unit's heights divided by their gcd
            assert reference_rsub(diagram, [x for (x,) in column], n, n) == (
                Fraction(1, profile.gcds[n]), n)
        assert verify_premorphism(premorphism, reduced, diagram).ok

    @pytest.mark.parametrize("depth", [2, 3, 7, 40])
    def test_scalar_tail_past_its_revisit(self, depth):
        diagram = BratteliDiagram((1, 2, 2, 2), (((2,), (3,)), ((1, 1), (0, 1)), ((5, 0), (0, 5))),
                                  REPEAT_LAST)
        profile = tower_profile(diagram, depth)
        assert profile.heights == edge_walk_heights(diagram, depth)
        assert maximal_uhf(diagram, depth) == MuResult(*reference_mu(diagram, depth))
        assert odometer(diagram, depth).tail == reference_odometer_tail(diagram, depth)

    @settings(max_examples=60)
    @given(revisiting_diagrams(), st.integers(0, 12), st.integers(0, 3), st.integers(1, 36),
           st.sampled_from((0, 1, 2, 6)), st.integers(1, 99))
    def test_divide_k0_and_theta_match_full_vector_oracle(self, diagram, depth, stage, m, scale, seed):
        depth = clamped(diagram, depth)
        stage = min(stage, depth)
        rng = random.Random(seed)
        # scale 0 gives the zero vector, 2 and 6 a content above 1 at the stage
        entries = tuple(scale * rng.randint(0, 4) for _ in range(diagram.width_at(stage)))
        # besides m, a gcd reached only after several ratios multiply up
        d = rng.choice([m, math.gcd(*push(diagram, entries, stage, rng.randint(stage, depth))) or m])
        got = divide_element(diagram, entries, stage, d, depth)
        assert (got and (got.stage, got.entries)) == reference_divide(diagram, entries, stage, d, depth)
        m = rng.choice([m, rng.randint(1, 3) * math.gcd(*push(diagram, (1,), 0, rng.randint(0, depth)))])
        got = k0_unit_divisor(diagram, m, depth)
        expected = reference_divide(diagram, (1,), 0, m, depth)
        assert (got and (got.stage, got.entries)) == expected
        x = Fraction(seed, m)
        expected = reference_divide(diagram, (1,), 0, x.denominator, depth)
        if expected is None:
            with pytest.raises(ValueError):
                scale_unit_stage(diagram, x, depth)
        else:
            got = scale_unit_stage(diagram, x, depth)
            assert (got.stage, got.entries) == (expected[0], tuple(x.numerator * e for e in expected[1]))

    @pytest.mark.parametrize("entries, stage, m", [
        ((0, 0), 1, 7), ((6, 12), 1, 6), ((6, 12), 1, 9), ((2, 4), 2, 27), ((4, 6), 1, 4),
    ])
    def test_divide_zero_and_non_primitive_vectors(self, entries, stage, m):
        got = divide_element(E55, entries, stage, m, 8)
        assert (got and (got.stage, got.entries)) == reference_divide(E55, entries, stage, m, 8)

    @settings(max_examples=60)
    @given(revisiting_diagrams(), st.integers(0, 12), st.integers(0, 3), st.integers(1, 99))
    def test_rsub_with_negative_entries_matches_oracle(self, diagram, depth, stage, seed):
        depth = clamped(diagram, depth)
        stage = min(stage, depth)
        rng = random.Random(seed)
        width = diagram.width_at(stage)
        entries = rng.choice([
            tuple(rng.randint(-4, 4) for _ in range(width)),
            tuple(-rng.randint(1, 3) * x for x in edge_walk_heights(diagram, stage)[stage]),
        ])
        assert rational_subgroup_witness(diagram, entries, stage, depth) == reference_rsub(
            diagram, entries, stage, depth)

    def test_rsub_vector_that_pushes_to_zero(self):
        merge = BratteliDiagram((1, 2, 1), (((1,), (1,)), ((1, 1),)))
        assert rational_subgroup_witness(merge, (1, -1), 1, 2) == (Fraction(0), 2)
        assert reference_rsub(merge, (1, -1), 1, 2) == (Fraction(0), 2)
        assert rational_subgroup_witness(E55, (-2, -2), 1, 4) == (Fraction(-2), 1)

    def test_bool_and_float_depths_are_refused_after_their_int_twin(self):
        # 1, 1.0 and True hash alike, so a cache keyed by depth would
        # answer them all; every call validates its own depth
        assert tower_profile(E55, 1).depth == 1
        with pytest.raises(DiagramError):
            tower_profile(E55, True)
        assert maximal_uhf(E55, 1).exactness == TRUNCATED
        with pytest.raises(DiagramError):
            maximal_uhf(E55, 1.0)


class TestUhfDiagram:
    def test_frozen_example(self):
        d = uhf_diagram(SupernaturalNumber({2: 1, 3: 1}))
        assert d.matrices == (((2,),), ((3,),), ((1,),))
        assert d.tail == REPEAT_LAST

    def test_omega_prime_stabilizes_immediately(self):
        # the ratio is 2 from the first stage on; the diagram stops at the
        # stage after 2 has entered
        d = uhf_diagram(SupernaturalNumber({2: OMEGA}))
        assert d == BratteliDiagram((1, 1, 1), (((2,),), ((2,),)), tail=REPEAT_LAST)
        assert stabilization_stage(SupernaturalNumber({2: OMEGA})) == 1

    def test_unstable_prefix_is_finite(self):
        # stage sizes 2, 36, 216, ... so the ratio runs 2, 18, 6, 6, ...
        # and only settles to 6 = 2*3 from the third stage on
        both = SupernaturalNumber({2: OMEGA, 3: OMEGA})
        settled = uhf_diagram(both)
        assert settled.tail == REPEAT_LAST
        assert settled.matrices == (((2,),), ((18,),), ((6,),))
        assert stabilization_stage(both) == 3

    def test_trivial_number_gets_one_stage(self):
        assert uhf_diagram(SupernaturalNumber()) == BratteliDiagram((1, 1), (((1,),),), tail=REPEAT_LAST)

    @given(supernaturals(max_exponent=4, max_size=3))
    def test_round_trip_through_invariant(self, number):
        diagram = uhf_diagram(number)
        result = maximal_uhf(diagram, diagram.given_depth + 2)
        assert result.exactness == CERTIFIED
        assert result.value == number
        # before the tail revisits, each truncation is the stage size
        for stage in range(1, diagram.given_depth):
            result = maximal_uhf(diagram, stage)
            assert result.exactness == TRUNCATED
            assert result.value == SupernaturalNumber.from_int(number.ell(stage))

    def test_catalog_uhf_entries_certify(self):
        for n in (2, 6, 12, 30, 360):
            entry = get_entry("uhf-%d" % n)
            result = maximal_uhf(entry.payload, entry.payload.given_depth + 1)
            assert result.value == SupernaturalNumber.from_int(n)
            assert result.exactness == CERTIFIED

    @given(supernaturals(max_exponent=6, max_size=4))
    def test_ratios_match_naive_stages(self, number):
        raw = {p: (None if e is OMEGA else e) for p, e in number.items()}
        # the support lies in the first 8 primes and finite exponents are
        # at most 6, so from stage 9 on every ratio is the OMEGA product
        diagram = uhf_diagram(number)
        stages = diagram.given_depth
        ells = [naive_ell(raw, j) for j in range(max(stages, 9) + 1)]
        ratios = [b // a for a, b in zip(ells, ells[1:])]
        limit = math.prod(p for p, e in raw.items() if e is None)
        assert diagram.matrices == tuple(((r,),) for r in ratios[:stages])
        assert diagram.is_infinite and all(r == limit for r in ratios[stages - 1:])

    def test_catalog_uhf_stage_count_matches_oracle(self):
        for n in [*range(1, 301), 1009, 2**20, 3**12 * 7919]:
            number = SupernaturalNumber.from_int(n)
            payload = get_entry("uhf-%d" % n).payload
            assert payload.given_depth == stabilization_stage(number)
            assert payload == uhf_diagram(number)

    def test_catalog_uhf_builds_its_diagram_once(self, monkeypatch):
        built = []
        check = BratteliDiagram.__post_init__
        monkeypatch.setattr(BratteliDiagram, "__post_init__", lambda self: built.append(self) or check(self))
        entry = get_entry("uhf-360")
        assert len(built) == 1 and entry.payload.to_data() == {
            "levels": [1] * 5, "matrices": [[[2]], [[18]], [[10]], [[1]]], "tail": "repeat-last"}

    def test_diagram_data_holds_no_name(self):
        data = {"levels": [1, 2], "matrices": [[[4], [6]]], "tail": "none"}
        assert BratteliDiagram._fields == ("levels", "matrices", "tail")
        assert BratteliDiagram.from_data({"name": "findim-4-6", **data}) == BratteliDiagram.from_data(data)
        assert BratteliDiagram.from_data({"name": "findim-4-6", **data}).to_data() == data

    def test_uhf_1009_smoke(self):
        diagram = get_entry("uhf-1009").payload
        assert diagram.given_depth == 170
        assert diagram.matrix_at(169) == ((1009,),)
        assert diagram.tail == REPEAT_LAST
        assert diagram.matrix_at(170) == diagram.matrix_at(171) == ((1,),)


class TestPremorphism:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="start at 0"):
            Premorphism((1, 2), (((1,),), ((1,),)))
        with pytest.raises(ValueError, match="nondecreasing"):
            Premorphism((0, 2, 1), (((1,),), ((1,),), ((1,),)))
        with pytest.raises(ValueError, match="one matrix per"):
            Premorphism((0, 1), (((1,),),))
        with pytest.raises(ValueError, match="level-0"):
            Premorphism((0, 1), (((2,),), ((1,),)))

    def test_canonical_on_example(self):
        pre = canonical_premorphism(E55, 3)
        assert pre.level_map == (0, 1, 2, 3)
        assert pre.matrices == (((1,),), ((1,), (1,)), ((1,), (1,)), ((1,), (1,)))
        report = verify_premorphism(pre, odometer(E55, 3), E55)
        assert report.ok and report.level is None

    def test_canonical_on_findim(self):
        pre = canonical_premorphism(FINDIM, 1)
        assert pre.matrices == (((1,),), ((2,), (3,)))
        assert verify_premorphism(pre, odometer(FINDIM, 1), FINDIM).ok

    def test_level_skipping_square(self):
        pre = Premorphism((0, 2), (((1,),), ((1,), (1,))))
        source = BratteliDiagram((1, 1), (((3,),),))
        report = verify_premorphism(pre, source, E55)
        assert report.ok

    def test_commutativity_failure_reported_at_first_level(self):
        pre = canonical_premorphism(E55, 3)
        matrices = list(pre.matrices)
        matrices[2] = ((2,), (1,))
        broken = Premorphism(pre.level_map, tuple(matrices))
        report = verify_premorphism(broken, odometer(E55, 3), E55)
        assert (report.ok, report.level, report.kind) == (False, 1, "commutativity")

    def test_shape_failure_wins_over_commutativity(self):
        pre = canonical_premorphism(E55, 2)
        matrices = list(pre.matrices)
        matrices[1] = ((1,),)
        broken = Premorphism(pre.level_map, tuple(matrices))
        report = verify_premorphism(broken, odometer(E55, 2), E55)
        assert (report.ok, report.level, report.kind) == (False, 1, "shape")

    def test_a_row_of_the_wrong_length_is_a_shape_failure(self):
        # level 2 has the two rows the diagram needs, but the odometer has one vertex there
        pre = canonical_premorphism(E55, 2)
        broken = Premorphism(pre.level_map, pre.matrices[:2] + (((1,), (1, 1)),))
        report = verify_premorphism(broken, odometer(E55, 2), E55)
        assert (report.ok, report.level, report.kind) == (False, 2, "shape")

    def test_identity_premorphism(self):
        ident = Premorphism(
            (0, 1, 2),
            (((1,),), ((1, 0), (0, 1)), ((1, 0), (0, 1))),
        )
        assert verify_premorphism(ident, E55, E55).ok

    @given(diagrams(), st.integers(0, 2))
    def test_canonical_always_verifies(self, diagram, extra):
        depth = diagram.given_depth + (extra if diagram.is_infinite else 0)
        pre = canonical_premorphism(diagram, depth)
        report = verify_premorphism(pre, odometer(diagram, depth), diagram)
        assert report.ok

    def test_random_seeded_diagrams_verify(self):
        rng = random.Random(20260819)
        for _ in range(30):
            diagram = random_diagram(rng)
            depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
            pre = canonical_premorphism(diagram, depth)
            assert verify_premorphism(pre, odometer(diagram, depth), diagram).ok


class TestK0Divisibility:
    def test_example_witnesses(self):
        hit = k0_unit_divisor(E55, 9, 16)
        assert (hit.stage, hit.entries) == (3, (1, 1))
        assert k0_unit_divisor(E55, 27, 16).stage == 4
        assert k0_unit_divisor(E55, 1, 16).stage == 0
        assert k0_unit_divisor(E55, 2, 16) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            k0_unit_divisor(E55, 0, 4)

    @given(diagrams(), st.integers(1, 40))
    def test_agrees_with_gcd_divisibility(self, diagram, n):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        profile = tower_profile(diagram, depth)
        witness = k0_unit_divisor(diagram, n, depth)
        expected = next((s for s in range(depth + 1) if profile.gcds[s] % n == 0), None)
        if expected is None:
            assert witness is None
        else:
            assert witness.stage == expected
            assert tuple(e * n for e in witness.entries) == profile.heights[expected]

    def test_embeds_answers(self):
        assert uhf_embeds(N3W, E55, 4) == "yes"
        assert uhf_embeds(SupernaturalNumber({2: 1}), E55, 4) == "no-certified"
        drift = BratteliDiagram((1, 2, 2), (((1,), (1,)), ((1, 1), (0, 1))), tail=REPEAT_LAST)
        assert uhf_embeds(SupernaturalNumber({2: 1}), drift, 6) == "no-within-depth"
        assert uhf_embeds(SupernaturalNumber({2: 1}), FINDIM, 1) == "yes"
        assert uhf_embeds(SupernaturalNumber({2: 2}), FINDIM, 1) == "no-certified"


class TestRationalSubgroupWitness:
    def test_unit_multiples_hit_immediately(self):
        assert rational_subgroup_witness(E55, (1, 1), 1, 8) == (Fraction(1), 1)
        assert rational_subgroup_witness(E55, (6, 6), 2, 8) == (Fraction(2), 2)

    def test_off_ray_vector_never_matches(self):
        assert rational_subgroup_witness(E55, (1, 0), 1, 12) is None

    def test_later_stage_match(self):
        # (2, 1) at level 1 pushes to (5, 4), (14, 13): differences shrink
        # relative to scale but never vanish
        assert rational_subgroup_witness(E55, (2, 1), 1, 10) is None

    def test_zero_vector(self):
        assert rational_subgroup_witness(E55, (0, 0), 1, 4) == (Fraction(0), 1)

    def test_vector_validation(self):
        with pytest.raises(DiagramError):
            rational_subgroup_witness(E55, (1, 1, 1), 1, 4)
        with pytest.raises(DiagramError):
            rational_subgroup_witness(E55, (1, 1), 5, 4)

    @given(diagrams(), st.integers(0, 2), st.fractions(min_value=0, max_value=8, max_denominator=6))
    def test_scaled_heights_are_members(self, diagram, stage, scalar):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        stage = min(stage, depth)
        profile = tower_profile(diagram, depth)
        entries = tuple(h * scalar for h in profile.heights[stage])
        if not all(e.denominator == 1 for e in entries):
            return
        entries = tuple(int(e) for e in entries)
        result = rational_subgroup_witness(diagram, entries, stage, depth)
        assert result is not None
        value, at = result
        assert value == scalar and at == stage

    @given(diagrams())
    def test_witness_is_proportional(self, diagram):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        entries = tuple(1 for _ in range(diagram.width_at(0)))
        result = rational_subgroup_witness(diagram, entries, 0, depth)
        assert result == (Fraction(1), 0)

    @given(diagrams(), st.integers(0, 3), st.lists(st.integers(-3, 6), min_size=3, max_size=3))
    @example(E55, 1, [2, 1, 0])  # a miss: (2, 1) never becomes proportional
    @example(E55, 0, [5, 0, 0])  # a hit at the root
    def test_matches_independent_oracle(self, diagram, stage, raw):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        stage = min(stage, depth)
        entries = tuple(raw[:diagram.width_at(stage)])
        assert rational_subgroup_witness(diagram, entries, stage, depth) == reference_rsub(
            diagram, entries, stage, depth)


class TestScaleUnitStage:
    def test_frozen_examples(self):
        assert scale_unit_stage(E55, Fraction(1), 8) == k0_unit_divisor(E55, 1, 8)
        got = scale_unit_stage(E55, Fraction(1, 3), 8)
        assert (got.stage, got.entries) == (2, (1, 1))
        got = scale_unit_stage(E55, Fraction(2, 9), 8)
        assert (got.stage, got.entries) == (3, (2, 2))

    def test_outside_rational_group(self):
        with pytest.raises(ValueError, match="outside the rational group"):
            scale_unit_stage(E55, Fraction(1, 5), 8)

    def test_admissible_but_not_yet_divisible(self):
        with pytest.raises(DiagramError, match="not yet divisible"):
            scale_unit_stage(E55, Fraction(1, 27), 3)

    def test_additivity_after_pushing_to_common_stage(self):
        a = scale_unit_stage(E55, Fraction(1, 3), 8)
        b = scale_unit_stage(E55, Fraction(2, 9), 8)
        c = scale_unit_stage(E55, Fraction(1, 3) + Fraction(2, 9), 8)
        top = max(a.stage, b.stage, c.stage)
        pushed = [push(E55, v.entries, v.stage, top) for v in (a, b, c)]
        assert tuple(x + y for x, y in zip(pushed[0], pushed[1])) == pushed[2]

    @given(st.integers(0, 5), st.integers(1, 9))
    def test_consistency_with_heights(self, power, numerator):
        x = Fraction(numerator, 3**power)
        got = scale_unit_stage(E55, x, 12)
        profile = tower_profile(E55, got.stage)
        assert tuple(Fraction(e) for e in got.entries) == tuple(
            x * h for h in profile.heights[got.stage]
        )


class TestDivideElement:
    def test_frozen_example(self):
        got = divide_element(E55, (1, 1), 1, 3, 8)
        assert (got.stage, got.entries) == (2, (1, 1))
        got = divide_element(E55, (1, 1), 1, 9, 8)
        assert (got.stage, got.entries) == (3, (1, 1))
        assert divide_element(E55, (1, 1), 1, 2, 8) is None

    def test_divide_by_one_is_identity(self):
        got = divide_element(E55, (2, 5), 2, 1, 8)
        assert (got.stage, got.entries) == (2, (2, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            divide_element(E55, (1, -1), 1, 2, 8)
        with pytest.raises(ValueError):
            divide_element(E55, (1, 1), 1, 0, 8)

    @given(diagrams(), st.integers(1, 6), st.integers(1, 3))
    def test_witness_multiplies_back(self, diagram, m, seed):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        rng = random.Random(seed)
        entries = tuple(rng.randint(0, 6) for _ in range(diagram.width_at(0)))
        got = divide_element(diagram, entries, 0, m, depth)
        if got is None:
            return
        assert tuple(e * m for e in got.entries) == push(diagram, entries, 0, got.stage)

    def test_coprime_factors_divide_separately(self):
        # dividing by 6 at some stage forces 2 and 3 to divide there too
        doubling = BratteliDiagram((1, 1), (((6,),),), tail=REPEAT_LAST)
        got = divide_element(doubling, (6,), 0, 6, 4)
        assert (got.stage, got.entries) == (0, (1,))
        two = divide_element(doubling, (3,), 0, 2, 4)
        three = divide_element(doubling, (3,), 0, 3, 4)
        assert (two.stage, three.stage) == (1, 0)
        assert two.entries == (9,) and three.entries == (1,)


def companion(levels, head, p):
    """A diagram whose tail is the companion matrix of x**k - p: each push
    moves every entry up one place and the first one to the end times p,
    so v_p of the content rises once every k levels."""
    k = levels[-1]
    tail = tuple(tuple(p if (i, j) == (k - 1, 0) else int(j == i + 1) for j in range(k)) for i in range(k))
    return BratteliDiagram(levels, head + (tail,), REPEAT_LAST)


@st.composite
def horizon_diagrams(draw):
    """A head of width 1-3 and a tail of width 1-4 that is random or a companion of x**k - p."""
    h, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    base = draw(diagrams(max_width=3, max_depth=2, max_entry=3, allow_tail=False))
    if draw(st.booleans()):
        return companion((1, k, k), (((1,),) * k,), draw(st.sampled_from((2, 3, 4, 6, 9, 12))))
    widths = base.levels + (h, k, k)
    rng = random.Random(draw(st.integers(0, 2**32)))
    matrices = []
    for rows, cols in zip(widths[base.given_depth + 1:], widths[base.given_depth:]):
        m = [[rng.randint(0, 3) for _ in range(cols)] for _ in range(rows)]
        for i in range(max(rows, cols)):  # no zero row or column
            m[i % rows][i % cols] = m[i % rows][i % cols] or rng.randint(1, 3)
        matrices.append(tuple(map(tuple, m)))
    return BratteliDiagram(widths, base.matrices + tuple(matrices), REPEAT_LAST)


class TestSearchHorizon:
    """On a repeating tail of width k, `divide_element` and `k0_unit_divisor`
    stop once gcd(content, m) stalls for k pushes from s0 = max(stage, L), and
    `rational_subgroup_witness` at s0 + k; a miss there is a miss at every
    depth, so every answer equals the full-depth oracle's."""

    SWAP = BratteliDiagram((1, 2, 2), (((1,), (1,)), ((0, 1), (2, 0))), REPEAT_LAST)

    @pytest.mark.parametrize("e", range(1, 6))
    def test_the_window_is_the_tail_width(self, e):
        # v_2 of the content rises once every 2 pushes; a window of k - 1 misses each of these
        assert k0_unit_divisor(self.SWAP, 2**e, 40).stage == 2 * e + 1
        cycle3 = companion((1, 3, 3), (((1,),) * 3,), 3)
        assert k0_unit_divisor(cycle3, 3**e, 40).stage == 3 * e + 1

    def test_a_vector_off_the_unit_stalls_late(self):
        got = divide_element(self.SWAP, (1, 0), 1, 8, 40)
        assert (got.stage, got.entries) == (6, (0, 1))
        assert divide_element(self.SWAP, (1, 0), 1, 8 * 3, 40) is None

    @settings(max_examples=150)
    @given(horizon_diagrams(), st.integers(0, 45), st.integers(0, 3), st.integers(0, 99))
    def test_searches_match_full_depth_oracles(self, diagram, depth, stage, seed):
        stage, rng = min(stage, depth), random.Random(seed)
        width = diagram.width_at(stage)
        heights = edge_walk_heights(diagram, depth)
        # divisors the content reaches late, never, or only through a composite gcd
        ms = (rng.randint(1, 40), rng.choice((2, 3)) ** rng.randint(1, 12),
              math.gcd(*heights[rng.randint(stage, depth)]) * rng.randint(1, 4))
        for m in ms:
            entries = tuple(rng.randint(0, 4) for _ in range(width))
            got = divide_element(diagram, entries, stage, m, depth)
            assert (got and (got.stage, got.entries)) == reference_divide(diagram, entries, stage, m, depth)
            got = k0_unit_divisor(diagram, m, depth)
            assert (got and (got.stage, got.entries)) == reference_divide(diagram, (1,), 0, m, depth)
        for entries in (tuple(rng.randint(-4, 4) for _ in range(width)),
                        tuple(x - rng.randint(0, 1) for x in heights[stage])):
            assert rational_subgroup_witness(diagram, entries, stage, depth) == reference_rsub(
                diagram, entries, stage, depth)


@pytest.mark.parametrize("call", [
    lambda: divide_element(E55, (1.9, 2.2), 1, 3, 5),  # int() would walk (1, 2)
    lambda: rational_subgroup_witness(E55, ("3", True), 1, 5),  # int() would walk (3, 1)
    lambda: divide_element(E55, (2, 2.0), 1, 2, 5),  # an integral float is no int either
    lambda: telescope(E55, [1.5, 2.7]),  # int() would cut at (1, 2)
], ids=["divide-floats", "rsub-str-and-bool", "divide-integral-float", "telescope-floats"])
def test_caller_integers_are_not_truncated(call):
    with pytest.raises(ValueError, match="must be integers, got"):
        call()


class TestTelescope:
    def test_example_cuts(self):
        scoped = telescope(E55, (1, 3))
        assert scoped.levels == (1, 2, 2)
        assert scoped.matrices == (((1,), (1,)), ((5, 4), (4, 5)))
        assert scoped.tail == REPEAT_LAST
        result = maximal_uhf(scoped, 6)
        assert result.value == N3W and result.exactness == CERTIFIED

    def test_tail_dropped_when_segment_leaves_the_tail(self):
        scoped = telescope(E55, (3,))
        assert scoped == BratteliDiagram((1, 2), (((9,), (9,)),))

    def test_tail_kept_deep_in_the_tail(self):
        scoped = telescope(E55, (2, 4))
        assert scoped.tail == REPEAT_LAST
        assert scoped.matrices[1] == ((5, 4), (4, 5))

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            telescope(E55, ())
        with pytest.raises(ValueError):
            telescope(E55, (0, 2))
        with pytest.raises(ValueError):
            telescope(E55, (2, 2))
        with pytest.raises(DiagramError):
            telescope(FINDIM, (1, 2))

    @given(diagrams(max_depth=4), st.data())
    def test_heights_survive_at_cut_levels(self, diagram, data):
        depth = diagram.given_depth + (2 if diagram.is_infinite else 0)
        if depth < 1:
            return
        cuts = sorted(
            data.draw(
                st.sets(st.integers(1, depth), min_size=1, max_size=3), label="cuts"
            )
        )
        scoped = telescope(diagram, tuple(cuts))  # built, so valid
        original = tower_profile(diagram, depth)
        scoped_profile = tower_profile(scoped, len(cuts))
        for i, cut in enumerate(cuts, start=1):
            assert scoped_profile.heights[i] == original.heights[cut]

    def test_invariant_preserved_on_infinite_telescopes(self):
        for cuts in ((1, 2), (1, 3), (2, 3), (1, 2, 4)):
            scoped = telescope(E55, cuts)
            assert scoped.tail == REPEAT_LAST
            assert maximal_uhf(scoped, len(cuts) + 3).value == N3W


def negative():
    """A valid shape with a negative multiplicity, refused as it is built,
    so before any argument of the call it would be passed to."""
    return BratteliDiagram((1, 2), (((1,), (-1,)),))


INVALID = "invalid diagram: negative multiplicity in row 1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: k0_unit_divisor(negative(), 2, -1), DiagramError, INVALID),
        (lambda: k0_unit_divisor(negative(), 0, 1), DiagramError, INVALID),
        (lambda: rational_subgroup_witness(negative(), (1,), 7, 1), DiagramError, INVALID),
        (lambda: rational_subgroup_witness(E55, (1, 2, 3), 1, -1), DiagramError,
         "depth must be a nonnegative integer, got -1"),
        (lambda: rational_subgroup_witness(E55, (-1, 2), 9, 3), DiagramError, "stage 9 outside 0..3"),
        (lambda: divide_element(negative(), (1,), 7, 2, 1), DiagramError, INVALID),
        (lambda: divide_element(negative(), (1,), 0, 0, 1), DiagramError, INVALID),
        (lambda: divide_element(FINDIM, (1, 2, 3), 1, 2, 4), DiagramError,
         "depth 4 exceeds the 1 levels of a finite diagram"),
        (lambda: divide_element(E55, (-1, 2), 9, 2, 3), DiagramError, "stage 9 outside 0..3"),
        (lambda: divide_element(E55, (-1, 2, 3), 1, 2, 3), DiagramError,
         "vector length 3 does not match the 2 vertices at level 1"),
        (lambda: scale_unit_stage(negative(), Fraction(1, 3), -1), DiagramError, INVALID),
        (lambda: scale_unit_stage(E55, Fraction(1, 2), -1), DiagramError,
         "depth must be a nonnegative integer, got -1"),
    ],
    ids=[
        "k0-invalid-and-depth", "k0-divisor-and-invalid",
        "rsub-invalid-and-stage", "rsub-depth-and-length", "rsub-negative-and-stage",
        "divide-invalid-and-stage", "divide-divisor-and-invalid", "divide-depth-and-length",
        "divide-negative-and-stage", "divide-negative-and-length",
        "scale-invalid-and-depth", "scale-outside-and-depth",
    ],
)
def test_stage_search_error_order(call, error, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@st.composite
def tail_diagrams(draw, widths):
    """Levels 1, k, k, k: a head column, a head square and a k x k tail with
    entries up to 64, filled from a drawn seed.  One tail in three is
    singular: its last column copies the first."""
    k = draw(st.integers(*widths))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top, singular = rng.choice((1, 3, 7, 64)), rng.random() < 1 / 3

    def square():
        a = [[rng.randint(0, top) for _ in range(k)] for _ in range(k)]
        for i in range(k):
            a[i][i] = a[i][i] or top
        return a

    head, tail = square(), square()
    if singular:
        for row in tail:
            row[-1] = row[0]
        tail[-1][0] = tail[-1][-1] = top
    column = [[rng.randint(1, top)] for _ in range(k)]
    return BratteliDiagram((1, k, k, k), (column, head, tail), REPEAT_LAST)


def plain_gcds(diagram, depth):
    """gcd of the heights at each level, pushed one row sum at a time."""
    v, gcds = (1,), [1]
    for n in range(1, depth + 1):
        v = tuple(sum(x * y for x, y in zip(row, v)) for row in diagram.matrix_at(n))
        gcds.append(math.gcd(*v))
    return tuple(gcds)


class TestTailForms:
    """Wide tails with small entries are pushed by shared subset sums, narrow
    ones take each content as gcd(det A, A n): both against oracles that push
    one materialized edge at a time, with singular tails, stages in the head
    (1) and in the tail (3), and zero and negative vectors."""

    @staticmethod
    def check(diagram, depth, stage, seed):
        stage = min(stage, depth)
        rng = random.Random(seed)
        heights = edge_walk_heights(diagram, depth)
        assert tower_profile(diagram, depth).heights == heights
        assert maximal_uhf(diagram, depth) == MuResult(*reference_mu(diagram, depth))
        k = diagram.width_at(stage)
        for entries in ((0,) * k, tuple(rng.randint(-3, 3) for _ in range(k)),
                        tuple(-2 * x for x in heights[stage])):
            assert rational_subgroup_witness(diagram, entries, stage, depth) == reference_rsub(
                diagram, entries, stage, depth)
        entries = tuple(rng.randint(0, 5) for _ in range(k))
        for m in (rng.randint(1, 12), math.gcd(*heights[rng.randint(stage, depth)]) or 1):
            got = divide_element(diagram, entries, stage, m, depth)
            assert (got and (got.stage, got.entries)) == reference_divide(diagram, entries, stage, m, depth)
        cuts = sorted(rng.sample(range(1, depth + 1), rng.randint(1, min(3, depth))))
        scoped = tower_profile(telescope(diagram, cuts), len(cuts)).heights
        assert scoped[1:] == tuple(heights[c] for c in cuts)

    @settings(max_examples=20)
    @given(tail_diagrams((2, 8)), st.integers(3, 40), st.sampled_from((1, 3)), st.integers(0, 99))
    def test_narrow_tails_match_the_oracles(self, diagram, depth, stage, seed):
        self.check(diagram, depth, stage, seed)

    @settings(max_examples=8)
    @given(tail_diagrams((48, 72)), st.integers(3, 5), st.sampled_from((1, 3)), st.integers(0, 99))
    def test_wide_tails_match_the_oracles(self, diagram, depth, stage, seed):
        self.check(diagram, depth, stage, seed)

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(1, 4), st.booleans(), st.integers(0, 99))
    def test_mat_mul_matches_the_naive_product(self, rows, k, columns, negative, seed):
        rng = random.Random(seed)
        low = -3 if negative else 0
        a = tuple(tuple(rng.randint(low, 3) for _ in range(k)) for _ in range(rows))
        b = tuple(tuple(rng.randint(-9, 9) for _ in range(columns)) for _ in range(k))
        naive = tuple(tuple(sum(a[i][j] * b[j][c] for j in range(k)) for c in range(columns))
                      for i in range(rows))
        assert brat.bratteli._mat_mul(a, b) == naive

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(2, 6), st.sampled_from((0, 3, 255)),
           st.sampled_from((-9, 0)), st.sampled_from((1, 255, 256, 2**70)), st.integers(0, 99))
    def test_subset_mat_mul_matches_a_triple_loop(self, rows, k, columns, top, low, high, seed):
        # a with entries in 0..255 and more than 4 rows may push b's columns
        # through the shared subset sums, one push per column
        rng = random.Random(seed)
        a = tuple(tuple(rng.randint(0, top) for _ in range(k)) for _ in range(rows))
        b = tuple(tuple(rng.randint(low, high) for _ in range(columns)) for _ in range(k))
        pushes, subset = [], brat.bratteli._subset_mat_vec
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(brat.bratteli, "_subset_mat_vec", lambda *args: pushes.append(1) or subset(*args))
            got = brat.bratteli._mat_mul(a, b)
        assert got == tuple(tuple(sum(a[i][j] * b[j][c] for j in range(k)) for c in range(columns))
                            for i in range(rows))
        assert len(pushes) in (0, columns)

    @pytest.mark.parametrize("a, det", [
        (((7,),), 7),
        (((0, 1), (1, 0)), -1),  # a row swap flips the sign
        (((2, 1, 0), (1, 2, 1), (0, 1, 2)), 4),
        (((1, 2, 3), (2, 4, 5), (3, 6, 7)), 0),  # one step leaves an all-zero first column
    ])
    def test_det_by_elimination(self, a, det):
        assert brat.bratteli._det(a) == det

    @pytest.mark.parametrize("width, bits, depth, singular, forms", [
        (100, 2, 30, False, {"_subset_mat_vec": 29, "_det": 0}),
        (4, 1024, 60, False, {"_subset_mat_vec": 0, "_det": 1}),
        (4, 1024, 60, True, {"_subset_mat_vec": 0, "_det": 1}),
        (2, 3, 40, False, {"_subset_mat_vec": 0, "_det": 1}),
    ])
    def test_each_form_runs_where_its_count_picks_it(self, monkeypatch, width, bits, depth, singular, forms):
        rng = random.Random(width)
        tail = [[rng.randrange(2**bits) for _ in range(width)] for _ in range(width)]
        for i in range(width):
            tail[i][i] = tail[i][i] or 1
        if singular:  # the last column copies the first
            for row in tail:
                row[-1] = row[0]
            tail[-1][0] = tail[-1][-1] = 1
        diagram = BratteliDiagram((1, width, width), ([[rng.randrange(1, 2**bits)]] * width, tail), REPEAT_LAST)
        assert (brat.bratteli._det(diagram.matrices[-1]) == 0) == singular
        calls = dict.fromkeys(forms, 0)
        for name in forms:
            def counted(*args, name=name, fn=getattr(brat.bratteli, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(brat.bratteli, name, counted)
        assert tower_profile(diagram, depth).gcds == plain_gcds(diagram, depth)
        assert calls == forms
