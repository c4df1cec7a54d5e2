"""Answer checker: judges each brat answer by properties every correct
answer has, recomputed from definitions in `arith`.

No byte-equal goldens: fields may be added to an answer and exactness
may legitimately improve (a truncated `mu` becoming certified), so each
check states what must hold of any correct answer, not what HEAD prints.
`check` returns None for an accepted answer and a reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations

from . import arith
from .arith import INF, Cone
from .catalog_docs import DIAGRAMS, EXPECTED, GROUPS, NAMES, uhf_diagram, uhf_ratios

SMALL_PREMORPHISM = 2000  # width**2 * depth below which squares are re-verified here


class Rejected(Exception):
    pass


def need(condition, message, *args) -> None:
    if not condition:
        raise Rejected(message % args if args else message)


def _group_unit_q(group: dict) -> tuple[Fraction, int]:
    return Fraction(group["unit"]["k"]), int(group["unit"]["z"])


def _group_h(group: dict) -> dict:
    return arith.sn_parse(group["H"])


class Checker:
    def __init__(self, files: dict):
        self.files = files
        self._towers: dict[str, arith.Towers] = {}
        self._handlers = {
            "towers": self.towers, "mu": self.mu, "embed": self.embed,
            "odometer": self.odometer, "odometer-dot": self.odometer_dot,
            "premorphism": self.premorphism, "premorphism-verify": self.premorphism_verify,
            "k0-divides": self.k0_divides, "rsub": self.rsub, "theta": self.theta,
            "divide": self.divide, "telescope": self.telescope, "validate": self.validate,
            "sn-divides": self.sn, "sn-mul": self.sn, "sn-sup": self.sn, "sn-inf": self.sn,
            "sn-ell": self.sn, "group-propd": self.group_propd, "group-maxsn": self.group_maxsn,
            "group-divides": self.group_divides, "group-rsub": self.group_rsub,
            "catalog": self.catalog,
        }

    def check(self, request, status: int, stdout: bytes):
        """None if the answer is right, else the reason it is wrong."""
        if status not in (0, 1):
            return "exit status %d" % status
        try:
            self._handlers[request.kind](request, status, stdout)
        except Rejected as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return "malformed answer: %s: %s" % (type(exc).__name__, exc)
        return None

    # ---- shared facts -------------------------------------------------

    def diagram(self, facts: dict) -> dict:
        source = facts["source"]
        if "uhf" in facts:
            return uhf_diagram(facts["uhf"])
        if source.startswith("catalog:"):
            return DIAGRAMS[source[len("catalog:"):]]
        return self.files[source]

    def heights(self, facts: dict, depth: int) -> arith.Towers:
        key = facts["source"]
        if key not in self._towers:
            self._towers[key] = arith.Towers(self.diagram(facts))
        return self._towers[key].upto(depth)

    @staticmethod
    def answer(stdout: bytes) -> dict:
        lines = stdout.decode("utf-8").splitlines()
        need(len(lines) == 1, "expected one JSON line, got %d lines", len(lines))
        data = json.loads(lines[0])
        need(isinstance(data, dict), "answer is not an object")
        return data

    @staticmethod
    def status(status: int, holds: bool) -> None:
        need(status == (0 if holds else 1), "exit status %d where the answer %s",
             status, "holds" if holds else "fails")

    def truncation(self, facts) -> int:
        return self.heights(facts, facts["depth"]).gcds[facts["depth"]]

    # ---- diagram commands ----------------------------------------------

    def towers(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        self.status(status, True)
        d = f["depth"]
        t = self.heights(f, d)
        need(data["depth"] == d, "depth %r, asked %d", data["depth"], d)
        need(data["heights"] == [list(v) for v in t.heights[:d + 1]], "heights differ from the recurrence")
        need(data["gcds"] == t.gcds[:d + 1], "gcds differ from the recurrence")
        need(data["ratios"] == t.ratios(d), "ratios differ")

    def _known_invariant(self, f):
        diagram = self.diagram(f)
        if f.get("invariant") is not None:
            return arith.sn_parse(f["invariant"])
        if diagram.get("tail") != "repeat-last" and f["depth"] == len(diagram["matrices"]):
            return "finite"  # equal to the truncation at full depth
        return None

    def mu(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        self.status(status, True)
        value = arith.sn_parse(data["mu"])
        exactness = data["exactness"]
        need("depth" not in data or data["depth"] == f["depth"], "reports depth %r, used %d",
             data.get("depth"), f["depth"])
        t = self.truncation(f)
        known = self._known_invariant(f)
        if exactness == "truncated-at-depth":
            need(arith.claimed_equals_int(value, t), "truncated value is not the gcd at depth %d", f["depth"])
            if isinstance(known, dict):
                need(arith.sn_divides(value, known), "truncated value does not divide the invariant")
        elif exactness == "certified":
            if known == "finite":
                need(arith.claimed_equals_int(value, t), "certified finite value is not the final gcd")
            elif known is not None:
                need(value == known, "certified %s, invariant is %s", arith.sn_data(value), arith.sn_data(known))
            else:
                self._certified_unknown(f, value, t)
        else:
            raise Rejected("unknown exactness %r" % (exactness,))

    def _certified_unknown(self, f, value, t):
        """A certified value of a diagram built without a known invariant.

        Its exponents cover the gcd at depth.  When the checker finds the
        tail's ratio cycle within depth, the value is fixed: omega for the
        primes of the cycle's product, the exponent in the gcd at depth for
        every other prime.
        """
        rest = t
        for p, e in value.items():
            v = arith.valuation(rest, p)
            need(v <= e, "certified exponent of %d is below the gcd at depth", p)
            rest //= p**v
        need(rest == 1, "certified value misses a prime of the gcd at depth")
        diagram = self.diagram(f)
        if diagram.get("tail") != "repeat-last":
            return
        towers = self.heights(f, f["depth"])
        cycle = towers.cycle(len(diagram["matrices"]) - 1, f["depth"])
        if cycle is None:
            return
        s, c = cycle
        product = math.prod(towers.ratios(c)[s:])
        for p, e in value.items():
            if e == INF:
                need(arith.is_prime(p) and product % p == 0,
                     "omega exponent of %d, which does not divide the tail's ratio cycle", p)
                while product % p == 0:
                    product //= p
            else:
                need(product % p != 0 and e == arith.valuation(t, p),
                     "exponent %d of %d, where the tail's ratio cycle gives %s", e, p,
                     "omega" if product % p == 0 else arith.valuation(t, p))
        need(product == 1, "a prime of the tail's ratio cycle has a finite exponent")

    def embed(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        number = arith.sn_parse(f["uhf_number"])
        known = arith.sn_parse(f["invariant"])
        t = self.truncation(f)
        visible = arith.sn_divides(number, {p: arith.valuation(t, p) for p in number})
        answer = data["embeds"]
        need(data.get("depth", f["depth"]) == f["depth"], "reports depth %r", data.get("depth"))
        if answer == "yes":
            need(arith.sn_divides(number, known), "says yes, but N does not divide the invariant")
        elif answer == "no-certified":
            need(not arith.sn_divides(number, known), "certifies no, but N divides the invariant")
        elif answer == "no-within-depth":
            need(not visible, "says no within depth, but N divides the gcd at depth")
        else:
            raise Rejected("unknown answer %r" % (answer,))
        self.status(status, answer == "yes")

    def odometer(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        self.status(status, True)
        d = f["depth"]
        t = self.heights(f, d)
        need(data["levels"] == [1] * (d + 1), "levels are not all single vertices")
        need(data["matrices"] == [[[r]] for r in t.ratios(d)], "matrices are not the ratios")
        if data.get("tail", "none") == "repeat-last":
            self._constant_ratio_proof(f, d)
        else:
            need(data.get("tail", "none") == "none", "unknown tail %r", data.get("tail"))

    def _constant_ratio_proof(self, f, d):
        # a claimed repeating odometer needs two equal consecutive normalized
        # heights inside the repeating region, no later than the last level
        diagram = self.diagram(f)
        need(diagram.get("tail") == "repeat-last" and d >= 1, "finite diagram cannot repeat")
        t = self.heights(f, d)
        start = max(len(diagram["matrices"]) - 1, 0)
        norms = [arith.normalized(v) for v in t.heights[start:d + 1]]
        need(any(a == b for a, b in zip(norms, norms[1:])), "repeating tail claimed without proof")

    def odometer_dot(self, req, status, stdout):
        f = req.facts
        self.status(status, True)
        d = f["depth"]
        t = self.heights(f, d)
        text = stdout.decode("utf-8")
        need(text.startswith("digraph bratteli {") and text.rstrip().endswith("}"), "not a DOT digraph")
        counts = [0] * (d + 1)
        for m in re.finditer(r"v_(\d+)_0 -> v_(\d+)_0(?: \[label=\"(\d+)\"\])?;", text):
            a, b, label = int(m.group(1)), int(m.group(2)), m.group(3)
            need(b == a + 1 and b <= d, "edge between levels %d and %d", a, b)
            counts[b] += int(label) if label else 1
        ranks = re.findall(r"rank=same; v_(\d+)_0; }", text)
        need([int(r) for r in ranks] == list(range(d + 1)), "rank lines do not cover levels 0..%d", d)
        need(counts[1:] == t.ratios(d), "edge multiplicities are not the ratios")

    def premorphism(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        self.status(status, True)
        d = f["depth"]
        t = self.heights(f, d)
        need(data["level_map"] == list(range(d + 1)), "level map is not the identity")
        need(data["matrices"] == [[[c] for c in arith.normalized(v)] for v in t.heights[:d + 1]],
             "columns are not the normalized heights")

    def premorphism_verify(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        d = f["depth"]
        diagram = self.diagram(f)
        holds = True  # the canonical premorphism commutes: M h_n = h_{n+1}
        if arith.width_at(diagram, d) ** 2 * d <= SMALL_PREMORPHISM:
            t = self.heights(f, d)
            cols = [arith.normalized(v) for v in t.heights[:d + 1]]
            ratios = t.ratios(d)
            holds = all(arith.mat_vec(arith.matrix_at(diagram, n + 1), cols[n]) ==
                        tuple(ratios[n] * c for c in cols[n + 1]) for n in range(d))
        need(data.get("verified") is holds, "verified=%r, squares commute=%r", data.get("verified"), holds)
        if holds:
            need(data.get("depth") == d, "verified depth %r, asked %d", data.get("depth"), d)
        self.status(status, holds)

    def _first_stage(self, start, depth, test):
        return next((s for s in range(start, depth + 1) if test(s)), None)

    def k0_divides(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        d, n = f["depth"], f["n"]
        t = self.heights(f, d)
        stage = self._first_stage(0, d, lambda s: t.gcds[s] % n == 0)
        self.status(status, stage is not None)
        if stage is None:
            need(data.get("witness", 0) is None and data.get("depth") == d, "expected no witness")
            return
        need(data["stage"] == stage, "stage %r, first working stage is %d", data["stage"], stage)
        need([n * x for x in data["vector"]] == list(t.heights[stage]), "n * vector is not the unit")

    def _pushed(self, f, t):
        vecs = {}
        v = tuple(f["vector"])
        for s in range(f["stage"], f["depth"] + 1):
            if s > f["stage"]:
                v = arith.mat_vec(arith.matrix_at(t.diagram, s), v)
            vecs[s] = v
        return vecs

    def rsub(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        d = f["depth"]
        t = self.heights(f, d)
        pushed = self._pushed(f, t)

        def parallel(s):
            v, h = pushed[s], t.heights[s]
            return all(v[i] * h[0] == v[0] * h[i] for i in range(len(v)))

        stage = self._first_stage(f["stage"], d, parallel)
        self.status(status, stage is not None)
        need(data["member"] is (stage is not None), "member=%r", data["member"])
        if stage is None:
            return
        m, q = data["m"], data["q"]
        need(m >= 1 and math.gcd(m, q) == 1, "witness %r/%r is not reduced", q, m)
        need(data["stage"] == stage, "stage %r, first witness stage is %d", data["stage"], stage)
        need([m * x for x in pushed[stage]] == [q * h for h in t.heights[stage]], "m*g != q*unit")
        need(Fraction(data["lambda"]) == Fraction(q, m), "lambda disagrees with q/m")

    def theta(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        self.status(status, True)
        x, d = Fraction(f["x"]), f["depth"]
        t = self.heights(f, d)
        stage = self._first_stage(0, d, lambda s: t.gcds[s] % x.denominator == 0)
        need(data["stage"] == stage, "stage %r, first absorbing stage is %r", data["stage"], stage)
        need([x.denominator * v for v in data["vector"]] == [x.numerator * h for h in t.heights[stage]],
             "vector is not x times the unit")

    def divide(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        d, m = f["depth"], f["m"]
        t = self.heights(f, d)
        pushed = self._pushed(f, t)
        stage = self._first_stage(f["stage"], d, lambda s: all(e % m == 0 for e in pushed[s]))
        self.status(status, stage is not None)
        if stage is None:
            need(data.get("witness", 0) is None and data.get("depth") == d, "expected no witness")
            return
        need(data["stage"] == stage, "stage %r, first divisible stage is %d", data["stage"], stage)
        need([m * y for y in data["vector"]] == list(pushed[stage]), "m * vector is not g")

    def telescope(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        self.status(status, True)
        diagram = self.diagram(f)
        cuts = f["cuts"]
        bounds = [0] + cuts
        need(data["levels"] == [1] + [arith.width_at(diagram, c) for c in cuts], "levels differ")
        need(len(data["matrices"]) == len(cuts), "one matrix per cut expected")
        for (a, b), got in zip(zip(bounds, bounds[1:]), data["matrices"]):
            product = arith.matrix_at(diagram, a + 1)
            for n in range(a + 2, b + 1):
                product = arith.mat_mul(arith.matrix_at(diagram, n), product)
            need(got == [list(r) for r in product], "matrix for levels %d..%d is not the product", a, b)
        given = len(diagram["matrices"])
        repeats = diagram.get("tail") == "repeat-last" and bounds[-2] >= given - 1
        need((data.get("tail", "none") == "repeat-last") == repeats, "tail %r is wrong", data.get("tail"))

    def validate(self, req, status, stdout):
        f = req.facts
        data = self.answer(stdout)
        broken = f["broken"]
        self.status(status, broken is None)
        if broken is None:
            need(data.get("ok") is True and not data.get("violations"), "valid diagram rejected")
            return
        need(data.get("ok") is False, "broken diagram accepted")
        kinds = {v["kind"] for v in data["violations"]}
        need(broken in kinds, "violation %r not reported (got %s)", broken, sorted(kinds))

    # ---- supernatural numbers ----------------------------------------

    def sn(self, req, status, stdout):
        op = req.kind[len("sn-"):]
        texts = req.facts["operands"]
        data = self.answer(stdout)
        if op == "ell":
            number, stage = arith.sn_parse(json.loads(texts[0])), int(texts[1])
            self.status(status, True)
            need(data["ell"] == arith.sn_ell(number, stage), "ell differs")
            return
        numbers = [arith.sn_parse(json.loads(t)) for t in texts]
        if op == "divides":
            holds = arith.sn_divides(numbers[0], numbers[1])
            self.status(status, holds)
            need(data["divides"] is holds, "divides=%r", data["divides"])
            return
        self.status(status, True)
        want = {"mul": arith.sn_mul, "sup": arith.sn_sup, "inf": arith.sn_inf}[op](numbers)
        key = "product" if op == "mul" else op
        need(arith.sn_parse(data[key]) == {p: e for p, e in want.items() if e}, "%s differs", op)

    # ---- ordered groups -------------------------------------------------

    def _unit_divides(self, group: dict, n: int):
        """The witness x with n*x = unit, or None (own derivation)."""
        if group["kind"] == "cyclic":
            u = group["unit"]
            if u % n:
                return None
            return u // n if Cone(group["generators"]).member(u // n) else None
        q, z = _group_unit_q(group)
        if z % n or not arith.sn_contains(_group_h(group), q / n):
            return None
        return (q / n, z // n)

    def _propd(self, group: dict):
        """First failing coprime pair of unit divisors, or None."""
        if group["kind"] == "quadratic":
            return None
        cone = Cone(group["generators"])
        if cone.member(1):
            return None
        u = group["unit"]
        divisors = sorted(self._divisors(u))
        dividing = [n for n in divisors if cone.member(u // n)]
        for n, m in combinations(dividing, 2):
            if math.gcd(n, m) == 1 and (u % (n * m) or not cone.member(u // (n * m))):
                return (n, m)
        return None

    @staticmethod
    def _divisors(u: int) -> list[int]:
        out = [1]
        for p, e in arith.factor_small(u).items():
            out = [d * p**k for d in out for k in range(e + 1)]
        return out

    def group_propd(self, req, status, stdout):
        data = self.answer(stdout)
        pair = self._propd(req.facts["group"])
        self.status(status, pair is None)
        need(data["holds"] is (pair is None), "holds=%r", data["holds"])
        if pair is not None:
            need(tuple(data["counterexample"]) == pair, "counterexample %r, first failing pair %r",
                 data["counterexample"], pair)

    def group_maxsn(self, req, status, stdout):
        group = req.facts["group"]
        data = self.answer(stdout)
        want = None
        if self._propd(group) is None:
            want = self._maxsn(group)
        self.status(status, want is not None)
        if want is None:
            need(data["maxsn"] is None, "maxsn should be null")
        else:
            need(arith.sn_parse(data["maxsn"]) == want, "maxsn %r, want %r", data["maxsn"], arith.sn_data(want))

    def _maxsn(self, group: dict) -> dict:
        out = {}
        if group["kind"] == "cyclic":
            u = group["unit"]
            for p in arith.factor_small(u):
                k = 0
                while self._unit_divides(group, p ** (k + 1)) is not None:
                    k += 1
                if k:
                    out[p] = k
            return out
        q, z = _group_unit_q(group)
        h = _group_h(group)
        primes = set(arith.factor_small(abs(z))) if z else set(h) | set(arith.factor_small(q.numerator))
        for p in primes:
            cap_z = arith.valuation(z, p) if z else INF
            v_q = arith.valuation(q.numerator, p) - arith.valuation(q.denominator, p)
            cap_q = INF if h.get(p, 0) == INF else v_q + h.get(p, 0)
            k = min(cap_z, cap_q)
            if k > 0:
                out[p] = k
        return out

    def group_divides(self, req, status, stdout):
        group, n = req.facts["group"], req.facts["n"]
        data = self.answer(stdout)
        want = self._unit_divides(group, n)
        self.status(status, want is not None)
        got = data["witness"]
        if want is None:
            need(got is None, "witness %r where none exists", got)
        elif group["kind"] == "cyclic":
            need(got == want and n * got == group["unit"], "witness %r, n*x must be the unit", got)
        else:
            need((Fraction(got["k"]), got["z"]) == want, "witness %r is not unit/n", got)

    def group_rsub(self, req, status, stdout):
        group, text = req.facts["group"], req.facts["g"]
        data = self.answer(stdout)
        if group["kind"] == "cyclic":
            g, z = Fraction(int(text)), 0
            k, uz = Fraction(group["unit"]), 0
        else:
            h, w = text.split(",")
            g, z = Fraction(h), int(w)
            k, uz = _group_unit_q(group)
        lam = g / k if k else None
        member = lam is not None and lam * uz == z
        self.status(status, member)
        need(data["member"] is member, "member=%r", data["member"])
        if member:
            m, q = data["m"], data["q"]
            need(m >= 1 and math.gcd(m, q) == 1, "witness not reduced")
            need(m * g == q * k and m * z == q * uz, "m*g != q*unit")

    # ---- catalog -----------------------------------------------------

    def catalog(self, req, status, stdout):
        name = req.facts["name"]
        data = self.answer(stdout)
        self.status(status, True)
        if name is None:
            need(set(NAMES) <= set(data["entries"]) and data["entries"] == sorted(data["entries"]),
                 "documented entries missing or unsorted")
            need("uhf-<n>" in data["patterns"], "uhf-<n> pattern missing")
            return
        need(data["name"] == name, "name %r", data["name"])
        need(isinstance(data.get("note"), str), "note missing")
        payload = dict(data["payload"])
        payload.pop("name", None)
        if name.startswith("uhf-"):
            n = int(name[len("uhf-"):])
            ratios = [m[0][0] for m in payload["matrices"]]
            need(data["kind"] == "diagram" and payload["tail"] == "repeat-last", "uhf entry must repeat")
            need(payload["levels"] == [1] * (len(ratios) + 1), "uhf entry is not single-vertex")
            prefix = uhf_ratios(n)
            need(ratios[:len(prefix)] == prefix and set(ratios[len(prefix):]) <= {1},
                 "stage ratios are not ell(j)/ell(j-1)")
            need(math.prod(ratios) == n and ratios[-1] == 1, "ratios have not stabilized at n")
            want = {"value": arith.sn_data(arith.factor_small(n)), "exactness": "certified"}
            need(data["expected"]["mu"] == want, "expected mu %r", data["expected"].get("mu"))
            return
        if name in DIAGRAMS:
            need(data["kind"] == "diagram" and payload == DIAGRAMS[name], "payload differs from docs")
        else:
            need(data["kind"] == "group" and payload == GROUPS[name], "payload differs from docs")
        for key, value in EXPECTED[name].items():
            need(data["expected"].get(key) == value, "expected %s differs from docs", key)
