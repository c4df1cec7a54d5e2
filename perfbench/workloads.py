"""Seeded request lists for the three workloads.

A request is one `brat` command line plus the facts the checker needs to
judge its answer.  brat itself only ever sees the generated JSON files
and argv.  The same (workload, seed) always yields the same list; the
seed moves values, never the sizes along a sweep axis, so request cost
is comparable across seeds.

Workloads (why each exists):

* cold-cli: small requests over every subcommand and operation, with
  expected failures (broken diagrams, exit-1 queries).  Interpreter
  start, import, argparse and JSON emission dominate; the kernels do
  almost nothing.  Catches work moved into import time.
* diagram-sweep: tower, certificate, premorphism, witness and telescope
  requests on diagrams that sweep width, depth, entry size and tails
  whose gcds carry large primes, plus deep towers on example-5.5 past
  Python's 4300-digit limit.  Drives the bigint mat-vec, tail
  certification, premorphism verification, factorization of huge gcds
  and large JSON emission; almost no prime enumeration.
* arith-sweep: catalog, mu and embed on uhf-<n> sweeping the largest
  prime index, sn ell at large stages, and group queries sweeping
  generator size and unit.  Drives prime enumeration, ell, catalog
  stabilization and the semigroup residue table; single-vertex
  diagrams only, so the mat-vec is negligible.

The list is interleaved so that every prefix holds each request class
in about its share of the whole list: a timed run that stops part-way
through a pass still sees the full mix.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import arith
from .catalog_docs import DIAGRAMS, GROUPS, INVARIANTS, NAMES

DEFAULT_DEPTH = 16
WORKLOADS = ("cold-cli", "diagram-sweep", "arith-sweep")

# Primes near one million: tails of the form P*I carry P into every gcd.
_BIG_PRIMES = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037, 1000039)


@dataclass(frozen=True)
class Request:
    kind: str  # checker dispatch key
    argv: tuple[str, ...]  # arguments after `brat`
    facts: dict  # what the checker needs to judge the answer
    label: str  # request class, used for interleaving and reports
    tail: bool = False  # an infinite diagram whose mu/embed may certify


@dataclass
class Workload:
    requests: list[Request] = field(default_factory=list)
    files: dict[str, object] = field(default_factory=dict)

    def write(self, directory) -> None:
        for name, data in self.files.items():
            (directory / name).write_text(json.dumps(data), encoding="utf-8")


def _sn_text(number: dict) -> str:
    return json.dumps(arith.sn_data(number), separators=(",", ":"))


class Builder:
    """Accumulates generated input files and requests for one workload."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random("%s:%d" % (name, seed))
        self.work = Workload()

    # ---- inputs -------------------------------------------------------

    def add_file(self, prefix: str, data) -> str:
        fname = "%s-%d.json" % (prefix, len(self.work.files))
        self.work.files[fname] = data
        return fname

    def diagram(self, prefix: str, data: dict, invariant) -> dict:
        """Register a diagram file; `invariant` is its known supernatural
        number, or None when only the truncations are known."""
        return {"source": self.add_file(prefix, data), "data": data, "invariant": invariant,
                "infinite": data.get("tail") == "repeat-last", "given": len(data["matrices"])}

    def catalog_diagram(self, name: str) -> dict:
        data = DIAGRAMS[name]
        return {"source": "catalog:" + name, "data": data, "invariant": INVARIANTS[name],
                "infinite": data["tail"] == "repeat-last", "given": len(data["matrices"])}

    def uhf_catalog(self, n: int) -> dict:
        return {"source": "catalog:uhf-%d" % n, "data": None, "uhf": n,
                "invariant": arith.sn_data(arith.factor_small(n)), "infinite": True, "given": None}

    def _entry(self, bits: int) -> int:
        return self.rng.randrange(1, 2**bits)

    def generic_tail(self, width: int, bits: int) -> dict:
        """Random head column and random square tail: no known invariant."""
        head = [[self._entry(bits)] for _ in range(width)]
        tail = [[self.rng.randrange(0, 2**bits) for _ in range(width)] for _ in range(width)]
        for i in range(width):
            tail[i][i] = tail[i][i] or self._entry(bits)
        data = {"levels": [1, width, width], "matrices": [head, tail], "tail": "repeat-last"}
        return self.diagram("generic", data, None)

    def _smooth(self, target: int) -> tuple[int, dict]:
        """A random product of primes up to 13 in (0.8*target, target], so
        the tail grows at the rate the entry size sets, whatever the seed."""
        while True:
            c, factors = 1, {}
            while True:
                fits = [p for p in (2, 3, 5, 7, 11, 13) if c * p <= target]
                if not fits:
                    break
                p = self.rng.choice(fits)
                c *= p
                factors[p] = factors.get(p, 0) + 1
            if 5 * c > 4 * target:
                return c, factors

    def const_ratio_tail(self, width: int, bits: int) -> dict:
        """Tail rows all sum to c and the head column is constant, so every
        ratio past level 1 is c: the invariant is known exactly."""
        c, c_factors = self._smooth(max(width, 1) * 2**bits)
        s = self.rng.choice((1, 2, 3, 4, 5, 6, 7, 10, 12, 35))
        rows = []
        for i in range(width):
            cuts = sorted(self.rng.randrange(c + 1) for _ in range(width - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [c])]
            if parts[i] == 0:
                j = next(j for j, x in enumerate(parts) if x)
                parts[i], parts[j] = parts[j], parts[i]
            rows.append(parts)
        data = {"levels": [1, width, width], "matrices": [[[s]] * width, rows],
                "tail": "repeat-last"}
        invariant = {p: e for p, e in arith.factor_small(s).items() if p not in c_factors}
        invariant.update({p: arith.INF for p in c_factors})
        info = self.diagram("ratio", data, arith.sn_data(invariant))
        info.update(ratio=c, ratio_primes=sorted(c_factors), scale=s)
        return info

    def prime_tail(self, width: int) -> dict:
        """Tail P*I with P a prime near one million: gcds carry P^depth."""
        p = self.rng.choice(_BIG_PRIMES)
        head = [[self.rng.randint(1, 60)] for _ in range(width)]
        tail = [[p if i == j else 0 for j in range(width)] for i in range(width)]
        g = math.gcd(*(row[0] for row in head))
        invariant = {q: e for q, e in arith.factor_small(g).items() if q != p}
        invariant[p] = arith.INF
        data = {"levels": [1, width, width], "matrices": [head, tail], "tail": "repeat-last"}
        info = self.diagram("prime", data, arith.sn_data(invariant))
        info["prime"] = p
        return info

    def finite(self, width: int, depth: int, bits: int) -> dict:
        levels = [1] + [width] * depth
        matrices = []
        for n in range(1, depth + 1):
            rows, cols = levels[n], levels[n - 1]
            m = [[self.rng.randrange(0, 2**bits) for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):
                m[i][i % cols] = m[i][i % cols] or self._entry(bits)
            for j in range(cols):
                if all(m[i][j] == 0 for i in range(rows)):
                    m[self.rng.randrange(rows)][j] = self._entry(bits)
            matrices.append(m)
        return self.diagram("finite", {"levels": levels, "matrices": matrices, "tail": "none"}, None)

    def group(self, data: dict) -> str:
        return self.add_file("group", data)

    # ---- requests -----------------------------------------------------

    def add(self, kind: str, argv, facts: dict, label: str, tail: bool = False) -> None:
        self.work.requests.append(Request(kind, tuple(str(a) for a in argv), facts, label, tail))

    def _depth(self, info: dict, depth):
        """argv suffix and the effective depth brat must report."""
        if depth is None:
            if info["infinite"]:
                return [], DEFAULT_DEPTH
            return [], min(DEFAULT_DEPTH, info["given"])
        return ["--depth", depth], depth

    def _diagram_facts(self, info: dict, depth: int, **extra) -> dict:
        facts = {"source": info["source"], "depth": depth}
        if info.get("uhf"):
            facts["uhf"] = info["uhf"]
        facts.update(extra)
        return facts

    def towers(self, info, depth=None, label="towers"):
        arg, d = self._depth(info, depth)
        self.add("towers", ["towers", info["source"], *arg], self._diagram_facts(info, d), label)

    def mu(self, info, depth=None, label="mu"):
        arg, d = self._depth(info, depth)
        facts = self._diagram_facts(info, d, invariant=info["invariant"])
        self.add("mu", ["mu", info["source"], *arg], facts, label, tail=info["infinite"])

    def embed(self, info, number: dict, depth=None, label="embed"):
        arg, d = self._depth(info, depth)
        facts = self._diagram_facts(info, d, invariant=info["invariant"], uhf_number=arith.sn_data(number))
        self.add("embed", ["embed", info["source"], *arg, "--uhf", _sn_text(number)], facts, label,
                 tail=info["infinite"])

    def odometer(self, info, depth=None, dot=False, label="odometer"):
        arg, d = self._depth(info, depth)
        fmt = ["--format", "dot"] if dot else []
        self.add("odometer-dot" if dot else "odometer", ["odometer", info["source"], *arg, *fmt],
                 self._diagram_facts(info, d), label)

    def premorphism(self, info, depth=None, verify=False, label="premorphism"):
        arg, d = self._depth(info, depth)
        flag = ["--verify"] if verify else []
        self.add("premorphism-verify" if verify else "premorphism",
                 ["premorphism", info["source"], *arg, *flag], self._diagram_facts(info, d), label)

    def k0_divides(self, info, n: int, depth=None, label="k0-divides"):
        arg, d = self._depth(info, depth)
        self.add("k0-divides", ["k0-divides", info["source"], *arg, "--n", n],
                 self._diagram_facts(info, d, n=n), label)

    def rsub(self, info, stage: int, vector, depth=None, label="rsub"):
        arg, d = self._depth(info, depth)
        self.add("rsub", ["rsub", info["source"], *arg, "--stage", stage,
                          "--vector", ",".join(map(str, vector))],
                 self._diagram_facts(info, d, stage=stage, vector=list(vector)), label)

    def theta(self, info, x: str, depth=None, label="theta"):
        arg, d = self._depth(info, depth)
        self.add("theta", ["theta", info["source"], *arg, "--x", x],
                 self._diagram_facts(info, d, x=x), label)

    def divide(self, info, stage: int, vector, m: int, depth=None, label="divide"):
        arg, d = self._depth(info, depth)
        self.add("divide", ["divide", info["source"], *arg, "--stage", stage,
                            "--vector", ",".join(map(str, vector)), "--m", m],
                 self._diagram_facts(info, d, stage=stage, vector=list(vector), m=m), label)

    def telescope(self, info, cuts, label="telescope"):
        self.add("telescope", ["telescope", info["source"], "--cuts", ",".join(map(str, cuts))],
                 {"source": info["source"], "cuts": list(cuts)}, label)

    def validate(self, data: dict, broken: str | None, label="validate"):
        source = self.add_file("validate", data)
        self.add("validate", ["validate", source], {"source": source, "broken": broken}, label)

    def sn(self, op: str, operands, label="sn"):
        texts = [o if isinstance(o, str) else _sn_text(o) for o in operands]
        self.add("sn-" + op, ["sn", op, *texts], {"operands": texts}, label)

    def group_op(self, op: str, source: str, data: dict, label: str, **extra):
        argv = ["group", op, source]
        if "n" in extra:
            argv += ["--n", extra["n"]]
        if "g" in extra:
            argv.append("--g=%s" % extra["g"])  # "=" keeps a negative value an argument
        self.add("group-" + op, argv, {"group": data, **extra}, label)

    def catalog(self, name: str | None, label="catalog"):
        self.add("catalog", ["catalog"] + ([name] if name else []), {"name": name}, label)

    # ---- finishing ----------------------------------------------------

    def finish(self) -> Workload:
        """Interleave request classes evenly across the list."""
        by_label: dict[str, list[Request]] = {}
        for req in self.work.requests:
            by_label.setdefault(req.label, []).append(req)
        keyed = []
        for label, reqs in by_label.items():
            offset = self.rng.random()
            keyed.extend(((i + offset) / len(reqs), label, req) for i, req in enumerate(reqs))
        keyed.sort(key=lambda item: (item[0], item[1]))
        self.work.requests = [req for _, _, req in keyed]
        return self.work


# ---------------------------------------------------------------------------
# cold-cli

def _small_number(rng) -> dict:
    out = {}
    for p in rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3)):
        out[p] = arith.INF if rng.random() < 0.3 else rng.randint(1, 4)
    return out


def _quadratic_group(rng) -> dict:
    h = {p: (arith.INF if rng.random() < 0.5 else rng.randint(1, 3)) for p in rng.sample((2, 3, 5), 2)}
    d = rng.choice((2, 3, 5, 6, 7, 10))
    den = 1
    for p in h:
        den *= p ** rng.randint(0, 1)
    k = Fraction(rng.randint(1, 40) * rng.choice((1, 2, 3, 6)), den)
    z = rng.choice((0, 0, rng.choice((-6, -3, -2, 2, 3, 6))))
    if z < 0 and k * k <= d * z * z:
        z = -z  # keep the unit k + z*sqrt(d) positive
    return {"kind": "quadratic", "H": arith.sn_data(h), "alpha_square": d,
            "unit": {"k": str(k), "z": z}}


def _cyclic_group(rng) -> dict:
    gens = sorted(rng.sample((2, 3, 4, 5, 6, 7, 9, 10), rng.randint(2, 3)))
    while math.gcd(*gens) != 1:
        gens = sorted(rng.sample((2, 3, 4, 5, 6, 7, 9, 10), rng.randint(2, 3)))
    cone = arith.Cone(gens)
    unit = rng.randint(max(gens), 400)
    while not cone.member(unit):
        unit += 1
    return {"kind": "cyclic", "generators": gens, "unit": unit}


def cold_cli(seed: int, scale: int = 1) -> Workload:
    b = Builder("cold-cli", seed)
    rng = b.rng
    example = b.catalog_diagram("example-5.5")
    findim = b.catalog_diagram("findim-4-6")
    w = rng.randint(1, 4)
    tail = b.const_ratio_tail(w, rng.randint(1, 3))
    scalar = b.prime_tail(rng.randint(1, 3))
    generic = b.generic_tail(rng.randint(2, 4), 2)
    fin = b.finite(rng.randint(1, 4), rng.randint(2, 16), 2)
    depth = rng.randint(2, 16)
    b.towers(generic, depth)
    b.towers(fin)
    b.towers(example, rng.randint(1, 16))
    b.mu(tail, depth)
    b.mu(fin)
    b.mu(b.uhf_catalog(rng.randint(1, 60)), DEFAULT_DEPTH + 4, label="mu-uhf")
    b.mu(example if rng.random() < 0.5 else findim)
    b.embed(tail, _small_number(rng), depth)
    b.embed(example, _small_number(rng))
    b.embed(scalar, {scalar["prime"]: rng.randint(1, 3)}, 3)
    b.odometer(tail, depth)
    b.odometer(generic, depth, dot=True)
    b.premorphism(fin)
    b.premorphism(generic, depth, verify=True)
    c = tail["ratio"]
    k = rng.randint(0, depth - 1)
    b.k0_divides(tail, tail["scale"] * c**k, depth)
    b.k0_divides(generic, rng.choice((2, 3, 5, 7)), depth, label="k0-divides-no")
    w = len(tail["data"]["matrices"][1])
    b.rsub(tail, 1, [rng.randint(1, 5)] * w, depth)
    b.rsub(generic, 1, [rng.randint(1, 9) for _ in range(len(generic["data"]["matrices"][1]))],
           depth, label="rsub-no")
    b.theta(tail, "%d/%d" % (rng.randint(1, 20), c ** rng.randint(0, depth - 2)), depth)
    b.divide(tail, 1, [rng.randint(1, 9) for _ in range(w)], c ** rng.randint(1, depth - 1), depth)
    b.divide(generic, 1, [rng.randint(1, 9) for _ in range(len(generic["data"]["matrices"][1]))],
             rng.choice((4, 9, 25)), depth, label="divide-any")
    cuts = sorted(rng.sample(range(1, 17), rng.randint(1, 4)))
    b.telescope(generic, cuts)
    b.validate(fin["data"], None)
    b.validate(*_broken(rng))
    x, y = _small_number(rng), _small_number(rng)
    b.sn("divides", [x, arith.sn_mul([x, y]) if rng.random() < 0.5 else y])
    b.sn("mul", [x, y, _small_number(rng)])
    b.sn("sup", [x, y])
    b.sn("inf", [x, y])
    b.sn("ell", [_sn_text(x), str(rng.randint(1, 30))])
    cyc = _cyclic_group(rng)
    quad = _quadratic_group(rng)
    src_c, src_q = b.group(cyc), b.group(quad)
    name = rng.choice(sorted(GROUPS))
    b.group_op("propd", "catalog:" + name, GROUPS[name], "group-propd")
    b.group_op("propd", src_c, cyc, "group-propd")
    b.group_op("maxsn", src_c, cyc, "group-maxsn")
    b.group_op("maxsn", src_q, quad, "group-maxsn")
    b.group_op("divides", src_c, cyc, "group-divides", n=rng.choice((1, 2, 3, 5, 6)))
    b.group_op("divides", src_q, quad, "group-divides", n=rng.choice((1, 2, 3, 4)))
    b.group_op("rsub", src_c, cyc, "group-rsub", g=str(rng.randint(-50, 50)))
    b.group_op("rsub", src_q, quad, "group-rsub", g=_quadratic_element(rng, quad))
    b.catalog(None)
    b.catalog(rng.choice(NAMES + ["uhf-%d" % rng.randint(1, 60)]))
    return b.finish()


def _quadratic_element(rng, group: dict) -> str:
    """h,w inside the group: lambda*unit half the time (a member of the
    unit's rational subgroup), otherwise off by one in the sqrt part."""
    k, z = Fraction(group["unit"]["k"]), group["unit"]["z"]
    lam = rng.randint(-6, 6)  # integer multiples of the unit stay in the group
    w = lam * z if rng.random() < 0.5 else lam * z + rng.choice((-1, 1))
    return "%s,%d" % (lam * k, w)


def _broken(rng) -> tuple[dict, str]:
    kind = rng.choice(("entry", "zero-row", "zero-column", "shape", "root", "tail"))
    w = rng.randint(2, 3)
    data = {"levels": [1, w, w], "matrices": [[[1]] * w, [[1] * w for _ in range(w)]],
            "tail": "repeat-last"}
    m = [list(row) for row in data["matrices"][1]]
    if kind == "entry":
        m[0][0] = -rng.randint(1, 5)
    elif kind == "zero-row":
        m[rng.randrange(w)] = [0] * w
    elif kind == "zero-column":
        j = rng.randrange(w)
        for row in m:
            row[j] = 0
    elif kind == "shape":
        m = m[:-1]
    elif kind == "root":
        data["levels"] = [2, w, w]
        data["matrices"][0] = [[1, 1]] * w
    else:
        data["levels"] = [1, w, w + 1]
        m = [[1] * w for _ in range(w + 1)]
    data["matrices"][1] = m
    return data, kind


# ---------------------------------------------------------------------------
# diagram-sweep

# (width, depth, entry bits) points per request class.  Towers print every
# height, so their points keep heights below the 4300-digit limit; the
# deep example-5.5 towers are the ones meant to cross it.
MU_GENERIC = ((2, 800, 3), (16, 400, 3), (100, 240, 2), (4, 60, 1024))
MU_RATIO = ((8, 600, 8), (100, 100, 4))
MU_PRIME = ((1, 40), (1, 60))
TOWERS = ((2, 1000, 3), (64, 200, 3), (4, 120, 64))
PREMORPHISM = ((4, 800, 3), (16, 300, 2), (32, 80, 2), (100, 12, 2))
DEEP_TOWERS = 2


def diagram_sweep(seed: int, scale: int = 1) -> Workload:
    b = Builder("diagram-sweep", seed)
    rng = b.rng
    example = b.catalog_diagram("example-5.5")

    def shrink(depth):
        return max(4, depth // scale)

    for w, d, bits in MU_GENERIC:
        b.mu(b.generic_tail(w, bits), shrink(d), label="mu-generic")
    for w, d, bits in MU_RATIO:
        info = b.const_ratio_tail(w, bits)
        b.mu(info, shrink(d), label="mu-ratio")
        number = {p: arith.INF for p in info["ratio_primes"][:1]}
        if rng.random() < 0.5:
            number[rng.choice((17, 19, 23))] = 1
        b.embed(info, number, shrink(d), label="embed-ratio")
    for w, d in MU_PRIME:
        info = b.prime_tail(w)
        b.mu(info, shrink(d), label="mu-prime")
    info = b.prime_tail(1)
    b.embed(info, {info["prime"]: 3}, shrink(30), label="embed-prime")
    fin = b.finite(8, shrink(64), 4)
    b.mu(fin, shrink(64), label="mu-finite")
    for i, (w, d, bits) in enumerate(TOWERS):
        kind = (b.generic_tail, b.const_ratio_tail)[i % 2]
        b.towers(kind(w, bits), shrink(d), label="towers")
    for w, d in ((32, 300),):
        b.odometer(b.generic_tail(w, 3), shrink(d), dot=True, label="odometer-dot")
    for w, d, bits in PREMORPHISM:
        b.premorphism(b.generic_tail(w, bits), shrink(d), verify=True, label="premorphism")
    for w, d, bits in ((16, 400, 4),):
        info = b.const_ratio_tail(w, bits)
        c, d = info["ratio"], shrink(d)
        k = rng.randint(d // 2, d - 2)
        b.theta(info, "%d/%d" % (rng.randrange(1, c), c**k), d, label="theta")
        b.k0_divides(info, c ** (k + 1), d, label="k0-divides")
        b.rsub(info, 1, [rng.randint(1, 9)] * w, d, label="rsub")
        b.divide(info, 1, [rng.randint(1, 99) for _ in range(w)], c**k, d, label="divide")
    for w, d in ((32, 200),):
        info = b.generic_tail(w, 3)
        d = shrink(d)
        b.rsub(info, 1, [rng.randint(1, 9) for _ in range(w)], d, label="rsub-generic")
        b.divide(info, 1, [rng.randint(1, 9) for _ in range(w)], rng.choice((2, 3)), d, label="divide-generic")
        b.k0_divides(info, rng.choice((64, 81, 125)), d, label="k0-divides-generic")
    for w, last in ((4, 400), (100, 6)):
        # evenly spaced cuts: the cost of a product grows with segment length
        last = shrink(last)
        cuts = sorted({max(1, last * k // 6 - rng.randint(0, 1)) for k in range(1, 6)} | {last})
        b.telescope(b.generic_tail(w, 3), cuts, label="telescope")
    for _ in range(DEEP_TOWERS):
        b.towers(example, 9100 + rng.randrange(400) if scale == 1 else shrink(64), label="towers-deep")
    return b.finish()


# ---------------------------------------------------------------------------
# arith-sweep

PRIME_INDEX = (10, 25, 40, 55, 70, 80)
ELL_STAGES = (500, 1000, 2000, 4000, 8000)
GENERATORS = (125_000, 250_000, 500_000, 1_000_000, 2_000_000)
UNITS = (375_000, 750_000, 1_500_000, 3_000_000, 6_000_000)


def _uhf_number(rng, index: int, primes) -> int:
    n = primes[index - 1]
    for p in rng.sample(primes[:index - 1], min(3, index - 1)):
        n *= p ** rng.randint(1, 3)
    return n


def _jitter(rng, value: int) -> int:
    return value + rng.randrange(-value // 32, value // 32 + 1)


def arith_sweep(seed: int, scale: int = 1) -> Workload:
    b = Builder("arith-sweep", seed)
    rng = b.rng
    primes = arith.first_primes(max(PRIME_INDEX))
    ops = ("catalog", "mu", "embed")
    start = rng.randrange(3)
    for i, index in enumerate(PRIME_INDEX):
        index = max(2, index // scale)
        n = _uhf_number(rng, index, primes)
        info = b.uhf_catalog(n)
        op = ops[(start + i) % 3]
        if op == "catalog":
            b.catalog("uhf-%d" % n, label="uhf")
        elif op == "mu":
            b.mu(info, None if i % 2 else 2 * index, label="uhf")
        else:
            number = dict(arith.factor_small(n))
            if rng.random() < 0.5:
                number[primes[index - 1]] += 1
            b.embed(info, number, 2 * index, label="uhf")
    for j in ELL_STAGES:
        p = rng.choice((2, 3))
        number = {p: arith.INF, rng.choice((5, 7, 11)): rng.randint(1, 5)}
        b.sn("ell", [_sn_text(number), str(max(2, j // scale))], label="sn-ell")
    for g in GENERATORS:
        # the cone of <g, g+1> is the union of the intervals [k*g, k*g + k]
        g = max(16, _jitter(rng, g) // scale**3)
        n, k = rng.choice((2, 3, 4, 6)), rng.randint(2, 8)
        if rng.random() < 0.3:
            x = k * g + -(-g // n)  # outside the cone, while n*x is inside
        else:
            x = k * g + rng.randint(0, k)
        data = {"kind": "cyclic", "generators": [g, g + 1], "unit": n * x}
        b.group_op("divides", b.group(data), data, "group-divides", n=n)
    for size in UNITS:
        # unit 6p with p prime: the same few divisors whatever the seed, so
        # the cost is the scan over 1..unit
        gens = rng.choice(((3, 5), (4, 7), (5, 7), (3, 7), (5, 8)))
        p = _jitter(rng, max(50, size // scale**3)) // 6
        while not arith.is_prime(p):
            p += 1
        data = {"kind": "cyclic", "generators": list(gens), "unit": _in_cone(gens, 6 * p)}
        src = b.group(data)
        b.group_op("propd", src, data, "group-propd")
        if size <= UNITS[2]:
            b.group_op("maxsn", src, data, "group-maxsn")
        if size in (UNITS[0], UNITS[-1]):
            b.group_op("rsub", src, data, "group-rsub", g=str(rng.randint(-10**6, 10**6)))
    for _ in range(2):
        quad = _quadratic_group(rng)
        src = b.group(quad)
        b.group_op("maxsn", src, quad, "group-maxsn-quadratic")
        b.group_op("rsub", src, quad, "group-rsub-quadratic", g=_quadratic_element(rng, quad))
    return b.finish()


def _in_cone(gens, unit: int) -> int:
    cone = arith.Cone(gens)
    while not cone.member(unit):
        unit += 1
    return unit


BUILDERS = {"cold-cli": cold_cli, "diagram-sweep": diagram_sweep, "arith-sweep": arith_sweep}


def build(name: str, seed: int, scale: int = 1) -> Workload:
    """The request list of one workload; scale > 1 shrinks every size for tests."""
    return BUILDERS[name](seed, scale)
