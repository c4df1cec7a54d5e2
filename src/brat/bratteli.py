"""Bratteli diagrams and the maximal-UHF invariant of unital AF algebras.

A diagram is a leveled multigraph described by multiplicity matrices:
level 0 has a single vertex, and the matrix M_n records how many edges
join each level-(n-1) vertex to each level-n vertex.  Every vertex
emits at least one edge and, past level 0, receives at least one.  An
optional "repeat-last" tail extends a diagram with a square final
matrix to infinite depth.  A diagram that breaks a rule is never built:
construction raises a DiagramError listing every broken rule.

The product M_n * ... * M_1 counts paths from the root, giving the
height vector h_n at level n.  Its gcd g_n divides g_{n+1}, and the
ratio sequence r_n = g_n / g_{n-1} drives everything else: the
single-vertex odometer diagram with matrices [r_n] describes the maximal
UHF subalgebra that admits a unital embedding, and the supernatural
product of the r_n is its isomorphism class.

The walk carries level k as r_k = gcd(M_k n_{k-1}) and the primitive
n_k = M_k n_{k-1} / r_k, so h_k = g_k n_k: no full height is pushed.
"Certified" means the walk's record has a period: 0 for a finite diagram
walked to its last level, or t - s for a first revisit n_t = n_s,
L = given_depth - 1 <= s < t.  From L on each step applies the tail
matrix, so (n_{k+1}, r_{k+1}) is a function of n_k; thus r_{t+j} =
r_{s+j} for all j >= 1, the primes of r_{s+1} ... r_t get exponent
OMEGA, and no other prime occurs after t.  With no period, results are
"truncated-at-depth".  The record keeps levels up to t and gives v_p of
the invariant at any prime: `embed` and a `theta` miss read N's primes
and factor no ratio, and `mu` factors each distinct ratio once.  Later
levels are replayed when read, so `mu`, `embed`, `odometer` and a
`theta` miss hold the ratios and the k+1 window vectors, plus one
vector; only `towers` and `premorphism` keep every n_k.

From s0 = max(stage, L) each push applies the k x k tail A (`_horizon`).
Fitting's lemma gives Q^k = ker A^k + im A^k, A injective on im A^k, and
Z_p^k = N + U, A^k N in pN, A invertible on U; hence four rules, by the
middle two of which a search's miss at its horizon is a miss at any depth:
- The walk's revisit window.  From L+k on each n_j lies along im A^k,
  where A is injective, so n -> A n / gcd(A n) is injective on these
  primitive positive n_j: a first revisit with s > L+k would follow an
  earlier one, n_{s-1} = n_{t-1}.  So s <= L+k.
- `divide`: v_p(A^n y) = min(v_p(A^n y_N), v_p(y_U)), whose first term gains
  at least 1 per k pushes, so a gcd(content, m) stalled k pushes is final.
- `rsub`: as ker A^n = ker A^k for n >= k, a hit comes by level s0 + k.
- The walk's end.  If r_{L+1} ... r_{L+k} are all 1, so is every later
  ratio (`divide`'s rule at each p), so n_{j+1} = A n_j, whose sum never
  falls (A >= 0 has no zero column) and, from a revisit's s <= L+k on, is
  constant: a rise of sum(n_j) at a level j > L+k rules out any revisit.

Head levels are pushed row by row.  The tail matrix A (k x k) is pushed
in a form the walk builds once, chosen from A by an operation count:
- Shared subset sums (Arlazarov, Dinic, Kronrod and Faradzev, 1970).
  When A's entries fit in a byte, split A into its P bit planes and v
  into blocks of b <= 8 entries.  The 2**b subset sums of each block are
  built once per push, and each row and plane looks its block's subset
  up.  A push then costs ceil(k/b) * (2**b + k * P) additions instead of
  k * k multiplications; the walk takes this form when it costs fewer
  operations, counting one pass over A to build it.  `_mat_mul`, which
  telescope's products and premorphism checks use, takes the same form
  when it pushes enough columns through one matrix.
- A content bounded by det(A) (Bareiss, Math. Comp. 22, 1968).  If A is
  nonsingular and n is primitive, the content r of A n divides det(A):
  r divides every entry of A n, so also of adj(A) A n = det(A) n, and
  the entries of n have gcd 1.  So r = gcd(det A, A n), a gcd whose
  first term stays at the size of det(A) while the heights grow.  The
  walk computes det(A), exactly and fraction-free, at the first tail
  push whose plain gcd, about H**2 bit operations for H-bit entries,
  would cost more than the elimination.  A singular A keeps the plain gcd.
"""

import math
import sys
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, cycle, islice, repeat
from operator import add, lshift, mul, neg, or_
from collections.abc import Sequence

from ._record import Record, as_int, clipped
from .primes import factorize, prime_index, valuation
from .supernatural import OMEGA, Exponent, SupernaturalNumber, divides_times_powers

Matrix = tuple[tuple[int, ...], ...]

REPEAT_LAST = "repeat-last"
CERTIFIED = "certified"
TRUNCATED = "truncated-at-depth"


class DiagramError(ValueError):
    """A structural rule was broken by a diagram or a depth request.  An
    invalid diagram's error lists every broken rule in `violations`."""


def _as_matrix(rows) -> Matrix:
    try:
        rows = tuple(rows)
        matrix = tuple(map(tuple, rows))
        if set(map(type, chain.from_iterable(matrix))) <= {int}:
            return matrix
    except TypeError:
        pass
    # cell by cell, to raise the error of the first bad cell or row
    try:
        return tuple(tuple(as_int(cell, "matrix entries must be integers") for cell in row) for row in rows)
    except TypeError:
        raise ValueError("each matrix must be a list of rows of integers") from None


def _mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def _subset_mat_vec(form, v: tuple[int, ...]) -> tuple[int, ...]:
    # index[p][j] holds, in byte i, the subset of block j of v that bit
    # plane p of row i picks; each block's 2**b subset sums are built once
    b, index = form
    lookups = []
    for start in range(0, len(v), b):
        table = [0]
        for x in v[start:start + b]:
            table += [y + x for y in table]
        lookups.append(table.__getitem__)
    total = ()
    for blocks in reversed(index):  # Horner over the bit planes
        sums = map(sum, zip(*map(map, lookups, blocks)))
        total = map(add, map(lshift, total, repeat(1)), sums) if total else sums
    return tuple(total)


def _product(a: Matrix, pushes: int):
    """v -> a v for `pushes` vectors v, by shared subset sums (see the
    module docstring) when that takes fewer operations, else row by row.
    They need more than one vector, and 2**b < (b - 1) * rows for some b,
    which takes rows > 4."""
    rows, k = len(a), len(a[0])
    if pushes < 2 or rows <= 4:
        return partial(_mat_vec, a)
    try:
        # column j as an integer whose byte i is a[i][j]
        columns = [int.from_bytes(bytes(column), "little") for column in zip(*a)]
    except ValueError:  # an entry outside 0..255
        return partial(_mat_vec, a)
    planes = max(reduce(or_, columns, 0).to_bytes(rows, "little")).bit_length()
    cost, b = min((-(-k // b) * (2**b + rows * planes), b) for b in range(1, 9))
    if not planes or rows * k + pushes * cost >= pushes * rows * k:  # a zero a has no plane
        return partial(_mat_vec, a)
    # the bit-p slices of a block's columns, each shifted to its place in
    # the block, sum to the subsets that plane p of each row picks, a byte
    # per row
    ones = int.from_bytes(b"\1" * rows, "little")
    index = tuple(tuple(sum(((columns[j] >> p) & ones) << (j - start) for j in range(start, min(start + b, k)))
                        .to_bytes(rows, "little") for start in range(0, k, b)) for p in range(planes))
    return partial(_subset_mat_vec, (b, index))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # a times each column of b, transposed back into rows
    return tuple(zip(*map(_product(a, len(b[0])), zip(*b))))


class Violation(Record):
    """One broken structural rule, anchored to a level and position."""

    kind: str
    level: int
    position: int | None
    message: str


class BratteliDiagram(Record):
    """Levels, multiplicity matrices, optional repeating tail; valid once built."""

    levels: tuple[int, ...]
    matrices: tuple[Matrix, ...]
    tail: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(as_int(k, "levels must be integers") for k in self.levels))
        object.__setattr__(self, "matrices", tuple(_as_matrix(m) for m in self.matrices))
        if self.tail not in (None, REPEAT_LAST):
            raise ValueError("tail must be absent or %r, got %s" % (REPEAT_LAST, clipped(self.tail)))
        if problems := self._violations():
            error = DiagramError("invalid diagram: %s" % problems[0].message)
            error.violations = problems
            raise error

    @property
    def given_depth(self) -> int:
        """Number of explicitly listed matrices."""
        return len(self.matrices)

    @property
    def is_infinite(self) -> bool:
        return self.tail == REPEAT_LAST

    def width_at(self, n: int) -> int:
        if n <= self.given_depth:
            return self.levels[n]
        if self.is_infinite:
            return self.levels[self.given_depth]
        raise DiagramError("level %d exceeds the %d levels of a finite diagram"
                           % (n, self.given_depth))

    def matrix_at(self, n: int) -> Matrix:
        """Multiplicity matrix feeding level n (1-based)."""
        if n < 1:
            raise DiagramError("matrix index must be >= 1, got %d" % n)
        if n <= self.given_depth:
            return self.matrices[n - 1]
        if self.is_infinite:
            return self.matrices[-1]
        raise DiagramError("level %d exceeds the %d levels of a finite diagram"
                           % (n, self.given_depth))

    def _violations(self) -> list[Violation]:
        # every broken structural rule, shallowest first; with no levels, only the root's
        found: list[Violation] = []
        if not self.levels or self.levels[0] != 1:
            found.append(Violation("root", 0, None, "level 0 must hold exactly one vertex"))
        if len(self.levels) != len(self.matrices) + 1:
            if self.levels:
                found.append(Violation("shape", 0, None, "%d levels need %d matrices, got %d"
                                       % (len(self.levels), len(self.levels) - 1, len(self.matrices))))
            return found
        for n, m in enumerate(self.matrices, start=1):
            rows, cols = self.levels[n], self.levels[n - 1]
            if len(m) != rows or any(len(row) != cols for row in m):
                found.append(Violation("shape", n, None,
                                       "matrix %d must be %dx%d" % (n, rows, cols)))
                continue
            found += [Violation("entry", n, i, "negative multiplicity in row %d" % i)
                      for i, row in enumerate(m) if row and min(row) < 0]
            found += [Violation("zero-row", n, i, "vertex %d at level %d receives no edge" % (i, n))
                      for i, row in enumerate(m) if not any(row)]
            # with no rows, each of the cols columns is empty
            found += [Violation("zero-column", n, j, "vertex %d at level %d emits no edge" % (j, n - 1))
                      for j, column in enumerate(zip(*m) if m else [()] * cols) if not any(column)]
        if self.is_infinite:
            if not self.matrices:
                found.append(Violation("tail", 0, None, "a repeating tail needs a last matrix"))
            elif self.levels[-1] != self.levels[-2]:
                found.append(Violation("tail", len(self.matrices), None,
                                       "a repeating tail needs a square last matrix"))
        return found

    def to_data(self) -> dict[str, object]:
        return {
            "levels": list(self.levels),
            "matrices": [[list(row) for row in m] for m in self.matrices],
            "tail": self.tail if self.tail else "none",
        }

    @classmethod
    def from_data(cls, data) -> "BratteliDiagram":
        if not isinstance(data, dict):
            raise ValueError("diagram must be an object, got %s" % clipped(data))
        try:
            levels = list(data["levels"])
            matrices = list(data["matrices"])
        except (KeyError, TypeError) as exc:
            raise ValueError("diagram needs levels and matrices: %s" % exc) from None
        tail = data.get("tail")
        if tail in (None, "none", ""):
            tail = None
        return cls(tuple(levels), tuple(matrices), tail)


class TowerProfile(Record):
    """A walk to `depth`: ratios and primitive heights up to the first revisit.

    walked[n-1] = r_n = gcds[n] / gcds[n-1] and kept[n] = n_n = heights[n] /
    gcds[n] for n <= t, where t is the first revisit n_t = n_s inside the
    tail and period = t - s.  With no revisit period is 0 for a finite
    diagram walked to its last level, else None, and t is `depth` or, if no
    vectors are kept, the walk's end (module docstring).  ratios, vectors,
    gcds and heights run to `depth`, derived on first read by replaying
    (s, t] or the last ratio; with no vectors kept, kept == vectors == heights == ().
    """

    walked: tuple[int, ...]
    kept: tuple[tuple[int, ...], ...]
    period: int | None
    depth: int

    def _replayed(self, levels: tuple) -> tuple:
        # the levels past the walk repeat its last period or, with none, its last ratio: 1 past the walk's end
        if (past := self.depth - len(self.walked)) > sys.maxsize:  # more than any tuple holds
            raise OverflowError("%d levels past the walk" % past)
        return levels + tuple(islice(cycle(levels[-(self.period or 1):]), past))

    @cached_property
    def ratios(self) -> tuple[int, ...]:
        return self._replayed(self.walked)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return self._replayed(self.kept)

    @cached_property
    def gcds(self) -> tuple[int, ...]:
        return tuple(accumulate(self.ratios, mul, initial=1))

    @cached_property
    def heights(self) -> tuple[tuple[int, ...], ...]:
        if not self.vectors:  # a walk that kept none reads no gcds
            return ()
        # a factor 1 reuses the other factor's object: 1 * x is a new int
        return tuple(n if g == 1 else tuple(g if x == 1 else g * x for x in n)
                     for g, n in zip(self.gcds, self.vectors))

    def exponent(self, p: int) -> Exponent:
        """v_p of the invariant at `depth`, for a prime p: OMEGA when p
        divides a ratio of the last period, which recurs forever, else v_p
        of the product of the walked ratios.  No ratio is factorized."""
        if self.period and any(r % p == 0 for r in self.walked[-self.period:]):
            return OMEGA
        return sum(valuation(r, p) for r in self.walked if r % p == 0)

    def divides(self, n: int) -> bool:
        """Whether v_p(n) <= exponent(p) at every prime p, by `divides_times_powers`."""
        return divides_times_powers(n, self.walked, math.prod(self.walked[-self.period:]) if self.period else 1)

    def odometer(self) -> BratteliDiagram:
        """The single-vertex diagram of the ratios.  It keeps a repeating tail
        only when the ratio is provably constant from the last level on,
        which a period of 1 of the normalized heights establishes."""
        return BratteliDiagram((1,) * (self.depth + 1), tuple(((r,),) for r in self.ratios),
                               REPEAT_LAST if self.period == 1 else None)

    def premorphism(self) -> "Premorphism":
        """The identity level map with column n_n at level n; ValueError if no vectors were kept."""
        return Premorphism(tuple(range(self.depth + 1)), tuple(tuple((x,) for x in n) for n in self.vectors))


class DimensionVector(Record):
    """An integer vector attached to a diagram level."""

    stage: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))


class MuResult(Record):
    """A supernatural value plus how much of it is settled."""

    value: SupernaturalNumber
    exactness: str


class Premorphism(Record):
    """A level map plus connecting matrices from one diagram to another.

    level_map[n] is the target level assigned to source level n; it
    starts at 0 and never decreases.  matrices[n] connects source level
    n into target level level_map[n]; matrices[0] is the 1x1 identity.
    """

    level_map: tuple[int, ...]
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "level_map", tuple(int(f) for f in self.level_map))
        object.__setattr__(self, "matrices", tuple(_as_matrix(m) for m in self.matrices))
        if not self.level_map or self.level_map[0] != 0:
            raise ValueError("level map must start at 0")
        if any(b < a for a, b in zip(self.level_map, self.level_map[1:])):
            raise ValueError("level map must be nondecreasing")
        if len(self.level_map) != len(self.matrices):
            raise ValueError("need one matrix per mapped level")
        if self.matrices[0] != ((1,),):
            raise ValueError("the level-0 matrix must be [[1]]")

    @property
    def depth(self) -> int:
        return len(self.level_map) - 1

    def to_data(self) -> dict[str, object]:
        return {
            "level_map": list(self.level_map),
            "matrices": [[list(row) for row in m] for m in self.matrices],
        }


class PremorphismReport(Record):
    """Outcome of checking the commuting squares of a premorphism."""

    ok: bool
    level: int | None = None
    kind: str | None = None  # "shape" or "commutativity"


def _validated_depth(diagram: BratteliDiagram, depth: int) -> None:
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise DiagramError("depth must be a nonnegative integer, got %r" % (depth,))
    if not diagram.is_infinite and depth > diagram.given_depth:
        raise DiagramError("depth %d exceeds the %d levels of a finite diagram"
                           % (depth, diagram.given_depth))


def _det(a: Matrix) -> int:
    """det(a) by Bareiss's fraction-free elimination: every division is exact."""
    rows, sign, previous = [list(row) for row in a], 1, 1
    while len(rows) > 1:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return 0
        if i:
            rows[0], rows[i], sign = rows[i], rows[0], -sign
        (pivot, *top), rest = rows[0], rows[1:]
        rows = [[(pivot * x - row[0] * y) // previous for x, y in zip(row[1:], top)] for row in rest]
        previous = pivot
    return sign * rows[0][0]


def _bareiss_cost(a: Matrix) -> int:
    # bit operations, about: step j updates (k-j)**2 entries, minors of
    # order j, so at most j times the bits of the largest row sum
    k, bits = len(a), max(map(sum, a)).bit_length()
    return sum(((k - j) * j * bits) ** 2 for j in range(1, k))


def _split(v: tuple[int, ...], r: int):
    return r, tuple(x // r for x in v) if r > 1 else v


def _pushed(diagram: BratteliDiagram, v: tuple[int, ...], stage: int, depth: int):
    # (r_s, n_s) for s = stage .. depth: n_s is primitive (or zero) and the
    # vector M_s ... M_{stage+1} v is r_stage * ... * r_s * n_s
    tail = _horizon(diagram, stage, depth)[0] + 1
    for s in range(stage, min(tail, depth + 1)):
        if s > stage:
            v = _mat_vec(diagram.matrix_at(s), v)
        r, v = _split(v, math.gcd(*v))
        yield r, v
    if tail > depth:
        return
    # levels tail..depth all apply the tail matrix a, in the form _product
    # picks; from the first push whose plain gcd would cost more than
    # Bareiss's det(a), each content is gcd(det(a), a n)
    a = diagram.matrices[-1]
    push, cost, det = _product(a, depth + 1 - tail), _bareiss_cost(a), None
    for _ in range(tail, depth + 1):
        v = push(v)
        if det is None and max(map(int.bit_length, v)) ** 2 >= cost:
            det = _det(a)
        r, v = _split(v, math.gcd(det, *v) if det else math.gcd(*v))
        yield r, v


def _horizon(diagram: BratteliDiagram, stage: int, depth: int) -> tuple[int, int]:
    # (s0, k): every push from level s0 on applies the k x k tail; a finite diagram's s0 lies past the depth
    return (max(stage, diagram.given_depth - 1), diagram.levels[-1]) if diagram.is_infinite else (depth + 1, 0)


def _levels(diagram: BratteliDiagram, entries: Sequence[int], stage: int, depth: int):
    """`entries` at level `stage` pushed down to each level stage..depth,
    one (content multiplier, primitive vector) pair per level, lazily, so
    a search stops at its first hit.

    The depth, stage and vector are validated once, in that order, before
    this returns, so errors surface before any push."""
    _validated_depth(diagram, depth)
    if stage < 0 or stage > depth:
        raise DiagramError("stage %d outside 0..%d" % (stage, depth))
    v = tuple(as_int(e, "vector entries must be integers") for e in entries)
    if len(v) != diagram.width_at(stage):
        raise DiagramError("vector length %d does not match the %d vertices at level %d"
                           % (len(v), diagram.width_at(stage), stage))
    return _pushed(diagram, v, stage, depth)


def tower_profile(diagram: BratteliDiagram, depth: int, keep: bool = True) -> TowerProfile:
    """Ratios, primitive heights and period down to `depth`, from one walk
    that stops at the first revisit n_t = n_s in the tail, looked up exactly
    among the k+1 levels L..L+k where s lies, or, keeping no vectors, at the
    walk's end (module docstring); the period is t - s, 0 for a finite
    diagram walked to its end, or None.  `kept` holds the vectors if `keep`."""
    ratios, vectors, window, floor = [], [], {}, None
    walk = _levels(diagram, (1,), 0, depth)  # validates the depth before _horizon reads it
    period = None if diagram.is_infinite or depth < diagram.given_depth else 0
    tail, width = _horizon(diagram, 0, depth)
    for level, (r, n) in enumerate(walk):
        ratios.append(r)
        if keep:
            vectors.append(n)
        if level < tail:
            continue
        if (s := window.get(n)) is not None:
            period = level - s
            break
        if level <= tail + width:
            window[n] = level
            floor = sum(n) if level == tail + width and not keep and ratios[tail + 1:] == [1] * width else None
        elif floor is not None and sum(n) > floor:  # sums never fall: the first rise past L+k
            break
    return TowerProfile(tuple(ratios[1:]), tuple(vectors), period, depth)


def maximal_uhf(diagram: BratteliDiagram, depth: int) -> MuResult:
    """The supernatural number of the maximal UHF subalgebra.

    The value is the product of the ratios r_1 ... r_depth, read prime by
    prime off the walk's record, and certified exactly when its period is
    set (see `TowerProfile`).  The primes are those of the distinct walked
    ratios, each factorized once; the gcd, the product of all the ratios,
    never is, nor is a level past the revisit.
    """
    profile = tower_profile(diagram, depth, keep=False)
    primes = set().union(*map(factorize, set(profile.walked)))
    return MuResult(SupernaturalNumber({p: profile.exponent(p) for p in primes}),
                    TRUNCATED if profile.period is None else CERTIFIED)


def odometer(diagram: BratteliDiagram, depth: int) -> BratteliDiagram:
    """The single-vertex diagram of the ratios r_1 ... r_depth, the maximal
    UHF subalgebra's own tower, read off a walk that keeps no vectors."""
    return tower_profile(diagram, depth, keep=False).odometer()


def uhf_diagram(number: SupernaturalNumber) -> BratteliDiagram:
    """The canonical single-vertex diagram of the UHF algebra M_N.

    Stage j has size ell(j), a product over the support, so the matrices
    are the successive ratios ell(j) / ell(j-1).  The diagram stops at the
    horizon, the stage after every support prime has entered and every
    finite exponent is full; from there on the ratio is the product of
    the OMEGA primes forever, so the last matrix repeats.
    """
    index = {p: prime_index(p) for p in number.primes}
    horizon = max([1] + [max(index[p], 0 if e is OMEGA else e) + 1 for p, e in number.items()])
    ells = [math.prod(p ** min(j, e) for p, e in number.items() if index[p] <= j)
            for j in range(horizon + 1)]
    return BratteliDiagram(
        levels=(1,) * (horizon + 1),
        matrices=tuple(((b // a,),) for a, b in zip(ells, ells[1:])),
        tail=REPEAT_LAST,
    )


def canonical_premorphism(diagram: BratteliDiagram, depth: int) -> Premorphism:
    """The premorphism from the odometer into the diagram.

    Level n of the odometer lands on level n of the diagram through the
    column of normalized heights, so each square commutes: multiplying
    the column at level n+1 by r_{n+1} equals M_{n+1} times the column
    at level n.
    """
    return tower_profile(diagram, depth).premorphism()


def _carried(diagram: BratteliDiagram, a: int, b: int, m: Matrix) -> Matrix:
    # M_b * ... * M_{a+1} * m, which is m itself when a == b
    for n in range(a + 1, b + 1):
        m = _mat_mul(diagram.matrix_at(n), m)
    return m


def verify_premorphism(
    premorphism: Premorphism, source: BratteliDiagram, target: BratteliDiagram
) -> PremorphismReport:
    """Check every commuting square the premorphism provides.

    Square n demands matrices[n+1] * E_{n+1} = S * matrices[n], where
    E_{n+1} is the source matrix into level n+1 and S is the product of
    target matrices from level level_map[n] to level_map[n+1].  Shape
    problems and failed equalities are reported separately, each with
    the first offending level.
    """
    depth = premorphism.depth
    for n in range(depth + 1):
        m = premorphism.matrices[n]
        rows, cols = target.width_at(premorphism.level_map[n]), source.width_at(n)
        if len(m) != rows or any(len(row) != cols for row in m):
            return PremorphismReport(False, n, "shape")
    for n in range(depth):
        lhs = _mat_mul(premorphism.matrices[n + 1], source.matrix_at(n + 1))
        rhs = _carried(target, premorphism.level_map[n], premorphism.level_map[n + 1],
                       premorphism.matrices[n])
        if lhs != rhs:
            return PremorphismReport(False, n, "commutativity")
    return PremorphismReport(True)


def k0_unit_divisor(diagram: BratteliDiagram, n: int, depth: int) -> DimensionVector | None:
    """A stage witness that n divides the class of the unit.

    Returns the first stage s <= depth where n divides the height gcd,
    together with heights/n, or None when no stage works within depth.
    """
    return divide_element(diagram, (1,), 0, n, depth)


def uhf_embeds(number: SupernaturalNumber, diagram: BratteliDiagram, depth: int) -> str:
    """Whether M_number embeds unitally, per the invariant at `depth`.

    The walk's record is read at number's own primes and no ratio is
    factorized.  "yes" is exact: the truncation only ever grows.  "no" is
    "no-certified" when the record's period is set, else "no-within-depth".
    """
    profile = tower_profile(diagram, depth, keep=False)
    if all(e <= profile.exponent(p) for p, e in number.items()):
        return "yes"
    return "no-within-depth" if profile.period is None else "no-certified"


def rational_subgroup_witness(
    diagram: BratteliDiagram, entries: Sequence[int], stage: int, depth: int
) -> "tuple[Rational, int] | None":
    """Search for a stage where the pushed vector is a rational multiple
    of the height vector.

    Such a multiple lambda = q/m witnesses m*g = q*[unit] in K0, so g
    lies in the rational subgroup of the unit.  Returns (lambda, stage)
    at the first hit, or None if no stage up to `depth` works; on a
    repeating tail the search stops at s0 + k, where a miss is final.
    """
    from .rational import Rational
    pushed = _levels(diagram, entries, stage, depth)
    units = _pushed(diagram, (1,), 0, depth)
    s0, k = _horizon(diagram, stage, depth)
    # the contents are multiplied only at the hit
    cs, gs = [], [q for q, _ in islice(units, stage)]
    for s, ((r, v), (q, h)) in enumerate(islice(zip(pushed, units), s0 + k + 1 - stage), stage):
        cs.append(r)
        gs.append(q)
        # h is positive and primitive, so a parallel v is 0, h or -h
        if r == 0 or v == h or tuple(map(neg, v)) == h:
            c = math.prod(cs)
            return Rational(-c if v[0] < 0 else c, math.prod(gs)), s
    return None


def scale_unit_stage(diagram: BratteliDiagram, x: "Rational", depth: int) -> DimensionVector:
    """Represent x * [unit] as a concrete stage vector.

    The result appears at the first stage whose height gcd absorbs the
    denominator, as x times the height vector there.  x lies in Q(mu)
    exactly when M_den embeds, so a miss is "outside the rational group"
    (ValueError) only when the walk's period is set and den does not
    divide its record, and "not yet divisible at depth" (DiagramError)
    otherwise."""
    from .rational import Rational
    x = Rational(x)
    witness = k0_unit_divisor(diagram, x.denominator, depth)
    if witness is not None:
        return DimensionVector(witness.stage, tuple(e * x.numerator for e in witness.entries))
    profile = tower_profile(diagram, depth, keep=False)
    if profile.period is not None and not profile.divides(x.denominator):
        raise ValueError("%s lies outside the rational group of the invariant" % (x,))
    raise DiagramError("denominator of %s not yet divisible at depth %d" % (x, depth))


def divide_element(
    diagram: BratteliDiagram, entries: Sequence[int], stage: int, m: int, depth: int
) -> DimensionVector | None:
    """Divide a nonnegative stage vector by m inside the dimension group.

    Pushing forward never destroys divisibility, so the first stage
    s <= depth where every entry divides by m gives the witness y with
    m*y = g, or None; on a repeating tail the search stops, with a miss at
    every depth, once gcd(content, m) stalls for k tail pushes.
    """
    if m < 1:
        raise ValueError("divisor must be a positive integer, got %r" % (m,))
    pushed = _levels(diagram, entries, stage, depth)
    if any(e < 0 for e in entries):
        raise ValueError("entries must be nonnegative")
    # every entry of c * v divides by m exactly when the content c, the
    # product of the ratios so far, does, that is when gcd(c, m) = m; that
    # gcd is carried as gcd(gcd(c, m) * r, m) and c is multiplied at the hit
    (s0, k), ratios, g = _horizon(diagram, stage, depth), [], 1
    for s, (r, v) in enumerate(pushed, stage):
        ratios.append(r)
        g, before = math.gcd(g * r, m), g
        if g == m:
            return DimensionVector(s, tuple(math.prod(ratios) // m * x for x in v))
        if s <= s0 or g != before:
            last = s  # the latest tail level at which g moved
        elif s - last >= k:
            break
    return None


def telescope(diagram: BratteliDiagram, cut_points: Sequence[int]) -> BratteliDiagram:
    """Compose the multiplicity matrices between consecutive cut points.

    The cuts must be strictly increasing levels past 0.  The telescoped
    diagram has the same path-count data at the surviving levels, hence
    the same invariant.  A repeating tail survives when the final
    segment lies entirely inside the repeating region: the new last
    matrix is a power of the old tail matrix and repeating it continues
    the original diagram in equal chunks.
    """
    cuts = tuple(as_int(c, "cut points must be integers") for c in cut_points)
    if not cuts:
        raise ValueError("at least one cut point is required")
    if cuts[0] < 1 or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("cut points must be strictly increasing and >= 1, got %s" % clipped(cut_points))
    if not diagram.is_infinite and cuts[-1] > diagram.given_depth:
        raise DiagramError("cut %d exceeds the %d levels of a finite diagram"
                           % (cuts[-1], diagram.given_depth))
    bounds = (0,) + cuts
    matrices = tuple(_carried(diagram, a + 1, b, diagram.matrix_at(a + 1))
                     for a, b in zip(bounds, bounds[1:]))
    levels = (1,) + tuple(diagram.width_at(c) for c in cuts)
    tail = REPEAT_LAST if bounds[-2] >= _horizon(diagram, 0, cuts[-1])[0] else None
    return BratteliDiagram(levels, matrices, tail)
