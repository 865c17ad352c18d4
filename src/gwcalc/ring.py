"""Graded cohomology rings of the testbed spaces, over exact rationals.

Spaces are a point, projective spaces P^n, and Grassmannians Gr(k, n), each
a box of rows x cols: 0 x 0, 1 x n (P^n is Gr(1, n+1)) and k x (n-k).  The
basis is the Schubert classes of the partitions in the box (``partition_index``
alone decides membership), the cup product is the Littlewood-Richardson
expansion cut to the box, and the Poincare dual of a class is its complement
in the box (Fulton, Young Tableaux, section 9.4).  Only the box, the
descriptors and the labels depend on the kind.

Every value is immutable and every operation is a pure function, so the
whole module is safe to share between threads without locks.  The
constructors hand out one shared object per distinct space and per distinct
ring element, so a memo keyed on them finds its entry by identity; equality
and hashing stay field-wise, and a value built around the constructors
still compares equal.  The element table lives as long as the process, like
the ``lru_cache`` tables, and two threads that race on an entry keep the
object ``dict.setdefault`` stored first.  ``cup`` is one of those tables,
keyed on the ordered pair of factors (a, b): the lattice walks of the
comparison identity multiply the same few blocks thousands of times, and
each repeat is a lookup by identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .value import Value

POINT = "point"
PROJECTIVE = "projective"
GRASSMANNIAN = "grassmannian"

Partition = tuple[int, ...]


class Space(Value):
    """A testbed space, identified by its kind and integer parameters."""

    kind: str
    params: tuple[int, ...] = ()

    @property
    def box(self) -> tuple[int, int]:
        """The rows x cols box that holds the partitions of the basis."""
        if self.kind == POINT:
            return (0, 0)
        if self.kind == PROJECTIVE:
            return (1, self.params[0])
        k, n = self.params
        return (k, n - k)

    @property
    def complex_dimension(self) -> int:
        rows, cols = self.box
        return rows * cols

    def descriptor(self) -> str:
        if self.kind == POINT:
            return "pt"
        if self.kind == PROJECTIVE:
            return f"pn:{self.params[0]}"
        return "gr:{}:{}".format(*self.params)

    def __str__(self) -> str:
        return self.descriptor()


@lru_cache(maxsize=None)
def _space(kind: str, params: tuple[int, ...]) -> Space:
    """The one shared instance of each space."""
    return Space(kind, params)


def point_space() -> Space:
    return _space(POINT, ())


def projective_space(n: int) -> Space:
    if n < 1:
        raise ValueError(f"projective space needs n >= 1, got {n}")
    return _space(PROJECTIVE, (n,))


def grassmannian(k: int, n: int) -> Space:
    if not 1 <= k < n:
        raise ValueError(f"Grassmannian needs 1 <= k < n, got ({k}, {n})")
    if n - k > 9 or k > 9:
        raise ValueError("basis labels only support single-digit partition parts")
    return _space(GRASSMANNIAN, (k, n))


def parse_integer(text: str) -> int:
    """An integer field of a descriptor or label: ASCII digits with an
    optional leading "-".  Unlike int(), it refuses spaces, "+", "_" and
    non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def make_space(descriptor: str) -> Space:
    """Parse a space descriptor: "pt", "pn:<n>", "gr:<k>:<n>" (or "p<n>")."""
    text = descriptor.strip().lower()
    if text in ("pt", "point"):
        return point_space()
    head, *fields = text.split(":")
    if head.startswith("p") and head[1:] and not fields:  # p<n> is pn:<n>
        head, fields = "pn", [head[1:]]
    try:
        numbers = [parse_integer(x) for x in fields]
    except ValueError:
        numbers = []
    if head == "pn" and len(numbers) == 1:
        return projective_space(*numbers)
    if head == "gr" and len(numbers) == 2:
        return grassmannian(*numbers)
    raise ValueError(
        f"unrecognised space descriptor {descriptor!r}; "
        "expected pt, pn:<n>, gr:<k>:<n> or p<n>"
    )


class BasisClass(Value):
    space: Space
    index: int
    real_degree: int
    label: str


@lru_cache(maxsize=None)
def rectangle_partitions(rows: int, cols: int) -> tuple[Partition, ...]:
    """All partitions inside a rows x cols box, sorted by size then lex-descending."""
    return tuple(
        p for size in range(rows * cols + 1) for p in _partitions_exact(size, cols, rows)
    )


def _partition_label(space: Space, parts: Partition) -> str:
    if not parts:
        return "1"
    if space.kind == GRASSMANNIAN:
        return "s" + "".join(str(p) for p in parts)
    return "h" if parts == (1,) else f"h^{parts[0]}"


@lru_cache(maxsize=None)
def basis(space: Space) -> tuple[BasisClass, ...]:
    """The Schubert classes of the partitions in the box: 1, h, ..., h^n on
    P^n, s<partition> on Gr(k, n) and "1" alone on the point."""
    return tuple(
        BasisClass(space, i, 2 * sum(p), _partition_label(space, p))
        for i, p in enumerate(rectangle_partitions(*space.box))
    )


@lru_cache(maxsize=None)
def basis_partition(space: Space, index: int) -> Partition:
    return rectangle_partitions(*space.box)[index]


@lru_cache(maxsize=None)
def partition_index(space: Space, parts: Partition) -> int:
    """The basis index of a partition: the one test of basis membership."""
    try:
        return rectangle_partitions(*space.box).index(tuple(parts))
    except ValueError:
        message = "partition {} does not fit in {}x{}".format(tuple(parts), *space.box)
        raise ValueError(message) from None


class RingElement(Value):
    """A cohomology class: exact rational coefficients over the basis.

    Coefficients are stored as a sorted tuple of (basis index, Fraction)
    with zeros omitted, which keeps elements hashable and canonical.
    """

    space: Space
    coeffs: tuple[tuple[int, Fraction], ...]

    def coefficient(self, index: int) -> Fraction:
        for i, c in self.coeffs:
            if i == index:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous_degree(self) -> int | None:
        """Real degree if homogeneous (0 is homogeneous of any degree)."""
        degs = {basis(self.space)[i].real_degree for i, _ in self.coeffs}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def __add__(self, other: "RingElement") -> "RingElement":
        _check_same_space(self, other)
        acc = dict(self.coeffs)
        for i, c in other.coeffs:
            acc[i] = acc.get(i, Fraction(0)) + c
        return element(self.space, acc)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-1) * other

    def __neg__(self) -> "RingElement":
        return (-1) * self

    def __rmul__(self, scalar) -> "RingElement":
        q = Fraction(scalar)
        return element(self.space, {i: q * c for i, c in self.coeffs})

    def __str__(self) -> str:
        return " + ".join(term_labels(self))


def term_labels(a: RingElement) -> list[str]:
    """Each term's basis label, after "<coefficient>*" unless that is 1."""
    bas = basis(a.space)
    return [
        bas[i].label if c == 1 else f"{c}*{bas[i].label}" for i, c in a.coeffs
    ] or ["0"]


def _check_same_space(a: RingElement, b: RingElement) -> None:
    if a.space != b.space:
        raise ValueError(f"space mismatch: {a.space} vs {b.space}")


# The shared element of each (space, coefficients), keyed on the
# coefficients as integer (index, numerator, denominator) triples, which hash
# and compare without calling into Fraction.
_elements: dict[tuple, RingElement] = {}


def element(space: Space, coeffs: dict[int, Fraction | int]) -> RingElement:
    """The one shared element with these coefficients on the basis."""
    size = len(basis(space))
    clean = []
    for i, c in coeffs.items():
        if not 0 <= i < size:
            raise ValueError(f"basis index {i} out of range for {space}")
        q = c if type(c) is Fraction else Fraction(c)
        if q:
            clean.append((i, q))
    clean.sort()
    key = (space, *[(i, q.numerator, q.denominator) for i, q in clean])
    found = _elements.get(key)
    if found is None:
        found = _elements.setdefault(key, RingElement(space, tuple(clean)))
    return found


def zero(space: Space) -> RingElement:
    return element(space, {})


@lru_cache(maxsize=None)
def unit(space: Space) -> RingElement:
    return element(space, {0: 1})


@lru_cache(maxsize=None)
def basis_element(space: Space, index: int) -> RingElement:
    return element(space, {index: 1})


def point_class(space: Space) -> RingElement:
    """The top-degree basis class (integrates to 1)."""
    return basis_element(space, len(basis(space)) - 1)


def generator_class(space: Space) -> RingElement:
    """The degree-2 basis class dual to the curve-class generator: the
    partition (1), at basis index 1 in every box but the point's."""
    if not space.complex_dimension:
        raise ValueError(f"{space} has no degree-2 class")
    return basis_element(space, 1)


def by_label(space: Space, label: str) -> RingElement:
    """Resolve a basis label or alias ("pt", "id", "1", "h", "h^2", "s21")."""
    text = label.strip()
    if text in ("1", "id"):
        return unit(space)
    if text == "pt":
        return point_class(space)
    for bc in basis(space):
        if bc.label == text:
            return basis_element(space, bc.index)
    raise ValueError(f"unknown class label {text!r} for {space}")


def element_to_json(a: RingElement) -> dict[str, str]:
    bas = basis(a.space)
    return {bas[i].label: str(c) for i, c in a.coeffs}


# ---------------------------------------------------------------------------
# Littlewood-Richardson expansion, by counting lattice skew tableaux.


def in_box(parts: Partition, rows: int, cols: int) -> bool:
    """Whether a partition fits inside the rows x cols rectangle."""
    return len(parts) <= rows and (not parts or parts[0] <= cols)


def _box_complement(parts: Partition, rows: int, cols: int) -> Partition:
    """The complement of a partition in the rows x cols box, turned round."""
    padded = list(parts) + [0] * (rows - len(parts))
    return tuple(p for p in (cols - q for q in reversed(padded)) if p > 0)


def _contains(outer: Partition, inner: Partition) -> bool:
    return len(inner) <= len(outer) and all(
        outer[i] >= inner[i] for i in range(len(inner))
    )


def _partitions_exact(n: int, max_part: int, max_len: int):
    if n == 0:
        yield ()
        return
    if max_len == 0 or max_part == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_exact(n - first, first, max_len - 1):
            yield (first,) + rest


def _count_lr_tableaux(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Number of fillings of nu/lam with content mu that are semistandard and
    whose reverse reading word is a lattice word: the Littlewood-Richardson
    coefficient c^nu_{lam,mu}, for nu containing lam.  It is 0 when nu does
    not contain mu; lr_expansion never asks for those shapes.

    Cells are filled rows top-to-bottom and right-to-left within a row, which
    is exactly reverse reading order, so the lattice condition can be enforced
    as a running prefix inequality.
    """
    ell = len(mu)
    cells = []
    for r in range(len(nu)):
        lo = lam[r] if r < len(lam) else 0
        cells.extend((r, c) for c in range(nu[r] - 1, lo - 1, -1))
    counts = [0] * (ell + 1)
    need = list(mu)
    grid: dict[tuple[int, int], int] = {}

    def fill(i: int) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        right = grid.get((r, c + 1))
        above = grid.get((r - 1, c))
        total = 0
        for v in range(1, ell + 1):
            if need[v - 1] == 0:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            need[v - 1] -= 1
            grid[(r, c)] = v
            total += fill(i + 1)
            counts[v] -= 1
            need[v - 1] += 1
            del grid[(r, c)]
        return total

    # fill refers to itself through its closure; dropping the name once the
    # count is done breaks that cycle, so nothing waits for the collector.
    try:
        return fill(0)
    finally:
        del fill


@lru_cache(maxsize=None)
def lr_expansion(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The product of two Schur classes as a sum over partitions with
    Littlewood-Richardson multiplicities (no rectangle truncation).

    c^nu_{lam,mu} vanishes unless nu contains lam (Fulton, Young Tableaux,
    section 5), and c^nu_{lam,mu} = c^nu_{mu,lam}, so it vanishes unless nu
    contains mu too; tableaux are counted only on shapes containing both."""
    lam, mu = tuple(lam), tuple(mu)
    if not mu:
        return ((lam, 1),)
    if not lam:
        return ((mu, 1),)
    total = sum(lam) + sum(mu)
    max_part = lam[0] + mu[0]
    max_len = len(lam) + len(mu)
    out = []
    for nu in _partitions_exact(total, max_part, max_len):
        if not (_contains(nu, lam) and _contains(nu, mu)):
            continue
        c = _count_lr_tableaux(nu, lam, mu)
        if c:
            out.append((nu, c))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Cup product, integration, duality.


@lru_cache(maxsize=None)
def cup(a: RingElement, b: RingElement) -> RingElement:
    """The cup product, memoised per process on the pair of shared elements
    (a, b) in that order; a space mismatch raises again on every call,
    because lru_cache keeps no exceptions."""
    _check_same_space(a, b)
    space = a.space
    rows, cols = space.box
    acc: dict[int, Fraction] = {}
    for i, ca in a.coeffs:
        lam = basis_partition(space, i)
        for j, cb in b.coeffs:
            # The Littlewood-Richardson expansion, cut to the box.
            for nu, mult in lr_expansion(lam, basis_partition(space, j)):
                if in_box(nu, rows, cols):
                    idx = partition_index(space, nu)
                    acc[idx] = acc.get(idx, Fraction(0)) + ca * cb * mult
    return element(space, acc)


def cup_all(space: Space, factors) -> RingElement:
    out = unit(space)
    for f in factors:
        out = cup(out, f)
    return out


def integrate(a: RingElement) -> Fraction:
    """Pairing against the fundamental cycle: the point-class coefficient."""
    return a.coefficient(len(basis(a.space)) - 1)


def h2_pairing(a: RingElement) -> Fraction:
    """Value of a degree-2 class on the generator of H_2 (0 for a point):
    its coefficient at basis index 1, as for ``generator_class``."""
    return a.coefficient(1)


@lru_cache(maxsize=None)
def dual_basis(space: Space) -> tuple[BasisClass, ...]:
    """For each basis class, the unique basis class pairing to exactly 1:
    the class of its complement in the box, so h^i pairs with h^(n-i) on
    P^n (Fulton, Young Tableaux, section 9.4).
    """
    bas = basis(space)
    rows, cols = space.box
    return tuple(
        bas[partition_index(space, _box_complement(parts, rows, cols))]
        for parts in rectangle_partitions(rows, cols)
    )


# ---------------------------------------------------------------------------
# Divisors and the transfer map.


class DivisorDescriptor(Value):
    """A codimension-2 submanifold Z of an ambient space.

    ``restriction`` records the pullback of each ambient basis class to Z,
    ``transfer`` the degree-raising transfer of each basis class of Z into
    the ambient space, and ``divisor_class`` the class of Z in H^2(ambient).
    ``ambient`` may be None for a divisor known only through its normal
    bundle (the zero section of a projectivised line bundle), in which case
    only ``normal_c1`` is usable.
    """

    ambient: Space | None
    divisor: Space
    restriction: tuple[RingElement, ...] | None
    transfer: tuple[RingElement, ...] | None
    divisor_class: RingElement | None
    normal_c1: RingElement


def hyperplane_divisor(n: int) -> DivisorDescriptor:
    """P^{n-1} inside P^n (a point inside P^1 when n = 1)."""
    ambient = projective_space(n)
    divisor = point_space() if n == 1 else projective_space(n - 1)
    dim_z = divisor.complex_dimension
    restriction = tuple(
        basis_element(divisor, i) if i <= dim_z else zero(divisor)
        for i in range(n + 1)
    )
    # h^i on Z goes to h^(i+1): paired with any h^j, both sides of the
    # projection formula are 1 exactly when i + j = n - 1.
    transfer = tuple(basis_element(ambient, i + 1) for i in range(dim_z + 1))
    normal = zero(divisor) if n == 1 else basis_element(divisor, 1)
    return DivisorDescriptor(
        ambient=ambient,
        divisor=divisor,
        restriction=restriction,
        transfer=transfer,
        divisor_class=basis_element(ambient, 1),
        normal_c1=normal,
    )


def restrict(div: DivisorDescriptor, a: RingElement) -> RingElement:
    if div.ambient is None or div.restriction is None:
        raise ValueError("divisor has no ambient model to restrict from")
    if a.space != div.ambient:
        raise ValueError("class does not live on the ambient space")
    out = zero(div.divisor)
    for i, c in a.coeffs:
        out = out + c * div.restriction[i]
    return out


@lru_cache(maxsize=None)
def shriek_pushforward(div: DivisorDescriptor, beta: RingElement) -> RingElement:
    """The degree-raising transfer of a divisor class into the ambient space.

    Characterised by the projection formula: pairing the image against any
    ambient class equals pairing beta against that class restricted to Z.
    It is linear, so it is read off the divisor's ``transfer`` table, and
    memoised on (divisor, class).
    """
    if div.ambient is None or div.transfer is None:
        raise ValueError("divisor has no ambient model")
    if beta.space != div.divisor:
        raise ValueError("class does not live on the divisor")
    if beta.homogeneous_degree() is None:
        raise ValueError("transfer needs a homogeneous class")
    out = zero(div.ambient)
    for i, c in beta.coeffs:
        out = out + c * div.transfer[i]
    return out


def normal_degree(div: DivisorDescriptor) -> int:
    """Value of c1 of the normal bundle on the divisor's curve generator."""
    value = h2_pairing(div.normal_c1)
    if value.denominator != 1:
        raise ValueError("normal bundle degree must be an integer")
    return int(value)
