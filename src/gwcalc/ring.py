"""Graded cohomology rings of the testbed spaces, over exact rationals.

Spaces are a point, projective spaces P^n, and Grassmannians Gr(k, n).
Each carries a distinguished homogeneous basis in even real degrees (the
monomial basis 1, h, ..., h^n, or the Schubert basis indexed by partitions
in the k x (n-k) rectangle), a cup product, and a nondegenerate Poincare
pairing normalised so the point class integrates to 1.

Every value is immutable and every operation is a pure function, so the
whole module is safe to share between threads without locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

POINT = "point"
PROJECTIVE = "projective"
GRASSMANNIAN = "grassmannian"

Partition = tuple[int, ...]


@dataclass(frozen=True)
class Space:
    """A testbed space, identified by its kind and integer parameters."""

    kind: str
    params: tuple[int, ...] = ()

    @property
    def complex_dimension(self) -> int:
        if self.kind == POINT:
            return 0
        if self.kind == PROJECTIVE:
            return self.params[0]
        k, n = self.params
        return k * (n - k)

    @property
    def h2_generator_name(self) -> str | None:
        """Label of the degree-2 basis class generating H^2, if any."""
        if self.kind == POINT:
            return None
        return "h" if self.kind == PROJECTIVE else "s1"

    def descriptor(self) -> str:
        if self.kind == POINT:
            return "pt"
        if self.kind == PROJECTIVE:
            return f"pn:{self.params[0]}"
        return "gr:{}:{}".format(*self.params)

    def __str__(self) -> str:
        return self.descriptor()


def point_space() -> Space:
    return Space(POINT)


def projective_space(n: int) -> Space:
    if n < 1:
        raise ValueError(f"projective space needs n >= 1, got {n}")
    return Space(PROJECTIVE, (n,))


def grassmannian(k: int, n: int) -> Space:
    if not 1 <= k < n:
        raise ValueError(f"Grassmannian needs 1 <= k < n, got ({k}, {n})")
    if n - k > 9 or k > 9:
        raise ValueError("basis labels only support single-digit partition parts")
    return Space(GRASSMANNIAN, (k, n))


def make_space(descriptor: str) -> Space:
    """Parse a space descriptor: "pt", "pn:<n>", "gr:<k>:<n>" (or "p<n>")."""
    text = descriptor.strip().lower()
    if text in ("pt", "point"):
        return point_space()
    if text.startswith("pn:"):
        return projective_space(int(text[3:]))
    if text.startswith("gr:") and text.count(":") == 2:
        _, k, n = text.split(":")
        return grassmannian(int(k), int(n))
    if text.startswith("p") and text[1:].isdigit():
        return projective_space(int(text[1:]))
    raise ValueError(f"unrecognised space descriptor {descriptor!r}")


@dataclass(frozen=True)
class BasisClass:
    space: Space
    index: int
    real_degree: int
    label: str


@lru_cache(maxsize=None)
def rectangle_partitions(rows: int, cols: int) -> tuple[Partition, ...]:
    """All partitions inside a rows x cols box, sorted by size then lex-descending."""
    acc: list[Partition] = []

    def grow(prefix: list[int], max_part: int) -> None:
        acc.append(tuple(prefix))
        if len(prefix) == rows:
            return
        for part in range(1, max_part + 1):
            prefix.append(part)
            grow(prefix, part)
            prefix.pop()

    grow([], cols)
    acc.sort(key=lambda p: (sum(p), tuple(-x for x in p)))
    return tuple(acc)


def _partition_label(parts: Partition) -> str:
    if not parts:
        return "1"
    return "s" + "".join(str(p) for p in parts)


@lru_cache(maxsize=None)
def basis(space: Space) -> tuple[BasisClass, ...]:
    """The distinguished basis: Schubert classes on a Grassmannian, else the
    monomials 1, h, ..., h^n (the point is P^0, with basis "1")."""
    if space.kind == GRASSMANNIAN:
        k, n = space.params
        parts = rectangle_partitions(k, n - k)
        return tuple(
            BasisClass(space, i, 2 * sum(p), _partition_label(p))
            for i, p in enumerate(parts)
        )
    n = space.complex_dimension
    labels = ["1", "h"] + [f"h^{i}" for i in range(2, n + 1)]
    return tuple(BasisClass(space, i, 2 * i, labels[i]) for i in range(n + 1))


@lru_cache(maxsize=None)
def basis_partition(space: Space, index: int) -> Partition:
    if space.kind != GRASSMANNIAN:
        raise ValueError("partition indexing is a Grassmannian notion")
    k, n = space.params
    return rectangle_partitions(k, n - k)[index]


@lru_cache(maxsize=None)
def partition_index(space: Space, parts: Partition) -> int:
    k, n = space.params
    return rectangle_partitions(k, n - k).index(tuple(parts))


@dataclass(frozen=True)
class RingElement:
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

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self.coeffs

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
        if not self.coeffs:
            return "0"
        bas = basis(self.space)
        bits = []
        for i, c in self.coeffs:
            lbl = bas[i].label
            bits.append(lbl if c == 1 else f"{c}*{lbl}")
        return " + ".join(bits)


def _check_same_space(a: RingElement, b: RingElement) -> None:
    if a.space != b.space:
        raise ValueError(f"space mismatch: {a.space} vs {b.space}")


def element(space: Space, coeffs: dict[int, Fraction | int]) -> RingElement:
    size = len(basis(space))
    clean = []
    for i, c in coeffs.items():
        if not 0 <= i < size:
            raise ValueError(f"basis index {i} out of range for {space}")
        q = Fraction(c)
        if q != 0:
            clean.append((i, q))
    clean.sort()
    return RingElement(space, tuple(clean))


def zero(space: Space) -> RingElement:
    return RingElement(space, ())


def unit(space: Space) -> RingElement:
    return element(space, {0: 1})


def basis_element(space: Space, index: int) -> RingElement:
    return element(space, {index: 1})


def point_class(space: Space) -> RingElement:
    """The top-degree basis class (integrates to 1)."""
    return basis_element(space, len(basis(space)) - 1)


def generator_class(space: Space) -> RingElement:
    """The degree-2 basis class dual to the curve-class generator."""
    for bc in basis(space):
        if bc.real_degree == 2:
            return basis_element(space, bc.index)
    raise ValueError(f"{space} has no degree-2 class")


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
    if space.kind == PROJECTIVE and text.startswith("h^"):
        power = int(text[2:])
        if 0 <= power <= space.params[0]:
            return basis_element(space, power)
    raise ValueError(f"unknown class label {text!r} for {space}")


def element_to_json(a: RingElement) -> dict[str, str]:
    bas = basis(a.space)
    return {bas[i].label: str(c) for i, c in a.coeffs}


def element_from_json(space: Space, data: dict[str, str]) -> RingElement:
    acc: dict[int, Fraction] = {}
    for label, value in data.items():
        term = by_label(space, label)
        idx = term.coeffs[0][0]
        acc[idx] = acc.get(idx, Fraction(0)) + Fraction(value)
    return element(space, acc)


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
    whose reverse reading word is a lattice word.

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

    return fill(0)


@lru_cache(maxsize=None)
def lr_expansion(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """The product of two Schur classes as a sum over partitions with
    Littlewood-Richardson multiplicities (no rectangle truncation)."""
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
        if not _contains(nu, lam):
            continue
        c = _count_lr_tableaux(nu, lam, mu)
        if c:
            out.append((nu, c))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Cup product, integration, duality.


def cup(a: RingElement, b: RingElement) -> RingElement:
    _check_same_space(a, b)
    space = a.space
    acc: dict[int, Fraction] = {}
    if space.kind != GRASSMANNIAN:
        n = space.complex_dimension
        for i, ca in a.coeffs:
            for j, cb in b.coeffs:
                if i + j <= n:
                    acc[i + j] = acc.get(i + j, Fraction(0)) + ca * cb
        return element(space, acc)
    k, n = space.params
    for i, ca in a.coeffs:
        la = basis_partition(space, i)
        for j, cb in b.coeffs:
            lb = basis_partition(space, j)
            for nu, mult in lr_expansion(la, lb):
                if in_box(nu, k, n - k):
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
    """Value of a degree-2 class on the generator of H_2 (0 for a point)."""
    if a.space.kind == POINT:
        return Fraction(0)
    return a.coefficient(generator_class(a.space).coeffs[0][0])


@lru_cache(maxsize=None)
def dual_basis(space: Space) -> tuple[BasisClass, ...]:
    """For each basis class, the unique basis class pairing to exactly 1.

    In closed form: h^i pairs with h^(n-i), and a Schubert class with the
    class of its complement in the k x (n-k) box (Fulton, Young Tableaux,
    section 9.4).
    """
    bas = basis(space)
    if space.kind != GRASSMANNIAN:
        return bas[::-1]
    k, n = space.params
    return tuple(
        bas[partition_index(space, _box_complement(parts, k, n - k))]
        for parts in rectangle_partitions(k, n - k)
    )


def dual_element(space: Space, index: int) -> RingElement:
    return basis_element(space, dual_basis(space)[index].index)


# ---------------------------------------------------------------------------
# Divisors and the transfer map.


@dataclass(frozen=True)
class DivisorDescriptor:
    """A codimension-2 submanifold Z of an ambient space.

    ``restriction`` records the pullback of each ambient basis class to Z and
    ``divisor_class`` the class of Z in H^2(ambient).  ``ambient`` may be None
    for a divisor known only through its normal bundle (the zero section of a
    projectivised line bundle), in which case only ``normal_c1`` is usable.
    """

    ambient: Space | None
    divisor: Space
    restriction: tuple[RingElement, ...] | None
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
    normal = zero(divisor) if n == 1 else basis_element(divisor, 1)
    return DivisorDescriptor(
        ambient=ambient,
        divisor=divisor,
        restriction=restriction,
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


def shriek_pushforward(div: DivisorDescriptor, beta: RingElement) -> RingElement:
    """The degree-raising transfer of a divisor class into the ambient space.

    Characterised by the projection formula: pairing the image against any
    ambient class equals pairing beta against that class restricted to Z.
    """
    if div.ambient is None:
        raise ValueError("divisor has no ambient model")
    if beta.space != div.divisor:
        raise ValueError("class does not live on the divisor")
    if beta.is_zero():
        return zero(div.ambient)
    degree = beta.homogeneous_degree()
    if degree is None:
        raise ValueError("transfer needs a homogeneous class")
    target = degree + 2
    acc: dict[int, Fraction] = {}
    for bc in basis(div.ambient):
        if bc.real_degree != target:
            continue
        pairing = integrate(cup(beta, restrict(div, dual_element(div.ambient, bc.index))))
        if pairing != 0:
            acc[bc.index] = pairing
    return element(div.ambient, acc)


def normal_degree(div: DivisorDescriptor) -> int:
    """Value of c1 of the normal bundle on the divisor's curve generator."""
    value = h2_pairing(div.normal_c1)
    if value.denominator != 1:
        raise ValueError("normal bundle degree must be an integer")
    return int(value)
