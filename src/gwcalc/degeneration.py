"""Degeneration bookkeeping for the cut of X along a divisor Z.

Cutting X along the boundary of a tubular neighbourhood of Z produces X
itself (relative to Z) glued to the completed normal bundle P(N + O)
(relative to its infinity section).  For a positive divisor whose minimal
normal Chern number dominates the number of transferred insertions, every
bundle-side component of a nonzero degeneration term is a fiber line with a
single transverse tangency point.  This module enumerates those terms,
builds the resulting comparison identity between absolute and relative
invariants, inverts it on the set-partition lattice, and runs the
divisor-to-ambient lift for point-constrained witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian

from .errors import HypothesisViolated, Inapplicable, UnsupportedQuery
from .partitions import (
    WeightedPartition,
    delta_factor,
    partition_to_text,
    weighted_pair,
    weighted_partition,
)
from .quantum import AbsoluteQuery, gw_invariant
from .relative import (
    BundleSpec,
    Pullback,
    ZeroSection,
    make_fiber_query,
    min_normal_chern,
    relative_invariant,
)
from .ring import (
    POINT,
    DivisorDescriptor,
    RingElement,
    Space,
    basis,
    basis_element,
    cup,
    dual_basis,
    generator_class,
    h2_pairing,
    hyperplane_divisor,
    normal_degree,
    point_class,
    point_space,
    projective_space,
    restrict,
    shriek_pushforward,
    unit,
)
from .value import Value


class CutSpec(Value):
    """A divisor with an ambient model, together with the completed normal
    bundle glued in by the cut."""

    divisor: DivisorDescriptor
    bundle: BundleSpec


def make_cut(divisor: DivisorDescriptor) -> CutSpec:
    if divisor.ambient is None:
        raise ValueError("cutting needs a divisor with an ambient model")
    return CutSpec(divisor, BundleSpec(divisor.divisor, normal_degree(divisor)))


@lru_cache(maxsize=None)
def testbed_cut(name: str) -> CutSpec:
    """Named testbeds: "p1-pt" (a point in the line) and "p2-line" (a line
    in the plane)."""
    if name == "p1-pt":
        return make_cut(hyperplane_divisor(1))
    if name == "p2-line":
        return make_cut(hyperplane_divisor(2))
    raise ValueError(f"unknown testbed {name!r}")


@lru_cache(maxsize=None)
def divisor_weight(cut: CutSpec, degree: int) -> int:
    """Total tangency weight Z . A for a degree-d ambient class, computed
    once per (cut, degree)."""
    if degree < 0:
        raise ValueError("curve degree must be nonnegative")
    value = degree * h2_pairing(cut.divisor.divisor_class)
    if value.denominator != 1:
        raise ValueError("divisor pairing must be integral")
    return int(value)


# ---------------------------------------------------------------------------
# Insertion splitting.


class AmbientInsertion(Value):
    """Insertion supported away from the divisor: it stays on the X side and
    restricts to a pullback on the bundle side."""

    cls: RingElement


class ShriekInsertion(Value):
    """Insertion of the transfer of a divisor class, supported near the
    divisor: it vanishes on the X side and lands on the bundle side."""

    beta: RingElement


# ---------------------------------------------------------------------------
# The comparison identity: partitions and right-hand side.


def set_partitions(items):
    """All set partitions of the given items, lazily and coarsest first.

    A partition is a tuple of blocks, each a tuple of items in their given
    order, with blocks ordered by their first item; partitions into equally
    many blocks come in lexicographic order of item positions.  Callers rely
    on the coarsest-first order to stop early: once a partition has too many
    blocks, so has every later one.
    """
    items = tuple(items)
    # No items have one partition, into no blocks.
    for count in range(min(1, len(items)), len(items) + 1):
        for blocks in _index_partitions(len(items), count):
            yield tuple(tuple(items[i] for i in block) for block in blocks)


@lru_cache(maxsize=None)
def _index_partitions(n: int, count: int) -> tuple:
    """The set partitions of ``range(n)`` into exactly ``count`` blocks, in
    the canonical order of ``set_partitions``, built once per size."""
    if count == n:
        return (tuple((i,) for i in range(n)),)
    if not 0 < count < n:
        return ()
    last = n - 1
    # Item n - 1 joins a block of a partition of the others, or is a block.
    grown = [
        blocks[:j] + (blocks[j] + (last,),) + blocks[j + 1 :]
        for blocks in _index_partitions(last, count)
        for j in range(count)
    ]
    grown += [blocks + ((last,),) for blocks in _index_partitions(last, count - 1)]
    return tuple(sorted(grown))


@lru_cache(maxsize=None)
def _masked_partitions(n: int, count: int) -> tuple:
    """The rows of ``_index_partitions(n, count)``, each paired with its
    blocks' bitmasks (item i is bit i), built once per size."""
    return tuple(
        (blocks, tuple(sum(1 << i for i in block) for block in blocks))
        for blocks in _index_partitions(n, count)
    )


# The last complete walk as (arguments, entries): one tuple, replaced whole,
# so a reader sees either the previous walk or the next, never part of one.
_last_walk: tuple = (None, ())


def _comparison_lattice(z_space: Space, betas: tuple, weight: int):
    """Walk the set-partition lattice of the transferred classes, coarsest
    first.

    Yields (blocks, masks, gammas, mu) for every set partition into at most
    ``weight`` blocks whose block products ``gammas`` are all nonzero;
    ``masks`` are the blocks' bitmasks (item i is bit i), and ``mu`` pairs
    each block product with tangency one and fills the remaining tangency
    with unit-weighted pairs.  Block products are kept per walk under their
    masks, each one cup from the product of its mask less the highest bit,
    so each distinct block is multiplied at most once; a mask whose product
    vanishes skips every later partition that has it as a block, before any
    product is looked up.  ``mu`` is built once per multiset of block
    products: the products are shared ring elements, so the sorted
    identities of a partition's products key its ``mu``.  Entries are built
    as they are read, and the last walk read to its end is kept, so a round
    trip's solve and right-hand side share one walk while a solve that
    stops early builds only what it read.
    """
    global _last_walk
    key = (z_space, betas, weight)
    memo = _last_walk
    if memo[0] == key:
        yield from memo[1]
        return
    if betas and weight < 1:
        raise ValueError("positive tangency weight required with insertions")
    products = {0: unit(z_space)}
    vanishing = set()

    def product(mask):
        # Left to right as in cup_all: the block less its highest item, then
        # that item.
        gamma = products.get(mask)
        if gamma is None:
            top = mask.bit_length() - 1
            gamma = products[mask] = cup(product(mask ^ (1 << top)), betas[top])
            if gamma.is_zero():
                vanishing.add(mask)
        return gamma

    # An equal but distinct product only misses this table.
    mus: dict[tuple[int, ...], WeightedPartition] = {}
    walk = []
    for count in range(min(1, len(betas)), min(weight, len(betas)) + 1):
        for blocks, masks in _masked_partitions(len(betas), count):
            if not vanishing.isdisjoint(masks):
                continue
            gammas = []
            for mask in masks:
                gammas.append(product(mask))
                if mask in vanishing:
                    break
            else:
                shape = tuple(sorted(map(id, gammas)))
                mu = mus.get(shape)
                if mu is None:
                    pairs = [weighted_pair(1, g) for g in gammas]
                    pairs += [weighted_pair(1, unit(z_space))] * (weight - count)
                    mu = mus[shape] = weighted_partition(z_space, pairs)
                entry = (blocks, masks, tuple(gammas), mu)
                walk.append(entry)
                yield entry
    _last_walk = (key, tuple(walk))


def _check_hypothesis(cut: CutSpec, n_transfers: int) -> None:
    v = min_normal_chern(cut.divisor)
    if v < n_transfers:
        raise HypothesisViolated(
            f"minimal normal Chern number {v} is below the number of "
            f"transferred insertions {n_transfers}"
        )


def comparison_rhs(
    cut: CutSpec,
    degree: int,
    alphas,
    betas,
    rel_oracle,
    require_hypothesis: bool = True,
):
    """Sum of relative invariants over the comparison partitions.

    ``rel_oracle(degree, alphas, partition)`` supplies the relative
    invariants of (X, Z).  With ``require_hypothesis`` the minimal normal
    Chern number must dominate the number of transferred classes; pass
    False to exercise the formal identity outside that range.  The oracle
    is asked once per distinct partition, in the order of first appearance,
    and the total adds count times value once per distinct partition; the
    terms stay one per walk entry, in the walk's order.
    """
    alphas = tuple(alphas)
    betas = tuple(betas)
    if require_hypothesis:
        _check_hypothesis(cut, len(betas))
    weight = divisor_weight(cut, degree)
    # [value, entries] per distinct partition; the walk's partitions are
    # shared objects with cached hashes, so each lookup is by identity.
    groups: dict[WeightedPartition, list] = {}
    terms = []
    for blocks, _, _, mu in _comparison_lattice(cut.divisor.divisor, betas, weight):
        group = groups.get(mu)
        if group is None:
            group = groups[mu] = [rel_oracle(degree, alphas, mu), 0]
        group[1] += 1
        terms.append((mu, blocks, group[0]))
    total = sum((count * value for value, count in groups.values()), Fraction(0))
    return total, terms


def closed_form_oracle(cut: CutSpec):
    """Relative oracle for an X that is itself a completed line bundle: the
    line relative to a point, viewed over a point base."""
    ambient = cut.divisor.ambient
    if not (
        cut.divisor.divisor.kind == POINT
        and ambient == projective_space(1)
    ):
        raise UnsupportedQuery(
            "closed-form relative oracle only exists for the line/point testbed"
        )
    bundle = BundleSpec(point_space(), 0)

    def oracle(degree: int, alphas, mu: WeightedPartition) -> Fraction:
        if degree < 1:
            raise UnsupportedQuery(
                f"closed-form relative oracle needs a positive degree, got {degree}"
            )
        alphas = tuple(alphas)
        total = Fraction(0)
        for combo in _cartesian(*(a.coeffs for a in alphas)):
            coeff = Fraction(1)
            insertions = []
            for idx, c in combo:
                coeff *= c
                if idx == 0:
                    insertions.append(Pullback(unit(bundle.base)))
                else:
                    insertions.append(ZeroSection(unit(bundle.base)))
            query = make_fiber_query(bundle, degree, insertions, mu)
            total += coeff * relative_invariant(query)
        return total

    return oracle


# ---------------------------------------------------------------------------
# Solving for relative invariants on the set-partition lattice.


def solve_relative(
    cut: CutSpec,
    degree: int,
    alphas,
    betas,
    require_hypothesis: bool = True,
) -> dict[WeightedPartition, Fraction]:
    """Recover relative invariants from absolute ones by lattice inversion.

    For every set partition P of the transferred classes, the absolute
    invariant of the merged family equals the sum of the unknown relative
    invariants over all coarsenings of P.  The system is unitriangular under
    refinement, so peeling from the coarsest partition downward isolates
    each unknown exactly.  Distinct partitions can index the same weighted
    partition; their solved values must then agree, else AssertionError is
    raised.

    P's solved value depends only on (mu, number of blocks), so it is
    computed once per such pair in each call.  Given the count, mu fixes
    the multiset of P's block products: its pairs are those products plus
    ``weight - count`` unit fillers.  That multiset fixes the merged query,
    as the absolute oracle is symmetric in even classes.  The strict
    coarsenings of P are the groupings of its blocks, and by induction from
    the coarsest level each one's value depends only on the multiset of its
    merged products; a grouping with a zero product is not in the walk and
    counts 0.  So the subtraction, too, depends only on the multiset.

    Every entry records the value under the block bitmasks the walk hands
    it, the key coarser lookups read (see ``_subtract_coarsenings``).
    """
    alphas = tuple(alphas)
    betas = tuple(betas)
    if require_hypothesis:
        _check_hypothesis(cut, len(betas))
    weight = divisor_weight(cut, degree)
    z_space = cut.divisor.divisor
    ambient = cut.divisor.ambient
    values: dict[tuple[WeightedPartition, int], Fraction] = {}
    solved: dict[tuple[int, ...], Fraction] = {}
    table: dict[WeightedPartition, Fraction] = {}
    for blocks, masks, gammas, mu in _comparison_lattice(z_space, betas, weight):
        key = (mu, len(masks))
        value = values.get(key)
        if value is None:
            insertions = alphas + tuple(
                shriek_pushforward(cut.divisor, g) for g in gammas
            )
            try:
                lhs = gw_invariant(ambient, degree, insertions)
            except UnsupportedQuery as exc:
                raise UnsupportedQuery(
                    f"absolute oracle cannot evaluate the merged query for "
                    f"blocks {blocks}: {exc}"
                ) from exc
            value = values[key] = _subtract_coarsenings(lhs, solved, masks)
            # A later entry with this key has this value, so only a first
            # entry can disagree with the table.
            if mu not in table:
                table[mu] = value
            elif table[mu] != value:
                # An AssertionError, not a typed error: perfbench/golden.json
                # stores this failure as "failed:AssertionError" in
                # lattice_inversion, so a typed error needs a new golden file.
                raise AssertionError(
                    f"inconsistent relative value for {partition_to_text(mu)}"
                )
        if value:
            solved[masks] = value
    return table


def _subtract_coarsenings(lhs, solved: dict, masks: tuple[int, ...]):
    """``lhs`` less the solved values of the strict coarsenings of the
    partition whose blocks have these bitmasks.

    Those coarsenings are the groupings of its blocks into fewer blocks, and
    a grouping's key is the sums of its groups' masks: groups are ordered by
    their first block and blocks by their least item, so that key is
    already in the walk's order.  Coarsenings the walk skipped, and those
    solved to zero, are not in ``solved`` and contribute nothing.
    """
    value = lhs
    for count in range(1, len(masks)):
        for groups in _index_partitions(len(masks), count):
            coarser = solved.get(
                tuple(sum(masks[g] for g in group) for group in groups)
            )
            if coarser:
                value -= coarser
    return value


def table_oracle(table: dict[WeightedPartition, Fraction]):
    def oracle(degree: int, alphas, mu: WeightedPartition) -> Fraction:
        if mu not in table:
            raise UnsupportedQuery(
                f"partition {partition_to_text(mu)} is outside the solved table"
            )
        return table[mu]

    return oracle


# ---------------------------------------------------------------------------
# Full verification reports.


class ComparisonReport(Value):
    status: str
    lhs: Fraction | None
    rhs: Fraction | None
    equal: bool | None
    terms: tuple
    detail: str = ""


def verify_comparison(cut: CutSpec, degree: int, alphas, betas) -> ComparisonReport:
    """Compute both sides of the comparison identity and report equality,
    taking relative values from the closed form for a point divisor and
    from the lattice solver otherwise."""
    alphas = tuple(alphas)
    betas = tuple(betas)
    insertions = alphas + tuple(
        shriek_pushforward(cut.divisor, b) for b in betas
    )
    try:
        lhs = gw_invariant(cut.divisor.ambient, degree, insertions)
    except UnsupportedQuery as exc:
        return ComparisonReport("unsupported", None, None, None, (), str(exc))
    if cut.divisor.divisor.kind == POINT:
        oracle = closed_form_oracle(cut)
    else:
        oracle = table_oracle(solve_relative(cut, degree, alphas, betas))
    try:
        rhs, terms = comparison_rhs(cut, degree, alphas, betas, oracle)
    except UnsupportedQuery as exc:
        return ComparisonReport("unsupported", lhs, None, None, (), str(exc))
    return ComparisonReport("ok", lhs, rhs, lhs == rhs, tuple(terms))


# ---------------------------------------------------------------------------
# Term-by-term degeneration of an absolute invariant.


class BundleComponent(Value):
    """One bundle-side component: a fiber line carrying some transferred
    insertions and a single transverse tangency point."""

    betas: tuple[RingElement, ...]
    tangency_weight: RingElement
    value: Fraction


class DegenerationTerm(Value):
    degree: int
    x_insertions: tuple[RingElement, ...]
    x_partition: WeightedPartition
    partition: WeightedPartition
    components: tuple[BundleComponent, ...]
    delta: int
    x_value: Fraction
    value: Fraction

    def to_json(self) -> dict:
        return {
            "partition": partition_to_text(self.partition),
            "delta": self.delta,
            "value": str(self.value),
        }


class TermEnumeration(Value):
    terms: tuple[DegenerationTerm, ...]
    dropped: tuple[tuple[str, object], ...]
    total: Fraction


def enumerate_terms(
    cut: CutSpec, degree: int, insertions, rel_oracle
) -> TermEnumeration:
    """All nonzero degeneration terms of an absolute query under the cut.

    Positivity of the divisor plus the dominance of its minimal normal Chern
    number restrict the bundle side to fiber lines in the single
    transverse-tangency shape; everything else is dropped with a reason and
    a representative query whose vanishing can be rechecked.

    The transfers' set partitions are read coarsest first, so the walk stops
    at the first one with more blocks than the tangency weight: it and every
    later partition are recorded as dropped straight from the shared
    partition table, in the order the walk would have reached them.
    """
    insertions = tuple(insertions)
    z_space = cut.divisor.divisor
    shrieks = [ins.beta for ins in insertions if isinstance(ins, ShriekInsertion)]
    ambients = [ins.cls for ins in insertions if isinstance(ins, AmbientInsertion)]
    if z_space.kind != POINT and normal_degree(cut.divisor) < 1:
        raise UnsupportedQuery("term pruning needs a positive divisor")
    _check_hypothesis(cut, len(shrieks))
    weight = divisor_weight(cut, degree)
    bundle = cut.bundle
    bas = basis(z_space)
    duals = dual_basis(z_space)
    dropped: list[tuple[str, object]] = []
    if ambients:
        sample = make_fiber_query(
            bundle,
            1,
            [Pullback(unit(z_space))],
            weighted_partition(z_space, [weighted_pair(1, unit(z_space))]),
        )
        dropped.append(
            (
                "bundle-side components with pulled-back insertions vanish, so "
                "every ambient insertion stays on the X side",
                sample,
            )
        )
    if weight >= 2:
        heavy = make_fiber_query(
            bundle,
            2,
            [],
            weighted_partition(z_space, [weighted_pair(2, point_class(z_space))]),
        )
        dropped.append(
            (
                "components of fiber degree two or more (or with several "
                "tangency points) vanish",
                heavy,
            )
        )
    terms: list[DegenerationTerm] = []
    total = Fraction(0)
    n = len(shrieks)
    for blocks in set_partitions(range(n)):
        if len(blocks) > weight:
            # Coarsest first: this partition and every later one are over
            # the weight.
            reason = "more components than the total tangency weight allows"
            dropped.extend(
                (reason, rest)
                for count in range(len(blocks), n + 1)
                for rest in _index_partitions(n, count)
            )
            break
        empties = weight - len(blocks)
        # Components with no insertions need a point-class tangency weight.
        choices = [range(len(bas))] * len(blocks) + [[len(bas) - 1]] * empties
        for assignment in _cartesian(*choices):
            components = []
            y_value = Fraction(1)
            ok = True
            for block, widx in zip(blocks + ((),) * empties, assignment):
                betas = tuple(shrieks[i] for i in block)
                gamma = basis_element(z_space, widx)
                query = make_fiber_query(
                    bundle,
                    1,
                    [ZeroSection(b) for b in betas],
                    weighted_partition(z_space, [weighted_pair(1, gamma)]),
                )
                v = relative_invariant(query)
                if v == 0:
                    dropped.append(("component integral vanishes", query))
                    ok = False
                    break
                components.append(BundleComponent(betas, gamma, v))
                y_value *= v
            if not ok:
                continue
            mu = weighted_partition(
                z_space, (weighted_pair(1, c.tangency_weight) for c in components)
            )
            dual_pairs = [
                weighted_pair(1, basis_element(z_space, duals[widx].index))
                for widx in assignment
            ]
            mu_dual = weighted_partition(z_space, dual_pairs)
            x_value = rel_oracle(degree, tuple(ambients), mu_dual)
            value = x_value * y_value
            term = DegenerationTerm(
                degree=degree,
                x_insertions=tuple(ambients),
                x_partition=mu_dual,
                partition=mu,
                components=tuple(components),
                delta=delta_factor(mu),
                x_value=x_value,
                value=value,
            )
            if value == 0:
                dropped.append(("X-side relative invariant vanishes", term))
            else:
                terms.append(term)
                total += value
    return TermEnumeration(tuple(terms), tuple(dropped), total)


# ---------------------------------------------------------------------------
# Divisor-to-ambient lift of point-constrained witnesses.


class LiftResult(Value):
    # Always "direct"; kept because `gw lift` and the battery print it.
    stage: str
    query: AbsoluteQuery
    value: Fraction


def rc_lift(
    cut: CutSpec,
    degree: int,
    alphas,
    k_points: int,
    betas,
) -> LiftResult:
    """Lift a nonzero point-constrained invariant of the divisor to one of
    the ambient space.

    The divisor witness (restricted ambient classes, k point insertions,
    extra divisor classes) is first padded with degree-2 classes until the
    points and extra classes number exactly one more than the tangency
    weight.  Only those raise their real degree, by 2 each, on the way to the
    ambient space, whose moduli space is 2 * weight + 2 larger; a restricted
    class keeps the degree of its ambient class.  The lift is the matching
    ambient query, and a vanishing one is refused with ``Inapplicable``.

    On the divisors the engine builds, the hyperplanes P^(n-1) in P^n, the
    ambient query has the witness's value: V = 1 forces degree 1, so after
    padding exactly two classes are transferred, and a line meeting the
    hyperplane in two distinct points lies in it.  Only a hand-built
    descriptor reaches the refusal.
    """
    if k_points < 0:
        raise ValueError("k_points must be nonnegative")
    alphas = tuple(alphas)
    betas = list(betas)
    divisor = cut.divisor
    z = divisor.divisor
    x = divisor.ambient
    v = min_normal_chern(divisor)
    weight = divisor_weight(cut, degree)
    if v != weight:
        raise Inapplicable(
            f"lift needs a minimal class: tangency weight {weight} != minimal "
            f"normal Chern number {v}"
        )
    r = len(alphas) + k_points + len(betas)
    if r > v + 1:
        raise Inapplicable(f"witness has {r} insertions, more than V+1 = {v + 1}")
    betas += [generator_class(z)] * (weight + 1 - k_points - len(betas))
    restricted = [restrict(divisor, a) for a in alphas]
    z_insertions = restricted + [point_class(z)] * k_points + betas
    witness_value = gw_invariant(z, degree, z_insertions)
    if witness_value == 0:
        raise ValueError("precondition: the divisor witness vanishes")
    x_insertions = (
        alphas
        + tuple([point_class(x)] * k_points)
        + tuple(shriek_pushforward(divisor, b) for b in betas)
    )
    direct = gw_invariant(x, degree, x_insertions)
    if direct == 0:
        raise Inapplicable(
            f"the ambient query <{', '.join(map(str, x_insertions))}>_{degree} "
            f"on {x} vanishes although the divisor witness does not"
        )
    return LiftResult("direct", AbsoluteQuery(x, degree, x_insertions), direct)
