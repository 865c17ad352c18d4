"""Planted defects that tier-1 must kill.

Each entry names one rule of the engine, the file that states it, an anchor
(exact text that occurs exactly once in that file), a replacement that
breaks the rule, and why the rule matters.  ``tests/run_mutants.py`` plants
each entry in a temporary copy of the checkout and runs tier-1 there; an
entry is killed when tier-1 fails.  An entry with ``equivalent`` set cannot
be told from the original by any test, for the reason given, and is
expected to survive.  ``tests/test_source.py`` checks that every anchor
still occurs exactly once, so a change that moves guarded code must move
its entry too.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    why: str
    equivalent: str | None = None


RING = "src/gwcalc/ring.py"
QUANTUM = "src/gwcalc/quantum.py"
PARTITIONS = "src/gwcalc/partitions.py"
RELATIVE = "src/gwcalc/relative.py"
DEGENERATION = "src/gwcalc/degeneration.py"

MUTANTS = (
    # The checks of the quantum product and the certificate search.
    Mutant(
        "basis-refusal",
        QUANTUM,
        "    partition_index(space, mu)\n",
        "",
        "rim_hook_product refuses a second factor outside the box's basis "
        "through the basis lookup, as it does the first",
    ),
    Mutant(
        "grading-check",
        QUANTUM,
        "        if sum(core) + n * count != total:",
        "        if False:",
        "each reduced shape plus n boxes per hook must have the degree of the "
        "product, or the rim-hook reduction is broken",
    ),
    Mutant(
        "positivity-guard",
        QUANTUM,
        "        if any(value < 0 or value.denominator != 1 for value in coeffs.values()):",
        "        if False:",
        "quantum structure constants are curve counts: a negative or "
        "fractional one is an internal error, not an answer",
    ),
    Mutant(
        "multiset-budget",
        QUANTUM,
        "            if sum(step for _, step in combo) == budget:",
        "            if sum(step for _, step in combo) <= budget:",
        "the dimension rule pins the certificate's extra classes: they take "
        "exactly what the points leave of the virtual dimension",
    ),
    Mutant(
        "multiset-length-cap",
        QUANTUM,
        "        longest = min(longest, max_length)",
        "        longest = min(longest, max_length + 1)",
        "no certificate multiset is longer than the oracle evaluates",
    ),
    # The oracle's rules.
    Mutant(
        "nd-recursion-sign",
        QUANTUM,
        "                - d1 * math.comb(3 * d - 4, 3 * d1 - 1)",
        "                + d1 * math.comb(3 * d - 4, 3 * d1 - 1)",
        "the associativity recursion for the plane-curve counts N_d",
    ),
    Mutant(
        "abacus-sign",
        QUANTUM,
        "    return (-1) ** (inversions + (rows - 1) * count), count, core",
        "    return (-1) ** inversions, count, core",
        "each n-rim hook of height ht carries (-1)^(rows - ht)",
    ),
    Mutant(
        "abacus-row-bound",
        QUANTUM,
        "    if len(nu) > rows:",
        "    if len(nu) > rows + 1:",
        "a shape with more rows than the box dies in the rim-hook reduction",
    ),
    Mutant(
        "rim-hook-count",
        QUANTUM,
        "    count = sum(b // n for b in beads)",
        "    count = max(b // n for b in beads)",
        "the power of q is the number of n-rim hooks removed",
    ),
    Mutant(
        "dimension-rule",
        QUANTUM,
        "    if sum(degs) != virtual_dimension(space, degree, len(insertions)):",
        "    if sum(degs) < virtual_dimension(space, degree, len(insertions)):",
        "an invariant whose insertion degree misses the virtual dimension is 0",
    ),
    Mutant(
        "fundamental-class",
        QUANTUM,
        "    if any(bas[i].real_degree == 0 for i in idxs):",
        "    if False:",
        "the fundamental class kills every invariant of positive curve degree",
    ),
    Mutant(
        "divisor-axiom-factor",
        QUANTUM,
        "            factor *= degree",
        "            factor *= degree * degree",
        "a divisor insertion multiplies the invariant by its pairing with the "
        "curve class",
    ),
    Mutant(
        "three-point-dual",
        QUANTUM,
        "    dual = dual_basis(space)[partition_index(space, lc)]",
        "    dual = basis(space)[partition_index(space, lc)]",
        "a three-point invariant is the coefficient of the third class's "
        "Poincare dual in the quantum product of the first two",
    ),
    Mutant(
        "padded-divisor-undo",
        QUANTUM,
        "        factor /= degree\n",
        "",
        "a padded sigma_1 multiplies by the degree, which the padding divides "
        "out again",
        equivalent=(
            "at degree 1 it divides by 1; at degree >= 2 it changes only "
            "invariants with exactly two non-divisor insertions, d times a "
            "two-point invariant, which is the q^d coefficient of sigma_1 "
            "times a class and so 0 by quantum Pieri (one q at most); a "
            "search over gr:3:8, gr:4:8, gr:3:9 and gr:4:9 at degrees 2 and "
            "3 found every such value 0"
        ),
    ),
    # Littlewood-Richardson and duality in the classical ring.
    Mutant(
        "lr-lattice-word",
        RING,
        "            if v >= 2 and counts[v] >= counts[v - 1]:",
        "            if v >= 2 and counts[v] > counts[v - 1]:",
        "an LR tableau's reverse reading word is a lattice word",
    ),
    Mutant(
        "lr-column-strict",
        RING,
        "            if above is not None and v <= above:",
        "            if above is not None and v < above:",
        "an LR tableau's columns strictly increase",
    ),
    Mutant(
        "duality-complement",
        RING,
        "    return tuple(p for p in (cols - q for q in reversed(padded)) if p > 0)",
        "    return tuple(p for p in (cols - q for q in padded) if p > 0)",
        "the Poincare dual of a Schubert class is its complement turned round",
    ),
    # Relative closed forms and vanishing.
    Mutant(
        "fiber-one-relative",
        RELATIVE,
        "    return integrate(cup_all(gamma.space, list(betas) + [gamma]))",
        "    return integrate(cup_all(gamma.space, list(betas)))",
        "a fiber class with one transverse tangency integrates the "
        "zero-section insertions against the tangency weight",
    ),
    Mutant(
        "fiber-two-point",
        RELATIVE,
        "    return Fraction(1, math.factorial(s)) * integrate(cup(beta_zero, beta_infinity))",
        "    return Fraction(1, math.factorial(s - 1)) * integrate(cup(beta_zero, beta_infinity))",
        "a degree-s cover fully ramified over one point counts 1/s!",
    ),
    Mutant(
        "vanishing-pushdown",
        RELATIVE,
        "    if zstar(query) >= d and (not fiber or k + l + q >= 3):",
        "    if zstar(query) > d and (not fiber or k + l + q >= 3):",
        "the dimension pushdown to the base moduli space decides when the "
        "zero-section pairing dominates the descendents",
    ),
    # Weighted partitions.
    Mutant(
        "delta-factor",
        PARTITIONS,
        "    return prod(p.multiplicity for p in mu.pairs) * aut_order(mu)",
        "    return prod(p.multiplicity for p in mu.pairs)",
        "the gluing factor is the product of tangencies times the automorphisms",
    ),
    Mutant(
        "aut-order",
        PARTITIONS,
        "    return prod(factorial(c) for c in counts.values())",
        "    return prod(counts.values())",
        "equal weighted pairs are permuted by c! automorphisms, not c",
    ),
    # The comparison identity and the lift.
    Mutant(
        "hypothesis-bound",
        DEGENERATION,
        "    if v < n_transfers:",
        "    if v < n_transfers - 1:",
        "the correspondence needs the minimal normal Chern number to dominate "
        "the number of transferred classes",
    ),
    Mutant(
        "coarsening-sign",
        DEGENERATION,
        "                value -= coarser",
        "                value += coarser",
        "lattice inversion subtracts the solved coarsenings",
    ),
    Mutant(
        "rhs-counts",
        DEGENERATION,
        "        group[1] += 1",
        "        group[1] = 1",
        "the right-hand side counts each walk entry of a partition",
    ),
    Mutant(
        "walk-vanishing-skip",
        DEGENERATION,
        "            if not vanishing.isdisjoint(masks):\n                continue\n",
        "",
        "a set partition with a vanishing block is not in the walk",
        equivalent=(
            "the skip only saves work: without it the block loop reaches the "
            "vanishing block, breaks, and yields no entry either"
        ),
    ),
    Mutant(
        "lift-bound",
        DEGENERATION,
        "    if r > v + 1:",
        "    if r > v + 2:",
        "a lifted witness has at most V + 1 points and transferred classes",
    ),
    Mutant(
        "lift-padding",
        DEGENERATION,
        "    betas += [generator_class(z)] * (weight + 1 - k_points - len(betas))",
        "    betas += [generator_class(z)] * (weight - k_points - len(betas))",
        "the witness is padded to exactly one more transferred class than the "
        "tangency weight",
    ),
)
