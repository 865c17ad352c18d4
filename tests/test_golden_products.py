"""Golden products: every classical and quantum product of two Schubert
classes on every Gr(k, n) with n <= 7, against a committed file.

The file holds one line per pair of basis classes (lambda <= mu in basis
order) with the cup product and the rim-hook quantum product.  It guards the
LR expansion and the rim-hook reduction against any change of code path, and
the equality and hashing of spaces and elements that the basis memo uses.

Regenerate it (only when the products change on purpose) with

    PYTHONPATH=src python tests/test_golden_products.py
"""

from pathlib import Path

from gwcalc import ring
from gwcalc.quantum import rim_hook_product

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_products.txt"
MAX_N = 7


def product_lines():
    for n in range(2, MAX_N + 1):
        for k in range(1, n):
            space = ring.grassmannian(k, n)
            bas = ring.basis(space)
            for i, a in enumerate(bas):
                lam = ring.basis_partition(space, i)
                for b in bas[i:]:
                    mu = ring.basis_partition(space, b.index)
                    cup = ring.cup(
                        ring.basis_element(space, i),
                        ring.basis_element(space, b.index),
                    )
                    quantum = rim_hook_product(lam, mu, space)
                    qh = " ".join(f"q^{e}:[{elem}]" for e, elem in quantum.terms)
                    yield f"{space} {a.label} {b.label} | cup {cup} | qh {qh or '0'}"


def test_products_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    lines = list(product_lines())
    for number, (got, want) in enumerate(zip(lines, expected), start=1):
        assert got == want, f"line {number} differs:\n  got  {got}\n  want {want}"
    assert len(lines) == len(expected)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in product_lines()))
