#!/usr/bin/env python3
"""Print a fixed sweep of composition, Taylor and inversion lines.

    python3 scripts/sweep_lines.py > sweep.txt
    python3 scripts/diff_outputs.py PARENT CHANGE --lines sweep.txt

The sweep is one expression per line, for the ``--lines`` mode of
scripts/diff_outputs.py: ``comp@N(f, g)`` at budgets 1-6 for every f and
g below, ``taylor@N(f, g, h)`` at budgets 1-4 for every f, a part of the
g and every h, and ``inv@N(g)`` at budgets 1-8 for every inversion input.
The inputs reach bounded, non-monic and irrational-root bases, bases of
logarithmicity w, bases whose logarithms are exactly l[lam + n], [n, w)
tails, constant and non-constant high parts, exact-zero and bounded
increments, and inverses with fractional exponents, bounds, peeled
monomial factors and scalings; some lines end in a typed error on purpose.
Each line takes well under the bench's per-input deadline.
"""
from __future__ import annotations

# composed series: finite levels, [n, w) tails, high parts at or above w,
# several high parts on one low part, bounds
F = [
    "x^2 + l[1]",
    "x^(1/2)*l[2]^-1",
    "-3*x - 2*x^(-1/2)*l[2]^3",
    "x^-1 + l[1]^-1",
    "x^3 + O(x)",
    "l[w]",
    "l[w]*x",
    "x*l[w+1]^-1",
    "l[w^2] + l[w]^-1",
    "l[1]*l[w] + O(1)",
    "x^(-1/2)*l[w]",
    "l[w]^2 - x^-1*l[1]^3",
    "prod(l[0..w])^-1",
    "prod(l[0..w])",
    "prod(l[2..w])^-1*l[1]",
    "prod(l[0..w])^-1 + x^-1",
    "l[w] + prod(l[0..w])^-1 + 2",
    "l[w]*prod(l[1..w])^-1 + 3*prod(l[1..w])^-1",
    "l[w]*l[1] + l[1]",
]

# bases above the rationals: bounded (x + O(1)), non-monic (2*x + 1),
# without rational roots of their leading coefficient (3*x^2), bases whose
# logarithms differ from l[lam + n] by 1/x or more (x*l[1], l[1] + 2), a
# transfinite logarithmicity (l[w] + 1), logarithms that are exactly
# l[lam + n] (l[1]), and a first logarithm that leads with 1/2 (x^(1/2) + 1)
G = [
    "x + 1",
    "x + l[1] + 1",
    "x + 3/2 + x^-1",
    "x - x^(1/2)",
    "x + O(1)",
    "x*l[1]",
    "l[1] + 2",
    "l[2] + 3",
    "2*x + 1",
    "3*x^2",
    "l[w] + 1",
    "l[1]",
    "x^(1/2) + 1",
]

# the bases of the Taylor lines, and their increments: exact zero,
# constant, infinitesimal, logarithmic and bounded (l[2] is not below l[2] + 3)
TAYLOR_G = ["x", "x + 1", "x + l[1]", "x*l[1]", "l[1] + 2", "l[2] + 3",
            "l[w] + 1", "l[1]"]
H = ["0", "1", "1/2 + x^-1", "l[2]", "x^-1 + O(x^-2)"]

# inversion inputs: fractional exponents, bounds, peeled monomial factors,
# scalings, l[w] terms, and inputs that are not invertible
INV = [
    "x + 1",
    "x + 3",
    "x + x^-1",
    "x + l[1]",
    "x + l[1]^-1 + 1",
    "x + l[1]^2",
    "x - l[1] + x^-1*l[2]",
    "x + x^(1/2) + l[1]",
    "x + x^(1/3)",
    "x + 2/3*x^(2/3)",
    "x + l[2]^2 + x^(1/3)",
    "x + x^(1/2)*l[1]^-1",
    "x + O(x^(1/2))",
    "x + O(1)",
    "x + O(l[1])",
    "x + 1 + O(x^-2)",
    "x + l[w]",
    "x + l[w]^-1",
    "x + prod(l[0..w])^-1",
    "x + x^-1*l[w]",
    "x*l[1]^-1 + 1",
    "x*l[1]",
    "x*l[1]^2 + x",
    "x^2 + x*l[1]",
    "x^(1/2) + 1",
    "x^(3/2) + x",
    "x^2 + 1",
    "9*x^2 + 3",
    "4*x^2 + x",
    "1/9*x + 2",
    "2*x + 1",
    "3*x^2",
    "l[1]",
    "x^-1",
]


def sweep():
    """The sweep's lines, in a fixed order."""
    for budget in range(1, 7):
        for f in F:
            for g in G:
                yield "comp@%d(%s, %s)" % (budget, f, g)
    for budget in range(1, 5):
        for f in F:
            for g in TAYLOR_G:
                for h in H:
                    yield "taylor@%d(%s, %s, %s)" % (budget, f, g, h)
    for budget in range(1, 9):
        for g in INV:
            yield "inv@%d(%s)" % (budget, g)


def main():
    for line in sweep():
        print(line)


if __name__ == "__main__":
    main()
