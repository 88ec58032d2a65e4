"""Bivariate power-sum curves: exact point counts, count bounds, factor exclusion.

The working polynomial is

    F(X, Y) = (X^s + Y^s + a)(X^s + Y^s + b X^s Y^s) - X^s Y^s

with ab(ab - 1) != 0 and gcd(s, p) = 1; its total degree is d = 3s.  Points
are counted over the affine plane only.  count_points is exact, never an
estimate: F sees x and y only through x^s and y^s, so it evaluates F on the
grid of pairs from the image of w -> w^s ({0} and a multiplicative subgroup)
and weights each zero by the sizes of the two fibres above it.  See the bound
helpers for what the count is compared against.  For s = 1 the three
candidate linear-factor shapes X - c, Y - c and X + Y - c can be excluded
computationally, which is the desk-scale half of the irreducibility argument;
s > 1 is out of certification reach and is treated as trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import CountResult
from .errors import DegenerateParameters, MixedContext, over_budget
from .ffield import (
    FFElem,
    FieldCtx,
    mul_matrix,
    residue_product,
    subgroup_of_order,
    subgroup_walk,
)

CURVE_WORK_CAP = 10 ** 8  # (m + 1)^2 image-grid evaluations, scaled by the budget
_GRID_BLOCK = 10 ** 6  # grid cells per vectorized row block


class CurveSpec:
    """Curve parameters (s, a, b) over a field context; degree is 3s."""

    def __init__(self, ctx: FieldCtx, s: int, a: FFElem, b: FFElem):
        if s < 1:
            raise ValueError(f"exponent must be positive, got {s}")
        if math.gcd(s, ctx.p) != 1:
            raise DegenerateParameters(f"exponent {s} shares a factor with p = {ctx.p}")
        if a.ctx != ctx or b.ctx != ctx:
            raise MixedContext("curve coefficients live in a different field")
        ab = a * b
        if not a or not b or ab == ctx.one:
            raise DegenerateParameters("need ab(ab - 1) != 0")
        self.ctx = ctx
        self.s = s
        self.a = a
        self.b = b

    @property
    def degree(self) -> int:
        return 3 * self.s

    def __repr__(self):
        return (f"CurveSpec(p={self.ctx.p}, degree_ext={self.ctx.degree}, "
                f"s={self.s}, a={self.a!r}, b={self.b!r})")


def count_points(spec: CurveSpec, budget: float = 1.0) -> CountResult:
    """Exact affine point count by a fibre-weighted grid over the power-map image.

    F depends on (x, y) only through (X, Y) = (x^s, y^s).  With g = gcd(s, q - 1),
    w -> w^s maps F_q onto {0} and the subgroup of order m = (q - 1) / g, with
    fibres of size 1 over 0 and g over each subgroup element, so the count is
    the sum of fibre(X) fibre(Y) over the (m + 1)^2 image pairs with F(X, Y) = 0.
    """
    ctx = spec.ctx
    p, q = ctx.p, ctx.q
    g = math.gcd(spec.s, q - 1)
    m = (q - 1) // g
    if err := over_budget("grid work", (m + 1) ** 2, CURVE_WORK_CAP, budget):
        raise err
    image = np.vstack([ctx.zero.residues(), subgroup_walk(subgroup_of_order(ctx, m))])
    fibres = np.full(m + 1, g, dtype=np.int64)
    fibres[0] = 1
    a = np.array(spec.a.residues(), dtype=np.int64)
    b_mul = mul_matrix(spec.b).T
    block = max(1, _GRID_BLOCK // (m + 1))
    total = 0
    for start in range(0, m + 1, block):
        u = image[start:start + block, None]
        v = image[None, :]
        uv = residue_product(u, v, ctx)
        head = (u + v) % p
        f = (residue_product((head + a) % p, (head + uv @ b_mul) % p, ctx) - uv) % p
        on_curve = ~f.any(axis=-1)
        total += int(fibres[start:start + block] @ on_curve @ fibres)
    params = {"p": p, "degree": ctx.degree, "q": q, "s": spec.s, "d": spec.degree,
              "a": spec.a.residues(), "b": spec.b.residues()}
    return CountResult(total, "table-grid", params)


def high_degree_bound(d: int, p: int) -> float:
    """4 d^(4/3) p^(2/3): the explicit prime-field count bound, valid for d < p."""
    return 4.0 * d ** (4.0 / 3.0) * p ** (2.0 / 3.0)


def extension_regime_bound(s: int, p: int) -> float:
    """s^(6/5) p^(8/5) + p^3: report-only shape for s = k(p-1) over F_{p^2}."""
    return s ** 1.2 * p ** 1.6 + float(p) ** 3


@dataclass(frozen=True)
class ExclusionWitness:
    """Nonzero coefficient killing one candidate linear factor."""

    shape: str
    c: tuple[int, ...]
    degree: int
    coeff: tuple[int, ...]


@dataclass(frozen=True)
class ExclusionReport:
    """Outcome of the s = 1 linear-factor scan."""

    excluded: bool
    witnesses: tuple[ExclusionWitness, ...]
    counterexamples: tuple


def cubic_factor_exclusion(a: FFElem, b: FFElem) -> ExclusionReport:
    """Check no factor X - c, Y - c or X + Y - c divides the s = 1 curve.

    Restricting to X = c leaves the quadratic
        (1 + bc) Y^2 + (a + c)(1 + bc) Y + c(a + c)
    and restricting to the line X + Y = c leaves
        -(b(a + c) - 1) X^2 + c(b(a + c) - 1) X + c(a + c);
    a linear factor exists exactly when one of these vanishes identically.
    The Y - c shape needs no separate scan because the curve is symmetric.
    """
    ctx = a.ctx
    if b.ctx != ctx:
        raise MixedContext("coefficients live in different fields")
    ab = a * b
    if not a or not b or ab == ctx.one:
        raise DegenerateParameters("need ab(ab - 1) != 0")
    one = ctx.one
    witnesses = []
    counterexamples = []
    for c in ctx.iter_elements():
        lead = one + b * c
        mid = (a + c) * lead
        const = c * (a + c)
        slope = b * (a + c) - one
        for shape, coeffs in (
            ("X-c", (const, mid, lead)),
            ("X+Y-c", (const, c * slope, -slope)),
        ):
            for degree in (2, 1, 0):
                if coeffs[degree]:
                    witnesses.append(ExclusionWitness(
                        shape, c.residues(), degree, coeffs[degree].residues()))
                    break
            else:
                counterexamples.append((shape, c.residues()))
    return ExclusionReport(not counterexamples, tuple(witnesses),
                           tuple(counterexamples))
