"""Complete character sums over matrix power orbits.

The central object is the length-tau sum of psi(a A^x b), psi(z) = e_p(Tr z),
over one full period of an invertible matrix A (the twist psi(alpha z) is the
sum of alpha a), and every sum is one: over a cyclic subgroup G = <g>, a
Kloosterman sum (a u + b / u) is the sum of a = (a, b) with A = diag(g, 1/g)
and b = (1, 1), and a Gauss sum (a u) that of a = (a) with A = [[g]] and
b = (1) (subgroup_entry); their moments walk the same orbit of b.  Every
single sum walks a residue orbit (ffield.residue_orbit), maps it to trace
arguments Tr z mod p through the integer trace form, and counts the
arguments in an exact integer histogram; its float rounding is confined to
one p-term dot product of that histogram with the roots of unity.  Matrix
sums run as stacks on residue arrays (walk_sums): the walks of many
(a, b, A) of one period are one batched residue_orbit over exactly that
period, and their histograms one shared bincount, while each sum keeps its
own checks and its own dot.  matrix_exp_sums checks a stack of entity
triples and hands their residues to walk_sums, and matrix_exp_sum is the
stack of one; the sums grid calls walk_sums on its residue arrays directly,
so entities stay at the public API.  The hypothesis flags of a stack are
likewise one stacked Krylov check (analyze_instances, on
matgrp.krylov_independent).
Moments over every coefficient (sum_moment) take one representative per
G-orbit of coefficients, weighted by the orbit size, since a sum is constant
on each orbit.  They look every term up in the table of roots of unity and
sum by a matmul, so they round per term; the closed-form second moment and
the exact energy at those representatives (counting.orbit_energy) check them.
evaluate_bounds(result, hypotheses) returns one BoundEntry per estimate
whose hypotheses the instance satisfies (the Hypotheses of
analyze_instance): it applies bound_menu(hypotheses), which depends on the
flags alone, to |S|.  Only inequalities with an explicit constant are marked
pass or fail (Bound.status), saving estimates with unspecified constants
come back as ratio reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .counting import orbit_energy, vector_orbit
from .errors import BudgetExceeded, InvariantViolated, MixedContext, over_budget
from .ffield import (
    FFElem,
    FieldCtx,
    SubgroupSpec,
    mul_matrix,
    primitive_root,
    residue_orbit,
    trace_form,
)
from .matgrp import (
    MatEntity,
    VecEntity,
    char_poly_factor,
    det_order,
    independence_checks,
    is_diagonalizable,
    matrix_order,
    residue_map,
)

# Each cap is scaled by its kernel's budget (errors.over_budget).
# Charges a walk sum its length tau: tau residue rows walked, mapped to
# arguments and binned.  Matrix walks run one period per stack, of at most
# _WALK_BLOCK_ROWS rows (a longer walk alone), so the cap bounds the work and
# memory of each walk, not of the stack.  The Kloosterman and Gauss walks
# over a subgroup are matrix walks too, charged their order through
# matrix_exp_sums.
SUM_TAU_CAP = 10 ** 6
# Charges a moment q^n |G|: one walk sum per coefficient of F_q^n, though only
# one representative per G-orbit of coefficients is walked.
MOMENT_WORK_CAP = 10 ** 9

_MOMENT_BLOCK = 1 << 22  # complex entries materialized per moment block
# Residue rows per stack of matrix walks of one period tau: a stack holds at
# most _WALK_BLOCK_ROWS // tau walks, or one longer walk.  Stacks of 2^12 to
# 2^18 rows ran the sums grid at p 241-257 equally fast, and larger ones hold
# more memory.
_WALK_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class SumResult:
    """A computed complete sum with its modulus and term count."""

    value: complex
    abs: float
    length: int
    parameters: dict


def _walk_sums(args: np.ndarray, ctx: FieldCtx, parameters) -> list[SumResult]:
    """Sum of e_p over each row of args, one walk of one period per row.

    The rows share one bincount, row k offset by k p, which gives each an
    exact histogram; float rounding is confined to one p-term dot per row.
    """
    p = ctx.p
    rows, length = args.shape
    # once offset, an argument outside [0, p) would land in another row's bins
    if args.size and (args.min() < 0 or args.max() >= p):
        raise InvariantViolated(f"a walk argument lies outside [0, {p})")
    offsets = np.arange(rows, dtype=np.int64)[:, None] * p
    hists = np.bincount((args + offsets).ravel(), minlength=rows * p).reshape(-1, p)
    roots = ctx.roots_of_unity()
    out = []
    for hist, mass, params in zip(hists, hists.sum(axis=1).tolist(), parameters):
        if mass != length:
            raise InvariantViolated(f"histogram mass {mass} != walk length {length}")
        value = complex(hist @ roots)
        mag = abs(value)
        # unit-modulus terms force |sum| <= length up to the dot product's rounding
        if mag > length + 1e-9:
            raise InvariantViolated(f"|sum| = {mag} exceeds the walk length {length}")
        out.append(SumResult(value, mag, length, params))
    return out


def walk_sums(lefts: np.ndarray, rights: np.ndarray, maps: np.ndarray, periods,
              ctx: FieldCtx, budget: float = 1.0) -> list:
    """Sum psi(a A^x b), x = 1..tau, for each entry k given on residue arrays:
    lefts[k] the flat residues (n degree) of a, rights[k] those of b,
    maps[k] the column residue map of A (residue_map(A, "column")) and
    periods[k] the order tau of A, all over ctx.

    Returns one entry per row, in order: its SumResult, or the
    BudgetExceeded that skipped it (a period above SUM_TAU_CAP scaled by
    budget).  The walks of each period tau are cut into stacks of at most
    _WALK_BLOCK_ROWS // tau walks (a longer walk alone), each a rectangle of
    exactly tau rows per walk, and every step of a walk is mapped to its
    trace argument Tr(a z) through the trace form.  Each walk keeps its own
    histogram checks and its own p-term dot, so a sum is bit for bit the one
    its row gives alone.
    """
    p, d = ctx.p, ctx.degree
    rows, width = lefts.shape
    n = width // d
    # row k of forms dotted with res(z) is Tr(a z), summed over a's n entries
    forms = (lefts.reshape(rows, n, d) @ trace_form(ctx) % p).reshape(rows, width)
    results = [None] * rows
    by_period = {}
    for k, tau in enumerate(np.asarray(periods).tolist()):
        by_period.setdefault(tau, []).append(k)
    for tau, ks in sorted(by_period.items()):
        if skip := over_budget("period", tau, SUM_TAU_CAP, budget):
            for k in ks:
                results[k] = skip
            continue
        size = max(1, _WALK_BLOCK_ROWS // tau)
        params = {"p": p, "degree": d, "n": n, "tau": tau}
        for stack in (ks[i:i + size] for i in range(0, len(ks), size)):
            orbit = residue_orbit(maps[stack], rights[stack], tau, p)
            args = np.einsum("klm,km->kl", orbit, forms[stack]) % p
            for k, result in zip(stack, _walk_sums(args, ctx, [dict(params) for _ in stack])):
                results[k] = result
    return results


def matrix_exp_sums(entries, budget: float = 1.0) -> list:
    """Sum psi(a A^x b), x = 1..tau, for each (a_vec, b_vec, A) of one field and one n.

    Returns one entry per triple, in order: its SumResult, or the
    BudgetExceeded that skipped it (a period above SUM_TAU_CAP scaled by
    budget).  The triples are checked, then walked by walk_sums on their
    residues, column maps and matrix orders.
    """
    entries = list(entries)
    if not entries:
        return []
    ctx, n = entries[0][2].ctx, entries[0][2].n
    for a_vec, b_vec, A in entries:
        if A.ctx != ctx or a_vec.ctx != ctx or b_vec.ctx != ctx:
            raise MixedContext("vectors and matrices live in different fields")
        if a_vec.orientation != "row" or b_vec.orientation != "column":
            raise ValueError("need a row vector on the left and a column vector on the right")
        if A.n != n or a_vec.n != n or b_vec.n != n:
            raise ValueError("dimension mismatch")
    lefts = np.array([a.residues() for a, _, _ in entries], dtype=np.int64)
    rights = np.array([b.residues() for _, b, _ in entries], dtype=np.int64)
    maps = np.stack([residue_map(A, "column") for _, _, A in entries])
    return walk_sums(lefts, rights, maps, [matrix_order(A) for _, _, A in entries],
                     ctx, budget)


def matrix_exp_sum(a_vec: VecEntity, b_vec: VecEntity, A: MatEntity,
                   budget: float = 1.0) -> SumResult:
    """Sum psi(a A^x b) for x = 1..tau: the one-entry call of matrix_exp_sums,
    raising the BudgetExceeded that would skip the entry."""
    (result,) = matrix_exp_sums([(a_vec, b_vec, A)], budget)
    if isinstance(result, BudgetExceeded):
        raise result
    return result


def subgroup_entry(family: str, G: SubgroupSpec) -> tuple[MatEntity, VecEntity]:
    """The (A, b_vec) whose walk A^x b_vec, x = 1..|G|, has the columns u and
    1 / u ("kloosterman": A = diag(g, 1/g)) or u ("gauss": A = [[g]]), where
    u = g^x runs over G in generator-power order."""
    ctx, g = G.ctx, G.generator
    if family == "kloosterman":
        A = MatEntity([[g, ctx.zero], [ctx.zero, g.inverse()]])
    elif family == "gauss":
        A = MatEntity([[g]])
    else:
        raise ValueError(f"unknown family {family!r}")
    return A, VecEntity([ctx.one] * A.n, "column")


def kloosterman_subgroup(G: SubgroupSpec, a: FFElem, b: FFElem,
                         budget: float = 1.0) -> SumResult:
    """Sum psi(a u + b / u) over the subgroup: the matrix sum of (a, b) on
    subgroup_entry("kloosterman", G)."""
    A, ones = subgroup_entry("kloosterman", G)
    return matrix_exp_sum(VecEntity([a, b], "row"), ones, A, budget)


def gauss_subgroup(G: SubgroupSpec, a: FFElem, budget: float = 1.0) -> SumResult:
    """Sum psi(a u) over the subgroup: the matrix sum of (a) on
    subgroup_entry("gauss", G)."""
    A, ones = subgroup_entry("gauss", G)
    return matrix_exp_sum(VecEntity([a], "row"), ones, A, budget)


@dataclass(frozen=True)
class MomentResult:
    """Moment of a sum family over all coefficient choices."""

    family: str
    m: int
    value: float
    exact: int | None
    parameters: dict


def sum_moment(family: str, G: SubgroupSpec, m: int, budget: float = 1.0) -> MomentResult:
    """Moment sum of |walk sum|^m over every coefficient in the field.

    Kloosterman moments range over all q^2 pairs (a, b), Gauss moments over
    all q values of a.  Both sums are constant on G-orbits of coefficients
    (a -> a h, b -> b / h for h in G permutes the walk), so only a = 0 and
    one representative g^c (c = 1..L, L = (q - 1) / |G|) of each coset of G
    are walked, weighted by the orbit sizes 1 and |G|;
    parameters["representatives"] records those L + 1 rows.  The weighted
    second moment must equal its closed form (q |G| for Gauss, q^2 |G| for
    Kloosterman), and even orders 2 nu = 2, 4 and 6 also carry the exact
    integer value q^n E_nu, with E_nu the nu-fold additive energy of the walk
    of (A, b) = subgroup_entry(family, G), summed as |orbit| c_nu^2 on the
    same orbits since G permutes the walk (counting.orbit_energy).  A float
    value more than 1e-9 relative away from either raises InvariantViolated:
    each term is a lookup in the table of roots of unity and each sum one
    entry of a matmul, so the value rounds per term, and these checks guard it.
    """
    if m < 1:
        raise ValueError("moment order must be positive")
    A, ones = subgroup_entry(family, G)
    ctx = G.ctx
    q = ctx.q
    tau = G.order
    work = q ** A.n * tau
    if err := over_budget("moment work", work, MOMENT_WORK_CAP, budget):
        raise err

    p, d = ctx.p, ctx.degree
    cosets = (q - 1) // tau
    # g^1..g^L represent the cosets of G; Kloosterman walks on to g^(q-1) for every b
    length = q - 1 if family == "kloosterman" else cosets
    walk = residue_orbit(mul_matrix(primitive_root(ctx)), ctx.one.residues(), length, p)
    points = np.vstack((np.zeros((1, d), dtype=np.int64), walk))
    forms = points @ trace_form(ctx) % p
    reps = forms[:cosets + 1]
    sizes = np.r_[1, np.full(cosets, tau)]
    table = ctx.roots_of_unity()
    # the columns of the walk are u, then 1 / u for Kloosterman
    orbit = vector_orbit(ones, A, tau)
    us = orbit[:, :d]

    if family == "kloosterman":
        # one column per b in {0} and the walk: e_p(Tr(b / u)) down the u
        right = table[forms @ orbit[:, d:].T % p].T
    else:
        right = np.ones((tau, 1))
    # the widest per-row array is the terms (tau) or the sums (right's columns)
    block = max(1, _MOMENT_BLOCK // max(tau, right.shape[1]))
    total = second = 0.0
    for start in range(0, cosets + 1, block):
        terms = table[reps[start:start + block] @ us.T % p]
        mags = np.abs(terms @ right)
        w = sizes[start:start + block]
        total += float(w @ np.sum(mags ** m, axis=1))
        second += float(w @ np.sum(mags * mags, axis=1))

    # orthogonality of the characters makes the second moment equal the charged
    # work: sum_a |S(a)|^2 = q |G| and sum_(a,b) |K(a, b)|^2 = q^2 |G|
    if abs(second - work) > 1e-9 * work:
        raise InvariantViolated(f"second moment {second} is not its closed form {work}")
    exact = None
    if m in (2, 4, 6):
        exact = q ** A.n * orbit_energy(orbit, points[:cosets + 1], sizes, p, m // 2)
        # the float moment counts the same solutions; its round-off is ~1e-15 relative
        if abs(total - exact) > 1e-9 * exact:
            raise InvariantViolated(f"moment {total} is not the exact count {exact}")
    params = {"p": p, "degree": d, "q": q, "order": tau,
              "representatives": cosets + 1}
    return MomentResult(family, m, total, exact, params)


@lru_cache(maxsize=None)
def kappa_n(n: int) -> Fraction:
    """Exact fractional saving exponent used by the diagonalizable sum bound."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    inner = Fraction(n) - Fraction((n - 1) // 2, 2)
    return Fraction(1, 4 * n * math.floor(inner))


@dataclass(frozen=True)
class Hypotheses:
    """Which bound hypotheses an (a, b, A) instance satisfies.

    Every flag is decided over the base field of A.  Orbit independence in
    particular needs no extension-field check: the rank of vectors with
    entries in F_q is the same over every extension of F_q.  The field size
    is q = p ** degree, and det A = 1 exactly when t == 1.
    """

    n: int
    p: int
    degree: int
    tau: int
    t: int
    class_tag: str
    diagonalizable: bool
    left_independent: bool
    right_independent: bool
    vectors_nonzero: bool


def analyze_instances(entries) -> list[Hypotheses]:
    """Hypothesis flags for each (a_vec, b_vec, A) of one field and one n.

    The Krylov checks of every nonzero vector run as one stack
    (independence_checks); a zero vector is not independent.
    """
    entries = list(entries)
    verdicts = iter(independence_checks(
        [(v, A) for a_vec, b_vec, A in entries for v in (a_vec, b_vec) if v]).tolist())
    out = []
    for a_vec, b_vec, A in entries:
        ctx = A.ctx
        out.append(Hypotheses(
            n=A.n,
            p=ctx.p,
            degree=ctx.degree,
            tau=matrix_order(A),
            t=det_order(A),
            class_tag=char_poly_factor(A).tag,
            diagonalizable=is_diagonalizable(A),
            left_independent=next(verdicts) if a_vec else False,
            right_independent=next(verdicts) if b_vec else False,
            vectors_nonzero=bool(a_vec) and bool(b_vec),
        ))
    return out


def analyze_instance(a_vec: VecEntity, b_vec: VecEntity, A: MatEntity) -> Hypotheses:
    """Collect every hypothesis flag the bound menu needs for (a, b, A)."""
    return analyze_instances([(a_vec, b_vec, A)])[0]


@dataclass(frozen=True)
class BoundEntry:
    name: str
    formula: str
    value: float
    status: str
    ratio: float


def split_pair_bound(tau: int, p: int) -> float:
    """min(tau^(23/36) p^(1/6), tau^(20/27) p^(1/9))."""
    return min(tau ** (23 / 36) * p ** (1 / 6), tau ** (20 / 27) * p ** (1 / 9))


def nonsplit_pair_bound(tau: int, p: int) -> float:
    """min(tau^(1/2) p^(1/4), tau^(13/20) p^(1/6), tau^(34/45) p^(1/9))."""
    return min(
        tau ** 0.5 * p ** 0.25,
        tau ** (13 / 20) * p ** (1 / 6),
        tau ** (34 / 45) * p ** (1 / 9),
    )


def weil_explicit_bound(p: int) -> float:
    """2 sqrt(p): explicit inverse-pair bound over the full group of F_p."""
    return 2.0 * math.sqrt(p)


class Bound(NamedTuple):
    """One estimate of a bound menu: its value for one set of hypotheses, and
    whether it is an explicit inequality (decided pass or fail) or a report."""

    name: str
    formula: str
    value: float
    explicit: bool

    def status(self, observed: float) -> str:
        """The verdict on |S| = observed: for an explicit bound pass iff
        |S| <= value + 1e-9, else fail; a report otherwise."""
        if not self.explicit:
            return "report"
        return "pass" if observed <= self.value + 1e-9 else "fail"


def pair_bound(class_tag: str, tau: int, p: int) -> Bound:
    """The report bound on a sum of period tau over F_p (n = 2, t = 1):
    split-pair when the eigenvalues lie in F_p, else nonsplit-pair."""
    if class_tag == "irreducible":
        return Bound("nonsplit-pair",
                     "min(tau^(1/2) p^(1/4), tau^(13/20) p^(1/6), tau^(34/45) p^(1/9))",
                     nonsplit_pair_bound(tau, p), False)
    return Bound("split-pair", "min(tau^(23/36) p^(1/6), tau^(20/27) p^(1/9))",
                 split_pair_bound(tau, p), False)


def bound_menu(h: Hypotheses) -> tuple[Bound, ...]:
    """Every estimate whose hypotheses h satisfies, with its value.  The menu
    depends on the flags alone, so one serves every sum that shares them."""
    q = h.p ** h.degree
    menu = [Bound("trivial", "tau", float(h.tau), True)]
    both_independent = h.left_independent and h.right_independent
    if both_independent:
        # distinct orbit points make the first/first moment counts collapse to tau,
        # which turns the Hoelder chain into an explicit constant-1 inequality
        menu.append(Bound("square-root", "q^(n/2)", float(q) ** (h.n / 2), True))
    long_period = h.tau * h.tau > q ** h.n  # tau > q^(n/2), decided on integers
    if h.diagonalizable and both_independent:
        kf = float(kappa_n(h.n))
        if long_period:
            value = h.t ** 0.25 * h.tau ** (0.5 - kf) * float(q) ** (h.n / 4)
            formula = "t^(1/4) tau^(1/2-kappa) q^(n/4)"
        else:
            value = h.t ** 0.25 * h.tau ** (0.75 - kf) * float(q) ** (h.n / 8)
            formula = "t^(1/4) tau^(3/4-kappa) q^(n/8)"
        menu.append(Bound("power-saving", formula, float(value), False))
    if h.class_tag == "irreducible" and h.vectors_nonzero:
        save = 1 / (4 * h.n)
        if long_period:
            value = h.t ** 0.25 * h.tau ** (0.5 - save) * float(q) ** (h.n / 4)
            formula = "t^(1/4) tau^(1/2-1/(4n)) q^(n/4)"
        else:
            value = h.t ** 0.25 * h.tau ** (0.75 - save) * float(q) ** (h.n / 8)
            formula = "t^(1/4) tau^(3/4-1/(4n)) q^(n/8)"
        menu.append(Bound("irreducible-saving", formula, float(value), False))
    # irreducible eigenvalues are distinct; a pair in F_p needs A semisimple
    if (h.n == 2 and h.degree == 1 and h.t == 1 and both_independent
            and (h.class_tag == "irreducible" or h.diagonalizable)):
        menu.append(pair_bound(h.class_tag, h.tau, h.p))
    return tuple(menu)


def evaluate_bounds(result: SumResult, hypotheses: Hypotheses) -> tuple[BoundEntry, ...]:
    """One entry per estimate of bound_menu(hypotheses), comparing result.abs with it."""
    observed = result.abs
    return tuple(BoundEntry(b.name, b.formula, b.value, b.status(observed), observed / b.value)
                 for b in bound_menu(hypotheses))
