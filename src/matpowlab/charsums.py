"""Complete character sums over matrix power orbits.

The central object is the length-tau sum of psi(a A^x b) taken over one
full period of an invertible matrix A, and every sum is one: over a cyclic
subgroup G = <g>, a Kloosterman sum (a u + b / u) is the sum of
a = (a, b) with A = diag(g, 1/g) and b = (1, 1), and a Gauss sum (a u) that
of a = (a) with A = [[g]] and b = (1) (subgroup_entry); their moments walk
the same orbit of b.  Every sum walks a residue orbit (ffield.residue_orbit),
maps it to trace arguments Tr(alpha z) mod p through the integer trace form,
and counts the arguments in an exact integer histogram; float rounding is
confined to one p-term dot product of that histogram with the roots of
unity.  Matrix sums run as stacks (matrix_exp_sums): the walks of many
(a, b, A) triples are one batched residue_orbit per row-bounded block, and
their histograms one shared bincount, while each sum keeps its own checks
and its own dot, so matrix_exp_sum is the stack of one.  The hypothesis
flags of a stack are likewise one stacked Krylov check (analyze_instances).
Moments over every coefficient walk one representative per
G-orbit of coefficients, weighted by the orbit size, since a sum is
constant on each orbit.  evaluate_bounds(result, hypotheses) returns one
BoundEntry per estimate whose hypotheses the instance satisfies (the
Hypotheses of analyze_instance); only inequalities with an explicit constant
are marked pass or fail, saving estimates with unspecified constants come
back as ratio reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .counting import sequence_energy, vector_orbit
from .errors import BudgetExceeded, InvariantViolated, MixedContext
from .ffield import (
    CharacterSpec,
    FFElem,
    SubgroupSpec,
    mul_matrix,
    primitive_root,
    residue_orbit,
    standard_character,
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

# Charges a walk sum its length tau: tau residue rows walked, mapped to
# arguments and binned.  A stack of matrix walks runs in blocks of at most
# _WALK_BLOCK_ROWS rows (a longer walk alone), so the cap bounds the work and
# memory of each walk, not of the stack.  The Kloosterman and Gauss walks
# over a subgroup are matrix walks too, charged their order through
# matrix_exp_sums.
SUM_TAU_CAP = 10 ** 6
MOMENT_WORK_CAP = 10 ** 9

_PASS_SLACK = 1e-9
_MOMENT_BLOCK = 1 << 22  # complex entries materialized per moment block
# Residue rows per block of stacked matrix walks; blocks of 2^12 to 2^18 rows
# ran the sums grid at p 241-257 equally fast, and larger ones hold more memory.
_WALK_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class SumResult:
    """A computed complete sum with its modulus and term count."""

    value: complex
    abs: float
    length: int
    character: CharacterSpec
    parameters: dict


def _walk_sums(args: np.ndarray, lengths, chi: CharacterSpec,
               parameters) -> list[SumResult]:
    """Sum of e_p over the first lengths[k] entries of each row k of args.

    The rows share one bincount, row k offset by k p, which gives each an
    exact histogram; float rounding is confined to one p-term dot per row.
    """
    p = chi.ctx.p
    lengths = np.asarray(lengths, dtype=np.int64)
    walked = args[np.arange(args.shape[1]) < lengths[:, None]]
    # once offset, an argument outside [0, p) would land in another row's bins
    if walked.size and (walked.min() < 0 or walked.max() >= p):
        raise InvariantViolated(f"a walk argument lies outside [0, {p})")
    offsets = np.repeat(np.arange(len(lengths), dtype=np.int64) * p, lengths)
    hists = np.bincount(walked + offsets, minlength=len(lengths) * p).reshape(-1, p)
    roots = chi.ctx.roots_of_unity()
    out = []
    for hist, length, params in zip(hists, lengths.tolist(), parameters):
        mass = int(hist.sum())
        if mass != length:
            raise InvariantViolated(f"histogram mass {mass} != walk length {length}")
        value = complex(hist @ roots)
        mag = abs(value)
        # unit-modulus terms force |sum| <= length up to the dot product's rounding
        if mag > length + 1e-9:
            raise InvariantViolated(f"|sum| = {mag} exceeds the walk length {length}")
        out.append(SumResult(value, mag, length, chi, params))
    return out


def _forms(chi: CharacterSpec, elems) -> np.ndarray:
    """One row res(x) T per element x, so Tr(alpha x z) = row . res(z) (mod p)."""
    res = np.array([x.residues() for x in elems], dtype=np.int64)
    return res @ trace_form(chi) % chi.ctx.p


def _default_character(ctx, chi):
    if chi is None:
        return standard_character(ctx)
    if chi.ctx != ctx:
        raise MixedContext("character and summands live in different fields")
    return chi


def _walk_blocks(walks):
    """Cut (tau, index) pairs, sorted by tau, into blocks of at most
    _WALK_BLOCK_ROWS rows (block size times its longest tau); a longer walk
    is a block of its own."""
    block = []
    for walk in walks:
        if block and (len(block) + 1) * walk[0] > _WALK_BLOCK_ROWS:
            yield block
            block = []
        block.append(walk)
    if block:
        yield block


def matrix_exp_sums(entries, chi: CharacterSpec | None = None,
                    max_tau: int | None = None) -> list:
    """Sum psi(a A^x b), x = 1..tau, for each (a_vec, b_vec, A) of one field and one n.

    Returns one entry per triple, in order: its SumResult, or the
    BudgetExceeded that skipped it (a period above max_tau, SUM_TAU_CAP by
    default).  The residue orbits of the b's are walked as stacks, sorted by
    period and cut into row-bounded blocks; each walk keeps its own
    histogram checks and its own p-term dot, so a sum is bit for bit the
    one its triple gives alone.
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
    chi = _default_character(ctx, chi)
    cap = SUM_TAU_CAP if max_tau is None else max_tau
    p, d = ctx.p, ctx.degree
    results = [None] * len(entries)
    walks = []
    for k, (_, _, A) in enumerate(entries):
        tau = matrix_order(A)
        if tau > cap:
            results[k] = BudgetExceeded(f"period {tau} exceeds the cap {cap}",
                                        estimated_work=tau)
        else:
            walks.append((tau, k))
    lefts = _forms(chi, [x for a_vec, _, _ in entries for x in a_vec.entries])
    lefts = lefts.reshape(len(entries), n * d)
    starts = np.array([b.residues() for _, b, _ in entries], dtype=np.int64)
    for block in _walk_blocks(sorted(walks)):
        taus, ks = zip(*block)
        maps = np.stack([residue_map(entries[k][2], "column") for k in ks])
        orbit = residue_orbit(maps, starts[list(ks)], taus[-1], p)
        args = np.einsum("klm,km->kl", orbit, lefts[list(ks)]) % p
        params = [{"p": p, "degree": d, "n": n, "tau": tau} for tau in taus]
        for k, result in zip(ks, _walk_sums(args, taus, chi, params)):
            results[k] = result
    return results


def matrix_exp_sum(a_vec: VecEntity, b_vec: VecEntity, A: MatEntity,
                   chi: CharacterSpec | None = None,
                   max_tau: int | None = None) -> SumResult:
    """Sum psi(a A^x b) for x = 1..tau: the one-entry call of matrix_exp_sums,
    raising the BudgetExceeded that would skip the entry."""
    (result,) = matrix_exp_sums([(a_vec, b_vec, A)], chi, max_tau)
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
                         chi: CharacterSpec | None = None,
                         max_order: int | None = None) -> SumResult:
    """Sum psi(a u + b / u) over the subgroup: the matrix sum of (a, b) on
    subgroup_entry("kloosterman", G)."""
    A, ones = subgroup_entry("kloosterman", G)
    return matrix_exp_sum(VecEntity([a, b], "row"), ones, A, chi, max_order)


def gauss_subgroup(G: SubgroupSpec, a: FFElem,
                   chi: CharacterSpec | None = None,
                   max_order: int | None = None) -> SumResult:
    """Sum psi(a u) over the subgroup: the matrix sum of (a) on
    subgroup_entry("gauss", G)."""
    A, ones = subgroup_entry("gauss", G)
    return matrix_exp_sum(VecEntity([a], "row"), ones, A, chi, max_order)


@dataclass(frozen=True)
class MomentResult:
    """Moment of a sum family over all coefficient choices."""

    family: str
    m: int
    value: float
    exact: int | None
    parameters: dict


def sum_moment(family: str, G: SubgroupSpec, m: int,
               chi: CharacterSpec | None = None,
               max_work: int | None = None) -> MomentResult:
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
    of (A, b) = subgroup_entry(family, G) (count_JK(b, A, nu)); a float value
    more than 1e-9 relative away from either raises InvariantViolated.
    """
    if m < 1:
        raise ValueError("moment order must be positive")
    A, ones = subgroup_entry(family, G)
    ctx = G.ctx
    chi = _default_character(ctx, chi)
    q = ctx.q
    tau = G.order
    work = q ** A.n * tau
    cap = MOMENT_WORK_CAP if max_work is None else max_work
    if work > cap:
        raise BudgetExceeded(f"moment work {work} exceeds the cap {cap}",
                             estimated_work=work)

    p, d = ctx.p, ctx.degree
    cosets = (q - 1) // tau
    # g^1..g^L represent the cosets of G; Kloosterman walks on to g^(q-1) for every b
    length = q - 1 if family == "kloosterman" else cosets
    walk = residue_orbit(mul_matrix(primitive_root(ctx)), ctx.one.residues(), length, p)
    forms = np.vstack((np.zeros((1, d), dtype=np.int64), walk)) @ trace_form(chi) % p
    reps = forms[:cosets + 1]
    weights = np.full(cosets + 1, float(tau))
    weights[0] = 1.0
    table = ctx.roots_of_unity()
    # the columns of the walk are u, then 1 / u for Kloosterman
    orbit = vector_orbit(ones, A, tau)
    us = orbit[:, :d]

    if family == "kloosterman":
        # one column per b in {0} and the walk: e_p(Tr(alpha b / u)) down the u
        right = table[forms @ orbit[:, d:].T % p].T
    else:
        right = np.ones((tau, 1))
    # the widest per-row array is the terms (tau) or the sums (right's columns)
    block = max(1, _MOMENT_BLOCK // max(tau, right.shape[1]))
    total = second = 0.0
    for start in range(0, cosets + 1, block):
        terms = table[reps[start:start + block] @ us.T % p]
        mags = np.abs(terms @ right)
        w = weights[start:start + block]
        total += float(w @ np.sum(mags ** m, axis=1))
        second += float(w @ np.sum(mags * mags, axis=1))

    # orthogonality of the characters makes the second moment equal the charged
    # work: sum_a |S(a)|^2 = q |G| and sum_(a,b) |K(a, b)|^2 = q^2 |G|
    if abs(second - work) > 1e-9 * work:
        raise InvariantViolated(f"second moment {second} is not its closed form {work}")
    exact = None
    if m in (2, 4, 6):
        exact = q ** A.n * sequence_energy(orbit, p, m // 2)
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


def _explicit_entry(name, formula, value, observed) -> BoundEntry:
    status = "pass" if observed <= value + _PASS_SLACK else "fail"
    return BoundEntry(name, formula, float(value), status, observed / value)


def _report_entry(name, formula, value, observed) -> BoundEntry:
    return BoundEntry(name, formula, float(value), "report", observed / value)


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


def evaluate_bounds(result: SumResult, hypotheses: Hypotheses) -> tuple[BoundEntry, ...]:
    """One entry per estimate whose hypotheses hold, comparing result.abs with it."""
    h, observed = hypotheses, result.abs
    q = h.p ** h.degree
    entries = [_explicit_entry("trivial", "tau", float(h.tau), observed)]
    both_independent = h.left_independent and h.right_independent
    if both_independent:
        # distinct orbit points make the first/first moment counts collapse to tau,
        # which turns the Hoelder chain into an explicit constant-1 inequality
        entries.append(_explicit_entry("square-root", "q^(n/2)",
                                       float(q) ** (h.n / 2), observed))
    long_period = h.tau * h.tau > q ** h.n  # tau > q^(n/2), decided on integers
    if h.diagonalizable and both_independent:
        kf = float(kappa_n(h.n))
        if long_period:
            value = h.t ** 0.25 * h.tau ** (0.5 - kf) * float(q) ** (h.n / 4)
            formula = "t^(1/4) tau^(1/2-kappa) q^(n/4)"
        else:
            value = h.t ** 0.25 * h.tau ** (0.75 - kf) * float(q) ** (h.n / 8)
            formula = "t^(1/4) tau^(3/4-kappa) q^(n/8)"
        entries.append(_report_entry("power-saving", formula, value, observed))
    if h.class_tag == "irreducible" and h.vectors_nonzero:
        save = 1 / (4 * h.n)
        if long_period:
            value = h.t ** 0.25 * h.tau ** (0.5 - save) * float(q) ** (h.n / 4)
            formula = "t^(1/4) tau^(1/2-1/(4n)) q^(n/4)"
        else:
            value = h.t ** 0.25 * h.tau ** (0.75 - save) * float(q) ** (h.n / 8)
            formula = "t^(1/4) tau^(3/4-1/(4n)) q^(n/8)"
        entries.append(_report_entry("irreducible-saving", formula, value, observed))
    if h.n == 2 and h.degree == 1 and h.t == 1:
        eigen_in_base = h.class_tag in ("split", "repeated")
        if eigen_in_base and h.diagonalizable and both_independent:
            entries.append(_report_entry(
                "split-pair",
                "min(tau^(23/36) p^(1/6), tau^(20/27) p^(1/9))",
                split_pair_bound(h.tau, h.p), observed))
        if h.class_tag == "irreducible" and both_independent:
            entries.append(_report_entry(
                "nonsplit-pair",
                "min(tau^(1/2) p^(1/4), tau^(13/20) p^(1/6), tau^(34/45) p^(1/9))",
                nonsplit_pair_bound(h.tau, h.p), observed))
    return tuple(entries)
