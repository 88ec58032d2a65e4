"""Solution counts for power-sum equations via convolution of orbit multisets.

The central quantity is the number of solutions of

    A^{x_1} + ... + A^{x_nu} = A^{x_{nu+1}} + ... + A^{x_{2 nu}},   1 <= x_i <= tau,

computed as sum(c^2) over the nu-fold sum multiset of the power orbit, never
by enumerating exponent tuples. Orbit entries are flat integer residue rows
over F_p. Where only a count is returned, the rows are first cut down to the
pivot columns of their F_p-span: that projection is injective on the span,
which holds every nu-fold sum, and by Cayley-Hamilton the span of a power
orbit has dimension at most n * degree. The multiset is then an exact int64
histogram on the torus Z_p^d. Its first fold is one histogram of the sums of
all ordered pairs of distinct rows, weighted by the product of their
multiplicities, so it assumes nothing about the row sequence; each later
fold adds one cyclic shift of it per distinct row. A boolean histogram built
the same way gives the sumsets of `sumset_cover`. Only when the shifted copy
would pass DENSE_CAP cells does each fold instead take the same pair sums of
the support of c_k and the distinct rows, as base-p integer keys (residue
rows once p^d passes 2^63), and merge them by sorting. Either way the counts
are exact integers, their total is checked against rows^nu, and nothing
depends on chunking or worker layout. `orbit_sum_distribution` returns the
distinct sums and their multiplicities as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    ZeroLambda,
    ZeroXi1,
)
from .ffield import (FFElem, _decode_keys, _key_weights, mul_matrix, residue_orbit,
                     residue_product)
from .matgrp import (MatEntity, VecEntity, char_poly_factor, check_vector_orbit,
                     frobenius_orders, is_diagonalizable, matrix_order, residue_map)

DEFAULT_TAU_CAP = {1: 10 ** 6, 2: 3000, 3: 400}
PRODUCT_EQ_CAP = 10 ** 5
DISTRIBUTION_WORK_CAP = 10 ** 8
COVER_SPACE_CAP = 10 ** 7
DENSE_CAP = 1 << 21  # cells of the tiled copy a dense fold shifts (16 MB of int64)

_CHUNK_TARGET = 1 << 20  # pairwise sums materialized per block


@dataclass
class CountResult:
    """An exact solution count plus how it was obtained."""

    value: int
    method: str
    parameters: dict = field(default_factory=dict)


@dataclass
class SumDistribution:
    """Multiset of k-fold orbit sums: distinct residue rows and their multiplicities."""

    arity: int
    rows: np.ndarray
    counts: np.ndarray
    total: int


@dataclass
class CoverResult:
    """Sumset coverage record: first covering k (None if never) and misses per k."""

    covered_at: int | None
    missing: tuple
    space: int


# ---- convolution kernel -------------------------------------------------------------


def _aggregate(sums: np.ndarray, counts: np.ndarray):
    """Distinct sums with their summed counts, in base-p key order.

    sums are int64 keys, or residue rows (last coordinate most significant).
    The counts are summed, so the order of equal sums does not matter.
    """
    if sums.ndim == 1:
        order = np.argsort(sums)
        sums = sums[order]
        change = sums[1:] != sums[:-1]
    else:
        order = np.lexsort(sums.T)
        sums = sums[order]
        change = np.any(sums[1:] != sums[:-1], axis=1)
    starts = np.flatnonzero(np.r_[True, change])
    return sums[starts], np.add.reduceat(counts[order], starts)


def _distinct_rows(rows: np.ndarray, p: int):
    """The distinct residue rows, in base-p key order, and how often each occurs."""
    size, d = rows.shape
    encodable = p ** d < 2 ** 63
    distinct, counts = _aggregate(rows @ _key_weights(p, d) if encodable else rows,
                                  np.ones(size, dtype=np.int64))
    return (_decode_keys(distinct, p, d) if encodable else distinct), counts


def _pair_sums(left: np.ndarray, right: np.ndarray, p: int):
    """Blocks (lo, hi, sums) of left[lo:hi] + right (mod p) over all pairs (i, j), i-major.

    Row entries must be reduced mod p. Each block holds about _CHUNK_TARGET
    pairs (8 MB of keys): base-p int64 keys while p^d < 2^63, residue rows past it.
    """
    size, d = left.shape
    encodable = p ** d < 2 ** 63
    if encodable:
        # wraps[j][s] = (s mod p) p^j for a sum s < 2p of two residues
        wraps = [np.arange(2 * p) % p * w for w in _key_weights(p, d).tolist()]
    block = max(1, _CHUNK_TARGET // right.shape[0])
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        if encodable:
            # the zero start keeps the shape when d = 0 (rows of zero span)
            sums = sum((wrap[np.add.outer(left[lo:hi, j], right[:, j])]
                        for j, wrap in enumerate(wraps)),
                       np.zeros((hi - lo, right.shape[0]), dtype=np.int64)).ravel()
        else:
            sums = ((left[lo:hi, None, :] + right[None, :, :]) % p).reshape(-1, d)
        yield lo, hi, sums


def _pivot_columns(rows: np.ndarray, p: int) -> list:
    """Pivot columns of the F_p-span of the rows, by elimination in column order.

    A vector of the span is determined by its pivot coordinates, so projecting
    onto them keeps every count of sums of rows.
    """
    m = rows % p
    pivots = []
    for j in range(m.shape[1]):
        hit = np.flatnonzero(m[:, j])
        if hit.size:
            pivot = m[hit[0]] * pow(int(m[hit[0], j]), -1, p) % p
            m = (m - np.outer(m[:, j], pivot)) % p
            pivots.append(j)
    return pivots


def _kernel(p: int, d: int) -> str:
    """The fold for keys in Z_p^d: dense while its tiled copy fits in DENSE_CAP cells."""
    return "dense" if (2 * p) ** d <= DENSE_CAP else "sorted"


def _pair_histogram(rows: np.ndarray, weights: np.ndarray, p: int) -> np.ndarray:
    """Histogram on Z_p^d (axes last coordinate first) of rows[i] + rows[j] (mod p) over
    all ordered pairs, of weight weights[i] * weights[j]; boolean weights give the sumset."""
    d = rows.shape[1]
    cells = np.zeros(p ** d, dtype=weights.dtype)
    one = weights.dtype.type(1)
    # rows without repeats (most orbits) add the scalar one in the cells' dtype:
    # a value array, or a scalar np.add.at must cast, makes it several times slower
    unit = bool(np.all(weights == one))
    for lo, hi, keys in _pair_sums(rows, rows, p):
        np.add.at(cells, keys, one if unit else np.outer(weights[lo:hi], weights).ravel())
    return cells.reshape((p,) * d)


def _sorted_fold(rows, counts, shifts, weights, p: int):
    """Distinct sums rows[i] + shifts[j] (mod p), of summed weight counts[i] * weights[j].

    Pending blocks of pair sums are merged by sorting once they hold as many
    entries as the merged multiset: each entry is sorted O(log) times, and
    memory stays near twice the support plus one block.
    """
    parts, merged, held = [], 0, 0
    for lo, hi, sums in _pair_sums(rows, shifts, p):
        parts.append((sums, np.outer(counts[lo:hi], weights).ravel()))
        held += parts[-1][1].size
        if held >= 2 * merged:
            parts = [_aggregate(*map(np.concatenate, zip(*parts)))]
            merged = held = parts[0][1].size
    if len(parts) > 1:
        parts = [_aggregate(*map(np.concatenate, zip(*parts)))]
    sums, counts = parts[0]
    return (_decode_keys(sums, p, rows.shape[1]) if sums.ndim == 1 else sums), counts


def _dense_fold(cells: np.ndarray, shifts: np.ndarray, weights: np.ndarray, p: int):
    """sum_i weights[i] * (cells moved by shifts[i]) on the torus Z_p^d.

    Every moved copy is a slice of one 2^d-fold tiling of cells. A boolean
    cells array with unit weights gives the sumset instead of the multiset.
    """
    tiled = np.tile(cells, (2,) * cells.ndim)
    out = np.zeros_like(cells)
    for r, w in zip(shifts[:, ::-1].tolist(), weights.tolist()):
        view = tiled[tuple(slice(p - x, 2 * p - x) for x in r)]
        out += view if w == 1 else w * view
    return out


def _folded_distribution(orbit_rows: np.ndarray, p: int, arity: int, decode: bool = True):
    """(rows, counts) of the arity-fold sum multiset of the orbit sequence; with
    decode False a dense fold gives rows None and the counts of all cells."""
    size, d = orbit_rows.shape
    shifts, weights = _distinct_rows(orbit_rows, p)
    rows, counts = shifts, weights
    if arity > 1 and _kernel(p, d) == "dense":
        # c_2 from the ordered pairs of distinct rows; each later fold adds one shift per row
        cells = _pair_histogram(shifts, weights, p)
        for _ in range(arity - 2):
            cells = _dense_fold(cells, shifts, weights, p)
        rows, counts = None, cells.ravel()
        if decode:
            keys = np.flatnonzero(counts)
            rows, counts = _decode_keys(keys, p, d), counts[keys]
    else:
        # c_{k+1} = c_k * c_1 against the distinct rows, weighted by their multiplicities
        for _ in range(arity - 1):
            rows, counts = _sorted_fold(rows, counts, shifts, weights, p)
    total = int(np.sum(counts))
    if total != size ** arity:
        raise InvariantViolated(
            f"{arity}-fold sum multiplicities total {total}, not {size}^{arity}")
    return rows, counts


def _energy(orbit_rows: np.ndarray, p: int, nu: int):
    """sum(c^2) over the nu-fold sums of the rows, and the kernel that counted them."""
    keys = orbit_rows[:, _pivot_columns(orbit_rows, p)]
    size, d = keys.shape
    _, counts = _folded_distribution(keys, p, nu, decode=False)
    # zero cells add nothing; sum(c^2) <= size^(2 nu), past int64 summed as Python ints
    if size ** (2 * nu) < 2 ** 63:
        value = int(np.dot(counts, counts))
    else:
        value = sum(c * c for c in counts.tolist())
    return value, {"kernel": _kernel(p, d), "key_dims": d}


def sequence_energy(residue_rows, p: int, nu: int) -> int:
    """sum(c_nu^2) for the nu-fold sum multiset of a residue-row sequence (array or tuples).

    Rows are reduced mod p on entry; an empty sequence has no sums and gives 0.
    """
    rows = np.array(residue_rows, dtype=np.int64) % p
    return _energy(rows, p, nu)[0] if len(rows) else 0


# ---- matrix power orbits ----------------------------------------------------------


def power_orbit(A: MatEntity, tau: int | None = None):
    """Residue rows of A^1, ..., A^tau (tau defaults to the order of A)."""
    if tau is None:
        tau = matrix_order(A)
    # row i of A^x is e_i A^x: the n identity rows walk as one stack under v -> v A
    n, d = A.n, A.ctx.degree
    rows = residue_orbit(residue_map(A, "row"), np.eye(n * d, dtype=np.int64)[::d], tau, A.ctx.p)
    return rows.transpose(1, 0, 2).reshape(tau, n * n * d)


def vector_orbit(v: VecEntity, A: MatEntity, tau: int | None = None):
    """Residue rows of v A^x (row) or A^x v (column), x = 1..tau."""
    if tau is None:
        tau = matrix_order(A)
    return residue_orbit(residue_map(A, v.orientation), v.residues(), tau, A.ctx.p)


def _check_tau_budget(tau: int, nu: int, max_tau: int | None):
    cap = DEFAULT_TAU_CAP[nu] if max_tau is None else max_tau
    if tau > cap:
        raise BudgetExceeded(
            f"tau = {tau} exceeds the nu = {nu} cap {cap}",
            estimated_work=tau ** nu,
        )


def count_Q(A: MatEntity, nu: int, max_tau: int | None = None) -> CountResult:
    """Exact count of 2 nu - term power-sum solutions, by orbit convolution."""
    if nu not in (1, 2, 3):
        raise ValueError(f"nu must be 1, 2, or 3, got {nu}")
    tau = matrix_order(A)
    _check_tau_budget(tau, nu, max_tau)
    value, kernel = _energy(power_orbit(A, tau), A.ctx.p, nu)
    return CountResult(
        value,
        "convolution",
        {"nu": nu, "tau": tau, "p": A.ctx.p, "degree": A.ctx.degree, "n": A.n, **kernel},
    )


def count_Q_eigen(A: MatEntity, nu: int, max_tau: int | None = None) -> CountResult:
    """Same count as count_Q through the eigenvalue system of a diagonalizable A."""
    if nu not in (1, 2, 3):
        raise ValueError(f"nu must be 1, 2, or 3, got {nu}")
    data = char_poly_factor(A)
    if data.eigenvalues is None or not is_diagonalizable(A):
        raise DegenerateParameters("eigenvalue reduction needs a diagonalizable matrix")
    tau = matrix_order(A)
    _check_tau_budget(tau, nu, max_tau)
    p = A.ctx.p
    rows = np.hstack([residue_orbit(mul_matrix(lam), lam.ctx.one.residues(), tau, p)
                      for lam in data.eigenvalues])
    value, kernel = _energy(rows, p, nu)
    return CountResult(
        value,
        "eigenvalue-reduction",
        {"nu": nu, "tau": tau, "p": A.ctx.p, "degree": A.ctx.degree, "n": A.n, **kernel},
    )


def count_JK(v: VecEntity, A: MatEntity, k: int, max_tau: int | None = None) -> CountResult:
    """Vector-orbit analogue of count_Q over the sequence v A^x (or A^x v).

    Repeats in the orbit are kept with multiplicity, so the count matches the
    raw exponent-tuple definition whether or not v and A are in general
    position.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    check_vector_orbit(v, A)
    tau = matrix_order(A)
    _check_tau_budget(tau, k, max_tau)
    value, kernel = _energy(vector_orbit(v, A, tau), A.ctx.p, k)
    return CountResult(
        value,
        "convolution",
        {
            "k": k,
            "tau": tau,
            "p": A.ctx.p,
            "degree": A.ctx.degree,
            "n": A.n,
            "side": v.orientation,
            **kernel,
        },
    )


# ---- product equation --------------------------------------------------------------


def count_product_eq(xi0: FFElem, xis, lambdas, max_tau: int | None = None) -> CountResult:
    """Count x in [1, tau] with prod_j (xi_j - lambda_j^x) = xi_0.

    tau is the lcm of the base orders, one mult_order per Frobenius orbit
    of bases. Each base is walked as a residue orbit, and the factors are
    multiplied as arrays of residue rows.
    """
    xis = list(xis)
    lambdas = list(lambdas)
    if not xis or len(xis) != len(lambdas):
        raise ValueError("need matching nonempty coefficient and base lists")
    ctx = xi0.ctx
    for x in xis + lambdas:
        if x.ctx != ctx:
            raise MixedContext("product equation pieces from different fields")
    if not xis[0]:
        raise ZeroXi1("leading coefficient xi_1 must be nonzero")
    if not xi0:
        raise DegenerateParameters("target xi_0 must be nonzero")
    for lam in lambdas:
        if not lam:
            raise ZeroLambda("bases must be nonzero")
    orders = frobenius_orders(lambdas)
    tau = math.lcm(*orders)
    cap = PRODUCT_EQ_CAP if max_tau is None else max_tau
    if tau > cap:
        raise BudgetExceeded(f"lcm period {tau} exceeds {cap}", estimated_work=tau)
    p = ctx.p
    prod = np.array(ctx.one.residues(), dtype=np.int64)
    for xi, lam in zip(xis, lambdas):
        powers = residue_orbit(mul_matrix(lam), ctx.one.residues(), tau, p)
        prod = residue_product(prod, (np.array(xi.residues()) - powers) % p, ctx)
    hits = int(np.count_nonzero(np.all(prod == xi0.residues(), axis=1)))
    return CountResult(
        hits,
        "direct-scan",
        {"tau": tau, "L": max(orders), "n": len(lambdas), "p": ctx.p, "degree": ctx.degree},
    )


# ---- orbit sum distribution and sumset coverage ------------------------------------


def orbit_sum_distribution(a: VecEntity, A: MatEntity, k: int,
                           max_work: int | None = None) -> SumDistribution:
    """Full multiset of k-fold sums of the vector orbit: distinct rows and int64 counts."""
    if k < 1:
        raise ValueError("arity must be positive")
    check_vector_orbit(a, A)
    tau = matrix_order(A)
    cap = DISTRIBUTION_WORK_CAP if max_work is None else max_work
    if tau ** k > cap:
        raise BudgetExceeded(f"tau^k = {tau ** k} exceeds {cap}", estimated_work=tau ** k)
    orbit = vector_orbit(a, A, tau)
    rows, counts = _folded_distribution(orbit, A.ctx.p, k)
    return SumDistribution(k, rows, counts, tau ** k)


def sumset_cover(a: VecEntity, A: MatEntity, k_max: int,
                 max_space: int | None = None) -> CoverResult:
    """Smallest k <= k_max with S_k = F_q^n for S_1 = orbit, S_{k+1} = S_k + S_1.

    Stops early when the sumset stagnates: S_{k+1} = S_k forces S_{k+m} = S_k
    for all m, so no later k can cover.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    check_vector_orbit(a, A)
    p = A.ctx.p
    d = A.n * A.ctx.degree
    space = p ** d
    cap = COVER_SPACE_CAP if max_space is None else max_space
    if space > cap:
        raise BudgetExceeded(f"q^n = {space} exceeds {cap}", estimated_work=space)
    shifts, _ = _distinct_rows(vector_orbit(a, A, matrix_order(A)), p)
    ones = np.ones(shifts.shape[0], dtype=np.bool_)
    current = np.zeros((p,) * d, dtype=np.bool_)
    current.flat[shifts @ _key_weights(p, d)] = True
    missing = []
    covered_at = None
    for k in range(1, k_max + 1):
        gap = space - int(np.count_nonzero(current))
        missing.append(gap)
        if gap == 0:
            covered_at = k
            break
        if k == k_max:
            break
        if k == 1:
            nxt = _pair_histogram(shifts, ones, p)
        else:
            nxt = _dense_fold(current, shifts, ones, p)
        if np.array_equal(nxt, current):
            # S_{k+1} = S_k forces S_{k+m} = S_k: no later arity can cover
            missing.extend([gap] * (k_max - k))
            break
        current = nxt
    return CoverResult(covered_at, tuple(missing), space)
