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
depends on chunking or worker layout. `residue_sum_distribution` returns the
distinct sums and their counts of any residue-row sequence, and
`residue_sumset_cover` its sumset cover; `orbit_sum_distribution` and
`sumset_cover` are the same on the vector orbit of an entity pair.
`orbit_energy` is the energy of the walk of an order-tau subgroup H of F_q*:
at nu = 3 the sum of |orbit| c_3^2 over the orbits of H, their heads read in
blocks from ffield.coset_walk and c_3 gathered off a tiling in DENSE_CAP's
16 MB, else sequence_energy. It is the exact side of charsums.sum_moment and
all of `torus_energy`, which counts a (class, tau) key of the SL_2 trace
table on its tau torus rows, the power orbit of each companion of the key up
to an F_p-linear bijection, with no matrix. `residue_product_eqs` scans a
stack of product equations over the residue rows of one period of their
bases' powers, such as a key's torus rows; `count_product_eq` walks the
powers of its own bases and scans its one equation there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    ZeroLambda,
    ZeroXi1,
    over_budget,
)
from .ffield import (FFElem, FieldCtx, _decode_keys, _key_weights, coset_walk, mul_matrix,
                     residue_orbit, residue_product)
from .matgrp import (MatEntity, SL2Table, VecEntity, check_vector_orbit, frobenius_orders,
                     matrix_order, residue_map)

# Each cap, scaled by its kernel's budget (errors.over_budget), is compared with:
# the period tau, per nu: a nu-fold count folds the tau orbit rows nu times,
# and a skip reports tau^nu as its work.
DEFAULT_TAU_CAP = {1: 10 ** 6, 2: 3000, 3: 400}
# the lcm period tau of the product equation: tau rows scanned.
PRODUCT_EQ_CAP = 10 ** 5
# tau^k, the k-fold sums an orbit sum distribution folds.
DISTRIBUTION_WORK_CAP = 10 ** 8
# q^n, the cells of the boolean sumset histogram.  sumset_cover folds it
# densely at every size (it never consults _kernel), and each fold allocates
# the 2^d-fold tiled boolean copy of _dense_fold: 2^d q^n bytes, 40 MB at
# d = 2 and the cap.
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


def orbit_energy(walk: np.ndarray, field: FieldCtx, nu: int) -> int:
    """sequence_energy(walk, p, nu) for the walk of the order-tau subgroup H of
    field*, counted as sum |orbit| c_nu^2 over the orbits of H.

    The first field.degree columns of walk are the elements u of H, any further
    columns a function of u, so H permutes the walk and c_nu is constant on its
    orbits.  The orbits are headed by the rows of coset_walk(field, tau): 0
    (size 1) and the coset representatives z, ..., z^L (size tau), each with
    every residue row y on the further columns; they must cover Z_p^D and
    weight c_nu to tau^nu, or InvariantViolated.  At nu = 3, c_3(x) sums
    c_2(x - u) over the walk, off the 2^D-fold tiling of the dense c_2; below
    nu = 3 or past DENSE_CAP int64 bytes of tiling, sequence_energy.
    """
    size, dims = walk.shape
    p, tail = field.p, dims - field.degree
    cell = np.dtype(np.int32 if size ** (nu - 1) < 2 ** 31 else np.int64)
    if nu != 3 or (2 * p) ** dims * cell.itemsize > 8 * DENSE_CAP:
        return sequence_energy(walk, p, nu)
    rows = np.roll(walk % p, tail, axis=1)  # the y coordinates least significant
    cells = _pair_histogram(rows, np.ones(size, dtype=cell), p)
    # a row of the tiling per head coordinate h + p - u, a window per y - u
    table = np.tile(cells.reshape((p,) * dims), (2,) * dims).reshape((-1,) + (2 * p,) * tail)
    windows = sliding_window_view(table, (p,) * tail, axis=tuple(range(1, tail + 1)))
    weights = (2 * p) ** np.arange(field.degree)
    shifts = (p - rows[:, tail:]) @ weights
    starts = tuple(p - rows[:, k] for k in reversed(range(tail)))
    exact = object if size ** (2 * nu) >= 2 ** 63 else np.int64
    energy = total = points = 0
    for heads, sizes in coset_walk(field, size, max(1, _CHUNK_TARGET // (size * p ** tail))):
        keys = np.add.outer(heads @ weights, shifts)
        counts = windows[(keys,) + starts].reshape(len(keys), size, -1).sum(axis=1, dtype=exact)
        points += int(np.sum(sizes))
        energy += int(np.dot(np.sum(counts * counts, axis=1), sizes))
        total += int(np.dot(np.sum(counts, axis=1), sizes))
    if points * p ** tail != p ** dims or total != size ** nu:
        raise InvariantViolated(f"orbits miss Z_{p}^{dims} or weight c_{nu} to {total}")
    return energy


def torus_energy(table: SL2Table, tag: str, tau: int, nu: int, budget: float = 1.0) -> int:
    """count_Q(A_u, nu).value of every companion A_u of a (class, tau) key of an SL_2
    trace table, counted with no matrix on the key's tau torus rows (SL2Table.torus):
    the power orbit of A_u up to an F_p-linear bijection.

    The cap is count_Q's: tau against DEFAULT_TAU_CAP[nu], with work tau^nu.  The
    rows are the walk of the order-tau subgroup of F_p* with the column 1/u (split)
    or of F_{p^2}* (irreducible), so orbit_energy counts them over that field.
    """
    if nu not in (1, 2, 3):
        raise ValueError(f"nu must be 1, 2, or 3, got {nu}")
    if err := over_budget("tau", tau, DEFAULT_TAU_CAP[nu], budget, work=tau ** nu):
        raise err
    field = table.ctx if tag == "split" else table.ctx.ext_field()
    return orbit_energy(table.torus(tag, tau), field, nu)


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


def count_Q(A: MatEntity, nu: int, budget: float = 1.0) -> CountResult:
    """Exact count of 2 nu - term power-sum solutions, by orbit convolution."""
    if nu not in (1, 2, 3):
        raise ValueError(f"nu must be 1, 2, or 3, got {nu}")
    tau = matrix_order(A)
    if err := over_budget("tau", tau, DEFAULT_TAU_CAP[nu], budget, work=tau ** nu):
        raise err
    value, kernel = _energy(power_orbit(A, tau), A.ctx.p, nu)
    return CountResult(
        value,
        "convolution",
        {"nu": nu, "tau": tau, "p": A.ctx.p, "degree": A.ctx.degree, "n": A.n, **kernel},
    )


def count_JK(v: VecEntity, A: MatEntity, k: int, budget: float = 1.0) -> CountResult:
    """Vector-orbit analogue of count_Q over the sequence v A^x (or A^x v).

    Repeats in the orbit are kept with multiplicity, so the count matches the
    raw exponent-tuple definition whether or not v and A are in general
    position.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    check_vector_orbit(v, A)
    tau = matrix_order(A)
    if err := over_budget("tau", tau, DEFAULT_TAU_CAP[k], budget, work=tau ** k):
        raise err
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


def residue_product_eqs(powers: np.ndarray, xis: np.ndarray, targets: np.ndarray,
                        ctx: FieldCtx, budget: float = 1.0) -> np.ndarray:
    """The number of rows x of powers with prod_j (xis[k, j] - powers[x, j]) =
    targets[k] over ctx, for each equation k: an int64 array (N,).  powers
    (tau, n, degree) holds one period of the n bases' powers, xis (N, n, degree)
    and targets (N, degree) the equations.  Its cap is the period tau against
    PRODUCT_EQ_CAP; the scan takes about _CHUNK_TARGET residue cells at a time.
    """
    tau, n, d = powers.shape
    if xis.shape[1:] != (n, d) or targets.shape != (len(xis), d):
        raise ValueError("need one coefficient per base and one target per equation")
    if err := over_budget("lcm period", tau, PRODUCT_EQ_CAP, budget):
        raise err
    hits = np.empty(len(xis), dtype=np.int64)
    block = max(1, _CHUNK_TARGET // (tau * n * d))
    for lo in range(0, len(xis), block):
        factors = (xis[lo:lo + block, None] - powers) % ctx.p
        prod = factors[:, :, 0]
        for j in range(1, n):
            prod = residue_product(prod, factors[:, :, j], ctx)
        hits[lo:lo + block] = np.all(prod == targets[lo:lo + block, None], axis=2).sum(axis=1)
    return hits


def count_product_eq(xi0: FFElem, xis, lambdas, budget: float = 1.0) -> CountResult:
    """Count x in [1, tau] with prod_j (xi_j - lambda_j^x) = xi_0, tau the lcm
    of the base orders (one mult_order per Frobenius orbit of bases), by one
    residue_orbit walk of the bases and residue_product_eqs."""
    if not xis or len(xis) != len(lambdas):
        raise ValueError("need matching nonempty coefficient and base lists")
    ctx = xi0.ctx
    if any(x.ctx != ctx for x in (*xis, *lambdas)):
        raise MixedContext("product equation pieces from different fields")
    if not xis[0]:
        raise ZeroXi1("leading coefficient xi_1 must be nonzero")
    if not xi0:
        raise DegenerateParameters("target xi_0 must be nonzero")
    if not all(lambdas):
        raise ZeroLambda("bases must be nonzero")
    orders = frobenius_orders(lambdas)
    tau = math.lcm(*orders)
    if err := over_budget("lcm period", tau, PRODUCT_EQ_CAP, budget):
        raise err
    bases = np.array([mul_matrix(lam) for lam in lambdas])
    powers = residue_orbit(bases, ctx.one.residues(), tau, ctx.p).transpose(1, 0, 2)
    (value,) = residue_product_eqs(powers, np.array([[xi.residues() for xi in xis]]),
                                   np.array([xi0.residues()]), ctx, budget).tolist()
    return CountResult(value, "direct-scan", {"tau": tau, "L": max(orders), "n": len(lambdas),
                                              "p": ctx.p, "degree": ctx.degree})


# ---- orbit sum distribution and sumset coverage ------------------------------------


def residue_sum_distribution(rows: np.ndarray, p: int, k: int,
                             budget: float = 1.0) -> SumDistribution:
    """Full multiset of k-fold sums of a sequence of residue rows over F_p: distinct
    rows and int64 counts.  Its cap is tau^k, tau the number of rows, against
    DISTRIBUTION_WORK_CAP."""
    if k < 1:
        raise ValueError("arity must be positive")
    tau = len(rows)
    if err := over_budget("tau^k", tau ** k, DISTRIBUTION_WORK_CAP, budget):
        raise err
    sums, counts = _folded_distribution(np.asarray(rows, dtype=np.int64) % p, p, k)
    return SumDistribution(k, sums, counts, tau ** k)


def orbit_sum_distribution(a: VecEntity, A: MatEntity, k: int,
                           budget: float = 1.0) -> SumDistribution:
    """residue_sum_distribution of the vector orbit of (a, A), its cap checked before
    the orbit is walked."""
    if k < 1:
        raise ValueError("arity must be positive")
    check_vector_orbit(a, A)
    tau = matrix_order(A)
    if err := over_budget("tau^k", tau ** k, DISTRIBUTION_WORK_CAP, budget):
        raise err
    return residue_sum_distribution(vector_orbit(a, A, tau), A.ctx.p, k, budget)


def residue_sumset_cover(rows: np.ndarray, p: int, k_max: int,
                         budget: float = 1.0) -> CoverResult:
    """Smallest k <= k_max with S_k = F_p^d for S_1 the set of the residue rows
    (N, d), S_{k+1} = S_k + S_1.  Its cap is the p^d cells of the boolean
    sumset histogram against COVER_SPACE_CAP.

    Stops early when the sumset stagnates: S_{k+1} = S_k forces S_{k+m} = S_k
    for all m, so no later k can cover.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    rows = np.asarray(rows, dtype=np.int64) % p
    d = rows.shape[1]
    space = p ** d
    if err := over_budget("q^n", space, COVER_SPACE_CAP, budget):
        raise err
    shifts, _ = _distinct_rows(rows, p)
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


def sumset_cover(a: VecEntity, A: MatEntity, k_max: int,
                 budget: float = 1.0) -> CoverResult:
    """residue_sumset_cover of the vector orbit of (a, A) in F_q^n, its cap
    checked before the orbit is walked."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    check_vector_orbit(a, A)
    if err := over_budget("q^n", A.ctx.p ** (A.n * A.ctx.degree), COVER_SPACE_CAP, budget):
        raise err
    return residue_sumset_cover(vector_orbit(a, A, matrix_order(A)), A.ctx.p, k_max, budget)
