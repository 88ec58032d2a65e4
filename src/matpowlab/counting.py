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
`orbit_energy` sums |orbit| c_nu^2 over the orbits of a group permuting the
walk, off a tiling in DENSE_CAP's 16 MB. `torus_energy` counts a (class, tau)
key of the SL_2 trace table on its tau torus rows, the power orbit of each
companion of the key up to an F_p-linear bijection, with no matrix: by
sequence_energy, or at nu = 3 by orbit_energy over the cosets of the key's
subgroup. `count_product_eqs` scans a whole stack of product equations, one
stacked power walk per field, period and number of bases, and returns each
skip in place; `count_product_eq` is its one-entry call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BudgetExceeded,
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    ZeroLambda,
    ZeroXi1,
    over_budget,
)
from .ffield import (FFElem, _decode_keys, _key_weights, mul_matrix, primitive_root,
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


def _gather_cells(size: int, dims: int, p: int, nu: int):
    """The dtype of the dense c_(nu-1) that orbit_energy gathers from for a walk of size
    rows in Z_p^dims (int32 while size^(nu-1) fits), or None where it takes sequence_energy:
    past nu = 3, on an empty walk, or past DENSE_CAP int64 bytes of tiling."""
    cell = np.dtype(np.int32 if size ** (nu - 1) < 2 ** 31 else np.int64)
    if nu > 3 or not size or (2 * p) ** dims * cell.itemsize > 8 * DENSE_CAP:
        return None
    return cell


def orbit_energy(walk: np.ndarray, heads: np.ndarray, sizes: np.ndarray, p: int, nu: int) -> int:
    """sequence_energy(walk, p, nu), as sum |orbit| c_nu^2 over orbits of a group permuting it.

    Each point (h, y), h a row of heads and y any residue row on the other coordinates,
    stands for sizes[h] points: they must cover Z_p^D and weight c_nu to rows^nu, or
    InvariantViolated.  c_nu(x) sums c_(nu-1)(x - u) over the walk, off the 2^D-fold
    tiling of the dense c_(nu-1); past nu = 3 or DENSE_CAP int64 bytes, sequence_energy.
    """
    size, dims = walk.shape
    head, tail = heads.shape[1], dims - heads.shape[1]
    cell = _gather_cells(size, dims, p, nu)
    if cell is None:
        return sequence_energy(walk, p, nu)
    rows = np.roll(walk % p, tail, axis=1)  # the y coordinates least significant
    if nu == 3:
        cells = _pair_histogram(rows, np.ones(size, dtype=cell), p)
    else:  # c_1 is the walk's histogram, c_0 the point 0
        cells = np.bincount(rows @ _key_weights(p, dims) if nu == 2 else [0],
                            minlength=p ** dims).astype(cell)
    # a row of the tiling per head coordinate h + p - u, a window per y - u
    table = np.tile(cells.reshape((p,) * dims), (2,) * dims).reshape((-1,) + (2 * p,) * tail)
    windows = sliding_window_view(table, (p,) * tail, axis=tuple(range(1, tail + 1)))
    weights = (2 * p) ** np.arange(head)
    shifts = (p - rows[:, tail:]) @ weights
    starts = tuple(p - rows[:, k] for k in reversed(range(tail)))
    exact = object if size ** (2 * nu) >= 2 ** 63 else np.int64
    energy = total = 0
    block = max(1, _CHUNK_TARGET // (size * p ** tail))
    for lo in range(0, len(heads), block):
        keys = np.add.outer(heads[lo:lo + block] % p @ weights, shifts)
        counts = windows[(keys,) + starts].reshape(len(keys), size, -1).sum(axis=1, dtype=exact)
        energy += int(np.dot(np.sum(counts * counts, axis=1), sizes[lo:lo + block]))
        total += int(np.dot(np.sum(counts, axis=1), sizes[lo:lo + block]))
    if int(np.sum(sizes)) * p ** tail != p ** dims or total != size ** nu:
        raise InvariantViolated(f"orbits miss Z_{p}^{dims} or weight c_{nu} to {total}")
    return energy


def torus_energy(table: SL2Table, tag: str, tau: int, nu: int, budget: float = 1.0) -> int:
    """count_Q(A_u, nu).value of every companion A_u of a (class, tau) key of an SL_2
    trace table, counted with no matrix on the key's tau torus rows (SL2Table.torus):
    the power orbit of A_u up to an F_p-linear bijection.

    The cap is count_Q's: tau against DEFAULT_TAU_CAP[nu], with work tau^nu.  Up to
    nu = 2 the rows go to sequence_energy.  At nu = 3, where orbit_energy's dense table
    fits, the order-tau subgroup H permutes the rows, and the plane falls into H-orbits
    headed by 0 (size 1) and the L = (q - 1) / tau coset representatives z, ..., z^L of
    H (size tau), z primitive in F_q: on the first coordinate x of the split torus
    (q = p, (x, y) -> (x h, y / h), every y free) or on the whole of F_{p^2}
    (irreducible).  Past that table, sequence_energy, so no head is walked there.
    """
    if nu not in (1, 2, 3):
        raise ValueError(f"nu must be 1, 2, or 3, got {nu}")
    if err := over_budget("tau", tau, DEFAULT_TAU_CAP[nu], budget, work=tau ** nu):
        raise err
    walk, p = table.torus(tag, tau), table.ctx.p
    if nu < 3 or _gather_cells(tau, walk.shape[1], p, nu) is None:
        return sequence_energy(walk, p, nu)
    if tag == "split":
        cosets = (p - 1) // tau
        heads = table.tori["split"][:cosets, :1]
    else:
        ext = table.ctx.ext_field()
        cosets = (ext.q - 1) // tau
        heads = residue_orbit(mul_matrix(primitive_root(ext)), ext.one.residues(), cosets, p)
    heads = np.vstack((np.zeros((1, heads.shape[1]), dtype=np.int64), heads))
    return orbit_energy(walk, heads, np.r_[1, np.full(cosets, tau)], p, nu)


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


def count_product_eqs(entries, budget: float = 1.0, orders=None) -> list:
    """Count x in [1, tau] with prod_j (xi_j - lambda_j^x) = xi_0, for each
    (xi_0, xis, lambdas) entry.

    Returns one entry per input, in order: its CountResult, or the
    BudgetExceeded that skipped it (an lcm period above PRODUCT_EQ_CAP scaled
    by budget).  tau is the lcm of an entry's base orders: orders gives them,
    one sequence per entry in the order of its lambdas, as the exact
    multiplicative orders a caller already knows; without it they take one
    mult_order per Frobenius orbit of bases over all entries.  The entries of one field,
    tau and number of bases walk their bases as stacked residue_orbit calls
    of at most _CHUNK_TARGET residue cells each, and their factors are
    multiplied as arrays of residue rows.
    """
    entries = [(xi0, list(xis), list(lambdas)) for xi0, xis, lambdas in entries]
    for xi0, xis, lambdas in entries:
        if not xis or len(xis) != len(lambdas):
            raise ValueError("need matching nonempty coefficient and base lists")
        for x in xis + lambdas:
            if x.ctx != xi0.ctx:
                raise MixedContext("product equation pieces from different fields")
        if not xis[0]:
            raise ZeroXi1("leading coefficient xi_1 must be nonzero")
        if not xi0:
            raise DegenerateParameters("target xi_0 must be nonzero")
        for lam in lambdas:
            if not lam:
                raise ZeroLambda("bases must be nonzero")
    if orders is None:
        found = iter(frobenius_orders([lam for _, _, lambdas in entries for lam in lambdas]))
        orders = [[next(found) for _ in lambdas] for _, _, lambdas in entries]
    orders = [list(own) for own in orders]
    if [len(own) for own in orders] != [len(lambdas) for _, _, lambdas in entries]:
        raise ValueError("need one order per base of each entry")
    results, groups = [None] * len(entries), {}
    for k, ((xi0, _, lambdas), own) in enumerate(zip(entries, orders)):
        tau = math.lcm(*own)
        results[k] = over_budget("lcm period", tau, PRODUCT_EQ_CAP, budget)
        if results[k] is None:
            groups.setdefault((xi0.ctx, tau, len(lambdas)), []).append((k, max(own)))
    for (ctx, tau, n), members in groups.items():
        p, d = ctx.p, ctx.degree
        size = max(1, _CHUNK_TARGET // (tau * n * d))
        for block in (members[i:i + size] for i in range(0, len(members), size)):
            picked = [entries[k] for k, _ in block]
            bases = np.array([[mul_matrix(lam) for lam in lambdas] for _, _, lambdas in picked])
            powers = residue_orbit(bases, ctx.one.residues(), tau, p)
            xis = np.array([[xi.residues() for xi in xis] for _, xis, _ in picked])
            factors = (xis[:, :, None, :] - powers) % p
            prod = factors[:, 0]
            for j in range(1, n):
                prod = residue_product(prod, factors[:, j], ctx)
            targets = np.array([xi0.residues() for xi0, _, _ in picked])
            hits = np.count_nonzero(np.all(prod == targets[:, None, :], axis=2), axis=1)
            for (k, L), value in zip(block, hits.tolist()):
                results[k] = CountResult(value, "direct-scan",
                                         {"tau": tau, "L": L, "n": n, "p": p, "degree": d})
    return results


def count_product_eq(xi0: FFElem, xis, lambdas, budget: float = 1.0) -> CountResult:
    """The one-entry call of count_product_eqs, raising the BudgetExceeded
    that would skip the entry."""
    (result,) = count_product_eqs([(xi0, xis, lambdas)], budget)
    if isinstance(result, BudgetExceeded):
        raise result
    return result


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
