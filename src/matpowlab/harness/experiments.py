"""Instance grids and row generators for every experiment kind."""

from __future__ import annotations

from functools import cache, partial
from typing import NamedTuple

import numpy as np

from ..catmap import (
    CatMatrix,
    Observable,
    cat_unitary,
    delta_Nf,
    egorov_defect,
    matrix_element_check,
)
from ..charsums import (
    Bound,
    Hypotheses,
    bound_menu,
    gauss_subgroup,
    matrix_exp_sums,
    pair_bound,
    subgroup_entry,
    sum_moment,
    walk_sums,
    weil_explicit_bound,
)
from ..counting import (
    residue_product_eqs,
    residue_sum_distribution,
    residue_sumset_cover,
    torus_energy,
)
from ..curves import (
    CurveSpec,
    count_points,
    extension_regime_bound,
    high_degree_bound,
)
from ..errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    DependentVectors,
    SingularLowerLeft,
    UndecidedVerdict,
)
from ..ffield import (
    SubgroupSpec,
    _decode_keys,
    _is_prime,
    make_field,
    primitive_root,
    subgroup_of_order,
)
from ..matgrp import VecEntity, krylov_independent, matrix_order, sl2_table
from .config import EXPERIMENT_NAMES, ExperimentConfig
from .prng import derive_stream

# Fixed hyperbolic automorphism for the quantization experiments.
CAT_A11, CAT_A12, CAT_A21, CAT_A22 = 2, 1, 3, 2
_CAT_MODES = {(1, 0): 0.5, (-1, 0): 0.5}


class InstanceRecord(NamedTuple):
    """One CSV row: an observed quantity against at most one bound."""

    experiment: str
    p: int
    q: int
    n: int | None
    trace: int | None
    class_tag: str
    tau: int | None
    t: int | None
    quantity: str
    value_re: float | None
    value_im: float | None
    abs_value: float | None
    bound_name: str
    bound_value: float | None
    ratio: float | None
    status: str
    seconds: float = 0.0


def _row(cfg, ctxinfo, quantity, value, bound_name="", bound_value=None,
         status="report"):
    """Build a record; the ratio column is always abs over bound."""
    if value is None:
        value_re = value_im = abs_value = None
    else:
        cval = complex(value)
        value_re, value_im = cval.real, cval.imag
        abs_value = abs(cval)
    ratio = None
    if abs_value is not None and bound_value:
        ratio = abs_value / bound_value
    return InstanceRecord(
        experiment=cfg.experiment,
        quantity=quantity,
        value_re=value_re,
        value_im=value_im,
        abs_value=abs_value,
        bound_name=bound_name,
        bound_value=bound_value,
        ratio=ratio,
        status=status,
        **ctxinfo,
    )


# the first field _bound_rows fills per bound; the fields before it are per sum
_BOUND_FIELD = InstanceRecord._fields.index("bound_name")


def _checked(cfg, ctxinfo, quantity, value, bound_name, bound_value):
    status = "pass" if abs(complex(value)) <= bound_value else "fail"
    return _row(cfg, ctxinfo, quantity, value, bound_name, bound_value, status)


def _guarded(cfg, ctxinfo, quantity, kernel, rows, skips=()):
    """rows(result) for the result of kernel(), or the one skipped row that
    names the error skipping it: budget with the estimated work of a
    BudgetExceeded that kernel() raises or returns, the class name of an
    error in skips that it raises or returns."""
    try:
        result = kernel()
    except (BudgetExceeded, *skips) as err:
        result = err
    if not isinstance(result, (BudgetExceeded, *skips)):
        return rows(result)
    if isinstance(result, BudgetExceeded):
        cap = result.estimated_work
        return [_row(cfg, ctxinfo, quantity, None, "budget",
                     float(cap) if cap else None, "skipped")]
    return [_row(cfg, ctxinfo, quantity, None, type(result).__name__, status="skipped")]


def _ctxinfo(p, q, n=None, trace=None, class_tag="", tau=None, t=None):
    return dict(p=p, q=q, n=n, trace=trace, class_tag=class_tag, tau=tau, t=t)


def _primes(cfg):
    return [p for p in range(cfg.p_min, cfg.p_max + 1) if p % 2 and _is_prime(p)]


def _divisors(n):
    return [d for d in range(2, n + 1) if n % d == 0]


def _tau_selected(cfg, tau):
    return cfg.tau_min <= tau and (cfg.tau_max is None or tau <= cfg.tau_max)


def build_instances(cfg: ExperimentConfig):
    """Plain-tuple descriptors in deterministic order: one subgroup (p, m) for
    kloosterman and gauss, one prime (p,) for every other experiment."""
    kind = cfg.experiment
    if kind == "kloosterman":
        return [(p, m) for p in _primes(cfg) for m in _divisors(p - 1)]
    if kind == "gauss":
        return [(p, m) for p in _primes(cfg) for m in [0] + _divisors(p + 1)]
    if kind in EXPERIMENT_NAMES:
        return [(p,) for p in _primes(cfg)]
    raise ValueError(f"unknown experiment {kind!r}")


def _stream(cfg, *tags):
    return derive_stream(cfg.seed, EXPERIMENT_NAMES.index(cfg.experiment), *tags)


def _companions(cfg, p):
    """The trace table of p (sl2_table) and each trace u of the SL_2 companion
    A_u = [[0, -1], [1, u]], in u order, whose class passes the filter and
    whose order lies in the tau window, as (u, class, tau, row context).
    The traces u = +-2, whose eigenvalue repeats, belong to no class.
    det A_u = 1, so t = 1.  Classes and orders are read from the table's
    columns; no matrix is built.

    The counts of energy, q3 and orbit are additive counts of the power
    orbit of A_u, which is the key's torus rows (SL2Table.torus) up to an
    F_p-linear bijection, so each is made once per (class, tau) key of the
    prime, through functools.cache on the key.  cache keeps no error, so a
    capped key raises (and skips) again on each trace."""
    table = sl2_table(make_field(p))
    selected = []
    for u, (tag, tau) in enumerate(zip(table.tags, table.tau)):
        if tag != "repeated" and cfg.class_filter in ("all", tag) and _tau_selected(cfg, tau):
            selected.append((u, tag, tau, _ctxinfo(p, p, n=2, trace=u, class_tag=tag,
                                                   tau=tau, t=1)))
    return table, selected


def _energy_rows(cfg, desc):
    (p,) = desc
    table, traces = _companions(cfg, p)
    energy2 = cache(lambda tag, tau: torus_energy(table, tag, tau, 2, cfg.budget))
    rows = []
    for u, tag, tau, info in traces:
        t = info["t"]
        bounds = [("diag-energy", tau**3 * min(t * tau**-0.25, t * t * tau**-0.5))]
        if tag == "irreducible":
            bounds.append(("irred-energy", t * tau**2.5))
        rows += _guarded(
            cfg, info, "energy2",
            lambda: energy2(tag, tau),
            lambda count: [_checked(cfg, info, "energy2", count, "three-tau-squared",
                                    3.0 * tau * tau)]
            + [_row(cfg, info, "energy2", count, *bound) for bound in bounds])
    return rows


def _q3_rows(cfg, desc):
    (p,) = desc
    table, traces = _companions(cfg, p)
    count6 = cache(lambda tag, tau: torus_energy(table, tag, tau, 3, cfg.budget))
    rows = []
    for u, tag, tau, info in traces:
        if tag == "split":
            bound = ("split-six", tau ** (11 / 3))
        else:
            bound = ("nonsplit-six", tau ** (19 / 5) + tau**5 / p)
        rows += _guarded(
            cfg, info, "orbit-count-6term",
            lambda: count6(tag, tau),
            lambda count: [_row(cfg, info, "orbit-count-6term", count, *bound)])
    return rows


def _nonzero_pair(stream, p):
    while True:
        pair = (stream.below(p), stream.below(p))
        if pair != (0, 0):
            return pair


def _bound_rows(cfg, info, quantity, result, menu):
    """One row per bound of menu for a computed sum, its value and |S| read once."""
    observed = result.abs
    head = _row(cfg, info, quantity, result.value)[:_BOUND_FIELD]
    return [InstanceRecord._make(head + (bound.name, bound.value, observed / bound.value,
                                         bound.status(observed), 0.0))
            for bound in menu]


def _sums_rows(cfg, desc):
    """Every sampled sum of one prime, rows in (trace, sample) order, on
    residue arrays: the samples' (a, b) are one (N, 4) array, walked by one
    walk_sums call on the trace table's column maps and orders.  The computed
    sums get one krylov_independent call, a on the row maps (the transposes)
    and b on the column maps.  Their other hypotheses are fixed per trace and
    read from the trace table (tau, the class, t = 1), so each (class, tau)
    builds one bound menu per pair of Krylov verdicts; no matrix is built."""
    (p,) = desc
    table, traces = _companions(cfg, p)
    us, draws = [], []
    for u, *_ in traces:
        for j in range(cfg.samples):
            stream = _stream(cfg, p, u, j)
            us.append(u)
            draws.append(_nonzero_pair(stream, p) + _nonzero_pair(stream, p))
    draws = np.array(draws, dtype=np.int64).reshape(-1, 4)
    columns = table.maps[us]
    results = walk_sums(draws[:, :2], draws[:, 2:], columns, [table.tau[u] for u in us],
                        table.ctx, cfg.budget)
    # only a computed sum is set against its bounds, so only it is analysed
    computed = [i for i, outcome in enumerate(results)
                if not isinstance(outcome, BudgetExceeded)]
    verdicts = krylov_independent(
        np.concatenate((draws[computed, :2], draws[computed, 2:])),
        np.concatenate((columns[computed].transpose(0, 2, 1), columns[computed])),
        table.ctx).reshape(2, -1)
    flags = dict(zip(computed, zip(*verdicts.tolist())))

    @cache
    def menu(tag, tau, left, right):
        # every trace _companions keeps has u^2 != 4, so the eigenvalues of
        # A_u are distinct and A_u is diagonalizable
        return bound_menu(Hypotheses(
            n=2, p=p, degree=1, tau=tau, t=1, class_tag=tag, diagonalizable=True,
            left_independent=left, right_independent=right, vectors_nonzero=True))

    rows = []
    for i, outcome in enumerate(results):
        _, tag, tau, info = traces[i // cfg.samples]
        quantity = f"matrix-sum-{i % cfg.samples}"
        rows += _guarded(cfg, info, quantity, lambda: outcome,
                         lambda result: _bound_rows(cfg, info, quantity, result,
                                                    menu(tag, tau, *flags[i])))
    return rows


def _subgroup_rows(cfg, info, family, group, coefficients, bounds, moment_bound):
    """The sampled sums of one subgroup as one matrix_exp_sums stack over its
    subgroup_entry, each against the trivial bound and the Bound tuple
    bounds, as sums rows are (_bound_rows); the moment row follows the
    j = 0 rows, and only the sixth moment has a bound."""
    A, ones = subgroup_entry(family, group)
    results = matrix_exp_sums([(VecEntity(c, "row"), ones, A) for c in coefficients],
                              cfg.budget)
    menu = (Bound("trivial", "tau", float(group.order), True),) + bounds
    moment = f"moment{cfg.moment}"
    if cfg.moment != 6:
        moment_bound = ()
    rows = []
    for j, outcome in enumerate(results):
        quantity = f"{family}-{j}"
        rows += _guarded(cfg, info, quantity, lambda: outcome,
                         lambda result: _bound_rows(cfg, info, quantity, result, menu))
        if j == 0:
            rows += _guarded(
                cfg, info, moment,
                lambda: sum_moment(family, group, cfg.moment, cfg.budget).value,
                lambda value: [_row(cfg, info, moment, value, *moment_bound)])
    return rows


def _kloosterman_rows(cfg, desc):
    p, m = desc
    if not _tau_selected(cfg, m):
        return []
    ctx = make_field(p)
    streams = [_stream(cfg, p, m, j) for j in range(cfg.samples)]
    coefficients = [[ctx.elem(s.unit_nonzero(p)) for _ in range(2)] for s in streams]
    bounds = (pair_bound("split", m, p),)
    if m == p - 1:
        bounds += (Bound("weil", "2 sqrt(p)", weil_explicit_bound(p), True),)
    return _subgroup_rows(cfg, _ctxinfo(p, p, n=1, tau=m), "kloosterman",
                          subgroup_of_order(ctx, m), coefficients, bounds,
                          ("sixth-moment-split", p * p * m ** (11 / 3)))


def _gauss_rows(cfg, desc):
    p, m = desc
    ctx = make_field(p, 2)
    q = p * p
    if not _tau_selected(cfg, q - 1 if m == 0 else m):
        return []
    if m == 0:
        group = SubgroupSpec(primitive_root(ctx), q - 1)
        info = _ctxinfo(p, q, n=1, tau=q - 1)
        # The sum over every invertible element is exactly minus one.
        return _guarded(
            cfg, info, "gauss-full-deviation",
            lambda: gauss_subgroup(group, ctx.one, cfg.budget).value,
            lambda value: [_checked(cfg, info, "gauss-full-deviation", value + 1,
                                    "tolerance", 1e-9)])
    coefficients = [[ctx.from_index(1 + _stream(cfg, p, m, j).below(q - 1))]
                    for j in range(cfg.samples)]
    return _subgroup_rows(cfg, _ctxinfo(p, q, n=1, tau=m), "gauss", subgroup_of_order(ctx, m),
                          coefficients, (pair_bound("irreducible", m, p),),
                          ("sixth-moment-nonsplit", q * (m ** (19 / 5) + m**5 / p)))


def _curve_pair(stream, ctx):
    q = ctx.q
    while True:
        a = ctx.from_index(stream.unit_nonzero(q))
        b = ctx.from_index(stream.unit_nonzero(q))
        if a * b != ctx.one:
            return a, b


def _point_count(cfg, ctx, s, stream):
    """Points of the degree-s curve whose (a, b) is drawn from stream."""
    a, b = _curve_pair(stream, ctx)
    return count_points(CurveSpec(ctx, s, a, b), cfg.budget).value


def _curves_rows(cfg, desc):
    """The (s, j) rows of one prime over F_p, then its extension rows: degree
    p - 1 over F_{p^2}, drawn from the streams tagged (p, 0, j)."""
    (p,) = desc
    ctx = make_field(p)
    info = _ctxinfo(p, p)
    rows = []
    for s in range(cfg.s_min, cfg.s_max + 1):
        if s % p == 0:
            continue
        for j in range(cfg.samples):
            quantity = f"point-count-s{s}-{j}"
            rows += _guarded(
                cfg, info, quantity, lambda: _point_count(cfg, ctx, s, _stream(cfg, p, s, j)),
                lambda count: [_checked(cfg, info, quantity, count, "high-degree",
                                        high_degree_bound(3 * s, p))
                               if 3 * s < p else _row(cfg, info, quantity, count)])
    ext = make_field(p, 2)
    info = _ctxinfo(p, ext.q)
    for j in range(cfg.samples):
        quantity = f"point-count-ext-{j}"
        rows += _guarded(
            cfg, info, quantity, lambda: _point_count(cfg, ext, p - 1, _stream(cfg, p, 0, j)),
            lambda count: [_row(cfg, info, quantity, count, "extension-regime",
                                extension_regime_bound(p - 1, p))])
    return rows


def _torus_product_eqs(table, tag, tau, draws, budget):
    """#{x : (xi_1 - lam^x)(xi_2 - lam^-x) = xi_0} for each index triple (xi_0,
    xi_1, xi_2) of draws, lam an eigenvalue of the key: lam^x runs once over its
    torus rows h, and lam^-x = 1/h is their second column (split) or conjugate
    (c0, -c1) (irreducible); x -> -x permutes the period, so either one is lam."""
    p, rows = table.ctx.p, table.torus(tag, tau)
    if tag == "split":
        field, powers = table.ctx, rows[:, :, None]
    else:
        field, powers = table.ctx.ext_field(), np.stack((rows, rows * (1, -1) % p), axis=1)
    xis = _decode_keys(np.array(draws).ravel(), p, field.degree).reshape(len(draws), 3, -1)
    return residue_product_eqs(powers, xis[:, 1:], xis[:, 0], field, budget).tolist()


def _orbit_rows(cfg, desc):
    (p,) = desc
    table, traces = _companions(cfg, p)
    # The start row (1, 0) maps a I + b A_u to (a, -b), so the row orbit of
    # each trace is its matrix orbit, and so the key's torus rows, under an
    # F_p-linear bijection; each row keeps its own cap
    distinct = cache(lambda tag, tau: len(
        residue_sum_distribution(table.torus(tag, tau), p, 2, cfg.budget).rows))
    covered = cache(lambda tag, tau: residue_sumset_cover(
        table.torus(tag, tau), p, 4, cfg.budget).covered_at or 0)
    # every trace draws its own xi's, as indices of F_p (split) or F_{p^2};
    # the product equations of a key are one stack
    draws, slots = {}, []
    for u, tag, tau, _ in traces:
        q = p if tag == "split" else p * p
        stream = _stream(cfg, p, u)
        stack = draws.setdefault((tag, tau), [])
        slots.append(len(stack))
        stack.append((stream.unit_nonzero(q), stream.unit_nonzero(q), stream.below(q)))
    products = cache(lambda tag, tau: _torus_product_eqs(table, tag, tau, draws[tag, tau],
                                                         cfg.budget))
    rows = []
    for (u, tag, tau, info), slot in zip(traces, slots):
        rows += _guarded(
            cfg, info, "distinct-sums-2", lambda: distinct(tag, tau),
            lambda count: [_row(cfg, info, "distinct-sums-2", count)])
        rows += _guarded(
            cfg, info, "cover-arity", lambda: covered(tag, tau),
            lambda arity: [_row(cfg, info, "cover-arity", arity)])
        # both eigenvalues of A_u have its order tau, the bound's L
        rows += _guarded(
            cfg, info, "product-eq-count", lambda: products(tag, tau)[slot],
            lambda count: [_row(cfg, info, "product-eq-count", count,
                                "product-decay", tau / tau**0.5)])
    return rows


def _catmap_rows(cfg, desc):
    (N,) = desc
    cat = CatMatrix(CAT_A11, CAT_A12, CAT_A21, CAT_A22)
    tau = matrix_order(cat.mod_matrix(N))
    info = _ctxinfo(N, N, n=2, trace=cat.trace, tau=tau)

    def propagator_rows(propagator):
        unit_dev = float(np.linalg.norm(propagator @ propagator.conj().T - np.eye(N)))
        rows = [_checked(cfg, info, "unitary-deviation", unit_dev, "tolerance", 1e-9)]
        for vec in ((1, 0), (0, 1)):
            defect = egorov_defect(propagator, cat, vec)
            rows.append(_checked(cfg, info, f"egorov-{vec[0]}{vec[1]}", defect,
                                 "tolerance", 1e-8))
        return rows + _guarded(
            cfg, info, "delta",
            lambda: delta_Nf(propagator, Observable(_CAT_MODES), cfg.budget),
            lambda defect: [_row(cfg, info, "delta", defect, "ergodic-trend",
                                 N ** (-1 / 60))])

    return _guarded(cfg, info, "propagator", lambda: cat_unitary(N, cat), propagator_rows,
                    skips=(SingularLowerLeft,))


def _lemma81_rows(cfg, desc):
    (p,) = desc
    cat = CatMatrix(CAT_A11, CAT_A12, CAT_A21, CAT_A22)
    info = _ctxinfo(p, p, n=2, trace=cat.trace)
    # one check for every exponent; cache keeps no error, so a precondition
    # error (raised before any work) is raised again and skips each exponent
    check = cache(partial(matrix_element_check, cat, p, (1, 0), cfg.nu, cfg.budget))
    rows = []
    for k, nu in enumerate(cfg.nu):
        quantity = f"element-power-{nu}"
        rows += _guarded(
            cfg, info, quantity, lambda: check()[k],
            lambda report: [_row(cfg, _ctxinfo(p, p, n=2, trace=cat.trace, tau=report.tau),
                                 quantity, report.sup_power, "count-ceiling", report.bound,
                                 "pass" if report.passed else "fail")],
            skips=(DependentVectors, DegenerateParameters, SingularLowerLeft,
                   CompositeModulus, UndecidedVerdict))
    return rows


_GENERATORS = {
    "energy": _energy_rows,
    "q3": _q3_rows,
    "sums": _sums_rows,
    "kloosterman": _kloosterman_rows,
    "gauss": _gauss_rows,
    "curves": _curves_rows,
    "orbit": _orbit_rows,
    "catmap": _catmap_rows,
    "lemma81": _lemma81_rows,
}


def compute_instance(cfg: ExperimentConfig, desc) -> list:
    """All rows for one grid descriptor; pure and deterministic."""
    return _GENERATORS[cfg.experiment](cfg, desc)
