"""Arithmetic in F_p and F_{p^2}, multiplicative orders, and additive characters.

Elements are pairs c0 + c1 w of F_p[w] / (w^2 - r). F_{p^2} takes r the least
quadratic non-residue mod p, so the Frobenius map x -> x^p is conjugation
(c0, c1) -> (c0, -c1) and trace / norm have closed forms. F_p is the c1 = 0
slice of the same formulas (r = 0), so arithmetic needs no degree test, and
array code sees both fields only through mul_matrix and trace_form, the 2 x 2
integer matrices of multiplication and of the trace pairing sliced to degree.
Eight places read the degree: FieldCtx.__init__ (r and the (p - 1)(p + 1)
factorization), FieldCtx.elem (it guards c1 = 0), FFElem.__pow__ (builtin
three-argument pow serves the many F_p powers), FFElem.__repr__ (output text),
and the input checks of omega, lift, trace_norm and norm_subgroup.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    MixedContext,
    WrongDegree,
    ZeroElement,
)

_MAX_P = 10 ** 6


def _is_prime(n: int) -> bool:
    """Trial-division primality test; fine at desk scale."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division into (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _merge_factors(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged = dict(a)
    for prime, e in b:
        merged[prime] = merged.get(prime, 0) + e
    return sorted(merged.items())


class FieldCtx:
    """F_p (degree 1) or F_{p^2} (degree 2); immutable after construction.

    Elements c0 + c1 w with w^2 = r are indexed canonically by c0 + p * c1.
    Degree 1 sets r = 0 and every constructor keeps c1 = 0, so F_p is the
    c1 = 0 slice of the quadratic formulas. The degree-2 group order p^2 - 1
    is factored as (p - 1)(p + 1) so each half stays tiny.
    """

    def __init__(self, p: int, degree: int = 1):
        if degree not in (1, 2):
            raise WrongDegree(f"degree must be 1 or 2, got {degree}")
        if p > _MAX_P:
            raise BudgetExceeded(f"p = {p} exceeds the desk-scale cap {_MAX_P}", estimated_work=p)
        if p == 2 or not _is_prime(p):
            raise CompositeModulus(f"modulus {p} is not an odd prime")
        self.p = p
        self.degree = degree
        self.q = p ** degree
        self.group_order = self.q - 1
        if degree == 2:
            self.r = _nonresidue_elem(make_field(p)).c0
            self.group_order_factorization = _merge_factors(_factorize(p - 1), _factorize(p + 1))
        else:
            self.r = 0
            self.group_order_factorization = _factorize(p - 1)
        self._root_table: np.ndarray | None = None
        self._primitive_root: FFElem | None = None
        self._nonresidue: FFElem | None = None

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.p, self.degree) == (other.p, other.degree)

    def __hash__(self):
        return hash((self.p, self.degree))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, degree={self.degree})"

    def elem(self, c0: int, c1: int = 0) -> FFElem:
        """Element from integer coordinates, reduced mod p."""
        if c1 % self.p and self.degree == 1:
            raise WrongDegree("c1 component in a prime field")
        return FFElem(self, c0 % self.p, c1 % self.p)

    @property
    def zero(self) -> FFElem:
        return FFElem(self, 0, 0)

    @property
    def one(self) -> FFElem:
        return FFElem(self, 1, 0)

    def omega(self) -> FFElem:
        """The extension generator w with w^2 = r."""
        if self.degree != 2:
            raise WrongDegree("omega lives in the quadratic extension")
        return FFElem(self, 0, 1)

    def iter_elements(self):
        """All q elements in canonical order, index = c0 + p * c1."""
        for w in range(self.q):
            yield FFElem(self, w % self.p, w // self.p)

    def element_index(self, x: FFElem) -> int:
        return x.c0 + self.p * x.c1

    def from_index(self, w: int) -> FFElem:
        """The element of index w mod q."""
        w %= self.q
        return FFElem(self, w % self.p, w // self.p)

    def roots_of_unity(self) -> np.ndarray:
        """Cached table exp(2 pi i k / p), k = 0..p-1."""
        if self._root_table is None:
            self._root_table = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        return self._root_table

    def base_field(self) -> FieldCtx:
        """The degree-1 context over the same p."""
        return make_field(self.p, 1)

    def ext_field(self) -> FieldCtx:
        """The degree-2 context over the same p."""
        return make_field(self.p, 2)

    def lift(self, x: FFElem) -> FFElem:
        """Embed a base-field element into this context."""
        if x.ctx == self:
            return x
        if x.ctx.p != self.p or x.ctx.degree != 1:
            raise MixedContext(f"cannot lift {x!r} into {self!r}")
        return FFElem(self, x.c0, 0)


@lru_cache(maxsize=None)
def make_field(p: int, degree: int = 1) -> FieldCtx:
    """Construct (and cache) the field context for F_p or F_{p^2}."""
    return FieldCtx(p, degree)


class FFElem:
    """Immutable element c0 + c1 * w of a FieldCtx."""

    __slots__ = ("ctx", "c0", "c1")

    def __init__(self, ctx: FieldCtx, c0: int, c1: int = 0):
        self.ctx = ctx
        self.c0 = c0
        self.c1 = c1

    def _coerce(self, other):
        if isinstance(other, FFElem):
            # make_field is cached, so one context is almost always the same object
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise MixedContext(f"mixing {other.ctx!r} with {self.ctx!r}")
            return other
        if isinstance(other, int):
            return FFElem(self.ctx, other % self.ctx.p, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FFElem(self.ctx, (self.c0 + o.c0) % p, (self.c1 + o.c1) % p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FFElem(self.ctx, (self.c0 - o.c0) % p, (self.c1 - o.c1) % p)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ctx.p
        return FFElem(self.ctx, (-self.c0) % p, (-self.c1) % p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, r = self.ctx.p, self.ctx.r
        return FFElem(
            self.ctx,
            (self.c0 * o.c0 + r * self.c1 * o.c1) % p,
            (self.c0 * o.c1 + self.c1 * o.c0) % p,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> FFElem:
        if not self:
            raise ZeroElement("zero has no inverse")
        # conjugate over norm; the norm sits in F_p
        p, r = self.ctx.p, self.ctx.r
        nrm_inv = pow((self.c0 * self.c0 - r * self.c1 * self.c1) % p, p - 2, p)
        return FFElem(self.ctx, (self.c0 * nrm_inv) % p, (-self.c1 * nrm_inv) % p)

    def __pow__(self, e: int) -> FFElem:
        """x^e (e < 0 inverts first); degree 2 squares and multiplies the
        integer pair (c0, c1) with w^2 = r and builds one FFElem at the end."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        ctx, p = self.ctx, self.ctx.p
        if ctx.degree == 1:
            return FFElem(ctx, pow(self.c0, e, p), 0)
        r = ctx.r
        a0, a1, b0, b1 = 1, 0, self.c0, self.c1
        while e:
            if e & 1:
                a0, a1 = (a0 * b0 + r * a1 * b1) % p, (a0 * b1 + a1 * b0) % p
            e >>= 1
            if e:
                b0, b1 = (b0 * b0 + r * b1 * b1) % p, 2 * b0 * b1 % p
        return FFElem(ctx, a0, a1)

    def __bool__(self):
        return bool(self.c0 or self.c1)

    def __eq__(self, other):
        if isinstance(other, int):
            other = FFElem(self.ctx, other % self.ctx.p, 0)
        if not isinstance(other, FFElem):
            return NotImplemented
        return (
            (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.c0 == other.c0
            and self.c1 == other.c1
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.degree, self.c0, self.c1))

    def __repr__(self):
        if self.ctx.degree == 1:
            return f"{self.c0} (mod {self.ctx.p})"
        return f"{self.c0}+{self.c1}w (mod {self.ctx.p})"

    def frobenius(self) -> FFElem:
        """The p-power map: conjugation, the identity on the c1 = 0 slice F_p."""
        return FFElem(self.ctx, self.c0, (-self.c1) % self.ctx.p)

    def residues(self) -> tuple[int, ...]:
        """Canonical integer coordinates, length = degree."""
        return (self.c0, self.c1)[:self.ctx.degree]


def trace_norm(x: FFElem) -> tuple[FFElem, FFElem]:
    """Frobenius trace x + x^p and norm x * x^p of a degree-2 element, in F_p."""
    ctx = x.ctx
    if ctx.degree != 2:
        raise WrongDegree("trace_norm needs a quadratic-extension element")
    base = ctx.base_field()
    return base.elem(2 * x.c0), base.elem(x.c0 * x.c0 - ctx.r * x.c1 * x.c1)


def mult_order(x: FFElem) -> int:
    """Multiplicative order of x, via the factored group order (integer-pair powers)."""
    if not x:
        raise ZeroElement("zero has no multiplicative order")
    t = x.ctx.group_order
    one = x.ctx.one
    for prime, _ in x.ctx.group_order_factorization:
        while t % prime == 0 and x ** (t // prime) == one:
            t //= prime
    return t


def primitive_root(ctx: FieldCtx) -> FFElem:
    """First multiplicative generator in canonical index order (cached)."""
    if ctx._primitive_root is None:
        cofactors = [ctx.group_order // prime for prime, _ in ctx.group_order_factorization]
        ctx._primitive_root = next(x for x in _scan(ctx)
                                   if all(x ** c != ctx.one for c in cofactors))
    return ctx._primitive_root


class SubgroupSpec:
    """Cyclic subgroup of the multiplicative group, held as (generator, exact order)."""

    def __init__(self, generator: FFElem, order: int):
        if not generator:
            raise ZeroElement("subgroup generator must be nonzero")
        ctx = generator.ctx
        if order < 1 or ctx.group_order % order != 0:
            raise DegenerateParameters(
                f"order {order} does not divide the group order {ctx.group_order}"
            )
        if generator ** order != ctx.one:
            raise DegenerateParameters("declared order is not an exponent of the generator")
        for prime, _ in _factorize(order):
            if generator ** (order // prime) == ctx.one:
                raise DegenerateParameters("generator has smaller order than declared")
        self.ctx = ctx
        self.generator = generator
        self.order = order

    def __repr__(self):
        return f"SubgroupSpec(order={self.order}, gen={self.generator!r})"

    def elements(self):
        """Yield g, g^2, ..., g^order (= 1), in power order."""
        x = self.generator
        for _ in range(self.order):
            yield x
            x = x * self.generator


def norm_subgroup(ctx: FieldCtx) -> SubgroupSpec:
    """The norm-one subgroup of F_{p^2}: generated by g^(p-1), order p + 1."""
    if ctx.degree != 2:
        raise WrongDegree("the norm-one subgroup lives in a quadratic extension")
    g = primitive_root(ctx)
    return SubgroupSpec(g ** (ctx.p - 1), ctx.p + 1)


def subgroup_of_order(ctx: FieldCtx, m: int) -> SubgroupSpec:
    """The unique subgroup of order m dividing q - 1."""
    if m < 1 or ctx.group_order % m != 0:
        raise DegenerateParameters(
            f"no subgroup of order {m} in a cyclic group of order {ctx.group_order}"
        )
    g = primitive_root(ctx)
    return SubgroupSpec(g ** (ctx.group_order // m), m)


class CharacterSpec:
    """Additive character z -> e_p(Tr(alpha z)) with a nonzero twist alpha."""

    def __init__(self, alpha: FFElem):
        if not alpha:
            raise ZeroElement("character twist must be nonzero")
        self.alpha = alpha
        self.ctx = alpha.ctx

    def __repr__(self):
        return f"CharacterSpec(alpha={self.alpha!r})"


def standard_character(ctx: FieldCtx) -> CharacterSpec:
    """The character with alpha = 1."""
    return CharacterSpec(ctx.one)


def mul_matrix(x: FFElem) -> np.ndarray:
    """The degree x degree integer matrix of z -> x z acting on residue columns."""
    d = x.ctx.degree
    return np.array([[x.c0, x.ctx.r * x.c1 % x.ctx.p], [x.c1, x.c0]], dtype=np.int64)[:d, :d]


def trace_form(chi: CharacterSpec) -> np.ndarray:
    """The matrix T with Tr(alpha a z) = res(a) T res(z) (mod p), entries reduced mod p."""
    # Tr(c0 + c1 w) = degree * c0
    ctx, a, r, d = chi.ctx, chi.alpha, chi.ctx.r, chi.ctx.degree
    form = d * np.array([[a.c0, r * a.c1], [r * a.c1, r * a.c0]], dtype=np.int64)
    return form[:d, :d] % ctx.p


def residue_orbit(M: np.ndarray, start, length: int, p: int) -> np.ndarray:
    """Rows (M^1 s), ..., (M^length s) mod p, by doubling in ~log2(length) matmuls.

    M may be one m x m matrix or a stack (..., m, m), and start one residue
    row (m,) or a stack (..., m) that broadcasts with it; the walks come back
    as one array (..., length, m) of exactly length rows per walk, each
    doubling step one batched matmul over the whole stack.

    Every intermediate is reduced mod p, so each product sums at most
    d terms below p^2: d p^2 < 2^63 for every p up to _MAX_P.
    """
    # the walks are rows, so they are multiplied by M^T
    power_t = np.swapaxes(np.asarray(M, dtype=np.int64) % p, -1, -2)
    first = np.asarray(start, dtype=np.int64)[..., None, :] @ power_t % p
    rows = np.empty(first.shape[:-2] + (length, first.shape[-1]), dtype=np.int64)
    rows[..., :1, :] = first
    done = 1
    while done < length:
        # rows done..done+step-1 are M^done times rows 0..step-1
        step = min(done, length - done)
        rows[..., done:done + step, :] = rows[..., :step, :] @ power_t % p
        done += step
        power_t = power_t @ power_t % p
    return rows


def subgroup_walk(G: SubgroupSpec) -> np.ndarray:
    """Residue rows of g, g^2, ..., g^order (= 1)."""
    return residue_orbit(mul_matrix(G.generator), G.ctx.one.residues(), G.order, G.ctx.p)


def residue_product(x: np.ndarray, y: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Residue rows of the products x y, for arrays of residue rows that broadcast.

    res(x y) = sum_i x_i res(e_i y) over the residue basis e_i (1, and w in
    degree 2); entries of x and y must be reduced mod p, so that no
    intermediate exceeds d p^2.
    """
    p = ctx.p
    out = 0
    for i in range(ctx.degree):
        basis = mul_matrix(ctx.from_index(p ** i))
        out = out + x[..., i, None] * (y @ basis.T % p)
    return out % p


def residue_inverse(x: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Residue rows of the inverses of an array of reduced residue rows, 0 for 0.

    As FFElem.inverse: the conjugate over the norm, the norm N in F_p inverted
    as N^(p-2) mod p by one square-and-multiply over the whole array.
    """
    p = ctx.p
    conj = x.copy()
    conj[..., 1:] = -conj[..., 1:] % p
    base = residue_product(x, conj, ctx)[..., :1]
    nrm_inv = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            nrm_inv = nrm_inv * base % p
        e >>= 1
        base = base * base % p
    return conj * nrm_inv % p


def _key_weights(p: int, d: int) -> np.ndarray:
    """Base-p place values: a residue row r has the integer key r @ _key_weights(p, d)."""
    return (p ** np.arange(d)).astype(np.int64)


def _decode_keys(keys: np.ndarray, p: int, d: int) -> np.ndarray:
    """Residue rows of base-p integer keys (inverse of rows @ p^arange(d))."""
    rows = np.empty((keys.size, d), dtype=np.int64)
    rem = keys.copy()
    for j in range(d):
        rows[:, j] = rem % p
        rem //= p
    return rows


def char_argument(chi: CharacterSpec, z: FFElem) -> int:
    """The residue Tr(alpha z) mod p that indexes the root-of-unity table."""
    if z.ctx != chi.ctx:
        raise MixedContext("character and argument live in different fields")
    return int(trace_form(chi)[0] @ z.residues()) % chi.ctx.p


def char_eval(chi: CharacterSpec, z: FFElem) -> complex:
    """Evaluate the additive character at z."""
    return complex(chi.ctx.roots_of_unity()[char_argument(chi, z)])


def is_square(x: FFElem) -> bool:
    """Euler test x^((q-1)/2) == 1; zero counts as square."""
    if not x:
        return True
    return x ** (x.ctx.group_order // 2) == x.ctx.one


def _nonresidue_elem(ctx: FieldCtx) -> FFElem:
    """The first non-square of the field in canonical index order (cached)."""
    if ctx._nonresidue is None:
        ctx._nonresidue = next(x for x in _scan(ctx) if not is_square(x))
    return ctx._nonresidue


def _scan(ctx: FieldCtx):
    """Elements in index order from w = q // p: no element of F_p generates
    F_{p^2}* or is a non-square in it, and in F_p the scan starts at 1, which is neither."""
    return map(ctx.from_index, range(ctx.q // ctx.p, ctx.q))


def sqrt(x: FFElem) -> FFElem:
    """A square root by Tonelli-Shanks; DegenerateParameters if x is no square."""
    ctx = x.ctx
    if not x:
        return ctx.zero
    if not is_square(x):
        raise DegenerateParameters(f"{x!r} is not a square")
    t = ctx.group_order
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1
    c = _nonresidue_elem(ctx) ** t
    u = x ** t
    root = x ** ((t + 1) // 2)
    m = s
    one = ctx.one
    while u != one:
        i, v = 0, u
        while v != one:
            v = v * v
            i += 1
        b = c ** (2 ** (m - i - 1))
        m = i
        c = b * b
        u = u * c
        root = root * b
    return root
