"""Transition matrices, primitivity, and Perron-Frobenius data.

The transition matrix M has M[i][j] = number of times the image of edge j
crosses edge i (in either direction).  Column sums are therefore the image
lengths.  For a primitive M the dominant eigenvalue lam > 1 carries a
positive left eigenvector of row lengths v (v^T M = lam v^T): assigning
length v[e] to edge e makes the map expand every legal path by exactly lam.

Exact integer arithmetic backs the floating point results: characteristic
polynomial coefficients come from the Faddeev-LeVerrier recurrence over
Fractions, and the dominant root can be isolated by bisection, giving an
independent cross-check on the power iteration.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, NotPrimitiveError
from .graph import Path, edge_index
from .graph_map import GraphSelfMap


def transition_matrix(f: GraphSelfMap) -> np.ndarray:
    """Nonnegative integer matrix; column j counts edges crossed by image of j."""
    n = f.graph.num_edges
    m = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for d in f.edge_image[j]:
            m[edge_index(d), j] += 1
    return m


def is_primitive(m: np.ndarray) -> bool:
    """Some power of m is entrywise positive.

    Wielandt's bound: for an n x n nonnegative matrix, primitivity shows up
    by exponent (n - 1)^2 + 1 or never, and every later power stays
    positive.  Repeated squaring of the boolean reachability matrix reaches
    an exponent past the bound in O(log n) products and stops at the first
    positive power; boolean products cannot overflow.
    """
    n = m.shape[0]
    if n == 0:
        return False
    power = m > 0
    exponent = 1
    while not power.all():
        if exponent >= (n - 1) ** 2 + 1:
            return False
        power = power @ power
        exponent *= 2
    return True


def charpoly_coefficients(m: np.ndarray) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - M), exact integers.

    Faddeev-LeVerrier over Fractions; the divisions are exact for integer
    input, which the final assertion re-checks.
    """
    n = m.shape[0]
    frac = [[Fraction(int(m[i, j])) for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    def add_diag(a, c):
        return [[a[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]

    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = matmul(frac, add_diag(mk, coeffs[-1]))
        trace = sum(mk[i][i] for i in range(n))
        coeffs.append(-trace / k)
    out = []
    for c in coeffs:
        assert c.denominator == 1, "characteristic polynomial of an integer matrix must be integral"
        out.append(int(c))
    return out


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    rem = list(a)
    lead = b[0]
    quot = []
    while len(rem) >= len(b):
        q = rem[0] / lead
        quot.append(q)
        for i in range(len(b)):
            rem[i] -= q * b[i]
        rem.pop(0)
    while rem and rem[0] == 0:
        rem.pop(0)
    return quot, rem


def _sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    deriv = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    chain = [coeffs, deriv]
    while len(chain[-1]) > 1:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = _poly_eval(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def largest_real_root(coeffs: list[int], tol: float = 1e-14) -> float:
    """Largest real root of a monic integer polynomial, by Sturm bisection.

    A Sturm chain counts distinct real roots in any half-open interval
    exactly (over Fractions, no rounding), so bisection can home in on the
    topmost root even when several real roots share a short interval.
    Repeated roots are removed first via gcd with the derivative.
    """
    fc = [Fraction(c) for c in coeffs]
    while fc and fc[0] == 0:
        fc.pop(0)
    if len(fc) < 2:
        raise ConvergenceError("polynomial has no roots")
    # square-free part: divide out gcd(p, p')
    deriv = [c * (len(fc) - 1 - i) for i, c in enumerate(fc[:-1])]
    a, b = fc, deriv
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if len(a) > 1:
        fc, _ = _poly_divmod(fc, a)
    chain = _sturm_chain(fc)
    bound = Fraction(1) + max(abs(c) for c in fc) / abs(fc[0])
    lo, hi = -bound, bound
    v_hi = _sign_variations(chain, hi)
    if _sign_variations(chain, lo) - v_hi < 1:
        raise ConvergenceError("no real root located below the Cauchy bound")
    # invariant: the largest real root lies in (lo, hi]
    for _ in range(200):
        if float(hi - lo) < tol:
            break
        mid = (lo + hi) / 2
        if _sign_variations(chain, mid) - v_hi >= 1:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


@dataclass(frozen=True)
class PFData:
    """Dominant eigenvalue and the derived metric constants.

    pf_lengths assigns each edge its left-eigenvector length, normalized so
    the total graph volume is 1.  With that normalization the bounded
    cancellation constant in the pf metric is at most the volume itself, and
    c_illegal = ceil(4 * bbt / min pf length) bounds how many darts a legal
    segment must cross before cancellation can no longer swallow it.
    """

    lam: float
    pf_lengths: tuple[float, ...]
    vol_pf: float
    bbt_bound: float
    min_pf_length: float
    c_illegal: int
    residual: float
    iterations: int

    def pf_length(self, path: Path) -> float:
        return sum(self.pf_lengths[edge_index(d)] for d in path)


def pf_data(f: GraphSelfMap, tol: float = 1e-12, max_iter: int = 200_000) -> PFData:
    """Power iteration on M^T for the left eigenvector, with exact checks.

    Requires a primitive transition matrix; for n <= 6 the eigenvalue is
    cross-validated against the bisection root of the exact characteristic
    polynomial.
    """
    m = transition_matrix(f)
    if not is_primitive(m):
        raise NotPrimitiveError("transition matrix is not primitive")
    n = m.shape[0]
    mt = m.T.astype(np.float64)
    v = np.ones(n) / n
    lam = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        w = mt @ v
        lam = float(w.sum())
        if lam <= 0:
            raise ConvergenceError("power iteration collapsed")
        w /= lam
        if float(np.abs(w - v).max()) < tol:
            v = w
            break
        v = w
    else:
        raise ConvergenceError(f"power iteration did not settle in {max_iter} steps")
    residual = float(np.abs(mt @ v - lam * v).max())
    if n <= 6:
        exact = largest_real_root(charpoly_coefficients(m))
        if abs(exact - lam) > 1e-8:
            raise ConvergenceError(f"power iteration ({lam}) disagrees with charpoly root ({exact})")
    v = v / v.sum()  # vol = 1 normalization
    lengths = tuple(float(x) for x in v)
    vol = 1.0
    bbt = vol
    min_len = min(lengths)
    c_illegal = math.ceil(4.0 * bbt / min_len)
    return PFData(
        lam=lam,
        pf_lengths=lengths,
        vol_pf=vol,
        bbt_bound=bbt,
        min_pf_length=min_len,
        c_illegal=c_illegal,
        residual=residual,
        iterations=it,
    )


def expansion_factor(f: GraphSelfMap) -> float:
    return pf_data(f).lam


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def transition_power(f: GraphSelfMap, t: int) -> list[list[int]]:
    """M^t as exact Python-int matrix (safe at any t, no overflow)."""
    n = f.graph.num_edges
    m = [[int(x) for x in row] for row in transition_matrix(f)]
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = m
    e = t
    while e:
        if e & 1:
            result = _int_mat_mul(result, base)
        base = _int_mat_mul(base, base)
        e >>= 1
    return result


def matrix_power_lengths(f: GraphSelfMap, t: int) -> list[int]:
    """Exact lengths |f^t(e)| for every edge: column sums of M^t."""
    n = f.graph.num_edges
    mt = transition_power(f, t)
    return [sum(mt[i][j] for i in range(n)) for j in range(n)]
