"""Transition matrices, primitivity, and Perron-Frobenius data.

The transition matrix M has M[i][j] = number of times the image of edge j
crosses edge i (in either direction).  Column sums are therefore the image
lengths.  For a primitive M the dominant eigenvalue lam > 1 carries a
positive left eigenvector of row lengths v (v^T M = lam v^T): assigning
length v[e] to edge e makes the map expand every legal path by exactly lam.

Exact integer arithmetic backs the floating point results.  The growth
rate from power iteration is certified at every size by the Collatz-Wielandt
bracket, checked in integers on the dyadic numerators of the iterate, and
characteristic polynomial coefficients come from the Faddeev-LeVerrier
recurrence in Python integers.  `pf_data` is the one PF computation: a
subdivided map needs none, since subdividing at a periodic orbit keeps lam
and cuts each PF length into pieces (`nielsen._refined_pf`).

numpy is imported by the two functions that build arrays, not by the
module, so the commands that compute no PF data never load it.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConvergenceError, MapError, NotPrimitiveError
from .graph import Path
from .graph_map import GraphSelfMap, per_map

if TYPE_CHECKING:
    import numpy as np


@per_map
def transition_matrix(f: GraphSelfMap) -> np.ndarray:
    """Nonnegative integer matrix; column j counts edges crossed by image of j.

    Each dart d of the image of j counts once in the cell (d >> 1, j), whose
    flat index in the n x n matrix is (d >> 1) * n + j, so one `bincount`
    over those indices fills the matrix, once per map and read-only.
    """
    import numpy as np

    n = f.graph.num_edges
    sizes = [len(img) for img in f.edge_image]
    darts = np.fromiter(chain.from_iterable(f.edge_image), dtype=np.int64, count=sum(sizes))
    cells = (darts >> 1) * n + np.repeat(np.arange(n, dtype=np.int64), sizes)
    m = np.bincount(cells, minlength=n * n).astype(np.int64, copy=False).reshape(n, n)
    m.flags.writeable = False
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

    Faddeev-LeVerrier in Python ints: for an integer matrix A every
    M_k = A (M_(k-1) + c_(k-1) I) and every c_k = -tr(M_k) / k is an
    integer, so each division is exact, which the assertion re-checks.
    """
    a = [[int(x) for x in row] for row in m.tolist()]
    n = len(a)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            mk[i][i] += coeffs[-1]
        cols = list(zip(*mk))
        mk = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        c, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert r == 0, "characteristic polynomial of an integer matrix must be integral"
        coeffs.append(c)
    return coeffs


class PFData(NamedTuple):
    """Dominant eigenvalue and the derived metric constants.

    pf_lengths assigns each edge its left-eigenvector length, normalized so
    the total graph volume is 1.  bbt_bound is set to that volume, and
    c_illegal = ceil(4 * bbt_bound / min pf length).  Neither is a proved
    bound: the bounded cancellation constant in the pf metric can exceed
    the volume, so c_illegal is not a proved count of the darts a legal
    segment must cross before cancellation can no longer swallow it.
    ROADMAP item 1 replaces both with a proved constant.
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
        return sum(self.pf_lengths[d >> 1] for d in path)


# |lam - rho| bound that pf_data certifies
_LAM_TOL = 1e-8

# pf_data's default settling tolerance
_SETTLE_TOL = 1e-12

# power iteration steps pf_data takes before it gives up
_MAX_ITER = 200_000


def _collatz_wielandt_certified(rows: list[list[int]], lam: float, w: np.ndarray) -> bool:
    """Exactly: w > 0 and (lam - tol) w_i <= (A w)_i <= (lam + tol) w_i for all i.

    For an irreducible nonnegative A and any positive x, min_i (Ax)_i / x_i
    <= rho(A) <= max_i (Ax)_i / x_i (Collatz-Wielandt), so a pass proves
    |rho(A) - lam| <= tol.  Every float is a dyadic rational: the entries of
    w are scaled to integers over one common power of two, and the test
    (lam -+ tol) x_i vs (A x)_i is cleared of the denominators of lam and
    tol, leaving Python int products only.
    """
    ratios = [x.as_integer_ratio() for x in w.tolist()]
    if any(num <= 0 for num, _ in ratios):
        return False
    den = max(d for _, d in ratios)
    x = [num * (den // d) for num, d in ratios]
    p, q = lam.as_integer_ratio()
    r, s = _LAM_TOL.as_integer_ratio()
    lo, hi, scale = p * s - r * q, p * s + r * q, q * s
    for row, xi in zip(rows, x):
        ax = scale * sum(map(mul, row, x))
        if not lo * xi <= ax <= hi * xi:
            return False
    return True


def pf_data(f: GraphSelfMap, tol: float = _SETTLE_TOL) -> PFData:
    """Power iteration on M^T for the left eigenvector, with a certified lam.

    Requires a primitive transition matrix.  The iteration starts from the
    uniform vector and stops at the first iterate that has settled (every
    entry moved by less than tol) and whose Collatz-Wielandt bracket pins
    the dominant eigenvalue to within _LAM_TOL of the estimate, checked in
    exact integer arithmetic at every size.  The settling tolerance tol
    must be > 0.

    Lemma: the settle test max_i |w_i - v_i| < tol fails whenever
    |w_0 - v_0| >= tol, since the maximum is at least that entry, and both
    sides compute the same float difference.  So the vector test, and then
    the Collatz-Wielandt certificate, run only on the steps whose first
    entry has settled; every other step is refused by one comparison, and
    the step the loop stops at, hence lam, the lengths, the residual and
    the iteration count, are those of running the whole test every step.
    """
    import numpy as np

    if not tol > 0:
        raise MapError("tolerance must be > 0")
    m = transition_matrix(f)
    if not is_primitive(m):
        raise NotPrimitiveError("transition matrix is not primitive")
    n = m.shape[0]
    rows = m.T.tolist()
    mt = m.T.astype(np.float64)
    v = np.ones(n) / n
    lam = 0.0
    it = 0
    for it in range(1, _MAX_ITER + 1):
        w = mt @ v
        lam = float(np.add.reduce(w))
        if lam <= 0:
            raise ConvergenceError("power iteration collapsed")
        w /= lam
        if abs(w[0] - v[0]) < tol and float(np.abs(w - v).max()) < tol and _collatz_wielandt_certified(rows, lam, w):
            v = w
            break
        v = w
    else:
        raise ConvergenceError(f"power iteration did not settle and certify in {_MAX_ITER} steps")
    residual = float(np.abs(mt @ v - lam * v).max())
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

