"""Neumann (resolvent) series for ``(A+B)^{-1}`` with exact remainders,
and the Feynman-parameter simplex representation of regularized resolvent
entries for diagonal ``A``.

The expansion is ``(A+B)^{-1} = sum_m (-1)^m A^{-1} (B A^{-1})^m``,
convergent when the symmetrized ratio ``||A^{-1/2} B A^{-1/2}|| < 1``;
truncating at order ``k`` leaves the exact remainder
``(-1)^k (A^{-1} B)^k (A+B)^{-1}``, an identity valid at every order
whether or not the series converges.

The series are sums over index paths.  On a dense ``B`` a path enters the
Feynman integral and the scattering index sum only by the multiset of its
inner levels, which :func:`multiset_columns` sums by, layer by layer; the
diagrams of ``symdiag`` label the paths of :func:`index_paths` one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import ArgumentError, DefinitenessError, EnumerationLimitError

#: Partial paths one walk of :func:`index_paths` may extend; links one :func:`multiset_columns` may follow.
PATH_CAP = 10**6
#: Samples times multiset columns of one order: a bound on the integrand's work, which runs once
#: per (sample, column) in blocks; no (samples, columns) array is formed.  The sweep that finds the
#: columns is bounded by PATH_CAP.  The cube of a recursive grid's depth, the work of its
#: Gauss-Legendre rule, is held to this cap too.
INTEGRAND_CAP = 2**28
#: (sample, column) entries per block of the simplex integrand: 1 MiB of complex128, kept in cache.
BLOCK_ENTRIES = 2**16
#: Points of the Korobov lattice ``k (1, a, a^2, ...) / N mod 1`` behind the ``lattice`` rule, and its
#: generator ``a``: 97 minimizes the largest ratio of the lattice's ``P_2`` to each dimension's best over
#: dimensions 2-8 (``tests/test_resolvent.py`` repeats the search), so no search runs at run time.
LATTICE_POINTS = 251
LATTICE_GENERATOR = 97


def symmetrized_ratio(a, b) -> float:
    """Convergence ratio ``||A^{-1/2} B A^{-1/2}||`` for Hermitian PD ``A``."""
    a, b = matcore.as_pair(a, b)
    dec = matcore.eig_hermitian(a, what="A")
    if dec.eigenvalues[0] <= 0:
        raise DefinitenessError(
            f"A must be positive definite (min eigenvalue {dec.eigenvalues[0]:.3e})"
        )
    v = dec.eigenvectors
    inv_sqrt = (v / np.sqrt(dec.eigenvalues)) @ v.conj().T
    return matcore.op_norm(inv_sqrt @ b @ inv_sqrt)


def series_terms(a, b, k: int) -> matcore.Series:
    """First ``k`` terms of the resolvent series, by repeated multiplication.

    ``terms[m] = (-1)^m A^{-1} (B A^{-1})^m`` for ``m = 0..k-1``; a single
    inversion of ``A`` is performed.  ``ratio`` is the symmetrized ratio, NaN
    when ``A`` is not Hermitian positive definite (it is then undefined).
    A term that overflows raises :class:`ArgumentError`.
    """
    matcore.check_order(k, "k")
    a, b = matcore.as_pair(a, b)
    a_inv = matcore.inverse(a)
    terms = np.empty((k,) + a.shape, dtype=complex)
    terms[:1] = a_inv  # no term when k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        step = b @ a_inv
        for m in range(1, k):
            terms[m] = -(terms[m - 1] @ step)
            if not np.isfinite(terms[m]).all():
                raise ArgumentError(f"resolvent series overflows the float range at order {m}")
    try:
        ratio = symmetrized_ratio(a, b)
    except (DefinitenessError, matcore.NotHermitianError):
        ratio = math.nan
    return matcore.Series(terms, ratio)


def exact_remainder(a, b, k: int) -> np.ndarray:
    """Exact order-``k`` remainder ``(-1)^k (A^{-1} B)^k (A+B)^{-1}``.

    ``partial_sum(k) + exact_remainder(k)`` equals ``(A+B)^{-1}`` as an
    identity, independent of convergence.
    """
    matcore.check_order(k, "k")
    a, b = matcore.as_pair(a, b)
    full_inv = matcore.inverse(a + b)
    if k == 0:
        return full_inv
    y = matcore.solve(a, b)
    return (-1) ** k * np.linalg.matrix_power(y, k) @ full_inv


@dataclass(frozen=True)
class SimplexQuadrature:
    """Quadrature policy on the standard simplex of Feynman parameters.

    ``lattice`` is a randomized rank-1 lattice rule: the
    :data:`LATTICE_POINTS`-point Korobov lattice of generator
    :data:`LATTICE_GENERATOR`, taken at ``samples_or_depth`` random shifts
    (at least 2), so that each order's standard error comes from its shift
    means.  ``recursive-grid`` is the deterministic Gauss-Legendre product
    rule of ``samples_or_depth`` nodes per axis (at least 2).  A fractional
    count or a negative ``seed`` raises :class:`ArgumentError`.
    """

    method: str = "lattice"
    samples_or_depth: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("lattice", "recursive-grid"):
            raise ArgumentError(f"unknown simplex method {self.method!r}")
        if self.method == "lattice" and self.samples_or_depth < 2:
            raise ArgumentError("lattice needs at least 2 shifts")
        if self.method == "recursive-grid" and self.samples_or_depth < 2:
            raise ArgumentError("recursive-grid needs depth >= 2")
        matcore.check_order(self.samples_or_depth, "samples_or_depth")
        matcore.check_order(self.seed, "seed")  # numpy seeds no generator from a negative integer

    def points(self, m: int) -> int:
        """Nodes of the order-``m`` rule: one at order 0, ``LATTICE_POINTS`` per shift, ``depth^m`` on the grid."""
        if m == 0:
            return 1
        if self.method == "lattice":
            return LATTICE_POINTS * self.samples_or_depth
        return self.samples_or_depth**m


@dataclass(frozen=True)
class FeynmanEntry:
    """Value of the simplex representation with its sampling uncertainty: ``std_error`` is the root
    sum of squares of the per-order ``order_std_errors``."""

    value: complex
    std_error: float
    order_values: tuple
    order_std_errors: tuple


def dense_links(b) -> list:
    """The links of a dense ``B``: row ``r`` maps each nonzero column, ascending, to ``B[r, c]``."""
    return [dict(zip(nz.tolist(), row[nz])) for row, nz in zip(b, map(np.flatnonzero, b))]


def index_paths(links, i, j, m: int):
    """Every index path ``i -> ... -> j`` of ``m`` links with its weight, as
    ``(path, weight)``: a tuple of indices and the product of its entries.

    ``links(r)`` maps each next index, in walk order, to its link's entry; a
    path takes its last step only if ``j`` is among them.  The weight is
    multiplied once per link of a shared prefix, from ``1+0j``.  Before
    walking, the partial paths the walk extends, ``1 + W_1 + ... + W_{m-1}``
    with ``W_L`` the ``L``-link walks from ``i``, are counted; more than
    :data:`PATH_CAP` raises :class:`EnumerationLimitError`.
    """
    matcore.check_order(m, "m")
    level, extended = {i: 1}, min(m, 1)  # walks from i to each index at the current length; partial paths in all
    for _ in range(m - 1):
        counts = {}
        for r, walks in level.items():
            for t in links(r):
                counts[t] = counts.get(t, 0) + walks
        level = counts
        extended += sum(level.values())
    if extended > PATH_CAP:
        raise EnumerationLimitError(f"path enumeration exceeds cap {PATH_CAP}")
    if m == 0:
        if i == j:
            yield (i,), 1.0 + 0.0j
        return

    def extend(path, weight):
        out = links(path[-1])
        if len(path) == m:
            if j in out:
                yield path + (j,), weight * out[j]
            return
        for nxt, entry in out.items():
            yield from extend(path + (nxt,), weight * entry)

    yield from extend((i,), 1.0 + 0.0j)


def multiset_columns(links, lam, i, j, m_max: int) -> list:
    """Every order's columns ``(lam_rows, wts)``, ``m = 0..m_max``, of the paths ``i -> ... -> j``, listing none.

    Layer ``L`` of the sweep maps the index reached by ``L`` links and the sorted levels ``lam[k]`` of the inner
    indices so far to the summed weight of its walks from ``i``; ``links(r)`` maps each next index to its entry.
    Order ``m`` is layer ``m`` at ``j``, in first-seen order: rows ``(lam[i], *levels, lam[j])``, just
    ``(lam[i],)`` at order 0, and their weights.  Layer ``m_max`` follows only links into ``j``.  Each layer's
    links are counted before it is built; past :data:`PATH_CAP` in all, :class:`EnumerationLimitError`.
    """
    matcore.check_order(m_max, "m_max")
    layer, followed, columns = {(i, ()): 1.0 + 0.0j}, 0, []
    for m in range(m_max + 1):
        if m:
            followed += sum(len(links(r)) if m < m_max else j in links(r) for r, _ in layer)
            if followed > PATH_CAP:
                raise EnumerationLimitError(f"path enumeration exceeds cap {PATH_CAP}")
            nxt = {}
            for (r, levels), weight in layer.items():
                out = links(r)
                levels = tuple(sorted((*levels, lam[r]))) if m > 1 else levels  # the start i is not inner
                for t in out if m < m_max else out.keys() & {j}:
                    key = (t, levels)
                    nxt[key] = nxt[key] + weight * out[t] if key in nxt else weight * out[t]
            layer = nxt
        ends = {levels: weight for (r, levels), weight in layer.items() if r == j}
        rows = [(lam[i], *levels, lam[j])[:m + 1] for levels in ends]
        columns.append((np.array(rows, dtype=float).reshape(-1, m + 1), np.array(list(ends.values()), dtype=complex)))
    return columns


def _simplex_nodes(m: int, q: SimplexQuadrature, out: np.ndarray):
    """Points and probability weights over the standard simplex in m+1 vars.

    Returns ``(x, w)`` with ``x`` of shape (``q.points(m)``, m+1), the
    transpose of a coordinate-major view of the flat buffer ``out``, and
    ``w`` summing to one, so Lebesgue integrals over the simplex are
    ``(1/m!) * sum_s w_s f(x_s)``.  Both rules take points of the unit cube
    onto the simplex by stick breaking, ``x_k = (1 - x_0 - ... - x_{k-1}) v_k``.
    The lattice rule adds shift ``r``, drawn from ``q.seed + m``, to every
    lattice point, folds the sum by the baker's transform
    ``u -> 1 - |2u - 1|`` and takes ``v_k = 1 - u_k^(1/(m-k))``, so its
    points are uniform on the simplex and shift ``r`` holds points
    ``r N .. r N + N - 1``; its weights are equal.  The recursive grid maps
    an iterated Gauss-Legendre rule of the unit cube, ``v_k = u_k``,
    weighting each node by the map's Jacobian.
    """
    if m == 0:
        return np.ones((1, 1)), np.ones(1)
    coords = out[:q.points(m) * (m + 1)].reshape(m + 1, -1)  # one contiguous row per coordinate
    remaining = coords[m]
    remaining.fill(1.0)
    if q.method == "lattice":
        z = np.array([pow(LATTICE_GENERATOR, k, LATTICE_POINTS) for k in range(m)])
        lattice = np.outer(z, np.arange(LATTICE_POINTS)) % LATTICE_POINTS / LATTICE_POINTS
        shifts = np.random.default_rng(q.seed + m).random((q.samples_or_depth, m)).T
        u = coords[:m].reshape(m, q.samples_or_depth, LATTICE_POINTS)
        np.add(lattice[:, None, :], shifts[:, :, None], out=u)
        u -= u >= 1.0  # the fractional part: lattice point and shift each lie in [0, 1)
        u *= 2.0  # the baker's transform 1 - |2u - 1|
        u -= 1.0
        np.abs(u, out=u)
        np.subtract(1.0, u, out=u)
        for axis in range(m):
            v = coords[axis]
            np.power(v, 1.0 / (m - axis), out=v)
            np.subtract(1.0, v, out=v)
            v *= remaining
            remaining -= v
        return coords.T, np.full(coords.shape[1], 1.0 / coords.shape[1])
    if q.samples_or_depth**3 > INTEGRAND_CAP:  # the Gauss-Legendre rule alone takes O(depth^3) work
        raise EnumerationLimitError(f"recursive-grid depth {q.samples_or_depth} cubed exceeds cap {INTEGRAND_CAP}")
    nodes, weights = np.polynomial.legendre.leggauss(q.samples_or_depth)
    u = (nodes + 1.0) / 2.0
    wu = weights / 2.0
    combos = np.indices((q.samples_or_depth,) * m).reshape(m, -1)  # one column per node, in product order
    w = np.ones(combos.shape[1])
    for axis, idx in enumerate(combos):
        np.multiply(remaining, u[idx], out=coords[axis])
        # Jacobian of the stick-breaking map is the remaining length
        w *= wu[idx] * remaining
        remaining -= coords[axis]
    return coords.T, w / w.sum()


def _block_buffers(shapes) -> tuple:
    """Flat buffers that :func:`_path_sums` reuses for every ``(points, columns)`` shape of ``shapes``:
    a block's denominators and their powers, each sized for the largest block, and the per-point sums,
    sized for the most points."""
    block = max((min(max(1, BLOCK_ENTRIES // c), p) * c for p, c in shapes), default=0)
    points = max((p for p, _ in shapes), default=0)
    return np.empty(block, dtype=complex), np.empty(block, dtype=complex), np.empty(points, dtype=complex)


def _path_sums(x, lam_rows, wts, tau: float, m: int, buffers) -> np.ndarray:
    """``sum_c wts_c / (x_s . lam_rows_c + i*tau)^(m+1)`` over columns ``c``, for every point ``s``.

    Each block of about :data:`BLOCK_ENTRIES` (point, column) entries is
    formed in views of the two block buffers of :func:`_block_buffers`: one
    real gemm into the real parts and ``tau`` in the imaginary parts give the
    denominators ``z``, ``m`` complex multiplications and one reciprocal give
    ``z^-(m+1)``, and one ``zgemv`` sums it against the weights into a view
    of the sums buffer, which is returned and overwritten by the next call.
    """
    z, p, sums = buffers
    cols = len(wts)
    rows = max(1, BLOCK_ENTRIES // cols)
    sums = sums[:len(x)]
    for s in range(0, len(x), rows):
        xb = x[s:s + rows]
        shape, size = (len(xb), cols), len(xb) * cols
        zb, pb = z[:size].reshape(shape), p[:size].reshape(shape)
        np.matmul(xb, lam_rows.T, out=zb.real)
        zb.imag.fill(tau)
        np.copyto(pb, zb)
        for _ in range(m):
            np.multiply(pb, zb, out=pb)
        np.reciprocal(pb, out=pb)
        np.matmul(pb, wts, out=sums[s:s + rows])
    return sums


@np.errstate(all="ignore")  # an order that overflows is refused by name below, not warned about
def feynman_parameter_entry(
    a_diag, b, i: int, j: int, tau: float, m_max: int, q: SimplexQuadrature
) -> FeynmanEntry:
    """Entry ``(A + B + i*tau)^{-1}_{ij}`` as a sum of simplex integrals.

    For diagonal real ``A`` the order-``m`` contribution is
    ``(-1)^m m! * integral over the simplex of
    sum over index paths of prod B / (x . lambda_path + i*tau)^{m+1}``,
    the Feynman parameters being the simplex coordinates.  One sweep of
    :func:`multiset_columns` sums the paths of every order by the multiset of
    their inner levels, so the integrand runs once per column: ``C(n+m-2,
    m-1)`` of them for a dense ``B`` against ``n^(m-1)`` paths.
    :data:`INTEGRAND_CAP` bounds points times columns, :data:`PATH_CAP` the sweep.
    The node and block buffers are allocated once, for the largest order,
    and reused by every order.  On the lattice rule each order ``m >= 1``
    has the squared standard error ``sum_r |mu_r - mu|^2 / (R (R - 1))`` of
    its ``R`` shift means ``mu_r``; ``std_error`` is the root of their sum,
    and zero on the grid.  The first order whose sum or variance leaves the
    float range raises :class:`ArgumentError`.
    """
    matcore.check_positive(tau, "tau")
    matcore.check_order(m_max, "m_max")
    a, b = matcore.as_pair(a_diag, b)
    lam = matcore.diagonal_of(a).tolist()
    n = b.shape[0]
    matcore.check_index(i, n)
    matcore.check_index(j, n)
    orders = multiset_columns(dense_links(b).__getitem__, lam, i, j, m_max)
    for m, (_, wts) in enumerate(orders):  # every integrand is bounded before any is integrated
        if q.points(m) * len(wts) > INTEGRAND_CAP:
            raise EnumerationLimitError(f"order {m}: {q.points(m)} samples x {len(wts)} columns exceed cap {INTEGRAND_CAP}")
    integrated = [m for m, (_, wts) in enumerate(orders) if len(wts)]
    nodes = np.empty(max((q.points(m) * (m + 1) for m in integrated), default=0))
    buffers = _block_buffers([(q.points(m), len(orders[m][1])) for m in integrated])
    order_values, order_variances = [], []
    variance = 0.0
    total = 0.0 + 0.0j
    for m, (lam_rows, wts) in enumerate(orders):
        order_variances.append(0.0)
        if not len(wts):
            order_values.append(0.0 + 0.0j)
            continue
        x, w = _simplex_nodes(m, q, nodes)
        integrand = _path_sums(x, lam_rows, wts, tau, m, buffers)  # per point
        # Lebesgue integral over the simplex = mean/ m! for probability weights;
        # the m! prefactor of the representation cancels it exactly.
        mean = complex(np.sum(w * integrand))
        term = (-1) ** m * mean
        order_values.append(term)
        total += term
        if q.method == "lattice" and m >= 1:
            shifts = q.samples_or_depth
            shift_means = integrand.reshape(shifts, LATTICE_POINTS).mean(axis=1)
            order_variances[m] = float(np.sum(np.abs(shift_means - mean) ** 2)) / (shifts * (shifts - 1))
            variance += order_variances[m]
        if not (np.isfinite(total) and math.isfinite(variance)):
            raise ArgumentError(f"Feynman-parameter entry overflows the float range at order {m}")
    return FeynmanEntry(value=total, std_error=math.sqrt(variance), order_values=tuple(order_values),
                        order_std_errors=tuple(map(math.sqrt, order_variances)))
