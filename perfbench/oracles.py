"""Independent numpy oracles for outputs the CLI does not check itself.

None of these touch ``pertkit``: eigenvalue coefficients come from a
Chebyshev-grid polynomial fit of ``numpy.linalg.eigvalsh``, projectors from
``numpy.linalg.eigh`` and scattering entries from dense ``numpy.linalg.solve``.
They run after the last timed pass, outside every timed window.  Each returns ``None`` when the program
agrees and a message when it does not.
"""

from __future__ import annotations

import json

import numpy as np


def load_matrix(path: str) -> np.ndarray:
    """A matrix file in pertkit's JSON format, read with numpy only."""
    with open(path) as fh:
        obj = json.load(fh)
    pairs = np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"], 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def csv_rows(text: str) -> list:
    """Data rows of a pertkit CSV report (between the column header and
    the residuals section), split on commas."""
    lines = [ln for ln in text.splitlines() if ln]
    body = []
    started = False
    for ln in lines:
        if ln.startswith("#"):
            if started:
                break
            continue
        if not started:
            started = True  # column header
            continue
        body.append(ln.split(","))
    return body


def _gap_and_scale(a, b, i):
    lam = np.linalg.eigvalsh(a)
    gap = float(np.min(np.abs(np.delete(lam, i) - lam[i])))
    return lam, gap, float(np.linalg.norm(b, 2))


def cheb_nodes(eps_max: float, count: int) -> np.ndarray:
    k = np.arange(1, count + 1)
    return eps_max * np.cos(np.pi * (2 * k - 1) / (2 * count))


FIT_SPAN = 0.1  # eps_max in units of gap / ||B||


def eigenvalue_fit(a, b, i: int, order: int, nodes: int = 61, extra_degree: int = 8) -> np.ndarray:
    """Taylor coefficients of the ``i``-th eigenvalue of ``A + eps B``.

    The grid stays within ``FIT_SPAN`` times the gap over ``||B||``, where by Weyl's
    inequality the eigenvalue keeps its place in the sorted spectrum, so
    ``eigvalsh(...)[i]`` tracks it without eigenvector matching.
    """
    _, gap, bnorm = _gap_and_scale(a, b, i)
    eps_max = FIT_SPAN * gap / bnorm
    grid = cheb_nodes(eps_max, nodes)
    vals = np.array([np.linalg.eigvalsh(a + eps * b)[i] for eps in grid])
    coef = np.polynomial.chebyshev.cheb2poly(
        np.polynomial.chebyshev.chebfit(grid / eps_max, vals, order + extra_degree)
    )
    return coef[: order + 1] / eps_max ** np.arange(order + 1)


def eigenvalue_fit_oracle(text: str, a_path: str, b_path: str, i: int, order: int):
    """Compare the ``coefficient`` column of an ``eig-perturb`` report on the
    matrices in ``a_path`` and ``b_path``.

    The fit resolves order ``k`` only to about ``delta / eps_max^k``, with
    ``delta`` the rounding error of ``eigvalsh``; on the drawn instances the
    observed error stays below 5e3 times that, so the tolerance is 1e5 times
    it plus 1e-6 relative.
    """
    rows = csv_rows(text)
    got = np.array([float(r[1]) for r in rows])
    if got.size != order + 1:
        return f"expected {order + 1} coefficients, got {got.size}"
    a, b = load_matrix(a_path), load_matrix(b_path)
    want = eigenvalue_fit(a, b, i, order)
    lam, gap, bnorm = _gap_and_scale(a, b, i)
    delta = np.finfo(float).eps * float(np.max(np.abs(lam)))
    eps_max = FIT_SPAN * gap / bnorm
    tol = 1e-6 * np.abs(want) + 1e5 * delta / eps_max ** np.arange(order + 1)
    bad = np.flatnonzero(np.abs(got - want) > tol)
    if bad.size:
        k = int(bad[0])
        return f"eig-perturb order {k}: {float(got[k])!r} vs fit {float(want[k])!r} (tolerance {float(tol[k]):.2e})"
    return None


def projection_oracle(series, a, b, i: int):
    """Compare the projector series at small ``eps`` with the ``eigh`` projector."""
    _, gap, bnorm = _gap_and_scale(a, b, i)
    order = len(series.coefficients) - 1
    for frac in (0.01, 0.02):
        eps = frac * gap / bnorm
        v = np.linalg.eigh(a + eps * b)[1][:, i]
        exact = np.outer(v, v.conj())
        approx = sum((eps**k) * c for k, c in enumerate(series.coefficients))
        err = float(np.linalg.norm(approx - exact, 2))
        # truncation after `order` terms of a series with ratio ~ 2 eps ||B|| / gap
        tol = 10.0 * (2.0 * frac) ** (order + 1) + 1e-10
        if err > tol:
            return f"projector series at eps={eps:.3g}: error {err:.2e} > {tol:.2e}"
    return None


def unitarity_defect(a, b, tau: float) -> float:
    """``||M* M - I||`` with ``M_ij = i tau <v_i, (A + B - lambda_ij)^{-1} v_j>``
    and ``lambda_ij = (lambda_i + lambda_j)/2 - i tau``, by dense solves."""
    lam, v = np.linalg.eigh(a)
    n = lam.size
    shifts = (lam[:, None] + lam[None, :]) / 2.0 - 1j * tau  # (i, j)
    mats = (a + b)[None, None, :, :] - shifts[:, :, None, None] * np.eye(n)
    rhs = np.broadcast_to(v.T[None, :, :, None], (n, n, n, 1))  # column j for every i
    x = np.linalg.solve(mats, rhs)[..., 0]  # (i, j, n)
    m = 1j * tau * np.einsum("ki,ijk->ij", v.conj(), x)
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n), 2))


def unitarity_defect_oracle(value: float, a, b, tau: float, rtol: float = 1e-8):
    want = unitarity_defect(a, b, tau)
    if abs(value - want) > rtol * max(1.0, want):
        return f"unitarity defect {value!r} vs dense solve {want!r}"
    return None
