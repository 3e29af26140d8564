"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each criterion prints one PASS line (visible under ``pytest -s``) and
asserts its runtime budget.  Expected values marked as derived come from
the independent oracles in ``reference.py`` or from direct enumeration
computed inside the test, never from the code path under test.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

import reference
from ensembles import random_diagonal, random_hermitian
from pertkit import evolution, matcore, resolvent, scattering, spectral, symdiag, tensor
from pertkit.symdiag import MultisetState


def _report(number, name, started, limit):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS ({elapsed:.1f}s < {limit}s)")
    assert elapsed < limit


def test_criterion_01_resolvent_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for trial in range(50):
        n = int(rng.integers(4, 33))
        target = float(rng.uniform(0.25, 0.5))
        seed = int(rng.integers(0, 2**31))
        base = random_hermitian(n, 1.0, seed)
        dec = matcore.eig_hermitian(base)
        a = (dec.eigenvectors * (0.5 + 1.5 * rng.uniform(size=n))) @ dec.eigenvectors.conj().T
        b0 = random_hermitian(n, 1.0, seed + 1)
        b = b0 * (target / resolvent.symmetrized_ratio(a, b0))

        inv = matcore.inverse(a + b)
        inv_norm = matcore.op_norm(inv)
        series = resolvent.series_terms(a, b, 9)
        assert abs(series.ratio - target) <= 1e-10
        for k in range(9):
            defect = matcore.op_norm(
                series.partial_sum(k) + resolvent.exact_remainder(a, b, k) - inv
            )
            assert defect <= 1e-10 * inv_norm
        resids = [matcore.op_norm(series.partial_sum(k) - inv) for k in range(1, 9)]
        slope = np.polyfit(np.arange(1, 9), np.log(resids), 1)[0]
        assert slope <= math.log(series.ratio) + 0.1
    _report(1, "resolvent exactness", started, 10)


def test_criterion_02_eigenvalue_coefficients():
    started = time.monotonic()
    rng = np.random.default_rng(1002)
    for trial in range(20):
        n = int(rng.integers(4, 17))
        seed = int(rng.integers(0, 2**31))
        a = random_diagonal(n, float(n), seed)
        lam = np.real(np.diagonal(a))
        min_gap = np.min(np.diff(np.sort(lam)))
        b = random_hermitian(n, 1.0, seed + 1)
        b *= 0.3 * min_gap / matcore.op_norm(b)
        i = int(rng.integers(0, n))

        series = spectral.eigenvalue_coefficients(a, b, i, 4)
        mask = np.arange(n) != i
        first = np.real(b[i, i])
        second = np.sum(np.abs(b[i, mask]) ** 2 / (lam[i] - lam[mask]))
        assert abs(series.coefficients[1] - first) <= 1e-9
        assert abs(series.coefficients[2] - second) <= 1e-9
        assert abs(series.coefficients[4] - spectral.lambda4_closed_form(a, b, i)) <= 1e-7
        fit = reference.eigenvalue_fit(a, b, i, 4)
        assert np.max(np.abs(series.coefficients - fit)) <= 1e-6

    a2 = np.diag([0.0, 1.0]).astype(complex)
    b2 = np.array([[0, 1], [1, 0]], dtype=complex)
    ser2 = spectral.eigenvalue_coefficients(a2, b2, 0, 4)
    # derived from the exact two-level eigenvalue (1 - sqrt(1+4 eps^2))/2
    np.testing.assert_allclose(
        reference.exact_two_level_eigenvalue_series(4), [0, 0, -1, 0, 1], atol=1e-7
    )
    assert abs(ser2.coefficients[2] + 1.0) <= 1e-9
    assert abs(ser2.coefficients[4] - 1.0) <= 1e-9
    _report(2, "eigenvalue coefficients", started, 30)


def test_criterion_03_eigenvector_machinery():
    started = time.monotonic()
    rng = np.random.default_rng(1003)
    for trial in range(5):
        seed = int(rng.integers(0, 2**31))
        a = random_diagonal(10, 10.0, seed)
        b = random_hermitian(10, 0.3, seed + 1)
        i = int(rng.integers(0, 10))
        s = spectral.schur_split(a, b, i)
        for z in (0.3 + 0.7j, -1.4 + 0.9j):
            lhs = np.vdot(s.v, matcore.solve(a + b - z * np.eye(10), s.v))
            rhs = 1.0 / (s.lambda0 + s.diag_coupling.real - z - spectral.self_energy(s, z))
            assert abs(lhs - rhs) <= 1e-11

        lhat = spectral.fixed_point_eigenvalue(s)
        dec = matcore.eig_hermitian(a + b)
        _, _, vhat = spectral.match_eigenpair(dec, s.v)
        assert abs(spectral.overlap_squared(s, lhat) - abs(np.vdot(s.v, vhat)) ** 2) <= 1e-9

    a = random_hermitian(12, 1.0, 77)
    b = random_hermitian(12, 0.5, 78)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    mu = spectral.spectral_measure(a, b, v)
    assert abs(np.sum(mu.weights) - 1.0) <= 1e-12
    for z in (0.1 + 0.5j, -1.0 + 0.3j):
        direct = np.vdot(v, matcore.solve(a + b - z * np.eye(12), v))
        assert abs(mu.stieltjes(z) - direct) <= 1e-10

    a3 = random_diagonal(8, 8.0, 301)
    b3 = random_hermitian(8, 0.3, 302)
    s3 = spectral.schur_split(a3, b3, 3)
    ser3 = spectral.eigenvalue_coefficients(a3, b3, 3, 3)
    sigmas = spectral.cancellation_check(s3, ser3, 3)
    assert max(abs(x) for x in sigmas) <= 1e-8
    # independent route: fit the exact unit eigenvector on an eps grid
    fit = reference.eigenvector_fit(a3, b3, 3, 3)
    for k in range(1, 4):
        sig = sum(np.vdot(fit[m], fit[k - m]) for m in range(k + 1))
        assert abs(sig) <= 1e-8
    _report(3, "eigenvector machinery", started, 20)


def test_criterion_04_time_series():
    started = time.monotonic()
    rng = np.random.default_rng(1004)
    for trial in range(3):
        n = int(rng.integers(4, 9))
        seed = int(rng.integers(0, 2**31))
        a = random_hermitian(n, 1.0, seed)
        a *= 0.8 / matcore.op_norm(a)
        b = random_hermitian(n, 1.0, seed + 1)
        b *= 0.4 / matcore.op_norm(b)
        na, nb = matcore.op_norm(a), matcore.op_norm(b)
        for t in (1.0, 2.0):
            terms = evolution.exp_series_terms(a, b, t, 10)
            exact = scipy.linalg.expm(t * (a + b))
            dterms = evolution.dyson_terms(a, b, t, 10)
            dexact = scipy.linalg.expm(1j * t * a) @ scipy.linalg.expm(-1j * t * (a + b))
            for k in range(11):
                budget = evolution.remainder_bound(t, na, nb, k + 1) + 1e-7
                assert matcore.op_norm(sum(terms[: k + 1]) - exact) <= budget
                assert matcore.op_norm(sum(dterms[: k + 1]) - dexact) <= budget

    a = np.diag(rng.uniform(-1.0, 1.0, 6)).astype(complex)
    b = np.diag(rng.uniform(-0.4, 0.4, 6)).astype(complex)
    t = 0.9
    dterms = evolution.dyson_terms(a, b, t, 8)
    closed = sum(np.linalg.matrix_power(-1j * t * b, m) / math.factorial(m) for m in range(9))
    assert matcore.op_norm(sum(dterms) - closed) <= 1e-9
    _report(4, "time series", started, 30)


def test_criterion_05_laplace_bridge():
    started = time.monotonic()
    a = random_hermitian(5, 1.0, 501)
    a *= 0.5 / matcore.op_norm(a)
    b = random_hermitian(5, 1.0, 502)
    b *= 0.15 / matcore.op_norm(b)
    tau = 0.5
    exact = matcore.inverse(a + b + 1j * tau * np.eye(5))
    tmaxs = np.array([10, 14, 18, 22, 26, 30])
    defects = [
        matcore.op_norm(
            evolution.laplace_resolvent_bridge(a, b, tau, float(T), evolution.TimeGrid(int(60 * T)))
            - exact
        )
        for T in tmaxs
    ]
    slope = np.polyfit(tmaxs, np.log(defects), 1)[0]
    assert abs(slope + tau) <= 0.1 * tau
    _report(5, "laplace bridge", started, 10)


def test_criterion_06_scattering():
    started = time.monotonic()
    rng = np.random.default_rng(1006)
    for trial in range(5):
        n = int(rng.integers(4, 7))
        seed = int(rng.integers(0, 2**31))
        a = random_diagonal(n, float(n), seed)
        lam = np.real(np.diagonal(a))
        b = random_hermitian(n, 1.0, seed + 1)
        b *= 0.05 / matcore.op_norm(b)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        tau = float(rng.uniform(0.1, 0.3))
        q = scattering.ScatteringQuery(i=int(i), j=int(j), tau=tau)

        order = 12
        series = scattering.s_series(a, b, q, order)
        assert series.convergent
        direct = scattering.s_entry_resolvent(a, b, q)
        shift = scattering.lambda_shift(lam[q.i], lam[q.j], tau)
        norm = matcore.op_norm(matcore.inverse(a - shift * np.eye(n)))
        r = series.ratio
        bound = r ** (order + 1) / (1.0 - r) * tau * norm
        assert abs(series.partial_sum() - direct) <= bound

        t_max = 100.0
        abel = scattering.s_entry_time_average(a, b, q, t_max, g=matcore.TimeGrid(8000))
        assert abs(abel - direct) <= 2.0 * math.exp(-tau * t_max) + 1e-5

        # closed forms for orders 0..2
        denom = (lam[q.i] - lam[q.j]) ** 2 / 4.0 + tau**2
        assert abs(series.terms[0] - (1.0 if q.i == q.j else 0.0)) <= 1e-10
        assert abs(series.terms[1] - 1j * tau / denom * b[q.i, q.j]) <= 1e-10
        s2 = -1j * tau / denom * np.sum(b[q.i, :] * b[:, q.j] / (lam - shift))
        assert abs(series.terms[2] - s2) <= 1e-10

    v = lambda x: np.exp(-0.5 * (x - 2.0) ** 2)
    s1, closed = scattering.born_demo(32, lambda p: p**2, v, 3, 5, 0.1)
    assert abs(s1 - closed) <= 1e-10

    p0, q0 = (3.0, 2.0, 1.0), (1.0, 2.0, 3.0)
    v1 = scattering.rutherford_demo(8, 2.0, p0, q0, 2.5, 0.4)
    v2 = scattering.rutherford_demo(8, 4.0, p0, q0, 2.5, 0.4)
    assert v2 == 4.0 * v1
    v_half = scattering.rutherford_demo(8, 2.0, p0, q0, 2.5, 0.2)
    assert 1.7 <= v_half / v1 <= 2.3
    _report(6, "scattering", started, 60)


def test_criterion_07_symmetry_and_diagrams():
    started = time.monotonic()
    import scipy.linalg as sla

    u = np.diag([1.0, 1.0, 2.0, 2.0, 2.0]).astype(complex)
    a = sla.block_diag(
        random_hermitian(2, 1.0, 701) + 3 * np.eye(2), random_hermitian(3, 1.0, 702) + 3 * np.eye(3)
    ).astype(complex)
    b = sla.block_diag(random_hermitian(2, 0.2, 703), random_hermitian(3, 0.2, 704)).astype(complex)
    assert symdiag.restricted_inverse(a, b, u, 0, 3) == 0
    assert symdiag.restricted_inverse(a, b, u, 4, 1) == 0

    i = MultisetState.of(("a", (1,)), ("b", (-1,)))
    j_even = MultisetState.of(("a", (-1,)), ("b", (1,)))
    j_odd = MultisetState.of(("c", (0,)))
    rule = symdiag.TrilinearVertex(
        masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 2)
    )
    bop = symdiag.build_interaction(rule, [i, j_even], depth=2)
    a_dense, b_dense = bop.to_dense()
    for ell, j_state in ((2, j_even), (3, j_odd)):
        values = symdiag.diagram_values(bop, symdiag.group_terms_by_diagram(bop, i, j_state, ell), 0.05)
        total = sum(values.values())
        qq = scattering.ScatteringQuery(i=bop.index[i], j=bop.index[j_state], tau=0.05)
        reference = scattering.s_term_index_sum(a_dense, b_dense, qq, ell)
        assert abs(total - reference) <= 1e-11 * max(1.0, abs(reference))

    from test_symdiag import brute_force_tree, planted_tree_instance

    rng = np.random.default_rng(1007)
    for trial in range(100):
        dots = int(rng.integers(3, 6))
        d, externals, _, total_p = planted_tree_instance(rng, 1, dots)
        out = symdiag.tree_solve(d, externals, total_p)
        hits = brute_force_tree(d, externals, total_p)
        assert len(hits) == 1 and out == hits[0]

    rep = symdiag.three_particle_demo((1, 2), 1.0, 2.0, 0.5, i, j_even, 1e-3)
    assert [r.label for r in rep.rows] == ["a", "b", "c", "d"]
    assert rep.pairing_residual <= 1e-9
    _report(7, "symmetry and diagrams", started, 60)


def test_criterion_08_tensor_identities():
    started = time.monotonic()
    k = tensor.KroneckerSum(factors=(random_hermitian(2, 1.0, 801), random_hermitian(2, 1.0, 802)))
    total = tensor.kron_sum_materialize(k)
    omega, eps = 0.3, 0.2
    exact = matcore.inverse(total - (omega - 2j * eps) * np.eye(4))
    conv200 = tensor.convolution_resolvent(k, omega, eps, tensor.LineQuadrature(200.0, 20001))
    conv400 = tensor.convolution_resolvent(k, omega, eps, tensor.LineQuadrature(400.0, 40001))
    assert matcore.op_norm(conv200.value - exact) <= 1e-3
    raw200 = matcore.op_norm(conv200.raw - exact)
    raw400 = matcore.op_norm(conv400.raw - exact)
    assert 2.0 * 0.7 <= raw200 / raw400 <= 2.0 * 1.3

    rng = np.random.default_rng(1008)
    draws = 10_000
    p = rng.uniform(-2, 2, size=(draws, 3))
    m = rng.uniform(0.2, 3.0, size=draws)
    z = rng.uniform(-2, 2, size=draws) + 1j * rng.uniform(0.1, 2.0, size=draws)
    sp = np.einsum("bk,kij->bij", p, np.array(tensor.PAULI))
    eye2 = np.eye(2)
    fwd = np.zeros((draws, 4, 4), dtype=complex)
    inv = np.zeros((draws, 4, 4), dtype=complex)
    denom = m**2 - z**2 + np.sum(p**2, axis=1)
    fwd[:, :2, :2] = (m - z)[:, None, None] * eye2
    fwd[:, 2:, 2:] = (-m - z)[:, None, None] * eye2
    fwd[:, :2, 2:] = sp
    fwd[:, 2:, :2] = sp
    inv[:, :2, :2] = (m + z)[:, None, None] * eye2
    inv[:, 2:, 2:] = (-m + z)[:, None, None] * eye2
    inv[:, :2, 2:] = sp
    inv[:, 2:, :2] = sp
    inv /= denom[:, None, None]
    prod = np.einsum("bij,bjk->bik", fwd, inv) - np.eye(4)
    worst = np.max(np.linalg.svd(prod, compute_uv=False)[:, 0])
    assert worst <= 1e-13

    a_kg = rng.uniform(0.2, 3.0, size=draws)
    z_kg = rng.uniform(-2, 2, size=draws) + 1j * rng.uniform(0.1, 2.0, size=draws)
    fwd2 = np.zeros((draws, 2, 2), dtype=complex)
    fwd2[:, 0, 0] = -z_kg
    fwd2[:, 1, 1] = -z_kg
    fwd2[:, 0, 1] = a_kg
    fwd2[:, 1, 0] = a_kg
    inv2 = np.zeros((draws, 2, 2), dtype=complex)
    inv2[:, 0, 0] = -z_kg
    inv2[:, 1, 1] = -z_kg
    inv2[:, 0, 1] = -a_kg
    inv2[:, 1, 0] = -a_kg
    inv2 /= (z_kg**2 - a_kg**2)[:, None, None]
    prod2 = np.einsum("bij,bjk->bik", fwd2, inv2) - np.eye(2)
    worst2 = np.max(np.linalg.svd(prod2, compute_uv=False)[:, 0])
    assert worst2 <= 1e-13
    _report(8, "tensor identities", started, 30)


def test_criterion_09_adiabatic_law():
    started = time.monotonic()
    a = np.diag([0.0, 1.0]).astype(complex)
    b = 0.2 * np.array([[0, 1], [1, 0]], dtype=complex)
    sched = evolution.ramped_schedule(a, b, "smoothstep")
    etas = (50.0, 100.0, 200.0, 400.0)
    errs = []
    for eta in etas:
        res = evolution.adiabatic_evolve(sched, eta, 0, evolution.TimeGrid(int(48 * eta)))
        errs.append(res.error_vs_eigenpath)
    slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
    assert -1.3 <= slope <= -0.7

    r1 = evolution.adiabatic_evolve(sched, 100.0, 0, evolution.TimeGrid(4800))
    r2 = evolution.adiabatic_evolve(sched, 100.0, 0, evolution.TimeGrid(9600))
    assert abs(r1.error_vs_eigenpath - r2.error_vs_eigenpath) <= 0.05 * r2.error_vs_eigenpath
    _report(9, "adiabatic law", started, 60)


def test_criterion_10_oscillator_demo():
    started = time.monotonic()
    # Gaussian-moment oracle by quadrature
    x = np.linspace(-10.0, 10.0, 40001)
    w = np.exp(-(x**2))
    moment = np.trapezoid(x**4 * w, x) / np.trapezoid(w, x)
    assert moment == pytest.approx(0.75, abs=1e-12)

    out = spectral.harmonic_oscillator_demo(400, 0.01)
    assert abs(out["quartic_first_order"] - moment) <= 0.02 * moment
    _report(10, "oscillator demo", started, 10)
