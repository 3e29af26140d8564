"""Command-line front end: experiment orchestration and CSV reports.

Every command echoes its configuration and seed, emits rows with explicit
tolerance/oracle columns, and exits nonzero when a checked identity fails
or an input is invalid.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import evolution, matcore, resolvent, scattering, spectral, symdiag, tensor
from .errors import PertkitError
from .iotools import load_matrix, load_model, load_schedule, parse_state
from .reporting import Report


#: namespace attributes that are not echoed in the ``# config:`` header
_NOT_ECHOED = ("command", "seed", "out", "quiet", "timestamp", "run")


def _report(ns, columns) -> Report:
    ts = datetime.now(timezone.utc).isoformat() if ns.timestamp else None
    return Report(
        command=ns.command,
        config={k: v for k, v in vars(ns).items() if k not in _NOT_ECHOED and v is not None},
        seed=ns.seed,
        columns=list(columns),
        timestamp=ts,
    )


# ---------------------------------------------------------------------------
# command implementations: one runner per leaf subcommand, reading the parsed
# namespace; argparse holds every default


def _run_resolvent(ns) -> Report:
    a = load_matrix(ns.a)
    b = load_matrix(ns.b)
    order = ns.order
    matcore.check_order(order, "order")  # series_terms takes order + 1, which -1 would pass
    rep = _report(ns, ["order", "term_norm", "partial_residual", "remainder_norm", "identity_residual", "tolerance"])
    series = resolvent.series_terms(a, b, order + 1)
    # every exact remainder (-1)^k (A^{-1} B)^k (A+B)^{-1} from one inverse and one solve
    inv = matcore.inverse(a + b)
    y = matcore.solve(a, b) if order else None
    inv_norm = matcore.op_norm(inv)
    tol = 1e-10 * inv_norm
    worst = 0.0
    for k in range(order + 1):
        partial = series.partial_sum(k)
        rem = (-1) ** k * np.linalg.matrix_power(y, k) @ inv if k else inv
        ident = matcore.op_norm(partial + rem - inv)
        worst = max(worst, ident)
        rep.add_row(
            k,
            matcore.op_norm(series.terms[k]),
            matcore.op_norm(partial - inv),
            matcore.op_norm(rem),
            ident,
            tol,
        )
    rep.check("exact_remainder_identity", worst, tol)
    rep.config["ratio"] = series.ratio
    rep.config["convergent"] = series.convergent

    if ns.tau is not None and ns.entry is not None:
        i, j = ns.entry
        quad = resolvent.SimplexQuadrature(method="monte-carlo", samples_or_depth=20000, seed=ns.seed)
        entry = resolvent.feynman_parameter_entry(a, b, i, j, ns.tau, order, quad)
        direct = matcore.inverse(a + b + 1j * ns.tau * np.eye(a.shape[0]))[i, j]
        tail = series.ratio ** (order + 1) if np.isfinite(series.ratio) else 0.0
        rep.check(
            "feynman_parameter_vs_inverse",
            abs(entry.value - direct),
            max(1e-6, 3.0 * entry.std_error + tail),
        )
        rep.config["feynman_value"] = entry.value
        rep.config["feynman_std_error"] = entry.std_error
    return rep


def _run_eig_perturb(ns) -> Report:
    a = load_matrix(ns.a)
    b = load_matrix(ns.b)
    i, order = ns.index, ns.order
    dec = matcore.eig_hermitian(matcore.require_hermitian(a, what="A"))
    contour = None
    if ns.contour_points is not None:
        contour = spectral.default_contour(dec.eigenvalues, i, num_points=ns.contour_points)
    series = spectral.eigenvalue_coefficients(dec, b, i, order, contour=contour)
    rep = _report(ns, ["k", "coefficient", "oracle", "residual", "tolerance"])

    oracles = {}  # closed forms for diagonal A, at the diagonal position d of level i
    if matcore.is_diagonal(a):
        lam = np.real(np.diagonal(a))
        d = int(np.argmin(np.abs(lam - dec.eigenvalues[i])))
        mask = np.arange(lam.size) != d
        oracles = {
            1: ("first_order_diagonal", lambda: float(np.real(b[d, d])), 1e-9),
            2: ("second_order_diagonal", lambda: float(np.sum(np.abs(b[d, mask]) ** 2 / (lam[d] - lam[mask]))), 1e-9),
            4: ("fourth_order_closed_form", lambda: spectral.lambda4_closed_form(a, b, d), 1e-7),
        }
    for k, coeff in enumerate(series.coefficients):
        oracle = residual = tol = ""
        if k in oracles:
            name, value, tol = oracles[k]
            oracle = value()
            residual = abs(coeff - oracle)
            rep.check(name, residual, tol)
        rep.add_row(k, float(coeff), oracle, residual, tol)
    return rep


def _run_dyson(ns) -> Report:
    a = load_matrix(ns.a)
    b = load_matrix(ns.b)
    t, orders = ns.t, ns.orders
    rep = _report(ns, ["order", "exp_defect", "exp_budget", "dyson_defect", "dyson_budget"])
    na, nb = matcore.op_norm(a), matcore.op_norm(b)
    exp_terms = evolution.exp_series_terms(a, b, t, orders)
    dyson_terms = evolution.dyson_terms(a, b, t, orders)
    exact_exp = matcore.expm(t * (a + b))
    exact_dyson = matcore.expm(1j * t * a) @ matcore.expm(-1j * t * (a + b))
    ratios = []
    for k in range(orders + 1):
        exp_defect = matcore.op_norm(sum(exp_terms[: k + 1]) - exact_exp)
        dys_defect = matcore.op_norm(sum(dyson_terms[: k + 1]) - exact_dyson)
        budget = evolution.remainder_bound(t, na, nb, k + 1) + 1e-8
        ratios += [exp_defect / budget, dys_defect / budget]
        rep.add_row(k, exp_defect, budget, dys_defect, budget)
    # the worst defect/budget ratio shows the margin; np.max keeps a NaN failing
    rep.check("defects_within_budgets", np.max(ratios), 1.0)
    return rep


def _run_adiabatic(ns) -> Report:
    a, b, ramp = load_schedule(ns.schedule)
    sched = evolution.ramped_schedule(a, b, ramp)
    etas = ns.eta_list
    matcore.check_positive(ns.steps_per_eta, "steps_per_eta")
    rep = _report(ns, ["eta", "error_vs_eigenpath", "tracked_phase", "steps"])
    errors = []
    for eta in etas:
        matcore.check_positive(eta, "eta")  # before it sizes the grid
        steps = max(64, int(ns.steps_per_eta * eta))
        res = evolution.adiabatic_evolve(sched, eta, ns.index, evolution.TimeGrid(steps))
        errors.append(res.error_vs_eigenpath)
        rep.add_row(eta, res.error_vs_eigenpath, res.tracked_phase, steps)
    if len(etas) >= 3:
        slope = np.polyfit(np.log(etas), np.log(errors), 1)[0]
        rep.config["log_slope"] = float(slope)
        rep.check("adiabatic_slope_in_window", abs(slope + 1.0), 0.3)
    return rep


def _run_scatter(ns) -> Report:
    a = load_matrix(ns.a)
    b = load_matrix(ns.b)
    q = scattering.ScatteringQuery(i=ns.i, j=ns.j, tau=ns.tau)
    order = ns.order
    t_max = max(10.0 / q.tau, 50.0) if ns.t_max is None else ns.t_max
    matcore.check_positive(t_max, "t_max")  # before it sizes the grid
    basis = scattering.reference_basis(a)  # decomposed once: every call below takes it for A
    rep = _report(ns, ["k", "term_re", "term_im", "abs_term"])
    series = scattering.s_series(basis, b, q, order)
    for k, term in enumerate(series.terms):
        rep.add_row(k, term.real, term.imag, abs(term))
    direct = scattering.s_entry_resolvent(basis, b, q)
    rep.config["direct_entry"] = direct
    rep.config["convergent"] = series.convergent
    rep.config["ratio"] = series.ratio
    if series.convergent:
        r = series.ratio
        lam = basis.eigenvalues
        shift = scattering.lambda_shift(lam[q.i], lam[q.j], q.tau)
        shifted_norm = 1.0 / np.min(np.abs(lam - shift))  # ||(A - shift)^{-1}||, A Hermitian
        bound = r ** (order + 1) / (1.0 - r) * q.tau * shifted_norm + 1e-12
        rep.check("series_vs_direct", abs(series.partial_sum() - direct), bound)
    abel = scattering.s_entry_time_average(basis, b, q, t_max, g=int(40 * t_max))
    rep.check("abel_vs_direct", abs(abel - direct), 2.0 * np.exp(-q.tau * t_max) + 1e-5)
    if ns.tau_sweep is not None:
        lo, hi, n = ns.tau_sweep
        matcore.check_positive(lo, "tau_sweep start")
        matcore.check_positive(hi, "tau_sweep stop")
        matcore.check_order(n, "tau_sweep count")
        rep.rows.append(tuple(["#tau-sweep", "", "", ""]))
        for tau in np.geomspace(lo, hi, int(n)):
            val = scattering.s_entry_resolvent(basis, b, scattering.ScatteringQuery(q.i, q.j, float(tau)))
            rep.rows.append((float(tau), val.real, val.imag, abs(val)))
    return rep


def _run_diagrams(ns) -> Report:
    rule = load_model(ns.model)
    i = parse_state(ns.i)
    j = parse_state(ns.j)
    ell, tau = ns.ell, ns.tau
    bop = symdiag.build_interaction(rule, [i, j], depth=max(2, ell))
    groups = symdiag.group_terms_by_diagram(bop, i, j, ell)
    values = symdiag.diagram_values(bop, groups, tau)
    rep = _report(ns, ["diagram", "multiplicity", "value_re", "value_im"])
    total = 0.0 + 0.0j
    for d in sorted(values, key=lambda d: (len(d.lines), d.lines)):
        v = values[d]
        total += v
        rep.add_row(_diagram_str(d), len(groups[d]), v.real, v.imag)
    if ell >= 2:
        a_dense, b_dense = bop.to_dense()
        qq = scattering.ScatteringQuery(i=bop.index[i], j=bop.index[j], tau=tau)
        reference = scattering.s_term_index_sum(a_dense, b_dense, qq, ell)
        rep.check("diagram_partition_identity", abs(total - reference), 1e-11 * max(1.0, abs(reference)))
    rep.config["num_diagrams"] = len(values)
    return rep


def _diagram_str(d: symdiag.Diagram) -> str:
    def endpoint(code, out_code):
        if code == symdiag.EXT_IN:
            return "in"
        if code == out_code:
            return "out"
        return f"d{code}"

    parts = [f"{lbl}:{endpoint(s, d.out_code)}->{endpoint(e, d.out_code)}" for lbl, s, e in d.lines]
    return f"[{d.num_dots}]" + "|".join(parts)


def _run_tensor_conv(ns) -> Report:
    a1 = load_matrix(ns.a1)
    a2 = load_matrix(ns.a2)
    ks = tensor.KroneckerSum(factors=(a1, a2))
    quad = tensor.LineQuadrature(cutoff=ns.cutoff, nodes=ns.nodes)
    conv = tensor.convolution_resolvent(ks, ns.omega, ns.eps, quad)
    total = tensor.kron_sum_materialize(ks)
    exact = matcore.inverse(total - (ns.omega - 2j * ns.eps) * np.eye(total.shape[0]))
    rep = _report(ns, ["quantity", "defect", "tolerance"])
    raw_defect = matcore.op_norm(conv.raw - exact)
    val_defect = matcore.op_norm(conv.value - exact)
    tail = 1.0 / (np.pi * ns.cutoff)
    rep.add_row("raw_trapezoid", raw_defect, max(1e-3, 2.0 * tail))
    rep.add_row("tail_corrected", val_defect, 1e-3)
    rep.check("tail_corrected_defect", val_defect, 1e-3)
    rep.check("raw_defect_within_tail_budget", raw_defect, max(1e-3, 2.0 * tail))
    return rep


def _run_tensor_dirac(ns) -> Report:
    px, py, pz = ns.p
    args = ((px, py, pz), ns.m, ns.z)
    return _block_inverse_report(ns, tensor.dirac_block_inverse(*args), tensor.dirac_block_matrix(*args), 1e-13)


def _run_tensor_kg(ns) -> Report:
    inv, fwd = tensor.klein_gordon_block_inverse(ns.a, ns.z), tensor.klein_gordon_block_matrix(ns.a, ns.z)
    return _block_inverse_report(ns, inv, fwd, 1e-14)


def _block_inverse_report(ns, inv, fwd, tol) -> Report:
    rep = _report(ns, ["entry_row", "entry_col", "re", "im"])
    n = inv.shape[0]
    for r in range(n):
        for c in range(n):
            rep.add_row(r, c, inv[r, c].real, inv[r, c].imag)
    rep.check("product_residual", matcore.op_norm(fwd @ inv - np.eye(n)), tol)
    return rep


def _run_demo_oscillator(ns) -> Report:
    out = spectral.harmonic_oscillator_demo(ns.grid_size, ns.epsilon, ns.eta)
    rep = _report(ns, ["quantity", "value", "oracle", "tolerance"])
    rep.add_row("ground_energy", out["ground_energy"], 1.0, "grid-dependent")
    rep.add_row("quartic_first_order", out["quartic_first_order"], out["gaussian_moment"], 0.02 * 0.75)
    rep.add_row("split_first_order", out["split_first_order"], "", "")
    rep.check("quartic_vs_gaussian_moment", abs(out["quartic_first_order"] - 0.75), 0.02 * 0.75)
    return rep


def _run_demo_born(ns) -> Report:
    f = lambda mom: mom**2
    v = lambda x: np.exp(-0.5 * (x - 2.0) ** 2)  # a unit Gaussian bump centred at 2
    s1, closed = scattering.born_demo(ns.sites, f, v, ns.p, ns.q, ns.tau)
    rep = _report(ns, ["quantity", "re", "im"])
    rep.add_row("series_first_order", s1.real, s1.imag)
    rep.add_row("fourier_closed_form", closed.real, closed.imag)
    rep.check("series_vs_fourier", abs(s1 - closed), 1e-10)
    return rep


def _run_demo_rutherford(ns) -> Report:
    def shell_sum(z, tau):
        return scattering.rutherford_demo(ns.grid_radius, z, ns.p0, ns.q0, ns.eps_shell, tau)

    val = shell_sum(ns.z, ns.tau)
    val2 = shell_sum(2.0 * ns.z, ns.tau)
    half_tau = shell_sum(ns.z, ns.tau / 2.0)
    rep = _report(ns, ["quantity", "value", "oracle", "tolerance"])
    rep.add_row("shell_sum", val, "", "")
    rep.add_row("doubled_charge", val2, 4.0 * val, 0.0)
    rep.add_row("halved_tau_ratio", half_tau / val, 2.0, 0.3)
    rep.check("charge_square_law", abs(val2 - 4.0 * val), 0.0)
    return rep


def _run_demo_three_particle(ns) -> Report:
    mom = ns.momentum
    i = symdiag.MultisetState.of(("a", (mom,)), ("b", (-mom,)))
    j = symdiag.MultisetState.of(("a", (-mom,)), ("b", (mom,)))
    report = symdiag.three_particle_demo((1, ns.grid_radius), ns.ma, ns.mb, ns.mc, i, j, ns.tau)
    rep = _report(ns, ["row", "state", "product_re", "denominator_re", "denominator_im"])
    for row in report.rows:
        rep.add_row(row.label, str(row.state), row.product.real, row.denominator.real, row.denominator.imag)
    rep.config["assembled"] = report.assembled
    rep.config["paired_closed_form"] = report.paired_closed_form
    rep.check("assembled_vs_paired", report.pairing_residual, 1e-9 * max(1.0, abs(report.assembled)))
    return rep


# ---------------------------------------------------------------------------
# argument parsing


def _pair(text: str):
    a, b = text.split(",")
    return int(a), int(b)


def _floats(text: str):
    return tuple(float(x) for x in text.split(","))


def _complex(text: str):
    return complex(*_floats(text))


def _sweep(text: str):
    lo, hi, n = text.split(":")
    return float(lo), float(hi), int(n)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pertkit", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write the CSV report to this path")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--timestamp", action="store_true", help="include a timestamp header")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("resolvent")
    s.set_defaults(run=_run_resolvent)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--tau", type=float, default=None)
    s.add_argument("--entry", type=_pair, default=None)

    s = sub.add_parser("eig-perturb")
    s.set_defaults(run=_run_eig_perturb)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--contour-points", type=int, default=None)

    s = sub.add_parser("dyson")
    s.set_defaults(run=_run_dyson)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--orders", type=int, required=True)

    s = sub.add_parser("adiabatic")
    s.set_defaults(run=_run_adiabatic)
    s.add_argument("--schedule", required=True)
    s.add_argument("--eta-list", type=_floats, required=True)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--steps-per-eta", type=int, default=48)

    s = sub.add_parser("scatter")
    s.set_defaults(run=_run_scatter)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--j", type=int, required=True)
    s.add_argument("--tau", type=float, required=True)
    s.add_argument("--order", type=int, default=6)
    s.add_argument("--tau-sweep", type=_sweep, default=None)
    s.add_argument("--t-max", type=float, default=None)

    s = sub.add_parser("diagrams")
    s.set_defaults(run=_run_diagrams)
    s.add_argument("--model", required=True)
    s.add_argument("--i", required=True)
    s.add_argument("--j", required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--tau", type=float, required=True)

    s = sub.add_parser("tensor")
    tsub = s.add_subparsers(dest="tensor_command", required=True)
    tc = tsub.add_parser("conv")
    tc.set_defaults(run=_run_tensor_conv)
    tc.add_argument("--a1", required=True)
    tc.add_argument("--a2", required=True)
    tc.add_argument("--omega", type=float, required=True)
    tc.add_argument("--eps", type=float, required=True)
    tc.add_argument("--cutoff", type=float, required=True)
    tc.add_argument("--nodes", type=int, default=20001)
    td = tsub.add_parser("dirac")
    td.set_defaults(run=_run_tensor_dirac)
    td.add_argument("--p", type=_floats, required=True, help="px,py,pz")
    td.add_argument("--m", type=float, required=True)
    td.add_argument("--z", type=_complex, required=True, help="re,im")
    tk = tsub.add_parser("kg")
    tk.set_defaults(run=_run_tensor_kg)
    tk.add_argument("--a", type=float, required=True)
    tk.add_argument("--z", type=_complex, required=True, help="re,im")

    s = sub.add_parser("demo")
    dsub = s.add_subparsers(dest="demo_command", required=True)
    dh = dsub.add_parser("harmonic-oscillator")
    dh.set_defaults(run=_run_demo_oscillator)
    dh.add_argument("--grid-size", type=int, default=400)
    dh.add_argument("--epsilon", type=float, default=0.01)
    dh.add_argument("--eta", type=float, default=0.0)
    db = dsub.add_parser("born")
    db.set_defaults(run=_run_demo_born)
    db.add_argument("--sites", type=int, default=32)
    db.add_argument("--p", type=int, default=3)
    db.add_argument("--q", type=int, default=5)
    db.add_argument("--tau", type=float, default=0.1)
    dr = dsub.add_parser("rutherford")
    dr.set_defaults(run=_run_demo_rutherford)
    dr.add_argument("--grid-radius", type=int, default=8)
    dr.add_argument("--z", type=float, default=2.0)
    dr.add_argument("--p0", type=_floats, default=(3.0, 2.0, 1.0))
    dr.add_argument("--q0", type=_floats, default=(1.0, 2.0, 3.0))
    dr.add_argument("--eps-shell", type=float, default=2.5)
    dr.add_argument("--tau", type=float, default=0.4)
    dt = dsub.add_parser("three-particle")
    dt.set_defaults(run=_run_demo_three_particle)
    dt.add_argument("--ma", type=float, default=1.0)
    dt.add_argument("--mb", type=float, default=2.0)
    dt.add_argument("--mc", type=float, default=0.5)
    dt.add_argument("--tau", type=float, default=1e-3)
    dt.add_argument("--momentum", type=int, default=1)
    dt.add_argument("--grid-radius", type=int, default=2)
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        report = ns.run(ns)
    except PertkitError as exc:
        print(f"error[{exc.exit_code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    text = report.to_csv()
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    if not ns.quiet and not ns.out:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
