"""Command-line front end: experiment orchestration and CSV reports.

Every command echoes its configuration and seed, emits rows with explicit
tolerance/oracle columns, and exits nonzero when a checked identity fails
or an input is invalid.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import evolution, matcore, resolvent, scattering, spectral, symdiag, tensor
from .errors import PertkitError
from .iotools import load_matrix, load_model, load_schedule, parse_state
from .reporting import Report


@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int = 0
    out: str | None = None
    quiet: bool = False
    timestamp: bool = False


def _report(config: RunConfig, columns) -> Report:
    ts = datetime.now(timezone.utc).isoformat() if config.timestamp else None
    return Report(
        command=config.command,
        config={k: v for k, v in config.params.items()},
        seed=config.seed,
        columns=list(columns),
        timestamp=ts,
    )


# ---------------------------------------------------------------------------
# command implementations


def _run_resolvent(config: RunConfig) -> Report:
    p = config.params
    a = load_matrix(p["a"])
    b = load_matrix(p["b"])
    order = p["order"]
    rep = _report(config, ["order", "term_norm", "partial_residual", "remainder_norm", "identity_residual", "tolerance"])
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

    if p.get("tau") is not None and p.get("entry") is not None:
        i, j = p["entry"]
        quad = resolvent.SimplexQuadrature(method="monte-carlo", samples_or_depth=20000, seed=config.seed)
        entry = resolvent.feynman_parameter_entry(a, b, i, j, p["tau"], order, quad)
        direct = matcore.inverse(a + b + 1j * p["tau"] * np.eye(a.shape[0]))[i, j]
        tail = series.ratio ** (order + 1) if np.isfinite(series.ratio) else 0.0
        rep.check(
            "feynman_parameter_vs_inverse",
            abs(entry.value - direct),
            max(1e-6, 3.0 * entry.std_error + tail),
        )
        rep.config["feynman_value"] = entry.value
        rep.config["feynman_std_error"] = entry.std_error
    return rep


def _run_eig_perturb(config: RunConfig) -> Report:
    p = config.params
    a = load_matrix(p["a"])
    b = load_matrix(p["b"])
    i, order = p["index"], p["order"]
    dec = matcore.eig_hermitian(matcore.require_hermitian(a, what="A"))
    contour = None
    if p.get("contour_points"):
        contour = spectral.default_contour(dec.eigenvalues, i, num_points=p["contour_points"])
    series = spectral.eigenvalue_coefficients(dec, b, i, order, contour=contour)
    rep = _report(config, ["k", "coefficient", "oracle", "residual", "tolerance"])

    is_diag = matcore.is_diagonal(a)
    lam = np.real(np.diagonal(a))
    for k, coeff in enumerate(series.coefficients):
        oracle = ""
        residual = ""
        tol = ""
        if is_diag and k == 1:
            oracle = float(np.real(b[i, i]))
            residual = abs(coeff - oracle)
            tol = 1e-9
            rep.check("first_order_diagonal", residual, tol)
        elif is_diag and k == 2:
            mask = np.arange(lam.size) != i
            oracle = float(np.sum(np.abs(b[i, mask]) ** 2 / (lam[i] - lam[mask])))
            residual = abs(coeff - oracle)
            tol = 1e-9
            rep.check("second_order_diagonal", residual, tol)
        elif is_diag and k == 4:
            oracle = spectral.lambda4_closed_form(a, b, i)
            residual = abs(coeff - oracle)
            tol = 1e-7
            rep.check("fourth_order_closed_form", residual, tol)
        rep.add_row(k, float(coeff), oracle, residual, tol)
    return rep


def _run_dyson(config: RunConfig) -> Report:
    p = config.params
    a = load_matrix(p["a"])
    b = load_matrix(p["b"])
    t, orders = p["t"], p["orders"]
    rep = _report(config, ["order", "exp_defect", "exp_budget", "dyson_defect", "dyson_budget"])
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


def _run_adiabatic(config: RunConfig) -> Report:
    p = config.params
    a, b, ramp = load_schedule(p["schedule"])
    sched = evolution.ramped_schedule(a, b, ramp)
    i = p["index"]
    etas = p["eta_list"]
    steps_per_eta = p.get("steps_per_eta", 48)
    rep = _report(config, ["eta", "error_vs_eigenpath", "tracked_phase", "steps"])
    errors = []
    for eta in etas:
        steps = max(64, int(steps_per_eta * eta))
        res = evolution.adiabatic_evolve(sched, eta, i, evolution.TimeGrid(1.0, steps))
        errors.append(res.error_vs_eigenpath)
        rep.add_row(eta, res.error_vs_eigenpath, res.tracked_phase, steps)
    if len(etas) >= 3:
        slope = np.polyfit(np.log(etas), np.log(errors), 1)[0]
        rep.config["log_slope"] = float(slope)
        rep.check("adiabatic_slope_in_window", abs(slope + 1.0), 0.3)
    return rep


def _run_scatter(config: RunConfig) -> Report:
    p = config.params
    a = load_matrix(p["a"])
    b = load_matrix(p["b"])
    q = scattering.ScatteringQuery(i=p["i"], j=p["j"], tau=p["tau"])
    order = p["order"]
    rep = _report(config, ["k", "term_re", "term_im", "abs_term"])
    series = scattering.s_series(a, b, q, order)
    for k, term in enumerate(series.terms):
        rep.add_row(k, term.real, term.imag, abs(term))
    direct = scattering.s_entry_resolvent(a, b, q)
    rep.config["direct_entry"] = direct
    rep.config["convergent"] = series.convergent
    rep.config["ratio"] = series.ratio
    if series.convergent:
        r = series.ratio
        lam, _ = scattering._eigenbasis(np.asarray(a, dtype=complex))
        shift = scattering.lambda_shift(lam[p["i"]], lam[p["j"]], q.tau)
        shifted_norm = 1.0 / np.min(np.abs(lam - shift))  # ||(A - shift)^{-1}||, A Hermitian
        bound = r ** (order + 1) / (1.0 - r) * q.tau * shifted_norm + 1e-12
        rep.check("series_vs_direct", abs(series.partial_sum() - direct), bound)
    t_max = p.get("t_max", max(10.0 / q.tau, 50.0))
    abel = scattering.s_entry_time_average(a, b, q, t_max, g=int(40 * t_max))
    rep.check("abel_vs_direct", abs(abel - direct), 2.0 * np.exp(-q.tau * t_max) + 1e-5)
    if p.get("tau_sweep"):
        lo, hi, n = p["tau_sweep"]
        rep.rows.append(tuple(["#tau-sweep", "", "", ""]))
        for tau in np.geomspace(lo, hi, int(n)):
            val = scattering.s_entry_resolvent(a, b, scattering.ScatteringQuery(p["i"], p["j"], float(tau)))
            rep.rows.append((float(tau), val.real, val.imag, abs(val)))
    return rep


def _run_diagrams(config: RunConfig) -> Report:
    p = config.params
    rule = load_model(p["model"])
    i = parse_state(p["i"])
    j = parse_state(p["j"])
    ell, tau = p["ell"], p["tau"]
    bop = symdiag.build_interaction(rule, [i, j], depth=max(2, ell))
    values = symdiag.diagram_values(bop, i, j, tau, ell)
    groups = symdiag.group_terms_by_diagram(bop, i, j, ell)
    rep = _report(config, ["diagram", "multiplicity", "value_re", "value_im"])
    total = 0.0 + 0.0j
    for d in sorted(values, key=lambda d: (len(d.lines), d.lines)):
        v = values[d]
        total += v
        rep.add_row(_diagram_str(d), len(groups[d]), v.real, v.imag)
    a_dense, b_dense = bop.to_dense()
    qq = scattering.ScatteringQuery(i=bop.index[i], j=bop.index[j], tau=tau)
    if ell >= 2:
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


def _run_tensor(config: RunConfig) -> Report:
    p = config.params
    sub = p["tensor_command"]
    if sub == "conv":
        a1 = load_matrix(p["a1"])
        a2 = load_matrix(p["a2"])
        ks = tensor.KroneckerSum(factors=(a1, a2))
        quad = tensor.LineQuadrature(cutoff=p["cutoff"], nodes=p.get("nodes", 20001))
        conv = tensor.convolution_resolvent(ks, p["omega"], p["eps"], quad)
        total = tensor.kron_sum_materialize(ks)
        exact = matcore.inverse(total - (p["omega"] - 2j * p["eps"]) * np.eye(total.shape[0]))
        rep = _report(config, ["quantity", "defect", "tolerance"])
        raw_defect = matcore.op_norm(conv.raw - exact)
        val_defect = matcore.op_norm(conv.value - exact)
        tail = 1.0 / (np.pi * p["cutoff"])
        rep.add_row("raw_trapezoid", raw_defect, max(1e-3, 2.0 * tail))
        rep.add_row("tail_corrected", val_defect, 1e-3)
        rep.check("tail_corrected_defect", val_defect, 1e-3)
        rep.check("raw_defect_within_tail_budget", raw_defect, max(1e-3, 2.0 * tail))
        return rep
    if sub in ("dirac", "kg"):
        if sub == "dirac":
            px, py, pz = p["p"]
            args, tol = ((px, py, pz), p["m"], p["z"]), 1e-13
            inv, fwd = tensor.dirac_block_inverse(*args), tensor.dirac_block_matrix(*args)
        else:
            args, tol = (p["a"], p["z"]), 1e-14
            inv, fwd = tensor.klein_gordon_block_inverse(*args), tensor.klein_gordon_block_matrix(*args)
        rep = _report(config, ["entry_row", "entry_col", "re", "im"])
        n = inv.shape[0]
        for r in range(n):
            for c in range(n):
                rep.add_row(r, c, inv[r, c].real, inv[r, c].imag)
        rep.check("product_residual", matcore.op_norm(fwd @ inv - np.eye(n)), tol)
        return rep
    raise PertkitError(f"unknown tensor subcommand {sub!r}")


def _run_demo(config: RunConfig) -> Report:
    p = config.params
    which = p["demo_command"]
    if which == "harmonic-oscillator":
        out = spectral.harmonic_oscillator_demo(p["grid_size"], p["epsilon"], p.get("eta", 0.0))
        rep = _report(config, ["quantity", "value", "oracle", "tolerance"])
        rep.add_row("ground_energy", out["ground_energy"], 1.0, "grid-dependent")
        rep.add_row("quartic_first_order", out["quartic_first_order"], out["gaussian_moment"], 0.02 * 0.75)
        rep.add_row("split_first_order", out["split_first_order"], "", "")
        rep.check("quartic_vs_gaussian_moment", abs(out["quartic_first_order"] - 0.75), 0.02 * 0.75)
        return rep
    if which == "born":
        f = lambda mom: mom**2
        center = p.get("bump_center", 2.0)
        v = lambda x: p.get("strength", 1.0) * np.exp(-0.5 * (x - center) ** 2)
        s1, closed = scattering.born_demo(p["sites"], f, v, p["p"], p["q"], p["tau"])
        rep = _report(config, ["quantity", "re", "im"])
        rep.add_row("series_first_order", s1.real, s1.imag)
        rep.add_row("fourier_closed_form", closed.real, closed.imag)
        rep.check("series_vs_fourier", abs(s1 - closed), 1e-10)
        return rep
    if which == "rutherford":
        val = scattering.rutherford_demo(
            p["grid_radius"], p["z"], p["p0"], p["q0"], p["eps_shell"], p["tau"]
        )
        val2 = scattering.rutherford_demo(
            p["grid_radius"], 2.0 * p["z"], p["p0"], p["q0"], p["eps_shell"], p["tau"]
        )
        half_tau = scattering.rutherford_demo(
            p["grid_radius"], p["z"], p["p0"], p["q0"], p["eps_shell"], p["tau"] / 2.0
        )
        rep = _report(config, ["quantity", "value", "oracle", "tolerance"])
        rep.add_row("shell_sum", val, "", "")
        rep.add_row("doubled_charge", val2, 4.0 * val, 0.0)
        rep.add_row("halved_tau_ratio", half_tau / val, 2.0, 0.3)
        rep.check("charge_square_law", abs(val2 - 4.0 * val), 0.0)
        return rep
    if which == "three-particle":
        mom = p.get("momentum", 1)
        i = symdiag.MultisetState.of(("a", (mom,)), ("b", (-mom,)))
        j = symdiag.MultisetState.of(("a", (-mom,)), ("b", (mom,)))
        report = symdiag.three_particle_demo(
            (1, p.get("grid_radius", 2)), p["ma"], p["mb"], p["mc"], i, j, p["tau"]
        )
        rep = _report(config, ["row", "state", "product_re", "denominator_re", "denominator_im"])
        for row in report.rows:
            rep.add_row(row.label, str(row.state), row.product.real, row.denominator.real, row.denominator.imag)
        rep.config["assembled"] = report.assembled
        rep.config["paired_closed_form"] = report.paired_closed_form
        rep.check("assembled_vs_paired", report.pairing_residual, 1e-9 * max(1.0, abs(report.assembled)))
        return rep
    raise PertkitError(f"unknown demo {which!r}")


_RUNNERS = {
    "resolvent": _run_resolvent,
    "eig-perturb": _run_eig_perturb,
    "dyson": _run_dyson,
    "adiabatic": _run_adiabatic,
    "scatter": _run_scatter,
    "diagrams": _run_diagrams,
    "tensor": _run_tensor,
    "demo": _run_demo,
}


def run(config: RunConfig) -> Report:
    """Dispatch a validated configuration to its command implementation."""
    try:
        runner = _RUNNERS[config.command]
    except KeyError:
        raise PertkitError(f"unknown command {config.command!r}") from None
    return runner(config)


# ---------------------------------------------------------------------------
# argument parsing


def _pair(text: str):
    a, b = text.split(",")
    return int(a), int(b)


def _floats(text: str):
    return tuple(float(x) for x in text.split(","))


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
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--tau", type=float, default=None)
    s.add_argument("--entry", type=_pair, default=None)

    s = sub.add_parser("eig-perturb")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--contour-points", type=int, default=None)

    s = sub.add_parser("dyson")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--orders", type=int, required=True)

    s = sub.add_parser("adiabatic")
    s.add_argument("--schedule", required=True)
    s.add_argument("--eta-list", type=_floats, required=True)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--steps-per-eta", type=int, default=48)

    s = sub.add_parser("scatter")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--i", type=int, required=True)
    s.add_argument("--j", type=int, required=True)
    s.add_argument("--tau", type=float, required=True)
    s.add_argument("--order", type=int, default=6)
    s.add_argument("--tau-sweep", type=_sweep, default=None)
    s.add_argument("--t-max", type=float, default=None)

    s = sub.add_parser("diagrams")
    s.add_argument("--model", required=True)
    s.add_argument("--i", required=True)
    s.add_argument("--j", required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--tau", type=float, required=True)

    s = sub.add_parser("tensor")
    tsub = s.add_subparsers(dest="tensor_command", required=True)
    tc = tsub.add_parser("conv")
    tc.add_argument("--a1", required=True)
    tc.add_argument("--a2", required=True)
    tc.add_argument("--omega", type=float, required=True)
    tc.add_argument("--eps", type=float, required=True)
    tc.add_argument("--cutoff", type=float, required=True)
    tc.add_argument("--nodes", type=int, default=20001)
    td = tsub.add_parser("dirac")
    td.add_argument("--p", type=_floats, required=True, help="px,py,pz")
    td.add_argument("--m", type=float, required=True)
    td.add_argument("--z", type=_floats, required=True, help="re,im")
    tk = tsub.add_parser("kg")
    tk.add_argument("--a", type=float, required=True)
    tk.add_argument("--z", type=_floats, required=True, help="re,im")

    s = sub.add_parser("demo")
    dsub = s.add_subparsers(dest="demo_command", required=True)
    dh = dsub.add_parser("harmonic-oscillator")
    dh.add_argument("--grid-size", type=int, default=400)
    dh.add_argument("--epsilon", type=float, default=0.01)
    dh.add_argument("--eta", type=float, default=0.0)
    db = dsub.add_parser("born")
    db.add_argument("--sites", type=int, default=32)
    db.add_argument("--p", type=int, default=3)
    db.add_argument("--q", type=int, default=5)
    db.add_argument("--tau", type=float, default=0.1)
    dr = dsub.add_parser("rutherford")
    dr.add_argument("--grid-radius", type=int, default=8)
    dr.add_argument("--z", type=float, default=2.0)
    dr.add_argument("--p0", type=_floats, default=(3.0, 2.0, 1.0))
    dr.add_argument("--q0", type=_floats, default=(1.0, 2.0, 3.0))
    dr.add_argument("--eps-shell", type=float, default=2.5)
    dr.add_argument("--tau", type=float, default=0.4)
    dt = dsub.add_parser("three-particle")
    dt.add_argument("--ma", type=float, default=1.0)
    dt.add_argument("--mb", type=float, default=2.0)
    dt.add_argument("--mc", type=float, default=0.5)
    dt.add_argument("--tau", type=float, default=1e-3)
    dt.add_argument("--momentum", type=int, default=1)
    dt.add_argument("--grid-radius", type=int, default=2)
    return ap


def config_from_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    params = {
        k: v
        for k, v in vars(ns).items()
        if k not in ("command", "seed", "out", "quiet", "timestamp") and v is not None
    }
    if "z" in params and isinstance(params["z"], tuple):
        params["z"] = complex(*params["z"])
    return RunConfig(
        command=ns.command,
        params=params,
        seed=ns.seed,
        out=ns.out,
        quiet=ns.quiet,
        timestamp=ns.timestamp,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
        report = run(config)
    except PertkitError as exc:
        print(f"error[{exc.exit_code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    text = report.to_csv()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    if not config.quiet and not config.out:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
