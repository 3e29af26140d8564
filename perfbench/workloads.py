"""Seeded inputs and job lists for the benchmark workloads.

A workload is a fixed list of job shapes (command, matrix size, order).  The
seed draws the matrix entries, the masses and the order in which the jobs run,
never the shapes, so one pass does the same amount of work on every seed.
The program only ever sees the JSON files written here and the CLI arguments.
Each file is written as soon as it is drawn, and matrices are written row by
row, so the benchmark process keeps no copy of the inputs besides the small
library-call matrices; the oracles read the larger ones back after the timed
passes.

This module imports :mod:`pertkit` lazily, inside the library calls, so that
the benchmark can time the package import on its own.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import (
    eigenvalue_fit_oracle,
    projection_oracle,
    unitarity_defect_oracle,
)

WORKLOADS = ("dense-spectral", "time-evolution", "diagram-enumeration")


@dataclass
class Job:
    """One unit of work: a ``pertkit`` CLI invocation or a library call.

    ``argv`` is run through ``pertkit.cli.main`` after a global ``--out``;
    ``call`` returns ``(body_bytes, value)`` for calls no CLI command
    reaches.  ``oracle`` receives the CSV text (CLI) or the value (library)
    and returns ``None`` when the output agrees, else a message.
    """

    label: str
    kind: str
    argv: list | None = None
    call: Callable | None = None
    oracle: Callable | None = None
    weight: float = 0.0  # rough relative cost; the lightest job of a kind warms it up


@dataclass
class Workload:
    jobs: list
    input_sha256: str  # over the names and bytes of the input files


# ---------------------------------------------------------------------------
# matrix instances


def _matrix_json_chunks(m):
    """The bytes of ``json.dumps`` of pertkit's matrix format, one row at a time."""
    m = np.asarray(m, dtype=complex)
    yield f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "data": ['
    for r, row in enumerate(m):
        pairs = np.stack([row.real, row.imag], axis=1).tolist()
        yield (", " if r else "") + json.dumps(pairs)[1:-1]
    yield "]}"


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _hermitian(rng, n, norm):
    """Random Hermitian matrix scaled to spectral norm ``norm``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    return h * (norm / np.linalg.norm(h, 2))


def _spread_spectrum(rng, n, lo, hi):
    """Sorted eigenvalues in ``[lo, hi]`` whose gaps vary by at most 2x."""
    gaps = 1.0 + rng.uniform(size=n - 1)
    vals = np.concatenate([[0.0], np.cumsum(gaps)])
    return lo + (hi - lo) * vals / vals[-1]


def _with_spectrum(rng, lam, diagonal):
    if diagonal:
        return np.diag(lam).astype(complex)
    u = _unitary(rng, lam.size)
    a = (u * lam) @ u.conj().T
    return (a + a.conj().T) / 2.0


class _Builder:
    """Writes input files and collects jobs for one workload directory."""

    def __init__(self, name, seed, workdir):
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.jobs = []
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        os.makedirs(workdir, exist_ok=True)

    def _write(self, rel, chunks):
        path = os.path.join(self.workdir, rel)
        self.digest.update(rel.encode() + b"\0")
        with open(path, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode()
                self.digest.update(data)
                fh.write(data)
        return path

    def matrix(self, stem, m):
        return self._write(f"{stem}.json", _matrix_json_chunks(m))

    def raw(self, rel, obj):
        return self._write(rel, [json.dumps(obj)])

    def cli(self, kind, argv, weight, oracle=None):
        label = f"{len(self.jobs):02d}-{kind}"
        self.jobs.append(Job(label=label, kind=kind, argv=argv, oracle=oracle, weight=weight))

    def lib(self, kind, call, weight, oracle):
        label = f"{len(self.jobs):02d}-{kind}"
        self.jobs.append(Job(label=label, kind=kind, call=call, oracle=oracle, weight=weight))

    def finish(self):
        order = self.rng.permutation(len(self.jobs))
        return Workload([self.jobs[k] for k in order], self.digest.hexdigest())


# ---------------------------------------------------------------------------
# dense-spectral: few calls on large n, bound by O(n^3) BLAS work


def _dense_spectral(wb: _Builder):
    rng = wb.rng
    # eig-perturb on diagonal A: the CLI checks orders 1, 2 and 4 in closed form
    for n, order, points in ((16, 6, 64), (64, 4, 64), (256, 2, 32)):
        lam = _spread_spectrum(rng, n, 0.0, float(n))
        a = wb.matrix(f"eigd{n}_a", _with_spectrum(rng, lam, diagonal=True))
        b = wb.matrix(f"eigd{n}_b", _hermitian(rng, n, 0.2))
        i = int(rng.integers(1, n - 1))
        wb.cli("eig-perturb", ["eig-perturb", "--a", a, "--b", b, "--index", str(i),
                               "--order", str(order), "--contour-points", str(points)],
               weight=n**3 * order)
    # eig-perturb on non-diagonal A: checked by the benchmark's eigvalsh fit
    for n, order, points in ((16, 6, 64), (64, 3, 64), (256, 2, 32)):
        lam = _spread_spectrum(rng, n, 0.0, float(n))
        a = wb.matrix(f"eign{n}_a", _with_spectrum(rng, lam, diagonal=False))
        b = wb.matrix(f"eign{n}_b", _hermitian(rng, n, 0.2))
        i = int(rng.integers(1, n - 1))
        wb.cli("eig-perturb", ["eig-perturb", "--a", a, "--b", b, "--index", str(i),
                               "--order", str(order), "--contour-points", str(points)],
               weight=n**3 * order,
               oracle=lambda text, a=a, b=b, i=i, order=order: eigenvalue_fit_oracle(text, a, b, i, order))
    # scatter with a tau sweep: spectrum in [-1, 1] keeps the Abel quadrature accurate
    for n in (16, 64, 256):
        lam = _spread_spectrum(rng, n, -1.0, 1.0)
        a = wb.matrix(f"sc{n}_a", _with_spectrum(rng, lam, diagonal=n != 64))
        b = wb.matrix(f"sc{n}_b", _hermitian(rng, n, 0.1))
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        wb.cli("scatter", ["scatter", "--a", a, "--b", b, "--i", str(i), "--j", str(j),
                           "--tau", "0.5", "--order", "6", "--tau-sweep", "0.2:2.0:6"],
               weight=n**3 * 8)
    # resolvent series with exact remainders; A positive definite so the ratio is defined
    for n in (64, 256):
        lam = _spread_spectrum(rng, n, 1.0, 3.0)
        a = wb.matrix(f"rs{n}_a", _with_spectrum(rng, lam, diagonal=False))
        b = wb.matrix(f"rs{n}_b", _hermitian(rng, n, 0.3))
        wb.cli("resolvent", ["resolvent", "--a", a, "--b", b, "--order", "3"], weight=n**3 * 20)
    # tensor convolution over Kronecker sums of dimension 64 and 256
    for m in (8, 16):
        a1 = wb.matrix(f"tc{m}_a1", _hermitian(rng, m, 1.0))
        a2 = wb.matrix(f"tc{m}_a2", _hermitian(rng, m, 1.0))
        wb.cli("tensor-conv", ["tensor", "conv", "--a1", a1, "--a2", a2, "--omega", "0.3",
                               "--eps", "0.5", "--cutoff", "2000", "--nodes", "200001"],
               weight=m**4)
    wb.cli("demo-oscillator", ["demo", "harmonic-oscillator", "--grid-size", "160",
                               "--epsilon", "0.01"], weight=1)

    # library calls no CLI command reaches (ROADMAP item 1 targets)
    for n, order in ((16, 3), (32, 2)):
        lam = _spread_spectrum(rng, n, 0.0, float(n))
        am = _with_spectrum(rng, lam, diagonal=False)
        bm = _hermitian(rng, n, 0.2)
        i = int(rng.integers(1, n - 1))
        wb.lib("projection", _projection_call(am, bm, i, order), weight=n**3 * order,
               oracle=lambda series, am=am, bm=bm, i=i: projection_oracle(series, am, bm, i))
    for n in (16, 32):
        lam = _spread_spectrum(rng, n, -1.0, 1.0)
        am = _with_spectrum(rng, lam, diagonal=False)
        bm = _hermitian(rng, n, 0.1)
        wb.lib("unitarity", _unitarity_call(am, bm, 0.5), weight=n**5,
               oracle=lambda value, am=am, bm=bm: unitarity_defect_oracle(value, am, bm, 0.5))


def _projection_call(a, b, i, order):
    lam = np.linalg.eigvalsh(a)
    center, radius = complex(lam[i]), min(lam[i] - lam[i - 1], lam[i + 1] - lam[i]) / 2.0

    def call():
        from pertkit import matcore, spectral

        contour = matcore.ContourSpec(center=center, radius=radius, num_points=64)
        series = spectral.projection_coefficients(a, b, contour, order)
        return b"".join(np.ascontiguousarray(c).tobytes() for c in series.coefficients), series

    return call


def _unitarity_call(a, b, tau):
    def call():
        from pertkit import scattering

        value = scattering.s_matrix_unitarity_defect(a, b, tau)
        return repr(value).encode(), value

    return call


# ---------------------------------------------------------------------------
# time-evolution: thousands of steps on tiny matrices


ETA_LIST = (10.0, 20.0, 40.0)
#: RK4 at the CLI's 48 steps per unit eta keeps the per-step norm drift below
#: the stepper's 1e-6 limit only while ``max |eig H(t)|`` stays below about 11
#: (in units of the minimum gap, where eta is measured).
MAX_RADIUS_OVER_GAP = 8.0


def _path_spectrum(a, b, ramp):
    """Minimum ground-state gap and largest |eigenvalue| of ``A + f(t) B``."""
    f = {"linear": lambda t: t, "smoothstep": lambda t: t * t * (3.0 - 2.0 * t)}[ramp]
    w = np.array([np.linalg.eigvalsh(a + f(t) * b) for t in np.linspace(0.0, 1.0, 201)])
    return float(np.min(w[:, 1] - w[:, 0])), float(np.max(np.abs(w)))


def _adiabatic_instance(rng, n, ramp):
    """Traceless ``A``, ``B`` scaled so the minimum gap along the path is 1.

    Scaling ``H`` by ``1/gap`` is the same as scaling eta by ``1/gap``, so
    eta is in units of the instance's gap and the number of steps (48 per
    unit eta) is the same on every seed.  Draws whose scaled spectrum is too
    wide for that step size are redrawn from the same stream: the stepper
    would refuse them before doing any work.
    """
    for _ in range(1000):
        a = _hermitian(rng, n, 1.0)
        b = _hermitian(rng, n, 1.0)
        a -= np.trace(a).real / n * np.eye(n)
        b -= np.trace(b).real / n * np.eye(n)
        gap, radius = _path_spectrum(a, b, ramp)
        if radius <= MAX_RADIUS_OVER_GAP * gap:
            return a / gap, b / gap
    raise RuntimeError(f"no adiabatic instance for n={n}, {ramp} ramp")


def _time_evolution(wb: _Builder):
    rng = wb.rng
    eta_arg = ",".join(repr(e) for e in ETA_LIST)
    for n, ramp in ((2, "linear"), (4, "smoothstep"), (8, "linear"), (4, "linear"),
                    (2, "smoothstep"), (8, "smoothstep")):
        a, b = _adiabatic_instance(rng, n, ramp)
        stem = f"ad{len(wb.jobs):02d}_n{n}_{ramp}"
        wb.matrix(f"{stem}_a", a)
        wb.matrix(f"{stem}_b", b)
        sched = wb.raw(f"{stem}.json", {"a": f"{stem}_a.json", "b": f"{stem}_b.json", "ramp": ramp})
        wb.cli("adiabatic", ["adiabatic", "--schedule", sched, "--eta-list", eta_arg, "--index", "0"],
               weight=n)
    for n, orders in ((8, 6), (16, 7), (32, 8), (8, 8), (16, 6), (32, 7)):
        a = wb.matrix(f"dy{len(wb.jobs):02d}_a", _hermitian(rng, n, 1.0))
        b = wb.matrix(f"dy{len(wb.jobs):02d}_b", _hermitian(rng, n, 0.5))
        wb.cli("dyson", ["dyson", "--a", a, "--b", b, "--t", "1.0", "--orders", str(orders)],
               weight=n**3 * orders)


# ---------------------------------------------------------------------------
# diagram-enumeration: pure-Python enumeration with almost no dense work


def _diagram_enumeration(wb: _Builder):
    rng = wb.rng
    for radius, ell in ((1, 2), (1, 3), (2, 2), (1, 3)):
        masses = rng.uniform(0.5, 2.0, size=3)
        model = wb.raw(f"model{len(wb.jobs):02d}.json", {
            "species": [{"name": s, "mass": float(m)} for s, m in zip("abc", masses)],
            "grid": {"dim": 1, "radius": radius},
        })
        wb.cli("diagrams", ["diagrams", "--model", model, "--i", "a:1,b:-1", "--j", "a:-1,b:1",
                            "--ell", str(ell), "--tau", "0.1"], weight=radius * 10 + ell)
    for _ in range(2):
        ma, mb, mc = (f"{x:.6f}" for x in rng.uniform(0.5, 2.0, size=3))
        wb.cli("demo-three-particle", ["demo", "three-particle", "--ma", ma, "--mb", mb, "--mc", mc,
                                       "--grid-radius", "2"], weight=1)
    for n, order in ((6, 3), (6, 4), (10, 3), (8, 3)):
        lam = _spread_spectrum(rng, n, 1.0, 3.0)
        a = wb.matrix(f"fp{len(wb.jobs):02d}_a", np.diag(lam).astype(complex))
        b = wb.matrix(f"fp{len(wb.jobs):02d}_b", _hermitian(rng, n, 0.3))
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        wb.cli("resolvent-feynman", ["resolvent", "--a", a, "--b", b, "--order", str(order),
                                     "--tau", "0.5", "--entry", f"{i},{j}"], weight=n**order)


_BUILDERS = {
    "dense-spectral": _dense_spectral,
    "time-evolution": _time_evolution,
    "diagram-enumeration": _diagram_enumeration,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the input files of workload ``name`` for ``seed``; return its jobs."""
    wb = _Builder(name, seed, workdir)
    _BUILDERS[name](wb)
    return wb.finish()

