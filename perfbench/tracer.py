"""Per-layer spans for ``pertkit``, recorded from outside the package.

The tracer replaces every binding of each wrapped public function (the
module attribute and every ``from x import f`` copy in other ``pertkit``
modules) with a wrapper that records a span: name, job id, parent span,
start, end and whether it raised.  Spans stay in memory and are written out
when the run ends.  Cheap helpers called thousands of times per job are
counted instead of spanned.  :meth:`Tracer.uninstall` puts every original
binding back.

A layer is one ``pertkit`` module.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli", "iotools", "reporting", "matcore", "resolvent",
    "spectral", "evolution", "scattering", "symdiag", "tensor",
)

#: Helpers counted, not spanned: one span each would cost more than the call.
COUNTED = (
    "matcore.as_matrix",
    "matcore.as_vector",
    "reporting.fmt",
    "scattering.lambda_shift",
    "symdiag.diagram_of",
)

#: Methods spanned in addition to the public module-level functions.
METHODS = (
    "reporting.Report.to_csv",
    "symdiag.SparseInteraction.to_dense",
)

#: Functions the per-layer metrics name; a rename must fail loudly.
NAMED = (
    "cli.main",
    "iotools.load_matrix",
    "matcore.contour_integrate", "matcore.op_norm", "matcore.herm_defect",
    "matcore.require_hermitian", "matcore.inverse", "matcore.solve",
    "matcore.eig_hermitian", "matcore.expm",
    "spectral.eigenvalue_coefficients", "spectral.projection_coefficients",
    "scattering.s_series", "scattering.s_entry_resolvent", "scattering.s_term_index_sum",
    "evolution.adiabatic_evolve", "evolution.exp_series_terms", "evolution.dyson_terms",
    "symdiag.build_interaction", "symdiag.group_terms_by_diagram",
    "symdiag.diagram_values", "symdiag.tree_solve",
    "resolvent.series_terms", "resolvent.exact_remainder", "resolvent.feynman_parameter_entry",
    "tensor.convolution_resolvent",
) + METHODS

# span record fields
NAME, JOB, PARENT, START, END, ERROR = range(6)


def _module(layer):
    return sys.modules[f"pertkit.{layer}"]


def _resolve(qual):
    """Return ``(owner, attribute, function)`` for ``layer.name`` or
    ``layer.Class.method``; raise ``LookupError`` if it is not a public
    function of that module."""
    layer, *path = qual.split(".")
    owner = _module(layer)
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    fn = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if attr.startswith("_") or not inspect.isfunction(fn) or not fn.__module__.startswith("pertkit."):
        raise LookupError(f"{qual} is not a public pertkit function")
    return owner, attr, fn


def spanned_names():
    """Public module-level functions of every layer, plus :data:`METHODS`,
    minus :data:`COUNTED`."""
    names = []
    for layer in LAYERS:
        mod = _module(layer)
        for attr, fn in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(fn)
            ):
                names.append(f"{layer}.{attr}")
    return sorted(set(names + list(METHODS)) - set(COUNTED))


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = ""
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._hooks = {
            "matcore.contour_integrate": self._count_nodes,
            "iotools.load_matrix": self._count_entries,
            "scattering.s_term_index_sum": self._count_index_tuples,
            "symdiag.build_interaction": self._count_basis,
            "symdiag.group_terms_by_diagram": self._count_paths,
            "symdiag.diagram_values": self._count_diagrams,
            "symdiag.SparseInteraction.to_dense": self._count_dense_bytes,
        }

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for qual in NAMED:
            _resolve(qual)
        for qual in spanned_names():
            self._patch(qual, self._span_wrapper)
        for qual in COUNTED:
            self._patch(qual, self._count_wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, qual, make):
        owner, attr, fn = _resolve(qual)
        wrapper = make(qual, fn)
        if inspect.isclass(owner):
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for mod in [m for name, m in sys.modules.items() if name == "pertkit" or name.startswith("pertkit.")]:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def _count_wrapper(self, qual, fn):
        counts = self.counts
        key = f"{qual}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, qual, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hooks.get(qual)
        if qual.startswith("evolution.") and "g" in inspect.signature(fn).parameters:
            hook = self._count_steps

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([qual, self.job, stack[-1] if stack else -1, clock(), 0, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][ERROR] = 1
                raise
            finally:
                spans[idx][END] = clock()
                stack.pop()
            if hook is not None:  # after the span closes, so counting costs it nothing
                hook(fn, args, kwargs, result)
            return result

        return spanned

    # -- counters at layer boundaries -------------------------------------

    def _count_nodes(self, fn, args, kwargs, result):
        self.counts["matcore.contour_nodes"] += _bound(fn, args, kwargs)["c"].num_points

    def _count_entries(self, fn, args, kwargs, result):
        self.counts["iotools.matrix_entries"] += result.size

    def _count_index_tuples(self, fn, args, kwargs, result):
        arg = _bound(fn, args, kwargs)
        self.counts["scattering.index_tuples"] += len(arg["b"]) ** (arg["ell"] - 1)

    def _count_basis(self, fn, args, kwargs, result):
        self.counts["symdiag.basis_states"] += len(result.basis)

    def _count_paths(self, fn, args, kwargs, result):
        self.counts["symdiag.paths"] += sum(len(paths) for paths in result.values())

    def _count_diagrams(self, fn, args, kwargs, result):
        self.counts["symdiag.diagrams"] += len(result)

    def _count_dense_bytes(self, fn, args, kwargs, result):
        n = result[1].shape[0]
        self.counts["symdiag.dense_bytes"] += n * n * 16

    def _count_steps(self, fn, args, kwargs, result):
        # only the outermost evolution call owns the grid it integrates on
        if not any(self.spans[i][NAME].startswith("evolution.") for i in self._stack):
            self.counts["evolution.steps"] += _bound(fn, args, kwargs)["g"].steps

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write the spans as gzipped CSV: name, job, parent, start_ns, end_ns, error."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,job,parent,start_ns,end_ns,error\n")
            for s in self.spans:
                fh.write(",".join(str(x) for x in s) + "\n")


def self_times(spans):
    """Self time of every span in seconds: duration minus the union of its
    children's intervals clipped to the span."""
    children = {}
    for idx, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0
        lo = s[START]
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][START]):
            start = max(spans[c][START], lo)
            end = min(spans[c][END], s[END])
            if end > start:
                covered += end - start
                lo = end
        out.append((s[END] - s[START] - covered) / 1e9)
    return out


def layer_metrics(spans, counts, passes: int) -> dict:
    """Per-layer and per-function metrics, per traced pass."""
    counts = Counter(counts)
    self_s = self_times(spans)
    layer_bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
    ancestors = []  # bitmask of the layers open above each span
    calls, fn_self, lay_self, lay_busy, lay_err = Counter(), Counter(), Counter(), Counter(), Counter()
    eigh_in_evolution = 0
    for idx, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        parent = s[PARENT]
        mask = 0 if parent < 0 else ancestors[parent] | layer_bit[spans[parent][NAME].split(".", 1)[0]]
        ancestors.append(mask)
        calls[name] += 1
        calls[layer] += 1
        fn_self[name] += self_s[idx]
        lay_self[layer] += self_s[idx]
        lay_err[layer] += s[ERROR]
        if not mask & layer_bit[layer]:
            lay_busy[layer] += (s[END] - s[START]) / 1e9
        if name == "matcore.eig_hermitian" and mask & layer_bit["evolution"]:
            eigh_in_evolution += 1

    p = float(passes)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / p, "count")
        out[f"{layer}.self_s"] = (lay_self[layer] / p, "s")
        out[f"{layer}.busy_s"] = (lay_busy[layer] / p, "s")
        out[f"{layer}.errors"] = (lay_err[layer] / p, "count")
    for name in NAMED:
        if name != "cli.main":
            out[f"{name}.self_s"] = (fn_self[name] / p, "s")
    for name in ("matcore.contour_integrate", "scattering.s_entry_resolvent", "iotools.load_matrix",
                 "matcore.op_norm", "matcore.herm_defect", "matcore.require_hermitian",
                 "matcore.inverse", "matcore.solve", "matcore.eig_hermitian", "matcore.expm"):
        out[f"{name}.calls"] = (calls[name] / p, "count")
    for key in ("matcore.contour_nodes", "iotools.matrix_entries", "evolution.steps",
                "scattering.index_tuples", "symdiag.basis_states", "symdiag.paths",
                "symdiag.diagrams", "symdiag.dense_bytes", "matcore.as_matrix.calls"):
        out[key] = (counts[key] / p, "B" if key.endswith("bytes") else "count")
    guards = sum(calls[f"matcore.{f}"] for f in ("op_norm", "herm_defect", "inverse", "solve"))
    factorizations = sum(calls[f"matcore.{f}"] for f in ("inverse", "solve", "eig_hermitian"))
    out["matcore.svd_per_factorization"] = (guards / factorizations if factorizations else 0.0, "ratio")
    steps = counts["evolution.steps"]
    out["evolution.eigh_per_step"] = (eigh_in_evolution / steps if steps else 0.0, "ratio")
    return out
