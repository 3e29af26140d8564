"""CSV reports with '#'-prefixed headers and a checked-residuals section.

Report bodies are byte-reproducible for a fixed config and seed: floats are
rendered with ``repr`` and no timestamps are emitted unless requested.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ArgumentError


def fmt(x) -> str:
    if isinstance(x, (np.integer,)):
        x = int(x)
    elif isinstance(x, (np.floating,)):
        x = float(x)
    elif isinstance(x, (np.complexfloating,)):
        x = complex(x)
    if isinstance(x, complex):
        return f"{x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}j"
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class Residual:
    """One checked identity: name, measured value, and its tolerance."""

    name: str
    value: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.tolerance)


@dataclass
class Report:
    command: str
    config: dict
    seed: int
    columns: list
    rows: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    version: str = __version__
    timestamp: str | None = None

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ArgumentError("row width does not match columns")
        self.rows.append(tuple(values))

    def check(self, name: str, value: float, tolerance: float) -> None:
        self.residuals.append(Residual(name=name, value=float(value), tolerance=float(tolerance)))

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.residuals)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_ok else 1

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# command: {self.command}\n")
        cfg = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        out.write(f"# config: {cfg}\n")
        out.write(f"# seed: {self.seed}\n")
        out.write(f"# version: pertkit {self.version}\n")
        if self.timestamp is not None:
            out.write(f"# timestamp: {self.timestamp}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(fmt(v) for v in row) + "\n")
        if self.residuals:
            out.write("# residuals\n")
            out.write("name,value,tolerance,ok\n")
            for r in self.residuals:
                out.write(f"{r.name},{fmt(r.value)},{fmt(r.tolerance)},{int(r.ok)}\n")
        return out.getvalue()
