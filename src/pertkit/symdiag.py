"""Symmetry-based block reduction and time-ordered diagram machinery.

States are multisets of labeled particles ``(species, integer momentum)``;
the free operator is diagonal with energy ``sum of dispersions`` and the
interaction conserves total momentum, so a diagonal symmetry operator
splits every computation into momentum blocks.

A path ``k_1, ..., k_L`` of basis states maps to a drawing with ``L-1``
dots (one per transition) and one line per particle occurrence-interval: a
line starts at the dot where its particle appears and ends at the dot
where it disappears, with external stubs for particles present in the
first or last state.  Grouping series paths by this drawing and summing
the usual energy-denominator weights per group reproduces the full
multi-index sum, and tree-shaped drawings admit a unique momentum
assignment solvable from the leaves.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore
from .errors import EnumerationLimitError, NotATreeError, ShapeError

EXT_IN = 0  # start code of a line entering from outside
BASIS_CAP = 10**5
PATH_CAP = 10**6


# ---------------------------------------------------------------------------
# states and interactions

Momentum = tuple
Particle = tuple  # (species, momentum)


@dataclass(frozen=True)
class MultisetState:
    """Canonically sorted multiset of ``(species, momentum)`` particles."""

    particles: tuple

    @staticmethod
    def of(*particles) -> "MultisetState":
        norm = tuple(sorted((str(s), tuple(int(c) for c in p)) for s, p in particles))
        return MultisetState(particles=norm)

    @property
    def size(self) -> int:
        return len(self.particles)

    def total_momentum(self) -> Momentum:
        if not self.particles:
            return ()
        dim = len(self.particles[0][1])
        total = [0] * dim
        for _, p in self.particles:
            for k, c in enumerate(p):
                total[k] += c
        return tuple(total)

    def same_momentum(self, other: "MultisetState") -> bool:
        """Equal total momenta, reading the empty state's ``()`` as zero."""
        p, q = self.total_momentum(), other.total_momentum()
        return p == q or not (any(p) or any(q))

    def counter(self) -> Counter:
        return Counter(self.particles)

    def add(self, *particles) -> "MultisetState":
        return MultisetState.of(*(self.particles + tuple(particles)))

    def remove(self, *particles) -> "MultisetState":
        c = self.counter()
        for p in particles:
            key = (str(p[0]), tuple(int(x) for x in p[1]))
            if c[key] <= 0:
                raise ValueError(f"particle {key} not present")
            c[key] -= 1
        return MultisetState(particles=tuple(sorted(c.elements())))

    def __str__(self):
        inner = ",".join(f"{s}:{';'.join(str(c) for c in p)}" for s, p in self.particles)
        return f"|{inner}>"


class SparseInteraction:
    """Hermitian, momentum-conserving interaction over an explicit basis.

    ``entries[(s, t)]`` holds the matrix element between basis states; the
    constructor enforces ``entry(s,t) = conj(entry(t,s))`` and total-momentum
    conservation.  ``dispersion(species, momentum)`` defines the free
    energies.
    """

    def __init__(self, basis, entries, dispersion: Callable):
        self.basis = list(basis)
        self.index = {s: k for k, s in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise ValueError("duplicate states in basis")
        self.dispersion = dispersion
        self.entries = {}
        adjacency = defaultdict(set)
        for (s, t), v in entries.items():
            if s not in self.index or t not in self.index:
                raise ValueError("entry references a state outside the basis")
            if not s.same_momentum(t):
                raise ValueError(f"entry {s} -> {t} violates momentum conservation")
            v = complex(v)
            if v == 0:
                continue
            prev = self.entries.get((s, t))
            if prev is not None and prev != v:
                raise ValueError("conflicting duplicate entries")
            self.entries[(s, t)] = v
            self.entries[(t, s)] = v.conjugate()
            adjacency[s].add(t)
            adjacency[t].add(s)
        self._adjacency = {s: sorted(ts, key=lambda x: x.particles) for s, ts in adjacency.items()}

    def entry(self, s: MultisetState, t: MultisetState) -> complex:
        return self.entries.get((s, t), 0.0 + 0.0j)

    def neighbors(self, s: MultisetState):
        return self._adjacency.get(s, [])

    def free_energy(self, s: MultisetState) -> float:
        return float(sum(self.dispersion(sp, p) for sp, p in s.particles))

    def to_dense(self):
        """(diagonal free operator, dense interaction) over the basis order."""
        n = len(self.basis)
        a = np.diag([self.free_energy(s) for s in self.basis]).astype(complex)
        b = np.zeros((n, n), dtype=complex)
        for (s, t), v in self.entries.items():
            b[self.index[s], self.index[t]] = v
        return a, b


@dataclass(frozen=True)
class TrilinearVertex:
    """Symmetric three-species vertex: states differing by one particle of
    each species (any side), amplitude ``1/sqrt(omega_c)`` of the third
    species' momentum.  Momenta live on an integer box grid."""

    masses: dict
    grid: tuple
    species: tuple = ("a", "b", "c")
    max_particles: int = 7

    def dispersion(self, species: str, p: Momentum) -> float:
        return math.sqrt(self.masses[species] ** 2 + sum(c * c for c in p))

    def _amp(self, qc: Momentum) -> float:
        return 1.0 / math.sqrt(self.dispersion(self.species[2], qc))

    def moves(self, state: MultisetState):
        """Yield ``(neighbor_state, amplitude)``; duplicates accumulate.

        Neighbors come in channel order, which fixes the basis order of
        :func:`build_interaction`: ``a+b -> c``, ``c -> a+b``, ``a -> b+c``,
        ``b+c -> a``, ``b -> a+c``, ``a+c -> b``, then ``0 <-> a+b+c``.  A fuse
        channel merges a present ``first`` and ``second`` into ``lone``; a split
        channel turns a present ``lone`` into ``first`` and ``lone - first``.
        """
        sa, sb, sc = self.species
        grid = set(self.grid)
        by_species = defaultdict(set)
        for sp, p in state.particles:
            by_species[sp].add(p)

        def neg(p):
            return tuple(-c for c in p)

        def add(p, q):
            return tuple(x + y for x, y in zip(p, q))

        def sub(p, q):
            return tuple(x - y for x, y in zip(p, q))

        out = defaultdict(complex)
        # (fuse?, lone, first, second); species c is always lone or second
        channels = ((True, sc, sa, sb), (False, sc, sa, sb), (False, sa, sb, sc),
                    (True, sa, sb, sc), (False, sb, sa, sc), (True, sb, sa, sc))
        for fuse, lone, first, second in channels:
            if fuse:
                for q1 in by_species[first]:
                    for q2 in by_species[second]:
                        q = add(q1, q2)
                        if q in grid:
                            t = state.remove((first, q1), (second, q2)).add((lone, q))
                            out[t] += self._amp(q if lone == sc else q2)
            else:
                for q in by_species[lone]:
                    for q1 in self.grid:
                        q2 = sub(q, q1)
                        if q2 in grid:
                            t = state.remove((lone, q)).add((first, q1), (second, q2))
                            out[t] += self._amp(q if lone == sc else q2)
        # vacuum <-> a+b+c
        if state.size + 3 <= self.max_particles:
            for qa in self.grid:
                for qb in self.grid:
                    qc = neg(add(qa, qb))
                    if qc in grid:
                        t = state.add((sa, qa), (sb, qb), (sc, qc))
                        out[t] += self._amp(qc)
        for qa in by_species[sa]:
            for qb in by_species[sb]:
                qc = neg(add(qa, qb))
                if qc in by_species[sc]:
                    t = state.remove((sa, qa), (sb, qb), (sc, qc))
                    out[t] += self._amp(qc)
        return out.items()


def box_grid(dim: int, radius: int) -> tuple:
    """Integer momentum box ``{-radius..radius}^dim``."""
    axis = range(-radius, radius + 1)
    return tuple(itertools.product(axis, repeat=dim))


def build_interaction(rule, seeds, depth: int, cap: int = BASIS_CAP) -> SparseInteraction:
    """Materialize the interaction on the closure of ``seeds`` under ``depth``
    applications of the vertex rule, capped at ``cap`` states.

    Every basis state's moves are taken once, breadth first and so in basis
    order: below the last level they extend the basis, on it they only link
    states already in it.  A pair's entry is the move from its earlier state.
    """
    frontier = list(dict.fromkeys(seeds))
    seen = dict.fromkeys(frontier)
    entries = {}
    for level in range(max(depth, 0) + 1):
        nxt = []
        for s in frontier:
            for t, amp in rule.moves(s):
                if t not in seen:
                    if level >= depth:
                        continue
                    seen[t] = None
                    nxt.append(t)
                    if len(seen) > cap:
                        raise EnumerationLimitError(f"basis closure exceeds cap {cap}")
                if (t, s) not in entries:
                    entries[(s, t)] = amp
        frontier = nxt
    return SparseInteraction(basis=list(seen), entries=entries, dispersion=rule.dispersion)


# ---------------------------------------------------------------------------
# symmetry blocks


def commute_check(u, m) -> bool:
    """True iff ``||UM - MU|| <= 1e-10 ||U|| ||M||``."""
    u = matcore.as_matrix(u, square=True)
    m = matcore.as_matrix(m, square=True)
    if u.shape != m.shape:
        raise ShapeError("operands must have the same shape")
    bound = 1e-10 * max(matcore.op_norm(u) * matcore.op_norm(m), 1e-300)
    return matcore.op_norm(u @ m - m @ u) <= bound


@dataclass(frozen=True)
class EigenspaceBlock:
    """One eigenvalue of the symmetry operator and its basis indices."""

    eigenvalue: complex
    basis_indices: tuple


def block_decompose(u, tol: float = 1e-8) -> list:
    """Eigenspace blocks of a diagonal normal symmetry operator.

    The block partition is expressed through basis indices, which requires
    the symmetry operator to be diagonal (e.g. a conserved total momentum);
    a non-normal or non-diagonal input is rejected.
    """
    u = matcore.as_matrix(u, square=True)
    scale = max(matcore.op_norm(u), 1e-300)
    if matcore.op_norm(u @ u.conj().T - u.conj().T @ u) > 1e-10 * scale**2:
        raise ValueError("symmetry operator must be normal")
    if not matcore.is_diagonal(u, 1e-10):
        raise ValueError("index-block decomposition requires a diagonal operator")
    diag = np.diagonal(u)
    order = sorted(range(diag.size), key=lambda k: (diag[k].real, diag[k].imag))
    blocks = []
    current = [order[0]]
    for k in order[1:]:
        if abs(diag[k] - diag[current[-1]]) <= tol:
            current.append(k)
        else:
            blocks.append(current)
            current = [k]
    blocks.append(current)
    return [
        EigenspaceBlock(eigenvalue=complex(diag[idx[0]]), basis_indices=tuple(sorted(idx)))
        for idx in blocks
    ]


def restricted_inverse(a, b, u, i: int, j: int) -> complex:
    """Entry ``(A+B)^{-1}_{ij}`` using the symmetry block structure.

    When ``i`` and ``j`` sit in different eigenspaces of the (diagonal)
    symmetry operator the entry is exactly zero and no solve is performed;
    otherwise the solve is restricted to the common block.
    """
    a = matcore.as_matrix(a, square=True)
    b = matcore.as_matrix(b, square=True)
    if not commute_check(u, a) or not commute_check(u, b):
        raise ValueError("symmetry operator must commute with both operands")
    blocks = block_decompose(u)
    bi = bj = None
    for blk in blocks:
        if i in blk.basis_indices:
            bi = blk
        if j in blk.basis_indices:
            bj = blk
    if bi is None or bj is None:
        raise ValueError("index out of range")
    if bi is not bj:
        return 0.0 + 0.0j
    idx = np.array(bi.basis_indices)
    sub = (a + b)[np.ix_(idx, idx)]
    rhs = np.zeros(idx.size, dtype=complex)
    rhs[int(np.flatnonzero(idx == j)[0])] = 1.0
    x = matcore.solve(sub, rhs)
    return complex(x[int(np.flatnonzero(idx == i)[0])])


def momentum_operator(basis, weights=None) -> np.ndarray:
    """Diagonal operator encoding each state's total momentum as a scalar.

    Components are folded with generic irrational weights so distinct
    momenta map to distinct diagonal values.
    """
    dims = {len(s.total_momentum()) for s in basis if s.particles}
    dim = dims.pop() if dims else 1
    if weights is None:
        weights = np.sqrt(np.arange(2, 2 + dim))
    vals = [float(np.dot(weights, s.total_momentum())) if s.particles else 0.0 for s in basis]
    return np.diag(vals).astype(complex)


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class Diagram:
    """Canonical drawing: ``num_dots`` transition dots plus labeled lines.

    A line is ``(label, start, end)`` with ``start = 0`` for external-in,
    ``end = num_dots + 1`` for external-out, and dot indices ``1..num_dots``
    otherwise.  Lines carrying the same species are interchangeable, so the
    canonical form is the sorted line tuple.
    """

    num_dots: int
    lines: tuple

    @staticmethod
    def of(num_dots: int, lines) -> "Diagram":
        return Diagram(num_dots=num_dots, lines=tuple(sorted(lines)))

    @property
    def out_code(self) -> int:
        return self.num_dots + 1

    def is_internal(self, line) -> bool:
        _, start, end = line
        return start != EXT_IN and end != self.out_code

    def internal_indices(self):
        return [k for k, ln in enumerate(self.lines) if self.is_internal(ln)]

    def external_indices(self):
        return [k for k, ln in enumerate(self.lines) if not self.is_internal(ln)]


def diagram_of(seq) -> Diagram:
    """Canonical diagram of a sequence of basis states.

    One dot per transition.  For every distinct particle value the
    multiplicity profile across the sequence is decomposed into maximal
    constant-presence runs (level decomposition); each run becomes one line
    from the dot where it starts to the dot where it ends, with external
    stubs at the sequence boundaries.  Two identical particles swapping
    places are indistinguishable and merge into persisting runs.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty state sequence")
    length = len(seq)
    values = sorted({p for s in seq for p in s.particles})
    lines = []
    for value in values:
        profile = [s.counter()[value] for s in seq]
        top = max(profile)
        for level in range(1, top + 1):
            present = [k for k, m in enumerate(profile) if m >= level]
            # maximal runs of consecutive states
            run_start = present[0]
            prev = present[0]
            runs = []
            for k in present[1:]:
                if k == prev + 1:
                    prev = k
                else:
                    runs.append((run_start, prev))
                    run_start = prev = k
            runs.append((run_start, prev))
            for a, b_ in runs:
                start = EXT_IN if a == 0 else a  # dot index = transition position
                end = length if b_ == length - 1 else b_ + 1
                lines.append((value[0], start, end))
    return Diagram.of(num_dots=length - 1, lines=lines)


def _paths_between(bop: SparseInteraction, i: MultisetState, j: MultisetState, ell: int):
    """All interaction paths i -> ... -> j with ``ell`` transitions."""
    if not i.same_momentum(j):
        return []
    paths = []
    counter = [0]

    def walk(path):
        counter[0] += 1
        if counter[0] > PATH_CAP:
            raise EnumerationLimitError(f"path enumeration exceeds cap {PATH_CAP}")
        depth = len(path) - 1
        if depth == ell - 1:
            if bop.entry(path[-1], j) != 0:
                paths.append(tuple(path) + (j,))
            return
        for t in bop.neighbors(path[-1]):
            walk(path + [t])

    walk([i])
    return paths


def group_terms_by_diagram(bop: SparseInteraction, i: MultisetState, j: MultisetState, ell: int) -> dict:
    """Group the order-``ell`` paths from ``i`` to ``j`` by canonical diagram."""
    groups = defaultdict(list)
    for path in _paths_between(bop, i, j, ell):
        groups[diagram_of(path)].append(path)
    return dict(groups)


def _path_weight(bop: SparseInteraction, path, lambda_shift: complex) -> complex:
    w = 1.0 + 0.0j
    for s, t in zip(path, path[1:]):
        w *= bop.entry(s, t)
    for k in path[1:-1]:
        w /= bop.free_energy(k) - lambda_shift
    return w


def diagram_values(bop: SparseInteraction, i: MultisetState, j: MultisetState, tau: float, ell: int) -> dict:
    """Value of every realized diagram at order ``ell``.

    Per path the weight is the interaction product over the energy
    denominators ``lambda_k - lambda_tau``, with the overall prefactor
    ``(-1)^{ell+1} i tau / ((lambda_i - lambda_j)^2/4 + tau^2)``; diagram
    values sum to the full order-``ell`` series term.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    lam_i = bop.free_energy(i)
    lam_j = bop.free_energy(j)
    shift = (lam_i + lam_j) / 2.0 - 1j * tau
    pref = (-1) ** (ell + 1) * 1j * tau / ((lam_i - lam_j) ** 2 / 4.0 + tau**2)
    out = {}
    for diagram, paths in group_terms_by_diagram(bop, i, j, ell).items():
        out[diagram] = pref * sum(_path_weight(bop, p, shift) for p in paths)
    return out


# ---------------------------------------------------------------------------
# momentum solving on tree diagrams


def _dot_components(d: Diagram):
    parent = list(range(d.num_dots + 1))  # 1-based dots; 0 unused

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    acyclic = True
    for ln in d.lines:
        if d.is_internal(ln):
            _, s, e = ln
            rs, re = find(s), find(e)
            if rs == re:
                acyclic = False
            else:
                parent[rs] = re
    comps = defaultdict(list)
    for dot in range(1, d.num_dots + 1):
        comps[find(dot)].append(dot)
    return list(comps.values()), acyclic


def tree_solve(d: Diagram, external_momenta: dict, total: Momentum):
    """Unique internal-momentum assignment of a tree diagram, or ``None``.

    ``external_momenta`` maps the index of each external line (in
    ``d.lines`` order) to its momentum vector.  Vertex conservation
    (incoming minus outgoing momenta vanish at every dot) is solved by leaf
    elimination; the redundant equation and the total-momentum cross-check
    decide consistency.  Raises :class:`NotATreeError` when the dot graph
    has a cycle or is disconnected.
    """
    comps, acyclic = _dot_components(d)
    if not acyclic:
        raise NotATreeError("diagram has a cycle over its dots")
    if d.num_dots >= 1 and len(comps) != 1:
        raise NotATreeError("diagram is disconnected over its dots")

    ext_idx = set(d.external_indices())
    if set(external_momenta) != ext_idx:
        raise ValueError("external momenta must cover exactly the external lines")
    dim = len(total)
    known = {k: np.asarray(v, dtype=int) for k, v in external_momenta.items()}
    for v in known.values():
        if v.shape != (dim,):
            raise ValueError("momentum dimension mismatch")

    in_total = np.zeros(dim, dtype=int)
    out_total = np.zeros(dim, dtype=int)
    for k in ext_idx:
        _, s, e = d.lines[k]
        if s == EXT_IN:
            in_total += known[k]
        if e == d.out_code:
            out_total += known[k]
    if not np.array_equal(in_total, np.asarray(total, dtype=int)):
        return None

    unknown = set(d.internal_indices())
    incident = defaultdict(list)
    for k in unknown:
        _, s, e = d.lines[k]
        incident[s].append(k)
        incident[e].append(k)

    solved: dict = {}
    remaining = {dot: [k for k in incident[dot] if k in unknown] for dot in range(1, d.num_dots + 1)}

    def dot_balance(dot):
        # incoming minus outgoing with all currently known lines
        bal = np.zeros(dim, dtype=int)
        for k, (_lbl, s, e) in enumerate(d.lines):
            p = known.get(k)
            if p is None:
                p = solved.get(k)
            if p is None:
                continue
            if e == dot:
                bal += p
            if s == dot:
                bal -= p
        return bal

    pending = set(unknown)
    while pending:
        leaf = None
        for dot in range(1, d.num_dots + 1):
            live = [k for k in remaining[dot] if k in pending]
            if len(live) == 1:
                leaf = (dot, live[0])
                break
        if leaf is None:
            raise NotATreeError("no leaf available; diagram is not a tree")
        dot, k = leaf
        _, s, e = d.lines[k]
        bal = dot_balance(dot)
        # line ends here: p satisfies bal + p = 0; starts here: bal - p = 0
        solved[k] = -bal if e == dot else bal
        pending.discard(k)

    # every dot equation must hold, including the redundant one
    for dot in range(1, d.num_dots + 1):
        if np.any(dot_balance(dot) != 0):
            return None
    return {k: tuple(int(c) for c in v) for k, v in solved.items()}


def connected_component_conservation(d: Diagram, external_momenta: dict) -> bool:
    """True iff the external momenta balance on every dot component."""
    comps, _ = _dot_components(d)
    for comp in comps:
        comp_set = set(comp)
        bal = None
        for k, (_lbl, s, e) in enumerate(d.lines):
            if d.is_internal((_lbl, s, e)):
                continue
            p = np.asarray(external_momenta[k], dtype=int)
            if bal is None:
                bal = np.zeros_like(p)
            if s == EXT_IN and e in comp_set:
                bal += p
            elif e == d.out_code and s in comp_set:
                bal -= p
        if bal is not None and np.any(bal != 0):
            return False
    return True


# ---------------------------------------------------------------------------
# three-particle second-order demo


@dataclass
class ThreeParticleRow:
    label: str
    state: MultisetState
    product: complex
    denominator: complex


@dataclass
class ThreeParticleReport:
    rows: list
    assembled: complex
    paired_closed_form: complex
    pairing_residual: float
    tau: float
    shell_energy: float
    delta_omega: float
    omega_fused: float
    omega_exchange: float
    limit_pair_sum: float


def three_particle_demo(grid_spec, m_a: float, m_b: float, m_c: float,
                        i_state: MultisetState, j_state: MultisetState, tau: float) -> ThreeParticleReport:
    """Second-order scattering of ``a + b -> a + b`` through a ``c`` channel.

    The four intermediate states (fused pair, five-particle crossing, and
    the two single-exchange channels) are enumerated from the trilinear
    vertex with amplitude ``1/sqrt(omega_c)``, tabulated with their energy
    denominators, assembled into the order-2 entry, and compared against
    the paired closed form obtained from ``1/(x-y) + 1/(x+y) = 2x/(x^2-y^2)``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    dim, radius = grid_spec
    rule = TrilinearVertex(masses={"a": m_a, "b": m_b, "c": m_c}, grid=box_grid(dim, radius))

    def one_of(state, species):
        ps = [p for sp, p in state.particles if sp == species]
        if len(ps) != 1:
            raise ValueError(f"state {state} must contain exactly one {species!r} particle")
        return ps[0]

    p1 = one_of(i_state, "a")
    p2 = one_of(i_state, "b")
    p3 = one_of(j_state, "a")
    p4 = one_of(j_state, "b")
    if not i_state.same_momentum(j_state):
        raise ValueError("states must carry the same total momentum")
    lam_i = rule.dispersion("a", p1) + rule.dispersion("b", p2)
    lam_j = rule.dispersion("a", p3) + rule.dispersion("b", p4)
    if abs(lam_i - lam_j) > 1e-12 * max(1.0, lam_i):
        raise ValueError("states must be on the same energy shell")

    # depth-1 closure of the two endpoints already contains every length-2
    # path intermediate
    bop = build_interaction(rule, [i_state, j_state], depth=1)
    shell = (lam_i + lam_j) / 2.0
    shift = shell - 1j * tau

    paths = _paths_between(bop, i_state, j_state, 2)
    if len(paths) != 4:
        raise ValueError(
            f"expected the 4 canonical intermediate states, found {len(paths)}; "
            "choose generic on-shell momenta inside the grid"
        )

    def classify(k: MultisetState) -> str:
        profile = Counter(sp for sp, _ in k.particles)
        if profile == Counter({"c": 1}):
            return "a"
        if k.size == 5:
            return "b"
        if profile == Counter({"b": 2, "c": 1}):
            return "c"
        if profile == Counter({"a": 2, "c": 1}):
            return "d"
        return "?"

    rows = []
    for path in paths:
        k = path[1]
        rows.append(
            ThreeParticleRow(
                label=classify(k),
                state=k,
                product=bop.entry(i_state, k) * bop.entry(k, j_state),
                denominator=bop.free_energy(k) - shift,
            )
        )
    rows.sort(key=lambda r: r.label)
    if [r.label for r in rows] != ["a", "b", "c", "d"]:
        raise ValueError("intermediate states do not match the canonical four-row table")

    pref = (-1) ** 3 * 1j * tau / ((lam_i - lam_j) ** 2 / 4.0 + tau**2)
    assembled = pref * sum(r.product / r.denominator for r in rows)

    total_p = i_state.total_momentum()
    omega_fused = rule.dispersion("c", total_p)
    p_exch = tuple(x - y for x, y in zip(p1, p4))
    omega_exch = rule.dispersion("c", p_exch)
    d_omega = rule.dispersion("b", p4) - rule.dispersion("a", p1)
    x_ab = omega_fused + 1j * tau
    x_cd = omega_exch + 1j * tau
    paired = pref * (
        (1.0 / omega_fused) * 2.0 * x_ab / (x_ab**2 - shell**2)
        + (1.0 / omega_exch) * 2.0 * x_cd / (x_cd**2 - d_omega**2)
    )
    limit_pair_sum = 2.0 / (omega_fused**2 - shell**2) + 2.0 / (omega_exch**2 - d_omega**2)
    return ThreeParticleReport(
        rows=rows,
        assembled=complex(assembled),
        paired_closed_form=complex(paired),
        pairing_residual=abs(assembled - paired),
        tau=tau,
        shell_energy=shell,
        delta_omega=d_omega,
        omega_fused=omega_fused,
        omega_exchange=omega_exch,
        limit_pair_sum=limit_pair_sum,
    )
