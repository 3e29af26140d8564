"""Symmetry-based block reduction and time-ordered diagram machinery.

States are canonical sorted tuples of particles ``(species, momentum)``, and
a vertex move edits its parent's tuple once.  The free operator is diagonal
with energy ``sum of dispersions`` and the interaction conserves total
momentum, so a diagonal symmetry operator splits the work into momentum blocks.

A path ``k_1, ..., k_L`` of basis states maps to a drawing with ``L-1``
dots (one per transition) and one line per particle occurrence-interval: a
line starts at the dot where its particle appears and ends at the dot
where it disappears, with external stubs for particles present in the
first or last state.  :func:`resolvent.index_paths` walks the paths along
:meth:`SparseInteraction.neighbors` and carries each path's interaction
product.  Grouping the paths by this drawing and dividing each product by
its energy denominators reproduces, summed per group, the full multi-index
sum, and tree-shaped drawings admit a unique momentum assignment, solved
from the leaves on one running balance of net momenta.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore, scattering
from .errors import ArgumentError, EnumerationLimitError, MatrixFormatError, NotATreeError, ShapeError
from .resolvent import index_paths

EXT_IN = 0  # start code of a line entering from outside
BASIS_CAP = 10**5
#: Momenta in one box grid, and components in one momentum: a move list then pairs at most
#: MOMENTUM_CAP**2 grid momenta.
MOMENTUM_CAP = 1000
#: Largest mass, the reciprocal of the smallest, and the largest magnitude of a state's momentum
#: component: ``m**2 + |p|**2`` is then a positive, finite float for every state a grid's moves reach
#: (at most MOMENTUM_CAP components), and so is every dispersion and vertex amplitude.
MASS_CAP = 1e150
#: States of a dense reference: 2**26 entries per matrix, 1 GiB of complex128, ``matcore.GRID_CAP``'s budget.
DENSE_CAP = 2**13


# ---------------------------------------------------------------------------
# states and interactions

Momentum = tuple


@dataclass(frozen=True)
class MultisetState:
    """Canonically sorted multiset of ``(species, momentum)`` particles."""

    particles: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.particles,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # the stored hash is per process: rebuild it on unpickling
        return MultisetState, (self.particles,)

    @staticmethod
    def of(*particles) -> "MultisetState":
        """The canonical state of ``(species, momentum)`` pairs; a momentum component of magnitude past
        :data:`MASS_CAP` raises :class:`ArgumentError`."""
        norm = tuple(sorted((str(s), tuple(int(c) for c in p)) for s, p in particles))
        for s, p in norm:
            for k, c in enumerate(p):
                if abs(c) > MASS_CAP:
                    from decimal import Decimal  # formats an int of any size; imported only to refuse one

                    raise ArgumentError(f"momentum component {k} of particle {s!r} is {Decimal(c):.3e}; "
                                        f"its magnitude must be at most {MASS_CAP:g}")
        return MultisetState(particles=norm)

    @property
    def size(self) -> int:
        return len(self.particles)

    def total_momentum(self) -> Momentum:
        return tuple(map(sum, zip(*(p for _, p in self.particles))))

    def same_momentum(self, other: "MultisetState") -> bool:
        """Equal total momenta, reading the empty state's ``()`` as zero."""
        p, q = self.total_momentum(), other.total_momentum()
        return p == q or not (any(p) or any(q))

    def _edit(self, gone, new) -> "MultisetState":
        """Drop the canonical particles ``gone`` and insert ``new`` in sorted place: one tuple edit."""
        out = list(self.particles)
        for p in gone:
            if p not in out:
                raise ArgumentError(f"particle {p} not present")
            out.remove(p)
        for p in new:
            bisect.insort(out, p)
        return MultisetState(particles=tuple(out))

    def add(self, *particles) -> "MultisetState":
        return self._edit((), MultisetState.of(*particles).particles)

    def remove(self, *particles) -> "MultisetState":
        return self._edit(MultisetState.of(*particles).particles, ())

    def __str__(self):
        inner = ",".join(f"{s}:{';'.join(str(c) for c in p)}" for s, p in self.particles)
        return f"|{inner}>"


def _free_energy(dispersion: Callable, s: MultisetState) -> float:
    """The sum of the dispersions of ``s``'s particles."""
    return float(sum(dispersion(sp, p) for sp, p in s.particles))


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
            raise MatrixFormatError("duplicate states in basis")
        self.dispersion = dispersion
        self.entries = {}
        momentum = {s: s.total_momentum() for s in self.basis}  # equal ones conserve; same_momentum judges zeros
        for (s, t), v in entries.items():
            if s not in self.index or t not in self.index:
                raise MatrixFormatError("entry references a state outside the basis")
            if momentum[s] != momentum[t] and not s.same_momentum(t):
                raise MatrixFormatError(f"entry {s} -> {t} violates momentum conservation")
            v = complex(v)
            if v == 0:
                continue
            prev = self.entries.get((s, t))
            if prev is not None and prev != v:
                raise MatrixFormatError("conflicting duplicate entries")
            self.entries[(s, t)] = v
            self.entries[(t, s)] = v.conjugate()
        # {t: entry(s, t)} per state in canonical order: a path walk tests its last step with one lookup
        self._adjacency = defaultdict(dict)
        for (s, t), v in sorted(self.entries.items(), key=lambda e: e[0][1].particles):
            self._adjacency[s][t] = v

    def entry(self, s: MultisetState, t: MultisetState) -> complex:
        return self.entries.get((s, t), 0.0 + 0.0j)

    def neighbors(self, s: MultisetState) -> dict:
        """The states linked to ``s``, in canonical order, each mapped to ``entry(s, t)``."""
        return self._adjacency.get(s, {})

    def free_energy(self, s: MultisetState) -> float:
        return _free_energy(self.dispersion, s)

    def to_dense(self):
        """(diagonal free operator, dense interaction) over the basis order; a
        basis of more than :data:`DENSE_CAP` states raises :class:`EnumerationLimitError`."""
        n = len(self.basis)
        if n > DENSE_CAP:
            raise EnumerationLimitError(f"dense reference of {n} states exceeds cap {DENSE_CAP}")
        a = np.diag([self.free_energy(s) for s in self.basis]).astype(complex)
        b = np.zeros((n, n), dtype=complex)
        for (s, t), v in self.entries.items():
            b[self.index[s], self.index[t]] = v
        return a, b


@dataclass(frozen=True)
class TrilinearVertex:
    """Three-species vertex on the Fock space of at most ``max_particles``
    particles: states differing by one particle of each species (any side),
    amplitude ``1/sqrt(omega_c)`` of the third species' momentum, momenta on an
    integer box grid.  No move leaves that space, so the rule is reversible:
    ``t`` is a move of ``s`` exactly when ``s`` is one of ``t``, with the same real amplitude.
    A mass outside ``[1/MASS_CAP, MASS_CAP]``, NaN included, raises :class:`ArgumentError`."""

    masses: dict
    grid: tuple
    species: tuple = ("a", "b", "c")
    max_particles: int = 7

    def __post_init__(self):
        for sp, m in self.masses.items():
            if not 1 / MASS_CAP <= m <= MASS_CAP:  # NaN fails too
                raise ArgumentError(f"mass of {sp!r} is {m:g}; it must lie in [{1 / MASS_CAP:g}, {MASS_CAP:g}]")
        object.__setattr__(self, "_grid_set", frozenset(self.grid))

    def dispersion(self, species: str, p: Momentum) -> float:
        return math.sqrt(self.masses[species] ** 2 + sum(c * c for c in p))

    def _amp(self, qc: Momentum) -> float:
        return 1.0 / math.sqrt(self.dispersion(self.species[2], qc))

    def moves(self, state: MultisetState):
        """Yield ``(neighbor, amplitude)``, one edit of ``state``'s sorted tuple each; duplicates accumulate.

        Neighbors come in channel order, which fixes the basis order of
        :func:`build_interaction`: ``a+b -> c``, ``c -> a+b``, ``a -> b+c``,
        ``b+c -> a``, ``b -> a+c``, ``a+c -> b``, then ``0 <-> a+b+c``.  A fuse
        channel merges a present ``first`` and ``second`` into ``lone``; a split
        channel turns a present ``lone`` into ``first`` and ``lone - first``.
        """
        room = self.max_particles - state.size  # particles a move may add: the Fock cutoff
        sa, sb, sc = self.species
        grid = self._grid_set
        by_species = defaultdict(set)
        for sp, p in state.particles:
            by_species[sp].add(p)
        amp = {q: self._amp(q) for q in grid | by_species[sc]}  # every momentum an amplitude takes

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
            if fuse and room >= -1:
                for q1 in by_species[first]:
                    for q2 in by_species[second]:
                        q = add(q1, q2)
                        if q in grid:
                            t = state._edit(((first, q1), (second, q2)), ((lone, q),))
                            out[t] += amp[q if lone == sc else q2]
            elif not fuse and room >= 1:
                for q in by_species[lone]:
                    for q1 in self.grid:
                        q2 = sub(q, q1)
                        if q2 in grid:
                            t = state._edit(((lone, q),), ((first, q1), (second, q2)))
                            out[t] += amp[q if lone == sc else q2]
        # vacuum <-> a+b+c
        if room >= 3:
            for qa in self.grid:
                for qb in self.grid:
                    qc = neg(add(qa, qb))
                    if qc in grid:
                        t = state._edit((), ((sa, qa), (sb, qb), (sc, qc)))
                        out[t] += amp[qc]
        if room >= -3:
            for qa in by_species[sa]:
                for qb in by_species[sb]:
                    qc = neg(add(qa, qb))
                    if qc in by_species[sc]:
                        t = state._edit(((sa, qa), (sb, qb), (sc, qc)), ())
                        out[t] += amp[qc]
        return out.items()


def box_grid(dim: int, radius: int) -> tuple:
    """Integer momentum box ``{-radius..radius}^dim``; more than :data:`MOMENTUM_CAP`
    momenta, or components per momentum, raise :class:`EnumerationLimitError`
    before a tuple is built."""
    matcore.check_order(dim, "dim")
    matcore.check_order(radius, "radius")
    if dim > MOMENTUM_CAP:
        raise EnumerationLimitError(f"momentum box of more than {MOMENTUM_CAP} dimensions")
    size = 1
    for _ in range(dim):  # a side of 3 or more passes the cap within 7 steps
        size *= 2 * radius + 1
        if size > MOMENTUM_CAP:
            raise EnumerationLimitError(f"momentum box exceeds cap {MOMENTUM_CAP} momenta")
    axis = range(-radius, radius + 1)
    return tuple(itertools.product(axis, repeat=dim))


def build_interaction(rule, seeds, depth: int) -> SparseInteraction:
    """Materialize the interaction on the closure of ``seeds`` under ``depth``
    applications of the vertex rule, capped at :data:`BASIS_CAP` states.

    Every basis state's moves are taken once, breadth first and so in basis
    order: below the last level they extend the basis, on it they only link
    states already in it.  A pair's entry is the move from its earlier state.
    Under a reversible rule, depth ``ell // 2`` holds every order-``ell`` path
    between two seeds: each of its states is that close to one end.
    """
    matcore.check_order(depth, "depth")
    frontier = list(dict.fromkeys(seeds))
    seen = dict.fromkeys(frontier)
    entries = {}
    for level in range(depth + 1):
        nxt = []
        for s in frontier:
            for t, amp in rule.moves(s):
                if t not in seen:
                    if level >= depth:
                        continue
                    seen[t] = None
                    nxt.append(t)
                    if len(seen) > BASIS_CAP:
                        raise EnumerationLimitError(f"basis closure exceeds cap {BASIS_CAP}")
                if (t, s) not in entries:
                    entries[(s, t)] = amp
        frontier = nxt
    return SparseInteraction(basis=list(seen), entries=entries, dispersion=rule.dispersion)


# ---------------------------------------------------------------------------
# symmetry blocks


def commute_check(u, m) -> bool:
    """True iff ``||UM - MU|| <= 1e-10 ||U|| ||M||``."""
    u, m = matcore.as_pair(u, m)
    bound = 1e-10 * max(matcore.op_norm(u) * matcore.op_norm(m), 1e-300)
    return matcore.op_norm(u @ m - m @ u) <= bound


@dataclass(frozen=True)
class EigenspaceBlock:
    """One eigenvalue of the symmetry operator and its basis indices."""

    eigenvalue: complex
    basis_indices: tuple


def block_decompose(u) -> list:
    """Eigenspace blocks of a diagonal normal symmetry operator.

    The block partition is expressed through basis indices, which requires
    the symmetry operator to be diagonal (e.g. a conserved total momentum);
    a non-normal or non-diagonal input is rejected.  Diagonal entries within
    1e-8 of their sorted predecessor share a block.
    """
    u = matcore.as_matrix(u, square=True)
    scale = max(matcore.op_norm(u), 1e-300)
    if matcore.op_norm(u @ u.conj().T - u.conj().T @ u) > 1e-10 * scale**2:
        raise ArgumentError("symmetry operator must be normal")
    if not matcore.is_diagonal(u, 1e-10):
        raise ArgumentError("index-block decomposition requires a diagonal operator")
    diag = np.diagonal(u)
    order = sorted(range(diag.size), key=lambda k: (diag[k].real, diag[k].imag))
    blocks = []
    current = [order[0]]
    for k in order[1:]:
        if abs(diag[k] - diag[current[-1]]) <= 1e-8:
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
    a, b = matcore.as_pair(a, b)
    if not commute_check(u, a) or not commute_check(u, b):
        raise ArgumentError("symmetry operator must commute with both operands")
    blocks = block_decompose(u)
    bi, bj = (next((blk for blk in blocks if k in blk.basis_indices), None) for k in (i, j))
    if bi is None or bj is None:
        raise ArgumentError("index out of range")
    if bi is not bj:
        return 0.0 + 0.0j
    idx = np.array(bi.basis_indices)
    sub = (a + b)[np.ix_(idx, idx)]
    rhs = np.zeros(idx.size, dtype=complex)
    rhs[int(np.flatnonzero(idx == j)[0])] = 1.0
    x = matcore.solve(sub, rhs)
    return complex(x[int(np.flatnonzero(idx == i)[0])])


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

    Dot ``k`` is the transition into state ``k``.  Each particle value's
    multiplicity profile, closed by a 0, gives one line per level and maximal
    run at or above it: from the first state of the run (``EXT_IN`` for state
    0) to the first state below the level (the outgoing stub past the last
    state).  Two identical particles swapping places are indistinguishable
    and merge into persisting runs.
    """
    seq = list(seq)
    if not seq:
        raise ArgumentError("empty state sequence")
    lines = []
    for value in sorted({p for s in seq for p in s.particles}):
        profile = [s.particles.count(value) for s in seq] + [0]
        for level in range(1, max(profile) + 1):
            start = None
            for k, m in enumerate(profile):
                if m >= level and start is None:
                    start = k
                elif m < level and start is not None:
                    lines.append((value[0], start, k))
                    start = None
    return Diagram.of(num_dots=len(seq) - 1, lines=lines)


def group_terms_by_diagram(bop: SparseInteraction, i: MultisetState, j: MultisetState, ell: int) -> dict:
    """Group the order-``ell`` paths from ``i`` to ``j``, as ``(path, weight)``
    pairs of :func:`resolvent.index_paths`, by canonical diagram; states of
    different total momenta have none."""
    if ell < 1:
        raise ArgumentError("ell must be at least 1")
    matcore.check_order(ell, "ell")
    if not i.same_momentum(j):
        return {}
    groups = defaultdict(list)
    for path, weight in index_paths(bop.neighbors, i, j, ell):
        groups[diagram_of(path)].append((path, weight))
    return dict(groups)


def diagram_values(bop: SparseInteraction, groups: dict, tau: float) -> dict:
    """Value of every diagram of ``groups``, the order-``ell`` paths from ``i``
    to ``j`` as :func:`group_terms_by_diagram` grouped them.

    Per path the weight is the interaction product over the energy
    denominators ``lambda_k - lambda_tau``, with the overall prefactor
    ``(-1)^{ell+1} i tau / ((lambda_i - lambda_j)^2/4 + tau^2)``; diagram
    values sum to the full order-``ell`` series term.
    """
    matcore.check_positive(tau, "tau")
    out = {}
    for diagram, pairs in groups.items():
        path = pairs[0][0]
        i, j, ell = path[0], path[-1], len(path) - 1
        lam_i, lam_j = bop.free_energy(i), bop.free_energy(j)
        shift = scattering.lambda_shift(lam_i, lam_j, tau)
        pref = scattering.term_prefactor(lam_i, lam_j, tau, ell)
        terms = []
        for path, weight in pairs:
            for k in path[1:-1]:  # one division per inner state, in path order
                weight /= bop.free_energy(k) - shift
            terms.append(weight)
        out[diagram] = pref * sum(terms)
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


def _carry(net: np.ndarray, line, p) -> None:
    """Add a line carrying ``p`` to the running balance of its two ends."""
    _, s, e = line
    net[e] += p
    net[s] -= p


def _net_momenta(d: Diagram, external_momenta: dict, dim: int) -> np.ndarray:
    """Inflow minus outflow of the external lines at every endpoint: row
    ``EXT_IN`` is the incoming outside, rows ``1..num_dots`` the dots and
    row ``out_code`` the outgoing outside."""
    net = np.zeros((d.out_code + 1, dim), dtype=int)
    for k in d.external_indices():
        _carry(net, d.lines[k], np.asarray(external_momenta[k], dtype=int))
    return net


def tree_solve(d: Diagram, external_momenta: dict, total: Momentum):
    """Unique internal-momentum assignment of a tree diagram, or ``None``.

    ``external_momenta`` maps the index of each external line (in
    ``d.lines`` order) to its momentum vector.  Vertex conservation
    (incoming minus outgoing momenta vanish at every dot) is solved by leaf
    elimination on one running balance of the dots; the redundant equation
    and the total-momentum cross-check decide consistency.  Raises
    :class:`NotATreeError` when the dot graph has a cycle or is disconnected.
    """
    comps, acyclic = _dot_components(d)
    if not acyclic:
        raise NotATreeError("diagram has a cycle over its dots")
    if d.num_dots >= 1 and len(comps) != 1:
        raise NotATreeError("diagram is disconnected over its dots")

    if set(external_momenta) != set(d.external_indices()):
        raise ArgumentError("external momenta must cover exactly the external lines")
    dim = len(total)
    if any(np.shape(v) != (dim,) for v in external_momenta.values()):
        raise ShapeError("momentum dimension mismatch")

    net = _net_momenta(d, external_momenta, dim)
    if not np.array_equal(-net[EXT_IN], np.asarray(total, dtype=int)):
        return None

    internal = d.internal_indices()
    incident = {dot: [k for k in internal if dot in d.lines[k][1:]] for dot in range(1, d.out_code)}
    solved: dict = {}
    while len(solved) < len(internal):
        for dot, lines in incident.items():  # a leaf: a dot with one unsolved line
            live = [k for k in lines if k not in solved]
            if len(live) == 1:
                break
        k = live[0]
        # its line cancels the dot's balance: ending here it is -net, starting here +net
        solved[k] = -net[dot] if d.lines[k][2] == dot else net[dot].copy()
        _carry(net, d.lines[k], solved[k])

    # every dot equation must hold, including the redundant one
    if np.any(net[1:d.out_code]):
        return None
    return {k: tuple(int(c) for c in v) for k, v in solved.items()}


def connected_component_conservation(d: Diagram, external_momenta: dict) -> bool:
    """True iff the external momenta balance on every dot component."""
    comps, _ = _dot_components(d)
    dim = len(next(iter(external_momenta.values()), ()))
    net = _net_momenta(d, external_momenta, dim)
    return not any(np.any(net[comp].sum(axis=0)) for comp in comps)


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
    matcore.check_positive(tau, "tau")
    dim, radius = grid_spec
    rule = TrilinearVertex(masses={"a": m_a, "b": m_b, "c": m_c}, grid=box_grid(dim, radius))

    def one_of(state, species):
        ps = [p for sp, p in state.particles if sp == species]
        if len(ps) != 1:
            raise ArgumentError(f"state {state} must contain exactly one {species!r} particle")
        return ps[0]

    p1 = one_of(i_state, "a")
    p2 = one_of(i_state, "b")
    p3 = one_of(j_state, "a")
    p4 = one_of(j_state, "b")
    if not i_state.same_momentum(j_state):
        raise ArgumentError("states must carry the same total momentum")
    lam_i = rule.dispersion("a", p1) + rule.dispersion("b", p2)
    lam_j = rule.dispersion("a", p3) + rule.dispersion("b", p4)
    if abs(lam_i - lam_j) > 1e-12 * max(1.0, lam_i):
        raise ArgumentError("states must be on the same energy shell")

    # the order-2 intermediates are the states both ends move to: the rule is reversible with the same
    # real amplitude, so a path's weight is the two moves' product; a zero amplitude is no link
    into_j = dict(rule.moves(j_state))
    paths = [(k, amp * into_j[k]) for k, amp in rule.moves(i_state) if amp and into_j.get(k)]
    shell = (lam_i + lam_j) / 2.0
    shift = scattering.lambda_shift(lam_i, lam_j, tau)
    if len(paths) != 4:
        raise ArgumentError(
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

    rows = sorted((ThreeParticleRow(classify(k), k, w, _free_energy(rule.dispersion, k) - shift) for k, w in paths),
                  key=lambda r: r.label)
    if [r.label for r in rows] != ["a", "b", "c", "d"]:
        raise ArgumentError("intermediate states do not match the canonical four-row table")

    pref = scattering.term_prefactor(lam_i, lam_j, tau, 2)
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
