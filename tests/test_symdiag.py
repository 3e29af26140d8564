import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from ensembles import random_hermitian, random_momentum_model
from pertkit import matcore, scattering, symdiag
from pertkit.errors import EnumerationLimitError, NotATreeError
from pertkit.symdiag import EXT_IN, Diagram, MultisetState


def state(*particles):
    return MultisetState.of(*particles)


STD_I = state(("a", (1,)), ("b", (-1,)))
STD_J = state(("a", (-1,)), ("b", (1,)))


def std_model(radius=2, depth=1, masses=(1.0, 2.0, 0.5)):
    rule = symdiag.TrilinearVertex(
        masses={"a": masses[0], "b": masses[1], "c": masses[2]},
        grid=symdiag.box_grid(1, radius),
    )
    return symdiag.build_interaction(rule, [STD_I, STD_J], depth=depth)


class TestMultisetState:
    def test_canonical_order_and_equality(self):
        s1 = state(("b", (2,)), ("a", (1,)))
        s2 = state(("a", (1,)), ("b", (2,)))
        assert s1 == s2 and hash(s1) == hash(s2)

    def test_total_momentum(self):
        s = state(("a", (1, 2)), ("b", (-3, 1)))
        assert s.total_momentum() == (-2, 3)

    def test_add_remove_roundtrip(self):
        s = state(("a", (1,)))
        s2 = s.add(("c", (0,))).remove(("c", (0,)))
        assert s2 == s

    def test_remove_missing_raises(self):
        with pytest.raises(ValueError):
            state(("a", (1,))).remove(("b", (0,)))


class TestSparseInteraction:
    def test_hermiticity_is_automatic(self):
        bop = std_model()
        for (s, t), v in list(bop.entries.items())[:50]:
            assert bop.entry(t, s) == v.conjugate()

    def test_momentum_conservation_enforced(self):
        s1 = state(("a", (1,)))
        s2 = state(("a", (2,)))
        with pytest.raises(ValueError):
            symdiag.SparseInteraction(
                basis=[s1, s2], entries={(s1, s2): 1.0}, dispersion=lambda sp, p: 1.0
            )

    def test_free_energy(self):
        bop = std_model()
        expected = np.sqrt(1.0 + 1.0) + np.sqrt(4.0 + 1.0)
        assert bop.free_energy(STD_I) == pytest.approx(expected)


def random_vertex(seed, dim, radius, max_particles=7):
    rng = np.random.default_rng(seed)
    masses = {sp: float(rng.uniform(0.5, 2.0)) for sp in "abc"}
    return symdiag.TrilinearVertex(masses=masses, grid=symdiag.box_grid(dim, radius),
                                   max_particles=max_particles)


def random_state(rng, rule, size):
    grid = rule.grid
    return state(*((str(rng.choice(list("abc"))), grid[rng.integers(len(grid))]) for _ in range(size)))


class CountingRule:
    """A vertex rule that records every state whose moves are taken.

    With ``skew`` each amplitude is scaled by the size of its source state, so
    a move and its reverse disagree and the entry shows which one was kept.
    """

    def __init__(self, rule, skew=False):
        self.rule = rule
        self.skew = skew
        self.dispersion = rule.dispersion
        self.calls = []

    def moves(self, s):
        self.calls.append(s)
        return [(t, amp * (1 + s.size) if self.skew else amp) for t, amp in self.rule.moves(s)]


class TestVertexChannelTable:
    """The channel table and the one-pass closure against the spelled-out
    channels and the two-pass closure of ``tests/reference.py``."""

    @given(
        seed=st.integers(0, 10**6),
        dim=st.sampled_from((1, 2)),
        radius=st.sampled_from((1, 2)),
        max_particles=st.sampled_from((3, 4, 7)),
    )
    def test_moves_match_reference(self, seed, dim, radius, max_particles):
        rule = random_vertex(seed, dim, radius, max_particles)
        rng = np.random.default_rng(seed)
        # every size up to the cap, the cap itself, and one beyond it
        for size in list(range(max_particles + 2)) + [max_particles] * 3:
            s = random_state(rng, rule, size)
            assert list(rule.moves(s)) == list(reference.trilinear_moves_ref(rule, s))

    @pytest.mark.parametrize("dim,radius,depths", [(1, 1, range(4)), (1, 2, range(3)), (2, 1, range(2))])
    def test_build_interaction_matches_reference(self, dim, radius, depths):
        rule = random_vertex(dim + 10 * radius, dim, radius)
        rng = np.random.default_rng(radius)
        seed_sets = [[random_state(rng, rule, 2), random_state(rng, rule, 2), random_state(rng, rule, 1)]]
        if dim == 1:
            seed_sets.append([STD_I, STD_J])

        def outcome(build, r, seeds, depth):
            bop = build(r, seeds, depth)
            return bop.basis, list(bop.entries.items())

        for seeds, depth, skew in itertools.product(seed_sets, depths, (False, True)):
            counting = CountingRule(rule, skew)
            got = outcome(symdiag.build_interaction, counting, seeds, depth)
            assert got == outcome(reference.build_interaction_ref, CountingRule(rule, skew), seeds, depth)
            assert counting.calls == got[0]  # once per basis state, in basis order

    def test_zero_momentum_vacuum_move(self):
        rule = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 2))
        seeds = [state(("a", (-1,)), ("c", (-1,))), state(("b", (-2,)), ("b", (2,))), state(("b", (1,)))]
        bop = symdiag.build_interaction(rule, seeds, 2)
        vacuum = state()
        abc = state(("a", (0,)), ("b", (-2,)), ("c", (2,)))
        assert abc in bop.neighbors(vacuum)
        assert bop.entry(vacuum, abc) == 1.0 / np.sqrt(rule.dispersion("c", (2,)))
        for t in bop.neighbors(vacuum):
            (qc,) = [p for sp, p in t.particles if sp == "c"]
            assert bop.entry(t, vacuum) == 1.0 / np.sqrt(rule.dispersion("c", qc))
        _, b = bop.to_dense()
        np.testing.assert_array_equal(b, b.conj().T)
        assert symdiag.group_terms_by_diagram(bop, vacuum, abc, 1) != {}

    @pytest.mark.parametrize("cap", [3, 40, 200])
    def test_cap_raises_at_the_same_point(self, cap):
        rule = random_vertex(5, 1, 2)
        seeds = [STD_I, STD_J]
        new, ref = CountingRule(rule), CountingRule(rule)
        with pytest.raises(EnumerationLimitError) as new_err:
            symdiag.build_interaction(new, seeds, 3, cap=cap)
        with pytest.raises(EnumerationLimitError) as ref_err:
            reference.build_interaction_ref(ref, seeds, 3, cap=cap)
        assert str(new_err.value) == str(ref_err.value)
        assert new.calls == ref.calls


class TestCommuteCheck:
    def test_identity_commutes(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert symdiag.commute_check(np.eye(4), m)

    def test_distinct_diagonal_vs_offdiagonal(self):
        u = np.diag([1.0, 2.0, 3.0])
        m = np.ones((3, 3))
        assert not symdiag.commute_check(u, m)

    def test_permutation_and_circulant(self):
        perm = np.roll(np.eye(4), 1, axis=0)
        circ = sum(c * np.linalg.matrix_power(perm, k) for k, c in enumerate([2.0, 0.5, -1.0, 0.3]))
        assert symdiag.commute_check(perm, circ)


class TestBlockDecompose:
    def test_identity_single_block(self):
        blocks = symdiag.block_decompose(np.eye(3))
        assert len(blocks) == 1 and blocks[0].basis_indices == (0, 1, 2)

    def test_repeated_diagonal(self):
        blocks = symdiag.block_decompose(np.diag([1.0, 1.0, 2.0]))
        assert [b.basis_indices for b in blocks] == [(0, 1), (2,)]

    def test_momentum_operator_blocks(self):
        bop = std_model()
        u = symdiag.momentum_operator(bop.basis)
        blocks = symdiag.block_decompose(u)
        by_momentum = {}
        for k, s in enumerate(bop.basis):
            by_momentum.setdefault(s.total_momentum(), set()).add(k)
        assert {frozenset(b.basis_indices) for b in blocks} == {
            frozenset(v) for v in by_momentum.values()
        }

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError):
            symdiag.block_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValueError):
            symdiag.block_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestRestrictedInverse:
    def setup_method(self):
        import scipy.linalg as sla

        self.u = np.diag([1.0, 1.0, 2.0, 2.0, 2.0]).astype(complex)
        a1 = random_hermitian(2, 1.0, 21) + 3 * np.eye(2)
        a2 = random_hermitian(3, 1.0, 22) + 3 * np.eye(3)
        b1 = random_hermitian(2, 0.2, 23)
        b2 = random_hermitian(3, 0.2, 24)
        self.a = sla.block_diag(a1, a2).astype(complex)
        self.b = sla.block_diag(b1, b2).astype(complex)

    def test_cross_block_exactly_zero(self):
        assert symdiag.restricted_inverse(self.a, self.b, self.u, 0, 3) == 0

    def test_same_block_matches_full_inverse(self):
        full = matcore.inverse(self.a + self.b)
        for (i, j) in [(0, 1), (3, 4), (2, 2)]:
            val = symdiag.restricted_inverse(self.a, self.b, self.u, i, j)
            assert abs(val - full[i, j]) <= 1e-11

    def test_singleton_block(self):
        u = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a = np.diag([2.0, 5.0, 9.0]).astype(complex)
        val = symdiag.restricted_inverse(a, np.zeros((3, 3)), u, 1, 1)
        assert val == pytest.approx(0.2)

    def test_commutation_required(self):
        with pytest.raises(ValueError):
            symdiag.restricted_inverse(self.a, np.ones((5, 5)), self.u, 0, 0)


class TestDiagramOf:
    def test_constant_sequence_passthrough(self):
        s = state(("a", (1,)), ("b", (2,)))
        d = symdiag.diagram_of([s, s, s])
        assert d.num_dots == 2
        assert all(start == EXT_IN and end == d.out_code for _, start, end in d.lines)

    def test_figure_shape(self):
        # k1 = |p1,p2,p3>, k2 = |p3,p4>, k3 = |p5,p6>: p1,p2 end at dot 1;
        # p4 runs dot1 -> dot2; p3 passes to dot 2; p5,p6 leave from dot 2
        k1 = state(("s", (1,)), ("s", (2,)), ("s", (3,)))
        k2 = state(("s", (3,)), ("s", (4,)))
        k3 = state(("s", (5,)), ("s", (6,)))
        d = symdiag.diagram_of([k1, k2, k3])
        expected = Diagram.of(
            2,
            [
                ("s", EXT_IN, 1),
                ("s", EXT_IN, 1),
                ("s", EXT_IN, 2),
                ("s", 1, 2),
                ("s", 2, 3),
                ("s", 2, 3),
            ],
        )
        assert d == expected

    def test_reversal_reverses_arrows(self):
        k1 = state(("s", (1,)), ("s", (2,)))
        k2 = state(("s", (3,)))
        k3 = state(("s", (4,)), ("s", (5,)))
        d_fwd = symdiag.diagram_of([k1, k2, k3])
        d_rev = symdiag.diagram_of([k3, k2, k1])
        length = 3
        flipped = [
            (lbl, length - end if end != d_fwd.out_code else EXT_IN, length - start if start != EXT_IN else d_fwd.out_code)
            for lbl, start, end in d_fwd.lines
        ]
        assert d_rev == Diagram.of(2, flipped)

    @given(shift=st.integers(-3, 3))
    def test_relabeling_invariance(self, shift):
        # consistent momentum relabeling of one species leaves the diagram fixed
        k1 = state(("a", (1,)), ("b", (5,)))
        k2 = state(("a", (2,)), ("b", (5,)))
        base = symdiag.diagram_of([k1, k2])
        k1s = state(("a", (1 + shift,)), ("b", (5,)))
        k2s = state(("a", (2 + shift,)), ("b", (5,)))
        assert symdiag.diagram_of([k1s, k2s]) == base

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            symdiag.diagram_of([])


class TestGroupingAndValues:
    def test_order_one_single_group(self):
        bop = std_model()
        k = state(("c", (0,)))
        groups = symdiag.group_terms_by_diagram(bop, STD_I, k, 1)
        assert len(groups) == 1

    def test_three_particle_four_groups(self):
        bop = std_model()
        groups = symdiag.group_terms_by_diagram(bop, STD_I, STD_J, 2)
        assert len(groups) == 4
        assert all(len(paths) == 1 for paths in groups.values())

    def test_groups_partition_the_paths(self):
        bop = std_model(depth=2)
        groups = symdiag.group_terms_by_diagram(bop, STD_I, STD_J, 2)
        all_paths = symdiag._paths_between(bop, STD_I, STD_J, 2)
        grouped = [p for paths in groups.values() for p in paths]
        key = lambda path: [s.particles for s in path]
        assert sorted(grouped, key=key) == sorted(all_paths, key=key)

    @pytest.mark.parametrize("ell,j_state", [(2, STD_J), (3, state(("c", (0,))))])
    def test_partition_identity(self, ell, j_state):
        # the vertex flips particle-number parity, so odd orders need
        # endpoints of opposite parity
        bop = std_model(depth=2)
        tau = 0.05
        values = symdiag.diagram_values(bop, STD_I, j_state, tau, ell)
        total = sum(values.values())
        a, b = bop.to_dense()
        q = scattering.ScatteringQuery(i=bop.index[STD_I], j=bop.index[j_state], tau=tau)
        reference = scattering.s_term_index_sum(a, b, q, ell)
        assert abs(total - reference) <= 1e-11 * max(1.0, abs(reference))

    def test_unrealized_diagram_value_zero(self):
        bop = std_model()
        bogus = Diagram.of(1, [("z", EXT_IN, 1), ("z", 1, 2)])
        assert symdiag.diagram_values(bop, STD_I, STD_J, 0.05, 2).get(bogus, 0) == 0

    def test_zero_interaction(self):
        rule = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 1))
        bop = symdiag.SparseInteraction(basis=[STD_I, STD_J], entries={}, dispersion=rule.dispersion)
        assert symdiag.diagram_values(bop, STD_I, STD_J, 0.05, 2) == {}

    def test_random_momentum_model_partition(self):
        bop = random_momentum_model(1.0, seed=4)
        i, j = bop.basis[0], bop.basis[1]
        values = symdiag.diagram_values(bop, i, j, 0.07, 2)
        total = sum(values.values())
        a, b = bop.to_dense()
        q = scattering.ScatteringQuery(i=bop.index[i], j=bop.index[j], tau=0.07)
        reference = scattering.s_term_index_sum(a, b, q, 2)
        assert abs(total - reference) <= 1e-11 * max(1.0, abs(reference))


def planted_tree_instance(rng, dim, num_dots):
    """Random tree diagram with planted internal momenta and consistent
    externals: every dot gets one external-in and one balancing external-out."""
    species = ["x", "y", "z"]
    lines = []
    internal_momenta = []
    for dot in range(2, num_dots + 1):
        parent = int(rng.integers(1, dot))
        p = tuple(int(c) for c in rng.integers(-1, 2, size=dim))
        if rng.integers(0, 2):
            lines.append((species[int(rng.integers(0, 3))], parent, dot))
        else:
            lines.append((species[int(rng.integers(0, 3))], dot, parent))
        internal_momenta.append(p)

    balance = {dot: np.zeros(dim, dtype=int) for dot in range(1, num_dots + 1)}
    for (_, s, e), p in zip(lines, internal_momenta):
        balance[e] += np.array(p)
        balance[s] -= np.array(p)

    ext = {}
    for dot in range(1, num_dots + 1):
        r = rng.integers(-1, 2, size=dim)
        lines.append(("x", EXT_IN, dot))
        ext[len(lines) - 1] = tuple(int(c) for c in r)
        lines.append(("x", dot, num_dots + 1))
        ext[len(lines) - 1] = tuple(int(c) for c in (balance[dot] + r))

    d = Diagram.of(num_dots, lines)
    # remap stored data onto the canonically sorted line order
    plant = {}
    externals = {}
    used = set()
    originals = list(zip(lines, internal_momenta + [None] * (len(lines) - len(internal_momenta))))
    for idx, line in enumerate(d.lines):
        for orig_idx, (orig_line, mom) in enumerate(originals):
            if orig_idx in used or orig_line != line:
                continue
            used.add(orig_idx)
            if orig_idx < len(internal_momenta):
                plant[idx] = internal_momenta[orig_idx]
            else:
                externals[idx] = ext[orig_idx]
            break
    total = np.zeros(dim, dtype=int)
    for idx in externals:
        _, s, _ = d.lines[idx]
        if s == EXT_IN:
            total += np.array(externals[idx])
    return d, externals, plant, tuple(int(c) for c in total)


def brute_force_tree(d, externals, total, search_range=2):
    """Every assignment of the internal lines, each component in
    ``[-search_range, search_range]``, that balances momentum at every dot:
    all candidates at once, in ``itertools.product`` order."""
    dim = len(total)
    internal = d.internal_indices()
    incidence = np.zeros((d.num_dots, len(d.lines)), dtype=int)  # +1 ends here, -1 starts here
    for k, (_, s, e) in enumerate(d.lines):
        if 1 <= e <= d.num_dots:
            incidence[e - 1, k] += 1
        if 1 <= s <= d.num_dots:
            incidence[s - 1, k] -= 1
    ext = sorted(externals)
    fixed = incidence[:, ext] @ np.array([externals[k] for k in ext], dtype=int).reshape(len(ext), dim)
    axis = np.arange(-search_range, search_range + 1)
    grids = np.meshgrid(*[axis] * (len(internal) * dim), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1).reshape(-1, len(internal), dim)
    balance = fixed + np.einsum("dl,clx->cdx", incidence[:, internal], cand)
    hits = cand[(balance == 0).all(axis=(1, 2))]
    return [{k: tuple(int(c) for c in p) for k, p in zip(internal, hit)} for hit in hits]


class TestTreeSolve:
    def test_single_internal_line(self):
        d = Diagram.of(2, [("x", EXT_IN, 1), ("x", 1, 2), ("x", 2, 3)])
        ext = {k for k, line in enumerate(d.lines) if not d.is_internal(line)}
        momenta = {k: (2,) for k in ext}
        out = symdiag.tree_solve(d, momenta, (2,))
        (internal_idx,) = d.internal_indices()
        assert out == {internal_idx: (2,)}

    def test_inconsistent_externals_unsolvable(self):
        d = Diagram.of(2, [("x", EXT_IN, 1), ("x", 1, 2), ("x", 2, 3)])
        ext = [k for k, line in enumerate(d.lines) if not d.is_internal(line)]
        momenta = {ext[0]: (2,), ext[1]: (5,)}
        in_idx = [k for k in ext if d.lines[k][1] == EXT_IN][0]
        out = symdiag.tree_solve(d, {in_idx: (2,), [k for k in ext if k != in_idx][0]: (5,)}, (2,))
        assert out is None

    def test_cycle_rejected(self):
        d = Diagram.of(2, [("x", 1, 2), ("y", 2, 1), ("x", EXT_IN, 1), ("x", 2, 3)])
        ext = {k: (0,) for k, line in enumerate(d.lines) if not d.is_internal(line)}
        with pytest.raises(NotATreeError):
            symdiag.tree_solve(d, ext, (0,))

    def test_disconnected_rejected(self):
        lines = [("x", EXT_IN, 1), ("x", 1, 3), ("y", EXT_IN, 2), ("y", 2, 3)]
        d = Diagram.of(2, lines)
        ext = {k: (0,) for k, line in enumerate(d.lines) if not d.is_internal(line)}
        with pytest.raises(NotATreeError):
            symdiag.tree_solve(d, ext, (0,))

    @pytest.mark.parametrize("dim,num_dots,count", [(1, 4, 40), (1, 6, 30), (2, 4, 30)])
    def test_random_instances_match_brute_force(self, dim, num_dots, count):
        rng = np.random.default_rng(100 * dim + num_dots)
        for _ in range(count):
            d, externals, plant, total = planted_tree_instance(rng, dim, num_dots)
            out = symdiag.tree_solve(d, externals, total)
            hits = brute_force_tree(d, externals, total)
            assert len(hits) == 1
            assert out == hits[0]
            assert out == {k: tuple(v) for k, v in plant.items()} or out == hits[0]

    def test_perturbed_instance_unsolvable(self):
        rng = np.random.default_rng(77)
        d, externals, _, total = planted_tree_instance(rng, 1, 4)
        k = next(iter(externals))
        bad = dict(externals)
        bad[k] = tuple(np.array(bad[k]) + 7)
        out = symdiag.tree_solve(d, bad, tuple(np.array(total) + (7 if d.lines[k][1] == EXT_IN else 0)))
        assert out is None or symdiag.connected_component_conservation(d, bad) is False


class TestComponentConservation:
    def test_connected_consistent(self):
        rng = np.random.default_rng(5)
        d, externals, _, total = planted_tree_instance(rng, 1, 3)
        assert symdiag.connected_component_conservation(d, externals)

    def test_imbalanced_component(self):
        lines = [
            ("x", EXT_IN, 1), ("x", 1, 3),
            ("y", EXT_IN, 2), ("y", 2, 3),
        ]
        d = Diagram.of(2, lines)
        momenta = {}
        for k, (lbl, s, e) in enumerate(d.lines):
            momenta[k] = (1,) if s == EXT_IN else (2,)
        assert not symdiag.connected_component_conservation(d, momenta)

    def test_matches_tree_solvability(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d, externals, _, total = planted_tree_instance(rng, 1, 4)
            solvable = symdiag.tree_solve(d, externals, total) is not None
            assert solvable == symdiag.connected_component_conservation(d, externals)


class TestThreeParticleDemo:
    def test_table_structure_and_pairing(self):
        rep = symdiag.three_particle_demo((1, 2), 1.0, 2.0, 0.5, STD_I, STD_J, 1e-3)
        assert [r.label for r in rep.rows] == ["a", "b", "c", "d"]
        shell, tau = rep.shell_energy, rep.tau
        # denominators per row: w - lt, w + conj(lt), w' +- dw + i tau
        w = rep.omega_fused
        wp = rep.omega_exchange
        dw = rep.delta_omega
        expected = [
            w - shell + 1j * tau,
            w + shell + 1j * tau,
            wp + dw + 1j * tau,
            wp - dw + 1j * tau,
        ]
        for row, exp in zip(rep.rows, expected):
            assert row.denominator == pytest.approx(exp, abs=1e-12)
            assert row.product == pytest.approx(1.0 / (w if row.label in "ab" else wp), abs=1e-12)
        assert rep.pairing_residual <= 1e-12 * abs(rep.assembled)

    def test_pairing_identity_tight(self):
        rep = symdiag.three_particle_demo((1, 2), 1.0, 1.5, 0.8, STD_I, STD_J, 5e-3)
        assert abs(rep.assembled - rep.paired_closed_form) <= 1e-9

    def test_off_shell_rejected(self):
        i = state(("a", (1,)), ("b", (-1,)))
        j = state(("a", (2,)), ("b", (-2,)))
        with pytest.raises(ValueError):
            symdiag.three_particle_demo((1, 2), 1.0, 2.0, 0.5, i, j, 1e-3)

    def test_tau_positive_required(self):
        with pytest.raises(ValueError):
            symdiag.three_particle_demo((1, 2), 1.0, 2.0, 0.5, STD_I, STD_J, 0.0)
