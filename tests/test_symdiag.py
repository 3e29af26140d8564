import itertools
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import reference
from ensembles import random_hermitian, random_momentum_model
from pertkit import matcore, resolvent, scattering, symdiag
from pertkit.errors import ArgumentError, EnumerationLimitError, MatrixFormatError, NotATreeError
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

    def test_a_state_pickled_in_another_process_hashes_like_a_local_one(self):
        # the writing process gets a string-hash seed other than this one's
        code = ("import pickle, sys; from pertkit.symdiag import MultisetState as S; "
                "s = S.of(('a', (1,)), ('b', (-1,))); sys.stdout.buffer.write(pickle.dumps((hash(s), s)))")
        src = os.path.dirname(os.path.dirname(symdiag.__file__))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
        their_hash, loaded = pickle.loads(blob)
        assert their_hash != hash(STD_I)
        assert loaded in {STD_I}

    @pytest.mark.parametrize("held, removed", [
        ([("a", (1,))], [("b", [np.int64(0)])]),
        ([("a", (1,)), ("c", (0,))], [("b", (0,))]),
        ([("a", (1,))], [("a", (1,)), ("a", (1,))]),
        ([], [("c", (0, 0))]),
    ], ids=["absent", "absent-between-present-ones", "one-copy-too-many", "empty-state"])
    def test_remove_missing_is_a_typed_error_with_the_old_message(self, held, removed):
        with pytest.raises(ArgumentError) as err:
            state(*held).remove(*removed)
        with pytest.raises(ValueError) as old:
            reference.multiset_remove_ref(reference.multiset_of_ref(*held), *removed)
        assert str(err.value) == str(old.value)

    @given(data=st.data(), dim=st.sampled_from((1, 2)))
    def test_edits_equal_the_normalized_multiset(self, data, dim):
        # momenta in {-1, 0, 1} make repeated identical particles common
        particle = st.tuples(st.sampled_from("abc"), st.tuples(*[st.integers(-1, 1)] * dim))
        held = data.draw(st.lists(particle, max_size=6))
        added = data.draw(st.lists(particle, max_size=3))
        gone = data.draw(st.sets(st.integers(0, len(held) - 1))) if held else set()
        s = state(*held)

        def assert_is_of(got, particles):
            want = MultisetState.of(*particles)
            assert got.particles == want.particles and repr(got) == repr(want)
            assert got == want and hash(got) == hash(want)

        # arguments in non-canonical form: numpy integers in a list
        assert_is_of(s.add(*((sp, [np.int64(c) for c in p]) for sp, p in added)), held + added)
        removed = [(sp, [np.int64(c) for c in p]) for k, (sp, p) in enumerate(held) if k in gone]
        assert_is_of(s.remove(*removed), [p for k, p in enumerate(held) if k not in gone])
        rule = random_vertex(len(held), dim, 1)
        for t, _ in rule.moves(s):
            assert_is_of(t, t.particles)
            assert reference.multiset_of_ref(*t.particles) == t.particles


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

    @pytest.mark.parametrize("other, conserves", [
        (state(("a", (0,)), ("b", (-2,)), ("c", (2,))), True),
        (state(("a", (0, 0))), True),
        (state(("a", (1,)), ("b", (-2,)), ("c", (2,))), False),
        (state(("a", (0, 1))), False),
    ])
    def test_vacuum_entries_conserve_zero_momentum(self, other, conserves):
        vacuum = state()
        assert vacuum.same_momentum(other) == other.same_momentum(vacuum) == conserves

        def build():
            return symdiag.SparseInteraction(basis=[vacuum, other], entries={(vacuum, other): 0.5},
                                             dispersion=lambda sp, p: 1.0)

        if conserves:
            assert build().entry(other, vacuum) == 0.5
        else:
            with pytest.raises(MatrixFormatError, match="violates momentum conservation"):
                build()

    @pytest.mark.parametrize("basis, entries, message", [
        ([STD_I, STD_I], {}, "duplicate states in basis"),
        ([STD_I], {(STD_I, STD_J): 1.0}, "entry references a state outside the basis"),
        ([STD_I, STD_J], {(STD_I, STD_J): 1.0, (STD_J, STD_I): 2.0}, "conflicting duplicate entries"),
    ])
    def test_constructor_errors_are_typed(self, basis, entries, message):
        with pytest.raises(MatrixFormatError, match=message):
            symdiag.SparseInteraction(basis=basis, entries=entries, dispersion=lambda sp, p: 1.0)

    def test_a_dense_reference_past_the_cap_is_refused_before_it_is_allocated(self):
        # 8,193 states would take two 1 GiB arrays; the refusal comes before the first, whose
        # free energies would fail this test
        basis = [state(("a", (k,))) for k in range(symdiag.DENSE_CAP + 1)]
        bop = symdiag.SparseInteraction(basis=basis, entries={}, dispersion=lambda sp, p: 1.0)
        bop.free_energy = lambda s: pytest.fail("to_dense began to allocate")
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError, match="^dense reference of 8193 states exceeds cap 8192$"):
            bop.to_dense()
        assert time.perf_counter() - start < 1.0

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

    The moves are ``moves(rule, s)``: the rule's own, or the reference
    channels of ``tests/reference.py``.  With ``skew`` each amplitude is
    scaled by the size of its source state, so a move and its reverse
    disagree and the entry shows which one was kept.
    """

    def __init__(self, rule, skew=False, moves=symdiag.TrilinearVertex.moves):
        self.rule = rule
        self.skew = skew
        self.dispersion = rule.dispersion
        self.calls = []
        self._moves = moves

    def moves(self, s):
        self.calls.append(s)
        return [(t, amp * (1 + s.size) if self.skew else amp) for t, amp in self._moves(self.rule, s)]


def counting_ref(rule, skew=False):
    """A counting rule over the reference channels."""
    return CountingRule(rule, skew, reference.trilinear_moves_ref)


class TestBoxGrid:
    @pytest.mark.parametrize("dim, radius, size", [(1, 0, 1), (1, 2, 5), (2, 2, 25), (3, 4, 729), (1, 499, 999),
                                                   (1000, 0, 1)])
    def test_boxes_within_the_cap(self, dim, radius, size):
        grid = symdiag.box_grid(dim, radius)
        assert len(grid) == len(set(grid)) == size and {len(p) for p in grid} == {dim}

    # boxes that would be huge to list are probed in a subprocess under a memory limit, in test_cli.py
    @pytest.mark.parametrize("dim, radius", [(1, 500), (3, 5), (7, 1), (10**20, 1), (10**20, 0), (1001, 0)])
    def test_boxes_past_the_cap_are_refused_before_they_are_listed(self, dim, radius):
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError, match="^momentum box (exceeds cap 1000 momenta|of more than 1000 "
                                                        "dimensions)$"):
            symdiag.box_grid(dim, radius)
        assert time.perf_counter() - start < 1.0


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
        # seeds may carry momenta off the rule's grid
        wide = random_vertex(seed, dim, radius + 2)
        for size in range(1, 5):
            s = random_state(rng, wide, size)
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
            return bop.basis, repr(list(bop.entries.items())), [list(bop.neighbors(s)) for s in bop.basis]

        for seeds, depth, skew in itertools.product(seed_sets, depths, (False, True)):
            counting = CountingRule(rule, skew)
            got = outcome(symdiag.build_interaction, counting, seeds, depth)
            assert got == outcome(reference.build_interaction_ref, counting_ref(rule, skew), seeds, depth)
            assert counting.calls == got[0]  # once per basis state, in basis order

    def test_build_interaction_normalizes_no_state_again(self, monkeypatch):
        calls = []
        real_of = MultisetState.of

        def counting_of(*particles):
            calls.append("of")
            return real_of(*particles)

        def counting_counter(*args):
            calls.append("Counter")
            return Counter(*args)

        monkeypatch.setattr(MultisetState, "of", staticmethod(counting_of))
        monkeypatch.setattr(symdiag, "Counter", counting_counter)
        bop = std_model(radius=2, depth=2)
        assert calls == [] and len(bop.basis) > 100
        # the patches are the ones symdiag sees: ``add`` normalizes, the demo classifies by Counter
        STD_I.add(("c", (0,)))
        symdiag.three_particle_demo((1, 2), 1.0, 2.0, 0.5, STD_I, STD_J, 0.1)
        assert calls[0] == "of" and set(calls[1:]) == {"Counter"}

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
    def test_cap_raises_at_the_same_point(self, cap, monkeypatch):
        monkeypatch.setattr(symdiag, "BASIS_CAP", cap)
        rule = random_vertex(5, 1, 2)
        seeds = [STD_I, STD_J]
        new = CountingRule(rule)
        ref = counting_ref(rule)
        with pytest.raises(EnumerationLimitError) as new_err:
            symdiag.build_interaction(new, seeds, 3)
        with pytest.raises(EnumerationLimitError) as ref_err:
            reference.build_interaction_ref(ref, seeds, 3, cap=cap)
        assert str(new_err.value) == str(ref_err.value)
        assert new.calls == ref.calls


@st.composite
def fock_models(draw):
    """A small random vertex and a generator seeded alongside it."""
    seed = draw(st.integers(0, 10**6))
    rule = random_vertex(seed, draw(st.sampled_from((1, 2))), draw(st.integers(0, 2)), draw(st.sampled_from((3, 4, 7))))
    return rule, np.random.default_rng(seed)


class TestFockCutoff:
    """No move leaves the Fock space of ``max_particles``, so the rule is
    reversible and the depth-``ell // 2`` closure of the endpoints holds every
    order-``ell`` path."""

    @given(model=fock_models())
    def test_moves_are_reversible_with_equal_real_amplitudes(self, model):
        rule, rng = model
        for size in range(rule.max_particles + 1):
            s = random_state(rng, rule, size)
            moves = list(rule.moves(s))
            assert all(t.size <= rule.max_particles and amp.imag == 0 for t, amp in moves)
            for k in rng.permutation(len(moves))[:16]:  # the reverse of a sample: each takes every move of t
                t, amp = moves[k]
                assert dict(rule.moves(t))[s] == amp

    def test_no_channel_passes_the_cutoff(self):
        # at the cap no split or creation; two above it only the annihilation lands inside
        rule = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 1),
                                       max_particles=3)
        abc = [("a", (0,)), ("b", (0,)), ("c", (0,))]
        assert {t.size for t, _ in rule.moves(state(*abc))} == {0, 2}
        assert {t.size for t, _ in rule.moves(state(*abc, ("c", (0,)), ("c", (0,))))} == {2}

    @pytest.mark.parametrize("ell", range(1, 7))
    @given(model=fock_models(), detour=st.booleans())
    def test_the_half_order_closure_holds_every_path(self, model, ell, detour):
        rule, rng = model
        i = j = random_state(rng, rule, int(rng.integers(1, 4)))
        for _ in range(ell % 2 + 2 * detour):  # an end state that order-ell paths can reach
            targets = [t for t, _ in rule.moves(j)] or [j]
            j = targets[rng.integers(len(targets))]
        try:  # small cases only: a few hundred states, a few thousand partial paths
            with mock.patch.object(symdiag, "BASIS_CAP", 500), mock.patch.object(resolvent, "PATH_CAP", 5000):
                full = symdiag.build_interaction(rule, [i, j], ell)
                paths = list(resolvent.index_paths(full.neighbors, i, j, ell))
        except EnumerationLimitError:
            assume(False)
        half = symdiag.build_interaction(rule, [i, j], ell // 2)
        assert list(resolvent.index_paths(half.neighbors, i, j, ell)) == paths
        values = [symdiag.diagram_values(bop, symdiag.group_terms_by_diagram(bop, i, j, ell), 0.3)
                  for bop in (half, full)]
        assert list(values[0].items()) == list(values[1].items())
        assert sum(values[0].values()) == sum(values[1].values())


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
        # each state's total momentum on the diagonal; one-dimensional momenta take distinct values
        bop = std_model()
        u = np.diag([float(sum(s.total_momentum())) if s.particles else 0.0 for s in bop.basis])
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

    # a few values of species a-c and momenta -1..1, so that particles repeat, vanish and come back
    PARTICLES = st.tuples(st.sampled_from("abc"), st.tuples(st.integers(-1, 1)))

    @given(seq=st.lists(st.lists(PARTICLES, max_size=4), min_size=1, max_size=7))
    def test_matches_the_run_splitting_reference(self, seq):
        states = [state(*particles) for particles in seq]
        assert symdiag.diagram_of(states) == reference.diagram_of_ref(states)


class TestGroupingAndValues:
    @pytest.mark.parametrize("ell", [0, -1])
    def test_order_below_one_is_an_argument_error(self, ell):
        bop = std_model()
        with pytest.raises(ArgumentError, match="ell must be at least 1"):
            symdiag.group_terms_by_diagram(bop, STD_I, STD_J, ell)

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
        all_pairs = list(resolvent.index_paths(bop.neighbors, STD_I, STD_J, 2))
        grouped = [pair for pairs in groups.values() for pair in pairs]
        key = lambda pair: [s.particles for s in pair[0]]
        assert sorted(grouped, key=key) == sorted(all_pairs, key=key)

    @pytest.mark.parametrize("ell,j_state", [(2, STD_J), (3, state(("c", (0,))))])
    def test_partition_identity(self, ell, j_state):
        # the vertex flips particle-number parity, so odd orders need
        # endpoints of opposite parity
        bop = std_model(depth=2)
        tau = 0.05
        values = symdiag.diagram_values(bop, symdiag.group_terms_by_diagram(bop, STD_I, j_state, ell), tau)
        total = sum(values.values())
        a, b = bop.to_dense()
        q = scattering.ScatteringQuery(i=bop.index[STD_I], j=bop.index[j_state], tau=tau)
        reference = scattering.s_term_index_sum(a, b, q, ell)
        assert abs(total - reference) <= 1e-11 * max(1.0, abs(reference))

    def test_unrealized_diagram_value_zero(self):
        bop = std_model()
        bogus = Diagram.of(1, [("z", EXT_IN, 1), ("z", 1, 2)])
        assert symdiag.diagram_values(bop, symdiag.group_terms_by_diagram(bop, STD_I, STD_J, 2), 0.05).get(bogus, 0) == 0

    def test_zero_interaction(self):
        rule = symdiag.TrilinearVertex(masses={"a": 1.0, "b": 2.0, "c": 0.5}, grid=symdiag.box_grid(1, 1))
        bop = symdiag.SparseInteraction(basis=[STD_I, STD_J], entries={}, dispersion=rule.dispersion)
        assert symdiag.diagram_values(bop, symdiag.group_terms_by_diagram(bop, STD_I, STD_J, 2), 0.05) == {}

    def test_random_momentum_model_partition(self):
        bop = random_momentum_model(1.0, seed=4)
        i, j = bop.basis[0], bop.basis[1]
        values = symdiag.diagram_values(bop, symdiag.group_terms_by_diagram(bop, i, j, 2), 0.07)
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

    def test_no_dots(self):
        d = Diagram.of(0, [("x", EXT_IN, 1), ("y", EXT_IN, 1)])
        assert symdiag.tree_solve(d, {0: (3, 1), 1: (-1, 0)}, (2, 1)) == {}
        assert symdiag.tree_solve(d, {0: (3, 1), 1: (-1, 0)}, (2, 0)) is None

    def test_a_line_that_enters_and_leaves_without_a_dot(self):
        d = Diagram.of(2, [("x", EXT_IN, 1), ("x", 1, 2), ("x", 2, 3), ("y", EXT_IN, 3)])
        (internal,) = d.internal_indices()
        by_line = {line: k for k, line in enumerate(d.lines)}
        ext = {by_line[("x", EXT_IN, 1)]: (2,), by_line[("x", 2, 3)]: (2,), by_line[("y", EXT_IN, 3)]: (5,)}
        assert symdiag.tree_solve(d, ext, (7,)) == {internal: (2,)} and brute_force_tree(d, ext, (7,)) == [{internal: (2,)}]
        assert symdiag.tree_solve(d, ext, (2,)) is None  # the passing line counts toward the total
        ext[by_line[("x", 2, 3)]] = (3,)
        assert symdiag.tree_solve(d, ext, (7,)) is None and brute_force_tree(d, ext, (7,)) == []

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

    def test_no_dots(self):
        d = Diagram.of(0, [("x", EXT_IN, 1)])
        assert symdiag.connected_component_conservation(d, {0: (3,)})

    def test_a_line_that_enters_and_leaves_without_a_dot(self):
        d = Diagram.of(2, [("x", EXT_IN, 1), ("x", 1, 2), ("x", 2, 3), ("y", EXT_IN, 3)])
        by_line = {line: k for k, line in enumerate(d.lines)}
        ext = {by_line[("x", EXT_IN, 1)]: (2,), by_line[("x", 2, 3)]: (2,), by_line[("y", EXT_IN, 3)]: (5,)}
        assert symdiag.connected_component_conservation(d, ext)
        ext[by_line[("x", 2, 3)]] = (3,)
        assert not symdiag.connected_component_conservation(d, ext)

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

    @staticmethod
    def _outcome(table, *args):
        """The table's ``(state, product, denominator)`` rows, or its refusal."""
        try:
            return table(*args)
        except ArgumentError as exc:
            return str(exc)

    @staticmethod
    def _rows(*args):
        return [(r.state, r.product, r.denominator) for r in symdiag.three_particle_demo(*args).rows]

    @given(
        radius=st.integers(1, 3),
        masses=st.tuples(*[st.sampled_from((0.3, 0.7, 1.0, 1.3, 2.0, 2.5))] * 3),
        p=st.tuples(*[st.integers(-3, 3)] * 4),
        shape=st.sampled_from(("cli", "cli", "swapped", "conserving", "free")),
        tau=st.sampled_from((1e-3, 0.1)),
    )
    def test_rows_match_the_closure_walk(self, radius, masses, p, shape, tau):
        # the command's end states, the pair's momenta swapped, any pair of one total momentum and any pair:
        # on and off the grid and the shell
        p = {"cli": (p[0], -p[0], -p[0], p[0]), "swapped": (p[0], p[1], p[1], p[0]),
             "conserving": (p[0], p[1], p[2], p[0] + p[1] - p[2]), "free": p}[shape]
        args = ((1, radius), *masses, state(("a", (p[0],)), ("b", (p[1],))), state(("a", (p[2],)), ("b", (p[3],))), tau)
        assert self._outcome(self._rows, *args) == self._outcome(
            reference.three_particle_paths_ref, *args)

    def test_rows_match_the_closure_walk_on_the_command_states(self):
        # an infinite mass is refused by both, as a mass outside [1/MASS_CAP, MASS_CAP]
        masses = [(1.0, 2.0, 0.5), (1.0, 1.0, 0.5), (0.3, 2.5, 1.3), (2.5, 2.5, 0.3), (1.0, 2.0, float("inf"))]
        tables = 0
        for radius, mom, (m_a, m_b, m_c) in itertools.product(range(1, 4), range(4), masses):
            args = ((1, radius), m_a, m_b, m_c, state(("a", (mom,)), ("b", (-mom,))),
                    state(("a", (-mom,)), ("b", (mom,))), 1e-3)
            got = self._outcome(self._rows, *args)
            assert got == self._outcome(reference.three_particle_paths_ref, *args)
            tables += isinstance(got, list)
        assert tables == 24  # of 60: momentum 0, momenta off the grid and the infinite mass are refused

    def test_no_closure_and_no_walk(self, monkeypatch):
        calls = []

        def counted(name, fn):
            return lambda *a, **k: calls.append(name) or fn(*a, **k)

        for name in ("build_interaction", "index_paths"):
            monkeypatch.setattr(symdiag, name, counted(name, getattr(symdiag, name)))
        monkeypatch.setattr(resolvent, "index_paths", counted("index_paths", resolvent.index_paths))
        monkeypatch.setattr(symdiag.SparseInteraction, "__init__",
                            counted("SparseInteraction", symdiag.SparseInteraction.__init__))
        rep = symdiag.three_particle_demo((1, 2), 1.0, 2.0, 0.5, STD_I, STD_J, 1e-3)
        assert [r.label for r in rep.rows] == ["a", "b", "c", "d"] and calls == []
        std_model()  # the counters count
        assert calls == ["build_interaction", "SparseInteraction"]
