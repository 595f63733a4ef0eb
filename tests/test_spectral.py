from itertools import combinations

import numpy as np
import pytest

from clsnet.lattice import TimedHamiltonian, build_dll, build_seven, \
    build_star, static_matrix
from clsnet.spectral import (
    CLUSTER_GAP,
    SUPPORT_THRESHOLD,
    CompactState,
    PartitionBlocks,
    Spectrum,
    _candidate_supports,
    commutes_with_permutation,
    dimer_state,
    equitable_blocks_star,
    find_cls,
    nonequitable_blocks_seven,
    spectrum,
)

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)
FOUR_CYCLE = (1, 3, 2, 4, 0)    # 0 -> 1 -> 3 -> 4 -> 0, hub fixed


class TestSpectrum:
    def test_uniform_star_eigenvalues(self):
        spec = spectrum(build_star([0.25] * 4, 0.5))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.5, 0.5, 0.5, 1.0],
                                   atol=1e-12)

    def test_seven_site_eigenvalues(self):
        spec = spectrum(build_seven([1, 1, S3, S3, 1, 1], 0.0))
        expect = sorted([0, 0, 0, -S2, S2, -2 * S2, 2 * S2])
        np.testing.assert_allclose(spec.eigenvalues, expect, atol=1e-12)

    def test_diagonal_matrix(self):
        spec = spectrum(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=0)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(9, 9))
        M = A + A.T
        spec = spectrum(M)
        for k in range(9):
            res = M @ spec.eigenvectors[:, k] \
                - spec.eigenvalues[k] * spec.eigenvectors[:, k]
            assert np.linalg.norm(res) <= 1e-12 * max(1, abs(spec.eigenvalues[k]))
        gram = spec.eigenvectors.T @ spec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_rejects_non_hermitian(self):
        M = np.zeros((2, 2))
        M[0, 1] = 1.0
        with pytest.raises(ValueError):
            spectrum(M)

    def test_cluster_grouping(self):
        spec = spectrum(build_star([0.25] * 4, 0.5))
        groups = spec.clusters()
        assert [len(g) for g in groups] == [1, 3, 1]


class TestCommutesWithPermutation:
    def test_dimer_swap(self):
        H = build_star([0.25] * 4, 0.5)
        assert commutes_with_permutation(H, (1, 0, 2, 3, 4))

    def test_broken_dimer_swap(self):
        H = build_star([0.25, 0.3, 0.25, 0.25], 0.5)
        assert not commutes_with_permutation(H, (1, 0, 2, 3, 4))

    def test_outer_four_cycle(self):
        H = build_star([0.25] * 4, 0.5)
        assert commutes_with_permutation(H, FOUR_CYCLE)

    def test_rejects_non_bijection(self):
        H = build_star([0.25] * 4, 0.5)
        with pytest.raises(ValueError):
            commutes_with_permutation(H, (0, 0, 2, 3, 4))


class TestFindCls:
    def test_uniform_star_two_dimers(self):
        states = find_cls(build_star([0.25] * 4, 0.5), 2)
        assert len(states) == 2
        supports = {s.support for s in states}
        assert supports == {(0, 1), (3, 4)}
        for s in states:
            amps = s.vector[list(s.support)]
            np.testing.assert_allclose(np.abs(amps), [1 / S2, 1 / S2], atol=1e-12)
            assert amps[0] * amps[1] < 0          # antisymmetric combination
            assert s.energy == pytest.approx(0.5, abs=1e-12)

    def test_broken_input_dimer_leaves_one(self):
        # both couplings and potentials must differ on a dimer to kill
        # its compact state; see test_weighted_cls_survives_coupling_skew
        states = find_cls(build_star([0.2, 0.3, 0.25, 0.25],
                                     [0.4, 0.6, 0.5, 0.5, 0.5]), 2)
        assert len(states) == 1
        assert states[0].support == (3, 4)

    def test_weighted_cls_survives_coupling_skew(self):
        # with equal potentials, J1 != J2 still leaves a compact
        # eigenvector on the dimer: amplitudes proportional to (J2, -J1)
        J1, J2 = 0.2, 0.3
        states = find_cls(build_star([J1, J2, 0.25, 0.25], 0.5), 2)
        assert {s.support for s in states} == {(0, 1), (3, 4)}
        skewed = [s for s in states if s.support == (0, 1)][0]
        expect = np.zeros(5)
        expect[0], expect[1] = J2, -J1
        expect /= np.linalg.norm(expect)
        assert abs(np.vdot(skewed.vector, expect)) ** 2 >= 1 - 1e-12

    def test_amplitudes_outside_support_exactly_zero(self):
        for s in find_cls(build_star([0.25] * 4, 0.5), 2):
            outside = np.delete(s.vector, list(s.support))
            assert np.all(outside == 0.0)
            assert abs(np.linalg.norm(s.vector) - 1.0) <= 1e-12

    def test_dll_2x2_one_cls_per_dimer(self):
        graph, H = build_dll(2, 2, 1.0, 0.0)
        states = find_cls(H, 2)
        assert len(states) == 8
        assert {s.support for s in states} == set(graph.dimers())

    def test_dll_2x2_against_pair_oracle(self):
        # oracle: a vector on support {i,j} is an eigenvector exactly when
        # the two columns restricted to the outside rows are linearly
        # dependent; find the null direction and check the full residual
        graph, H = build_dll(2, 2, 1.0, 0.0)
        M = np.asarray(H.base)
        n = graph.n_sites
        oracle_supports = set()
        for i in range(n):
            for j in range(i + 1, n):
                outside = [k for k in range(n) if k not in (i, j)]
                A = M[np.ix_(outside, [i, j])]
                _, sv, vh = np.linalg.svd(A)
                if sv.min() > 1e-12:
                    continue
                a, b = vh[-1]
                vec = np.zeros(n)
                vec[i], vec[j] = a, b
                energy = vec @ M @ vec
                if np.linalg.norm(M @ vec - energy * vec) <= 1e-10:
                    oracle_supports.add((i, j))
        detected = {s.support for s in find_cls(H, 2)}
        # every detected support hosts an eigenvector, and every graph
        # dimer is confirmed by the oracle
        assert detected <= oracle_supports
        assert set(graph.dimers()) <= oracle_supports
        assert detected == set(graph.dimers())
        # the only extra oracle supports are cross pairs of dangling
        # dimer sites hanging off one common hub; those directions are
        # linear combinations of the per-dimer states plus a four-site
        # state, so the orthogonal selection skips them
        for i, j in oracle_supports - detected:
            ni, nj = graph.neighbors(i), graph.neighbors(j)
            assert len(ni) == len(nj) == 1 and ni == nj

    def test_flat_band_combination_found_beyond_dimers(self):
        # at support size 4 the star's flat cluster holds one more
        # state orthogonal to both dimer states
        states = find_cls(build_star([0.25] * 4, 0.5), 5)
        sizes = sorted(len(s.support) for s in states)
        assert sizes.count(2) == 2
        assert any(len(s.support) > 2 for s in states)
        vecs = np.array([s.vector for s in states])
        gram = vecs @ vecs.T
        np.testing.assert_allclose(gram, np.eye(len(states)), atol=1e-10)

    def test_rejects_small_max_support(self):
        with pytest.raises(ValueError):
            find_cls(build_star([0.25] * 4, 0.5), 1)

    def test_perturbation_outside_domain_is_harmless(self):
        H = build_star([0.25] * 4, 0.5)
        before = [s for s in find_cls(H, 2) if s.support == (3, 4)][0]
        M = np.array(H.base)
        M[0, 1] = M[1, 0] = 0.37     # entry not incident to sites 3, 4
        M[0, 0] = 1.9
        after = [s for s in find_cls(M, 2) if s.support == (3, 4)][0]
        overlap = abs(np.vdot(after.vector, before.vector)) ** 2
        assert overlap >= 1 - 1e-12

    def test_antisymmetric_dimer_invariant_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = 6
            A = rng.normal(size=(n, n))
            M = A + A.T
            M[1, 1] = M[0, 0]              # equal potentials on the dimer
            M[2:, 1] = M[2:, 0]            # equal couplings to the rest
            M[1, 2:] = M[0, 2:]
            vec = dimer_state(n, (0, 1))
            energy = vec @ M @ vec
            assert np.linalg.norm(M @ vec - energy * vec) <= 1e-12
            hits = [s for s in find_cls(M, 2) if s.support == (0, 1)]
            assert hits
            assert abs(np.vdot(hits[0].vector, vec)) ** 2 >= 1 - 1e-12


def exhaustive_find_cls(H, max_support, flat_tol=1e-12):
    """Oracle: the projector test on every support of every cluster,
    without the rank condition's candidate selection."""
    M = static_matrix(H)
    n = M.shape[0]
    w, V = np.linalg.eigh(M)
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_GAP) + 1
    found = []
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, w.size]):
        Vc = V[:, a:b]
        weight = np.einsum("ij,ij->i", Vc, Vc.conj()).real
        accepted = []
        for size in range(2, min(max_support, n) + 1):
            for S in combinations(range(n), size):
                idx = list(S)
                if weight[idx].sum() < 1 - flat_tol:
                    continue
                sub = Vc[idx, :]
                lam, U = np.linalg.eigh(sub @ sub.conj().T)
                inside = lam >= 1 - flat_tol
                if not inside.any():
                    continue
                B = np.zeros((n, int(inside.sum())), dtype=Vc.dtype)
                B[idx, :] = U[:, inside]
                if accepted:
                    K = np.column_stack(accepted).conj().T @ B
                    _, sv, vh = np.linalg.svd(K, full_matrices=True)
                    B = B @ vh[int(np.sum(sv > 1e-8)):].conj().T
                for vec in B.T:
                    vec = vec / np.linalg.norm(vec)
                    energy = float((vec.conj() @ M @ vec).real)
                    vec = np.where(np.abs(vec) < SUPPORT_THRESHOLD, 0.0, vec)
                    vec = vec / np.linalg.norm(vec)
                    if np.linalg.norm(M @ vec - energy * vec) > 1e-10:
                        continue
                    support = tuple(np.flatnonzero(np.abs(vec) > 0.0))
                    found.append((support, energy, vec.tobytes()))
                    accepted.append(vec)
    return found


def assert_matches_oracle(H, max_support):
    got = [(s.support, s.energy, s.vector.tobytes())
           for s in find_cls(H, max_support)]
    assert got == exhaustive_find_cls(H, max_support)


def _skewed_star():
    M = np.array(build_star([0.25] * 4, 0.5).base)
    M[0, 1] = M[1, 0] = 0.37
    M[0, 0] = 1.9
    return M


TUNED_STARS = {
    "uniform": lambda: build_star([0.25] * 4, 0.5),
    "broken-dimer": lambda: build_star([0.2, 0.3, 0.25, 0.25],
                                       [0.4, 0.6, 0.5, 0.5, 0.5]),
    "coupling-skew": lambda: build_star([0.2, 0.3, 0.25, 0.25], 0.5),
    "outside-perturbation": _skewed_star,
}


class TestFindClsOracle:
    """The rank condition only drops supports the projector test would
    reject, so find_cls returns the exhaustive scan's states bit for
    bit."""

    @pytest.mark.parametrize("max_support", [2, 3, 4, 5])
    @pytest.mark.parametrize("star", sorted(TUNED_STARS))
    def test_tuned_stars(self, star, max_support):
        assert_matches_oracle(TUNED_STARS[star](), max_support)

    @pytest.mark.parametrize("max_support", [2, 3, 4, 5])
    def test_seven_site_sqrt3_point(self, max_support):
        assert_matches_oracle(build_seven([1, 1, S3, S3, 1, 1], 0.0),
                              max_support)

    @pytest.mark.parametrize("cells", [2, 3])
    def test_dll(self, cells):
        assert_matches_oracle(build_dll(cells, cells, 1.0, 0.0)[1], 2)

    def test_perturbed_dll_ensemble(self):
        # skew one dimer site's coupling and potential by amounts drawn
        # log-uniformly from 1e-14 to 1e-3: the small skews leave a
        # compact state, the large ones break it, and those near
        # sqrt(1e-12) sit at the projector test's edge
        rng = np.random.default_rng(2018)
        for trial in range(48):
            cells = 2 + trial % 2
            graph, H = build_dll(cells, cells, 1.0, 0.0)
            M = np.array(H.base)
            site = graph.dimers()[rng.integers(len(graph.dimers()))][0]
            other = rng.choice(np.flatnonzero(M[site]))
            dJ, dv = rng.choice([-1, 1], 2) * 10.0 ** rng.uniform(-14, -3, 2)
            M[site, other] += dJ
            M[other, site] = M[site, other]
            M[site, site] += dv
            assert_matches_oracle(M, 2)


def test_spectrum_and_find_cls_share_one_eigh(monkeypatch):
    # clsnet spectrum asks for spectrum(H) and then find_cls(H, 2): an
    # immutable TimedHamiltonian is diagonalized once, read-only
    H = TimedHamiltonian(build_dll(3, 3, 0.25, 0.5)[1].base)
    full, eigh = [], np.linalg.eigh

    def counting_eigh(a, *args, **kw):
        if np.shape(a) == H.base.shape:
            full.append(a)
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    spec = spectrum(H)
    assert len(find_cls(H, 2)) == 18
    assert len(full) == 1
    w, V = eigh(H.base)
    assert np.array_equal(spec.eigenvalues, w)
    assert np.array_equal(spec.eigenvectors, V)
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0


def test_find_cls_dll_6x6_eigh_count(monkeypatch):
    # candidate supports come once per H, and only a cluster with a heavy
    # pair takes a batched projector eigh over them: at most one per
    # support size, not one per cluster (43), one per heavy pair (76) or
    # one per pair of all 16,110
    graph, H = build_dll(6, 6, 1.0, 0.0)
    spectrum(H)  # the full eigh, kept on H
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kw):
        calls.append(np.shape(a))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # pairs come in closed form: no batched eigvalsh over 16,110 pairs
    batched = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kw):
        batched.append(np.shape(a))
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    states = find_cls(H, 2)
    assert len(calls) <= 1  # one support size, 2
    assert not batched
    assert len(states) == 72
    assert {s.support for s in states} == set(graph.dimers())


def svd_calls(monkeypatch, H, max_support):
    """find_cls(H, max_support) and how many SVDs it took."""
    calls, svd = [], np.linalg.svd

    def counting_svd(*args, **kw):
        calls.append(args)
        return svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    states = find_cls(H, max_support)
    monkeypatch.setattr(np.linalg, "svd", svd)
    return states, len(calls)


def test_find_cls_deflates_only_where_supports_overlap(monkeypatch):
    # an accepted state is exactly zero off its support, so it is
    # exactly orthogonal to a candidate whose support it misses: the
    # 6x6 DLL's 72 disjoint dimer states take 4 SVDs, not 75
    graph, H = build_dll(6, 6, 0.25, 0.5)
    states, n_svd = svd_calls(monkeypatch, H, 2)
    assert n_svd <= 4
    assert {s.support for s in states} == set(graph.dimers())


@pytest.mark.parametrize("H, max_support", [
    (build_star([0.25] * 4, 0.5), 4),
    (build_seven([1, 1, S3, S3, 1, 1], 0.0), 5),
], ids=["uniform-star", "seven-sqrt3"])
def test_find_cls_deflates_overlapping_supports(monkeypatch, H,
                                                max_support):
    # overlapping candidates are still projected off the accepted
    # states, bit for bit as the exhaustive scan does it
    states, n_svd = svd_calls(monkeypatch, H, max_support)
    assert n_svd >= 1
    assert [(s.support, s.energy, s.vector.tobytes()) for s in states] == \
        exhaustive_find_cls(H, max_support)


def closed_form_pairs(M, tau):
    """Pairs kept by the size-2 closed form evaluated on every pair, the
    exhaustive scan the pruned one must reproduce, in lexicographic
    order."""
    MM = M.conj().T @ M
    i, j = np.triu_indices(len(M), 1)
    mii, mji, mij, mjj = M[i, i], M[j, i], M[i, j], M[j, j]
    a = (MM[i, i] - (mii.conj() * mii + mji.conj() * mji)).real
    d = (MM[j, j] - (mij.conj() * mij + mjj.conj() * mjj)).real
    b = MM[i, j] - (mii.conj() * mij + mji.conj() * mjj)
    low = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(b))
    return np.column_stack([i, j])[low <= tau * tau]


def eigvalsh_pairs(M, tau):
    """Pairs kept by a batched eigvalsh of their 2x2 Gram matrices, the
    test the closed form replaces, in lexicographic order."""
    MM = M.conj().T @ M
    S = np.array(list(combinations(range(len(M)), 2)), np.intp)
    rows, cols = S[:, :, None], S[:, None, :]
    inner = M[rows, cols]
    gram = MM[rows, cols] - inner.conj().transpose(0, 2, 1) @ inner
    return S[np.linalg.eigvalsh(gram)[:, 0] <= tau * tau]


def perturbed_dll_ensemble():
    """The matrices TestFindClsOracle.test_perturbed_dll_ensemble draws."""
    rng = np.random.default_rng(2018)
    for trial in range(48):
        cells = 2 + trial % 2
        graph, H = build_dll(cells, cells, 1.0, 0.0)
        M = np.array(H.base)
        site = graph.dimers()[rng.integers(len(graph.dimers()))][0]
        other = rng.choice(np.flatnonzero(M[site]))
        dJ, dv = rng.choice([-1, 1], 2) * 10.0 ** rng.uniform(-14, -3, 2)
        M[site, other] += dJ
        M[other, site] = M[site, other]
        M[site, site] += dv
        yield M


def isolated_site_hermitian(seed, n=9):
    """Random complex Hermitian matrix with one site coupled to none."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M = A + A.conj().T
    k = rng.integers(n)
    M[k, :] = M[:, k] = 0.0
    M[k, k] = rng.normal()
    return M


def zero_column(seed, n=9):
    """Random real symmetric matrix with one site's column all zero."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    M = A + A.T
    k = rng.integers(n)
    M[k, :] = M[:, k] = 0.0
    return M


def gauged_dll(cells, seed):
    """The DLL at (J, v) = (0.3, 0.7) in a random diagonal phase gauge:
    complex Hermitian, with the same spectrum and compact states up to
    the phases."""
    M = np.array(build_dll(cells, cells, 0.3, 0.7)[1].base)
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).random(len(M)))
    return phase[:, None] * M * phase.conj()


PAIR_CASES = {
    **{f"dll{L}-J{J}-v{v}": (lambda L=L, J=J, v=v: build_dll(L, L, J, v)[1])
       for L in range(2, 7)
       for J, v in ((0.25, 0.5), (1.0, 0.0), (0.3, 0.7))},
    **{f"star-{k}": f for k, f in TUNED_STARS.items()},
    "seven-sqrt3": lambda: build_seven([1, 1, S3, S3, 1, 1], 0.0),
    **{f"isolated-site-{seed}": (lambda seed=seed:
                                 isolated_site_hermitian(seed))
       for seed in range(8)},
    **{f"zero-column-{seed}": (lambda seed=seed: zero_column(seed))
       for seed in range(4)},
    **{f"gauged-dll{L}": (lambda L=L: gauged_dll(L, L)) for L in (2, 3)},
}


def assert_pairs_match_eigvalsh(H):
    M = static_matrix(H)
    w = np.linalg.eigh(M)[0]
    tau = 2 * np.abs(w).max() * np.sqrt(1e-12) + len(M) * CLUSTER_GAP
    (pairs,) = _candidate_supports(M, 2, tau)
    np.testing.assert_array_equal(pairs, eigvalsh_pairs(M, tau))
    np.testing.assert_array_equal(pairs, closed_form_pairs(M, tau))
    return len(pairs)


class TestPairClosedForm:
    """_candidate_supports keeps, in the same order, exactly the pairs
    a batched eigvalsh of their Gram matrices keeps, and exactly those
    of the closed form over all pairs, whatever tau."""

    @pytest.mark.parametrize("case", sorted(PAIR_CASES))
    def test_matches_eigvalsh(self, case):
        H = PAIR_CASES[case]()
        assert assert_pairs_match_eigvalsh(H) > 0
        M = static_matrix(H)
        for tau in (1e-6, 1e-4, 1e-2, 0.1, 0.2, 0.3):
            (pairs,) = _candidate_supports(M, 2, tau)
            np.testing.assert_array_equal(pairs, closed_form_pairs(M, tau))

    def test_perturbed_dll_ensemble(self):
        for M in perturbed_dll_ensemble():
            assert_pairs_match_eigvalsh(M)


class TestDimerState:
    def test_antisymmetric(self):
        np.testing.assert_allclose(dimer_state(5, (0, 1)),
                                   [1 / S2, -1 / S2, 0, 0, 0])

    def test_symmetric(self):
        np.testing.assert_allclose(dimer_state(5, (3, 4), antisymmetric=False),
                                   [0, 0, 0, 1 / S2, 1 / S2])


def cluster_projectors(eigenvalues, vectors, gap=1e-9):
    order = np.argsort(eigenvalues)
    eigenvalues = np.asarray(eigenvalues)[order]
    vectors = [vectors[k] for k in order]
    groups = []
    start = 0
    for k in range(1, len(eigenvalues) + 1):
        if k == len(eigenvalues) or eigenvalues[k] - eigenvalues[k - 1] > gap:
            V = np.column_stack(vectors[start:k])
            groups.append((eigenvalues[start], V @ V.conj().T))
            start = k
    return groups


class TestEquitableStar:
    def test_uniform_star_block_content(self):
        pb = equitable_blocks_star(build_star([0.25] * 4, 0.5))
        sizes = sorted(b.shape[0] for b in pb.blocks)
        assert sizes == [1, 1, 1, 2]
        two = [b for b in pb.blocks if b.shape == (2, 2)][0]
        np.testing.assert_allclose(two, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        for b in pb.blocks:
            if b.shape == (1, 1):
                assert b[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_uniform_star_eigenspaces_match(self):
        H = build_star([0.25] * 4, 0.5)
        pb = equitable_blocks_star(H)
        pairs = pb.lifted_pairs()
        lifted = cluster_projectors([e for e, _ in pairs], [v for _, v in pairs])
        spec = spectrum(H)
        direct = cluster_projectors(spec.eigenvalues, list(spec.eigenvectors.T))
        assert len(lifted) == len(direct)
        for (e1, P1), (e2, P2) in zip(lifted, direct):
            assert e1 == pytest.approx(e2, abs=1e-12)
            assert np.max(np.abs(P1 - P2)) <= 1e-12

    def test_potential_shift_moves_all_blocks(self):
        H0 = build_star([0.25] * 4, 0.5)
        H1 = build_star([0.25] * 4, 0.5 + 0.77)
        w0 = equitable_blocks_star(H0).union_eigenvalues()
        w1 = equitable_blocks_star(H1).union_eigenvalues()
        np.testing.assert_allclose(w1, w0 + 0.77, atol=1e-12)

    def test_random_symmetric_trials(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            J = rng.uniform(-2, 2)
            v_out, v_hub = rng.uniform(-2, 2, size=2)
            H = build_star([J] * 4, [v_out] * 2 + [v_hub] + [v_out] * 2)
            pb = equitable_blocks_star(H)
            union = pb.union_eigenvalues()
            direct = np.linalg.eigvalsh(np.asarray(H.base))
            np.testing.assert_allclose(union, direct, atol=1e-12)
            M = np.asarray(H.base)
            for energy, vec in pb.lifted_pairs():
                assert np.linalg.norm(M @ vec - energy * vec) <= 1e-12

    def test_symmetry_violation_rejected(self):
        H = build_star([0.25, 0.25, 0.3, 0.25], 0.5)
        with pytest.raises(ValueError):
            equitable_blocks_star(H)


class TestNonequitableSeven:
    def test_sqrt3_point_block_spectra(self):
        pb = nonequitable_blocks_seven(build_seven([1, 1, S3, S3, 1, 1], 0.0))
        R, C0 = pb.blocks
        assert R.shape == (4, 4) and C0.shape == (3, 3)
        np.testing.assert_allclose(np.linalg.eigvalsh(R),
                                   sorted([0, 0, -2 * S2, 2 * S2]), atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(C0),
                                   sorted([0, -S2, S2]), atol=1e-12)

    def test_hub_connector_coupling_entry(self):
        # the R entry linking hub and connector combination must be
        # sqrt(J3^2 + J4^2); reproduces the full eigenvalue list
        pb = nonequitable_blocks_seven(build_seven([1, 1, S3, S3, 1, 1], 0.0))
        R = pb.blocks[0]
        assert R[0, 1] == pytest.approx(np.sqrt(6.0), abs=1e-14)

    def test_union_matches_direct_unequal_inner(self):
        H = build_seven([1, 1, 1.0, 2.0, 1, 1], 0.0)
        pb = nonequitable_blocks_seven(H)
        np.testing.assert_allclose(pb.union_eigenvalues(),
                                   np.linalg.eigvalsh(np.asarray(H.base)),
                                   atol=1e-12)

    def test_lift_amplitude_ratios(self):
        J3, J4 = 1.0, 2.0
        pb = nonequitable_blocks_seven(build_seven([1, 1, J3, J4, 1, 1], 0.0))
        s = np.sqrt(J3**2 + J4**2)
        basis_r, basis_c = pb.bases
        np.testing.assert_allclose(basis_r[:, 3],
                                   [J3 / s, 0, 0, 0, 0, 0, J4 / s], atol=1e-14)
        np.testing.assert_allclose(basis_c[:, 2],
                                   [J4 / s, 0, 0, 0, 0, 0, -J3 / s], atol=1e-14)

    def test_equal_inner_couplings_mirror_symmetry(self):
        pb = nonequitable_blocks_seven(build_seven([1, 1, S3, S3, 1, 1], 0.0))
        for _, vec in pb.lifted_pairs():
            for a, b in ((0, 6), (1, 5), (2, 4)):
                assert abs(abs(vec[a]) - abs(vec[b])) <= 1e-12

    def test_random_symmetric_trials(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            J = rng.uniform(0.2, 2)
            J3, J4 = rng.uniform(-2, 2, size=2)
            if J3**2 + J4**2 < 1e-4:
                J3 = 1.0
            v12, vc, vhub = rng.uniform(-1, 1, size=3)
            H = build_seven([J, J, J3, J4, J, J],
                            [v12, v12, vc, vhub, vc, v12, v12])
            pb = nonequitable_blocks_seven(H)
            np.testing.assert_allclose(pb.union_eigenvalues(),
                                       np.linalg.eigvalsh(np.asarray(H.base)),
                                       atol=1e-12)
            M = np.asarray(H.base)
            for energy, vec in pb.lifted_pairs():
                assert np.linalg.norm(M @ vec - energy * vec) <= 1e-12

    def test_symmetry_violations_rejected(self):
        with pytest.raises(ValueError):
            nonequitable_blocks_seven(build_seven([1, 1.2, S3, S3, 1, 1], 0.0))
        with pytest.raises(ValueError):
            nonequitable_blocks_seven(
                build_seven([1, 1, S3, S3, 1, 1], [0.1, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(ValueError):
            nonequitable_blocks_seven(build_seven([1, 1, 0.0, 0.0, 1, 1], 0.0))


class TestPartitionBlocksType:
    def test_rejects_mismatched_basis(self):
        with pytest.raises(ValueError):
            PartitionBlocks((np.eye(2),), (np.eye(3),))

    def test_rejects_non_orthonormal_basis(self):
        B = np.ones((4, 2))
        with pytest.raises(ValueError):
            PartitionBlocks((np.eye(2),), (B,))

    def test_lift_shapes(self):
        pb = nonequitable_blocks_seven(build_seven([1, 1, S3, S3, 1, 1], 0.0))
        vec = pb.lift(1, np.array([1.0, 0.0, 0.0]))
        assert vec.shape == (7,)
        assert vec[3] == 0.0     # C0 sector never touches the hub
