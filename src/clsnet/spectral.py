"""Eigen-analysis of network Hamiltonians.

Covers full spectra, permutation-symmetry checks, enumeration of
compact localized states (CLS) inside degenerate subspaces, and the
two partition block decompositions: the equitable partition of the
star under its outer four-cycle, and the nonequitable partition of the
seven-site unit into a 4x4 block R and a decoupled 3x3 block C0.

A CLS is an eigenvector with exactly zero amplitude outside a small
support.  Eigensolvers return arbitrary rotations inside a flat band,
so CLS detection searches each degenerate cluster for minimal-support
combinations rather than trusting raw eigenvector columns; only supports
S on which H[S^c, S] has a null vector are candidates (Roentgen et al.,
PRB 97, 035161, 2018).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lattice import SEVEN_EDGES, TimedHamiltonian, static_matrix

__all__ = ["SUPPORT_THRESHOLD", "CLUSTER_GAP", "STAR_FOUR_CYCLE", "Spectrum",
           "CompactState", "PartitionBlocks", "spectrum",
           "commutes_with_permutation", "find_cls", "dimer_state",
           "equitable_blocks_star", "nonequitable_blocks_seven"]

# |amplitude| below this counts as zero when declaring a CLS support:
# far above eigensolver noise, far below any physical amplitude here
SUPPORT_THRESHOLD = 1e-10
# eigenvalues closer than this are grouped into one degenerate cluster
CLUSTER_GAP = 1e-9
# how close a projector eigenvalue must be to 1 to count as "inside"
_FLAT_TOL = 1e-12
# the star's outer cycle 0 -> 1 -> 3 -> 4 -> 0 as perm[i], hub 2 fixed
STAR_FOUR_CYCLE = (1, 3, 2, 4, 0)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def clusters(self):
        """Index ranges of degenerate groups, split at gaps above
        ``CLUSTER_GAP``."""
        w = self.eigenvalues
        if w.size == 0:
            return []
        cuts = np.flatnonzero(np.diff(w) > CLUSTER_GAP) + 1
        return [range(a, b) for a, b in
                zip(np.r_[0, cuts], np.r_[cuts, w.size])]


@dataclass(frozen=True)
class CompactState:
    """Eigenvector with exactly zero amplitude outside ``support``."""

    vector: np.ndarray
    support: tuple
    energy: float


@dataclass(frozen=True)
class PartitionBlocks:
    """Reduced block matrices plus the bases lifting them back.

    ``bases[k]`` has orthonormal columns spanning block k's sector; a
    block eigenvector w lifts to the full-space vector bases[k] @ w.
    """

    blocks: tuple
    bases: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.bases):
            raise ValueError("one lift basis per block required")
        for blk, B in zip(self.blocks, self.bases):
            if blk.shape != (B.shape[1], B.shape[1]):
                raise ValueError("basis width must match block size")
            gram = B.conj().T @ B
            if not np.allclose(gram, np.eye(B.shape[1]), atol=1e-12):
                raise ValueError("lift basis columns must be orthonormal")

    def union_eigenvalues(self):
        """All block eigenvalues pooled, ascending."""
        return np.sort(np.concatenate(
            [np.linalg.eigvalsh(b) for b in self.blocks]))

    def lift(self, block_index, w):
        """Full-space vector for a block-space vector ``w``."""
        return self.bases[block_index] @ np.asarray(w)

    def lifted_pairs(self):
        """(eigenvalue, lifted eigenvector) for every block eigenpair."""
        out = []
        for k, blk in enumerate(self.blocks):
            w, U = np.linalg.eigh(blk)
            out += [(float(w[i]), self.lift(k, U[:, i])) for i in range(w.size)]
        return out


def spectrum(H):
    """Eigendecomposition as a :class:`Spectrum`, once per TimedHamiltonian."""
    M = static_matrix(H)
    w, V = H._eigh if isinstance(H, TimedHamiltonian) else np.linalg.eigh(M)
    return Spectrum(w, V)


def commutes_with_permutation(H, perm):
    """Whether ``H`` commutes with the site permutation i -> perm[i]."""
    M = static_matrix(H)
    perm = np.asarray(perm, dtype=int)
    n = M.shape[0]
    if perm.shape != (n,) or sorted(perm) != list(range(n)):
        raise ValueError("perm must be a bijection on the sites")
    S = np.zeros((n, n))
    S[perm, np.arange(n)] = 1.0
    return bool(np.max(np.abs(M @ S - S @ M)) <= 1e-12)


def dimer_state(n_sites, pair, antisymmetric=True):
    """(e_i -/+ e_j)/sqrt(2) on ``pair``, zero elsewhere."""
    i, j = pair
    vec = np.zeros(n_sites)
    vec[i] = 1 / np.sqrt(2.0)
    vec[j] = (-1 if antisymmetric else 1) / np.sqrt(2.0)
    return vec


def _candidate_supports(M, max_size, tau):
    """Supports S of size 2..max_size on which H[S^c, S] has a singular
    value <= tau, as one index array per size, rows in lexicographic
    order.  Its Gram matrix is (M^H M)[S, S] - M[S, S]^H M[S, S]; a
    pair's [[a, b], [b*, d]] has its smallest eigenvalue in closed form,
    larger supports take one batched eigvalsh per size.

    The closed form runs only on pairs whose columns meet (M[i, j],
    M[j, i] or (M^H M)[i, j] nonzero) or with a site whose a_i = ((M^H
    M)[i, i] - |M[i, i]|^2).real is <= tau^2 + 8 eps (a_i + max a).
    Any other pair has b == 0 exactly and a, d = a_i, a_j, so its low =
    (a + d)/2 - |a - d|/2 is min(a_i, a_j) to eps max a, above tau^2:
    it keeps the closed form's pairs over all pairs, bit for bit."""
    MM = M.conj().T @ M
    out = []
    for size in range(2, max_size + 1):
        if size == 2:
            ai = (MM.diagonal() - M.diagonal().conj() * M.diagonal()).real
            small = ai <= tau * tau + 8 * np.finfo(float).eps * (ai + ai.max())
            meet = (M != 0) | (M.T != 0) | (MM != 0) | small | small[:, None]
            i, j = np.nonzero(np.triu(meet, 1))  # row-major: lexicographic
            mii, mji, mij, mjj = M[i, i], M[j, i], M[i, j], M[j, j]
            a = (MM[i, i] - (mii.conj() * mii + mji.conj() * mji)).real
            d = (MM[j, j] - (mij.conj() * mij + mjj.conj() * mjj)).real
            b = MM[i, j] - (mii.conj() * mij + mji.conj() * mjj)
            low = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(b))
            S = np.column_stack([i, j])
        else:
            S = np.array(list(combinations(range(len(M)), size)), np.intp)
            rows, cols = S[:, :, None], S[:, None, :]
            inner = M[rows, cols]
            gram = MM[rows, cols] - inner.conj().transpose(0, 2, 1) @ inner
            low = np.linalg.eigvalsh(gram)[:, 0]
        out.append(S[low <= tau * tau])
    return out


def find_cls(H, max_support):
    """Compact localized eigenvectors with support size <= max_support.

    The rank condition picks candidate supports once per H, pairs in
    closed form: S is kept when H[S^c, S] has a singular value <= tau
    = 2 ||H|| sqrt(_FLAT_TOL) + n CLUSTER_GAP.  A unit cluster vector u
    with weight >= 1 - _FLAT_TOL on S has |(H - E) u| <= n CLUSTER_GAP
    and |u off S| <= sqrt(_FLAT_TOL), so H[S^c, S] u_S meets tau: no
    support the projector test accepts is dropped.  Candidates are taken
    by increasing size, lexicographically within one; one gather per size
    weighs them in every degenerate cluster, and only where some reach
    1 - _FLAT_TOL does one batched eigh give their projector eigenpairs.
    A support qualifies when its projector has a unit eigenvalue; that
    eigenspace is deflated (SVD) against the cluster's accepted states if
    one is nonzero on the support, else all are exactly orthogonal to it,
    so the returned list is mutually orthogonal.  Amplitudes below
    SUPPORT_THRESHOLD are zeroed exactly; each state is re-verified.
    """
    if max_support < 2:
        raise ValueError("max_support must be at least 2")
    M = static_matrix(H)
    n = M.shape[0]
    spec = spectrum(H)
    tau = (2 * np.abs(spec.eigenvalues).max(initial=0.0) * np.sqrt(_FLAT_TOL)
           + n * CLUSTER_GAP)
    candidates = _candidate_supports(M, min(max_support, n), tau)
    clusters, V = spec.clusters(), spec.eigenvectors
    # W[site, cluster]; heavy[size][support, cluster], NaN counting heavy
    W = np.add.reduceat((V * V.conj()).real, [c.start for c in clusters], 1)
    heavy = [~(W[S].sum(axis=1) < 1 - _FLAT_TOL) for S in candidates]
    found = []
    for c in np.flatnonzero(sum(h.any(axis=0) for h in heavy)):
        Vc, covered = V[:, clusters[c]], np.zeros(n, bool)  # Ah's sites
        Ah, a = np.empty((Vc.shape[1], n), Vc.dtype), 0  # A^H, A: accepted
        for supports, h in zip(candidates, heavy):
            if not len(sel := supports[h[:, c]]):
                continue
            sub = Vc[sel]
            lams, Us = np.linalg.eigh(sub @ sub.conj().transpose(0, 2, 1))
            for idx, lam, U in zip(sel.tolist(), lams, Us):
                inside = lam >= 1 - _FLAT_TOL
                if not inside.any():
                    continue
                B = np.zeros((n, int(inside.sum())), dtype=Vc.dtype)
                B[idx, :] = U[:, inside]
                if covered[idx].any():  # project onto Ah's null space
                    _, sv, vh = np.linalg.svd(Ah[:a] @ B, full_matrices=True)
                    B = B @ vh[int(np.sum(sv > 1e-8)):].conj().T
                for vec in B.T:
                    vec = vec / np.linalg.norm(vec)
                    energy = float((vec.conj() @ M @ vec).real)
                    vec = np.where(np.abs(vec) < SUPPORT_THRESHOLD, 0.0, vec)
                    vec = vec / np.linalg.norm(vec)
                    if np.linalg.norm(M @ vec - energy * vec) > 1e-10:
                        continue
                    support = tuple(np.flatnonzero(np.abs(vec) > 0.0))
                    found.append(CompactState(vec, support, energy))
                    Ah[a], a = vec.conj(), a + 1
                    covered[list(support)] = True
    return found


def _blocks_from_bases(M, bases, context):
    blocks = []
    for k, B in enumerate(bases):
        blocks.append(B.conj().T @ M @ B)
        for other in bases[k + 1:]:
            if np.max(np.abs(B.conj().T @ M @ other)) > 1e-12:
                raise ValueError(f"{context}: sectors are coupled, "
                                 "required symmetry is violated")
    return tuple(blocks)


def equitable_blocks_star(H):
    """Block-diagonalize a star Hamiltonian over its outer four-cycle.

    H must commute with ``STAR_FOUR_CYCLE`` (0 -> 1 -> 3 -> 4 -> 0, hub
    2 fixed).  The symmetric sector gives a 2x2 block coupling the
    outer average to the hub with strength 2J; the three remaining
    one-dimensional sectors are flat.
    """
    M = static_matrix(H)
    if M.shape != (5, 5):
        raise ValueError("expected a five-site star Hamiltonian")
    if not commutes_with_permutation(M, STAR_FOUR_CYCLE):
        raise ValueError("Hamiltonian does not commute with the four-cycle")
    e = np.eye(5)
    half = 0.5
    q_sym = half * (e[0] + e[1] + e[3] + e[4])
    bases = (
        np.column_stack([q_sym, e[2]]),
        (e[0] - e[3])[:, None] / np.sqrt(2.0),
        (half * (e[0] - e[1] + e[3] - e[4]))[:, None],
        (e[1] - e[4])[:, None] / np.sqrt(2.0),
    )
    return PartitionBlocks(_blocks_from_bases(M, bases, "equitable star"), bases)


def nonequitable_blocks_seven(H7):
    """Nonequitable partition of the seven-site unit into R and C0.

    Requires equal potentials on all four dimer sites, equal
    potentials on both connectors, and equal outer couplings
    J1=J2=J5=J6; the inner couplings J3, J4 may differ.  R (4x4)
    couples the hub to the connector combination with strength
    sqrt(J3^2 + J4^2); C0 (3x3) is the orthogonal combination sector,
    decoupled from the hub.  Lift amplitudes carry the ratios
    J3/sqrt(xi) and J4/sqrt(xi).
    """
    M = static_matrix(H7)
    if M.shape != (7, 7):
        raise ValueError("expected a seven-site Hamiltonian")
    allowed = np.diag(np.ones(7, dtype=bool))
    for i, j in SEVEN_EDGES:
        allowed[i, j] = allowed[j, i] = True
    if np.max(np.abs(M[~allowed])) > 1e-12:
        raise ValueError("matrix has couplings outside the seven-site pattern")
    v = np.diag(M)
    J1, J2, J3, J4, J5, J6 = (M[i, j] for (i, j) in SEVEN_EDGES)
    J_outer = (J1, J2, J5, J6)
    if max(J_outer) - min(J_outer) > 1e-12:
        raise ValueError("outer couplings J1=J2=J5=J6 required")
    dimer_v = (v[0], v[1], v[5], v[6])
    if max(dimer_v) - min(dimer_v) > 1e-12:
        raise ValueError("equal potentials on all dimer sites required")
    if abs(v[2] - v[4]) > 1e-12:
        raise ValueError("equal connector potentials required")
    xi = float(J3**2 + J4**2)
    if xi <= 0.0:
        raise ValueError("need J3^2 + J4^2 > 0")
    s = np.sqrt(xi)
    e = np.eye(7)
    basis_r = np.column_stack([
        e[3],
        (J3 * e[2] + J4 * e[4]) / s,
        (J3 * e[1] + J4 * e[5]) / s,
        (J3 * e[0] + J4 * e[6]) / s,
    ])
    basis_c = np.column_stack([
        (J4 * e[2] - J3 * e[4]) / s,
        (J4 * e[1] - J3 * e[5]) / s,
        (J4 * e[0] - J3 * e[6]) / s,
    ])
    bases = (basis_r, basis_c)
    return PartitionBlocks(_blocks_from_bases(M, bases, "nonequitable seven"),
                           bases)
