"""
Spectra and compact stored states
=================================

Three networks, one theme: a dimer whose two sites share the same
potential hosts an eigenvector that lives on those two sites alone.
That compact state is where quantum amplitude gets parked.
"""

import numpy as np

from clsnet.lattice import build_dll, build_seven, build_star
from clsnet.spectral import (
    equitable_blocks_star,
    find_cls,
    nonequitable_blocks_seven,
    spectrum,
)

# ----------------------------------------------------------------
# The five-site star: two dimers hanging off a central hub.  With
# uniform couplings J and uniform potential v the spectrum is a flat
# triple at v plus the pair v +- 2J.

J, v = 0.25, 0.5
H = build_star([J] * 4, v)
w = spectrum(H).eigenvalues
print("star eigenvalues:", np.round(w, 12))

# Both dimers carry a compact state: amplitude (+1, -1)/sqrt(2) on the
# dimer sites and exactly zero elsewhere, eigenvalue v regardless of J.
for s in find_cls(H, max_support=2):
    print(f"  compact state on sites {s.support}, energy {s.energy:.6f}")

# The outer four-cycle (swap the dimers, swap partners) commutes with
# H.  Its symmetric sector is a 2x2 block coupling the outer average
# to the hub with strength 2J; everything else is flat.
blocks = equitable_blocks_star(H)
print("block sizes:", [b.shape[0] for b in blocks.blocks])
print("2x2 block:\n", blocks.blocks[0])

# ----------------------------------------------------------------
# The seven-site unit inserts a connector between each dimer and the
# hub.  With inner couplings sqrt(3) J and J = 1, v = 0 the spectrum
# is three zeros and +-sqrt(2), +-2 sqrt(2).

s3 = np.sqrt(3.0)
H7 = build_seven([1, 1, s3, s3, 1, 1], 0.0)
print("\nseven-site eigenvalues:", np.round(spectrum(H7).eigenvalues, 12))

# The reduction here is a nonequitable partition: the hub couples to
# the connector *combination* with strength sqrt(J3^2 + J4^2), and a
# 3x3 block closes on the antisymmetric side.
pb = nonequitable_blocks_seven(H7)
print("union of block spectra:", np.round(pb.union_eigenvalues(), 12))
dev = np.max(np.abs(pb.union_eigenvalues() - spectrum(H7).eigenvalues))
print("deviation from direct diagonalization:", dev)

# Every block eigenvector lifts back to a full-space eigenvector.
worst = 0.0
for lam, vec in pb.lifted_pairs():
    M = np.asarray(H7.base)
    worst = max(worst, np.linalg.norm(M @ vec - lam * vec))
print("worst lifted residual:", worst)

# ----------------------------------------------------------------
# A decorated Lieb lattice tiles hubs and dimers in 2d.  Every dimer
# still hosts its own compact state: a 3x3-cell lattice has 18 dimers,
# all degenerate at v.

graph, HL = build_dll(3, 3, J, v)
states = find_cls(HL, max_support=2)
print(f"\nDLL(3,3): {graph.n_sites} sites, {len(states)} compact states")
supports = sorted(tuple(map(int, s.support)) for s in states)
print("their supports:", supports[:6], "...")
