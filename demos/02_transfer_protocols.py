"""
Flip-driven transfer and generation protocols
=============================================

A compact dimer state is dark: it never moves on its own.  Flipping
the sign of one amplitude (or one coupling) turns it bright, the star
dynamics carries it across, and a closing flip parks it again.
"""

import numpy as np

from clsnet.evolve import fidelity, run_schedule
from clsnet.protocols import (
    GenerationParams,
    SevenTransferParams,
    StarTransferParams,
    build_schedule,
    cls_state,
)

# ----------------------------------------------------------------
# Transfer across the star.  The coupling family indexed by integers
# (k1, k2) fixes the effective detuning v and the transfer time T: a
# member is built from its indices and derives both.  Member (1, 0) at
# J = 1/4 gives v = 1/2 and T = 2 pi.

p = StarTransferParams(1, 0, 0.25)
print(f"member (1,0): v = {p.v}, T = {p.T}")

# The member knows its network, so the schedule needs only the variant.
s = build_schedule("phase-flip-transfer", p)
traj = run_schedule(s, s.initial_state)
print("transfer fidelity:", fidelity(traj.final_state, s.target_state))
print("events:", [(round(t, 6), kind) for t, kind, _ in traj.events])

# The same protocol works by flipping one hopping sign instead of a
# site amplitude; the two drives give identical site populations.
s2 = build_schedule("hopping-flip-transfer", p)
traj2 = run_schedule(s2, s2.initial_state)
print("hopping-flip fidelity:",
      fidelity(traj2.final_state, s2.target_state))

# Other family members trade speed against the potential: member
# (2, 1) needs only v = 2J/3, a third of (1, 0)'s, but takes three
# times as long.
slow = StarTransferParams(2, 1, 0.25)
print(f"member (2,1): v = {slow.v:.6f}, T = {slow.T:.6f}")

# The seven-site unit has its own timing family, indexed by one integer
# k with the potential left free; its member runs on a seven-site base.
seven = build_schedule("phase-flip-transfer", SevenTransferParams(0, 1.0))
traj = run_schedule(seven, seven.initial_state)
print("seven-site transfer fidelity:",
      fidelity(traj.final_state, seven.target_state))

# ----------------------------------------------------------------
# Generation: start from the hub, end on a dimer.  Branch-2 member
# (0, 1) of the generation family needs J' = 3 sqrt(2) J and reaches
# the symmetric dimer combination in T = pi; a final phase flip turns
# it into the stored antisymmetric state.

J = 0.25
gp = GenerationParams(2, 0, 1, 3 * np.sqrt(2.0) * J)
print(f"\ngeneration member: v = {gp.v}, T = {gp.T}")

g = build_schedule("generation", gp)
traj = run_schedule(g, g.initial_state)
print("hub -> stored dimer fidelity:",
      fidelity(traj.final_state, g.target_state))

# Running it backwards releases the stored state onto the hub.
r = build_schedule("reverse-generation", gp)
traj = run_schedule(r, r.initial_state)
print("stored dimer -> hub fidelity:",
      fidelity(traj.final_state, cls_state("star", "c")))

# ----------------------------------------------------------------
# Piecewise transfer chains generation and its reverse through the
# hub: in-dimer -> hub -> out-dimer, with a coupling handover at T.

pw = build_schedule("piecewise-transfer", gp)
traj = run_schedule(pw, pw.initial_state)
print("\npiecewise transfer fidelity:",
      fidelity(traj.final_state, pw.target_state))
print("total duration:", traj.times[-1])
