"""
Smooth pulse shaping with a randomized-basis ansatz
===================================================

The flip protocols switch couplings instantaneously.  When only
smooth drives are available, a truncated trigonometric ansatz over
randomized frequencies does the same job: evaluate the bundled
parameter sets, polish them, or search from scratch.
"""

from clsnet import crab

# ----------------------------------------------------------------
# Each control problem fixes the network, the endpoints and the
# horizon; parameters live in a small (x, x', omega) space.

problem = crab.star_transfer()
ref = crab.REFERENCE_PARAMS["star-transfer"]
print("star transfer, reference parameters:")
print("  infidelity (native grid):   ",
      crab.infidelity_objective(problem, ref))
print("  infidelity (doubled grid):  ",
      crab.verify_infidelity(problem, ref))

# A short simplex polish starting from the reference point goes much
# deeper; frequencies join the simplex too.
polished, value = crab.refine(problem, ref)
print("  after refinement:           ",
      crab.verify_infidelity(problem, polished))

# ----------------------------------------------------------------
# The creation problem drives the hub-dimer couplings from nothing;
# its best pulses dip below zero partway through, which is the
# signature the optimum is not a simple ramp.

cp = crab.star_creation()
cref = crab.REFERENCE_PARAMS["star-creation"]
print("\nstar creation, reference parameters:")
print("  verified infidelity:", crab.verify_infidelity(cp, cref))

# the table samples 201 uniform times; every 25th gives nine
times, table = crab.pulse_table(cp, cref)
print("  J_1 samples:", [round(float(x), 4) for x in table[1][::25]])
print("  min over the table:", min(table[1]))

# ----------------------------------------------------------------
# Full search: restart k draws its frequencies and starting
# amplitudes from generator (seed, k), so any prefix of a longer run
# is reproducible.  A reduced time grid keeps the search cheap; the
# winner is re-checked on the problem's native grid.

small = crab.star_creation(n_steps=128)
res = crab.optimize_crab(small, n_restarts=8, seed=7, max_evals=2000)
print("\n8-restart search on the reduced grid:")
print("  best objective:    ", res.infidelity)
print("  verified (native): ", crab.verify_infidelity(cp, res.best_params))
print("  total evaluations: ", res.evaluations)
for entry in res.log[:3]:
    print("  restart", entry["restart"], "->", entry["infidelity"])
