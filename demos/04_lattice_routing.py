"""
Routing stored states across a lattice
======================================

On the decorated Lieb lattice every hub with its two adjacent dimers
is a five-site star.  Ramping the rest of the lattice away isolates
that star, a flip transfer hops the state one dimer over, and ramping
back re-parks it.  Chaining jumps moves a state anywhere; a greedy
scheduler keeps concurrent routes from colliding on a shared coupling.
"""

from clsnet.lattice import build_dll
from clsnet.routing import (
    plan_route,
    schedule_multi,
    simulate_route,
    verify_timeline,
)

# ----------------------------------------------------------------
# A 3x3-cell lattice: 45 sites, hubs at multiples of 5.  Plan a
# three-jump route from the h-dimer of the lower-left cell to the
# dangling dimer at the upper-middle edge.

graph, H = build_dll(3, 3, 0.25, 0.5)
plan = plan_route(graph, H, (1, 2), (36, 37))
print("route (1,2) -> (36,37):")
for j in plan.jumps:
    print(f"  jump at hub {j.star.center}: "
          f"{j.star.dimer_in} -> {j.star.dimer_out}, "
          f"duration {j.duration:.4f}")
print("total duration:", plan.duration)

tl = schedule_multi([plan])
rep = simulate_route(graph, H, tl)
print("end-to-end fidelity:", rep.fidelities[0])

# ----------------------------------------------------------------
# Two requests that both need the central hub first: east across the
# middle row, north up the middle column.  A jump holds its four spokes
# alone and ramps its boundary couplings; two routes may hold one
# coupling at the same time only as ramps with the same window and ramp
# time.  The scheduler delays the second request by exactly one jump,
# and it then runs beside the east route's second jump, both ramping
# the hub-20 couplings of dimer (21, 22) along the same profile.

east = plan_route(graph, H, (16, 17), (26, 27))
north = plan_route(graph, H, (8, 9), (23, 24))
print("\neast hubs: ", [j.star.center for j in east.jumps])
print("north hubs:", [j.star.center for j in north.jumps])

tl = schedule_multi([east, north])
print("start times:", [float(s) for s in tl.starts])
verify_timeline(tl)  # raises if two routes held a coupling at once

rep = simulate_route(graph, H, tl)
for name, fid in zip(("east", "north"), rep.fidelities):
    print(f"{name} fidelity: {fid}")
print("norm drift:", rep.norm_drift)

# Per-jump fidelities show the state re-parked after every hop.
for name, jumps in zip(("east", "north"), rep.per_jump):
    print(name, "per-jump:", [(round(t, 3), round(f, 12))
                              for t, f in jumps])
