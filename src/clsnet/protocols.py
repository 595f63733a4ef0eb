"""Analytic flip-based transfer and generation protocols.

The star protocols move the antisymmetric input-dimer state across the
hub by free evolution framed by instantaneous flips; the timing and
potential come from closed-form families indexed by integers.  The
generation protocols trade the hub amplitude for a dimer state with
half the couplings switched off.  The seven-site unit supports the two
flip-based transfer variants with its own timing family.

State naming on the star (sites 0,1 dimer, 2 hub, 3,4 dimer):
``I`` = (e0-e1)/sqrt2, ``L`` = (e0+e1)/sqrt2, ``c`` = e2,
``R`` = (e3+e4)/sqrt2, ``F`` = (e3-e4)/sqrt2.  The seven-site unit
uses the same names with its dimers (0,1) and (5,6) and hub 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evolve import (
    HoppingFlip,
    PhaseFlip,
    ProtocolSchedule,
    Segment,
)
from .lattice import build_seven, build_star
from .spectral import dimer_state

__all__ = [
    "TransferParams",
    "GenerationParams",
    "solve_transfer_params",
    "solve_seven_transfer_params",
    "solve_generation_params",
    "build_schedule",
    "cls_state",
    "TRANSFER_VARIANTS",
]

TRANSFER_VARIANTS = ("phase-flip-transfer", "hopping-flip-transfer")

_STAR_HOPPING_PAIRS = {"J1J3": ((0, 2), (2, 3)), "J2J4": ((1, 2), (2, 4))}
_SEVEN_HOPPING_PAIRS = {"J2J6": ((1, 2), (4, 6)), "J1J5": ((0, 2), (4, 5))}


def cls_state(graph, name):
    """Named localized state as a length-5 or length-7 real vector."""
    if graph == "star":
        n, dim_in, dim_out, hub = 5, (0, 1), (3, 4), 2
    elif graph == "seven":
        n, dim_in, dim_out, hub = 7, (0, 1), (5, 6), 3
    else:
        raise ValueError(f"unknown graph {graph!r}")
    if name in ("I", "L", "F", "R"):
        return dimer_state(n, dim_in if name in "IL" else dim_out,
                           antisymmetric=name in "IF")
    if name == "c":
        vec = np.zeros(n)
        vec[hub] = 1.0
        return vec
    raise ValueError(f"unknown state {name!r}")


def _require_int(value, label):
    if value != int(value):
        raise ValueError(f"{label} must be an integer")
    return int(value)


def _require_coupling(J):
    if J == 0:
        raise ValueError("flip transfer needs a nonzero coupling J")


@dataclass(frozen=True)
class TransferParams:
    """Potential and duration of one flip-transfer family member.

    ``graph`` = 'star': v = J(4 k1/(1+2 k2) - 2) and
    T = pi (1+2 k2)/(2 J), making the symmetric sector return to
    itself while the flat sector picks up a minus sign over T.
    ``graph`` = 'seven': T = pi (2 k1 + 1)/(sqrt2 J) with free v
    (k2 unused); requires the inner couplings at sqrt3 * J.
    """

    v: float
    T: float
    k1: int
    k2: Optional[int]
    J: float
    graph: str = "star"

    def __post_init__(self):
        if not 0 < self.T < np.inf:
            raise ValueError(f"transfer time must be positive and finite, "
                             f"got {self.T}")
        if self.graph == "star":
            expect_v = self.J * (4 * self.k1 / (1 + 2 * self.k2) - 2)
            expect_T = np.pi * (1 + 2 * self.k2) / (2 * self.J)
        elif self.graph == "seven":
            expect_v = self.v
            expect_T = np.pi * (2 * self.k1 + 1) / (np.sqrt(2.0) * self.J)
        else:
            raise ValueError(f"unknown graph {self.graph!r}")
        if abs(self.v - expect_v) > 1e-12 or abs(self.T - expect_T) > 1e-12:
            raise ValueError("(v, T) inconsistent with the family formulas")


def solve_transfer_params(k1, k2, J):
    """Star flip-transfer family member for integer indices (k1, k2).

    Raises for J = 0 and for indices that give a non-positive duration.
    """
    _require_coupling(J)
    k1 = _require_int(k1, "k1")
    k2 = _require_int(k2, "k2")
    if 1 + 2 * k2 == 0:
        raise ValueError("1 + 2*k2 must be nonzero")
    v = J * (4 * k1 / (1 + 2 * k2) - 2)
    T = np.pi * (1 + 2 * k2) / (2 * J)
    params = TransferParams(v=v, T=T, k1=k1, k2=k2, J=J)
    # the three sector phases the derivation rests on
    assert abs(np.exp(-1j * v * T) + 1) < 1e-9
    assert abs(np.exp(-1j * (v - 2 * J) * T) - 1) < 1e-9
    assert abs(np.exp(-1j * (v + 2 * J) * T) - 1) < 1e-9
    return params


def solve_seven_transfer_params(k, J, v=0.0):
    """Seven-site flip-transfer family member (inner couplings sqrt3*J)."""
    _require_coupling(J)
    k = _require_int(k, "k")
    T = np.pi * (2 * k + 1) / (np.sqrt(2.0) * J)
    return TransferParams(v=v, T=T, k1=k, k2=None, J=J, graph="seven")


@dataclass(frozen=True)
class GenerationParams:
    """Hub-to-dimer generation family member.

    branch 1: v = sqrt2 J' (4k1'-1)/(1+4k2'), T = pi (4k1'-1)/(2v);
    branch 2: v = sqrt2 J' (4k1'+1)/(-1+4k2'), T = pi (4k1'+1)/(2v).
    Over T the (v - sqrt2 J') sector flips sign while the
    (v + sqrt2 J') sector returns, swapping hub and dimer exactly.
    """

    branch: int
    k1p: int
    k2p: int
    Jp: float
    v: float
    T: float

    def __post_init__(self):
        if self.branch not in (1, 2):
            raise ValueError("branch must be 1 or 2")
        if self.v == 0:
            raise ValueError("family point has v = 0")
        if not self.T > 0:
            raise ValueError(f"generation time must be positive, got {self.T}")
        num, den = _generation_indices(self.branch, self.k1p, self.k2p)
        ev = np.sqrt(2.0) * self.Jp * num / den
        eT = np.pi * num / (2 * self.v)
        if abs(self.v - ev) > 1e-12 or abs(self.T - eT) > 1e-12:
            raise ValueError("(v, T) inconsistent with the family formulas")


def _generation_indices(branch, k1p, k2p):
    """(numerator, denominator) of the branch's v / (sqrt2 J')."""
    if branch == 1:
        return 4 * k1p - 1, 1 + 4 * k2p
    return 4 * k1p + 1, -1 + 4 * k2p


def solve_generation_params(branch, k1p, k2p, Jp):
    """Generation family member; raises when the indices give v = 0,
    a vanishing denominator, or T <= 0."""
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    k1p = _require_int(k1p, "k1p")
    k2p = _require_int(k2p, "k2p")
    root2 = np.sqrt(2.0)
    num, den = _generation_indices(branch, k1p, k2p)
    if den == 0:
        raise ValueError("denominator vanishes for these indices")
    v = root2 * Jp * num / den
    if v == 0:
        raise ValueError("family point has v = 0 (is Jp zero?)")
    T = np.pi * num / (2 * v)
    params = GenerationParams(branch=branch, k1p=k1p, k2p=k2p, Jp=Jp, v=v, T=T)
    assert abs(np.exp(-1j * (v - root2 * Jp) * T) + 1) < 1e-9
    assert abs(np.exp(-1j * (v + root2 * Jp) * T) - 1) < 1e-9
    return params


def _star_base(params):
    return build_star([params.J] * 4, params.v)


def _seven_base(params):
    root3 = np.sqrt(3.0)
    J = params.J
    return build_seven([J, J, root3 * J, root3 * J, J, J], params.v)


def _generation_hamiltonians(params):
    """In-half and out-half star Hamiltonians of the generation setup."""
    H_in = build_star([params.Jp, params.Jp, 0.0, 0.0], params.v)
    H_out = build_star([0.0, 0.0, params.Jp, params.Jp], params.v)
    return H_in, H_out


def _flip_transfer(T, variant, in_site, out_site, pair_entries):
    if variant == "phase-flip-transfer":
        return (PhaseFlip(0.0, in_site), Segment(0.0, T), PhaseFlip(T, out_site))
    a, b = pair_entries
    return (HoppingFlip(0.0, a), HoppingFlip(0.0, b),
            Segment(0.0, T),
            HoppingFlip(T, a), HoppingFlip(T, b))


def build_schedule(graph, variant, params, **options):
    """Schedule for one protocol variant on 'star' or 'seven'.

    Star variants: phase-flip-transfer, hopping-flip-transfer,
    generation (hub -> stored dimer state), reverse-generation
    (stored dimer state -> hub), piecewise-transfer (transfer routed
    through the hub in two generation-length halves).  Seven-site
    variants: the two flip transfers.  Options select which dimer
    member is flipped (``in_site``, ``out_site``), which coupling pair
    a hopping variant flips (``pair``: 'J1J3'/'J2J4' on the star,
    'J2J6'/'J1J5' on the seven-site unit), and whether generation ends
    with the flip to the antisymmetric state (``final_flip``).
    """
    if graph not in ("star", "seven"):
        raise ValueError(f"unknown graph {graph!r}")

    if variant in TRANSFER_VARIANTS:
        if not isinstance(params, TransferParams) or params.graph != graph:
            raise ValueError(f"{variant} on {graph} needs TransferParams "
                             f"solved for that graph")
        star = graph == "star"
        base = _star_base(params) if star else _seven_base(params)
        pairs = _STAR_HOPPING_PAIRS if star else _SEVEN_HOPPING_PAIRS
        out_pair = (3, 4) if star else (5, 6)
        in_site = options.pop("in_site", 1)
        out_site = options.pop("out_site", out_pair[1])
        if in_site not in (0, 1) or out_site not in out_pair:
            raise ValueError(f"{'star' if star else 'seven-site'} flips must "
                             "hit one site of each dimer")
        pair = options.pop("pair", next(iter(pairs)))
        if options:
            raise TypeError(f"unknown options {sorted(options)}")
        if pair not in pairs:
            raise ValueError(f"unknown hopping pair {pair!r}")
        items = _flip_transfer(params.T, variant, in_site, out_site, pairs[pair])
        return ProtocolSchedule(base, items,
                                initial_state=cls_state(graph, "I"),
                                target_state=cls_state(graph, "F"))

    if graph == "seven":
        raise ValueError(f"variant {variant!r} is not defined for the "
                         "seven-site graph; only flip transfers are")
    if not isinstance(params, GenerationParams):
        raise ValueError(f"{variant} needs GenerationParams")
    H_in, H_out = _generation_hamiltonians(params)
    T = params.T

    if variant == "generation":
        final_flip = options.pop("final_flip", True)
        if options:
            raise TypeError(f"unknown options {sorted(options)}")
        items = [Segment(0.0, T)]
        target = cls_state("star", "L")
        if final_flip:
            items.append(PhaseFlip(T, 1))
            target = items[-1].apply(target)
        return ProtocolSchedule(H_in, tuple(items),
                                initial_state=cls_state("star", "c"),
                                target_state=target)

    if variant == "reverse-generation":
        if options:
            raise TypeError(f"unknown options {sorted(options)}")
        items = (PhaseFlip(0.0, 1), Segment(0.0, T))
        return ProtocolSchedule(H_in, items,
                                initial_state=cls_state("star", "I"),
                                target_state=cls_state("star", "c"))

    if variant == "piecewise-transfer":
        in_site = options.pop("in_site", 1)
        out_site = options.pop("out_site", 4)
        if options:
            raise TypeError(f"unknown options {sorted(options)}")
        items = (
            PhaseFlip(0.0, in_site),
            Segment(0.0, T),
            Segment(T, 2 * T, H_out),
            PhaseFlip(2 * T, out_site),
        )
        return ProtocolSchedule(H_in, items,
                                initial_state=cls_state("star", "I"),
                                target_state=cls_state("star", "F"))

    raise ValueError(f"unknown variant {variant!r}")
