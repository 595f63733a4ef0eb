"""Analytic flip-based transfer and generation protocols.

The star protocols move the antisymmetric input-dimer state across the
hub by free evolution framed by instantaneous flips; the timing and
potential come from closed-form families indexed by integers.  The
generation protocols trade the hub amplitude for a dimer state with
half the couplings switched off.  The seven-site unit supports the two
flip-based transfer variants with its own timing family.

A family member is built from its indices, derives v and T, and names
its network in ``graph``: ``build_schedule(variant, params)``.

State naming on the star (sites 0,1 dimer, 2 hub, 3,4 dimer):
``I`` = (e0-e1)/sqrt2, ``L`` = (e0+e1)/sqrt2, ``c`` = e2,
``R`` = (e3+e4)/sqrt2, ``F`` = (e3-e4)/sqrt2.  The seven-site unit
uses the same names with its dimers (0,1) and (5,6) and hub 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .evolve import HoppingFlip, PhaseFlip, ProtocolSchedule, Segment
from .lattice import build_seven, build_star
from .spectral import dimer_state

__all__ = [
    "StarTransferParams",
    "SevenTransferParams",
    "GenerationParams",
    "transfer_member_for",
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


def _require_int(value, label, scale=1):
    limit = float(np.finfo(float).max) / scale  # so scale*k +- 1 is a float
    if isinstance(value, (bool, np.bool_)) or not abs(value) < limit \
            or value != int(value):
        raise ValueError(f"{label} must be an integer of size < {limit:.3g}")


def _require_coupling(J):
    if J == 0:
        raise ValueError("flip transfer needs a nonzero coupling J")


def _require_duration(T):
    if not 0 < T < np.inf:
        raise ValueError(f"transfer time must be positive and finite, got {T}")


def _require_phases(indices, phases):
    """Refuse a member whose sector phases exp(-i theta), (theta, sign)
    in ``phases``, miss their signs by over 1e-9: v*T is too large."""
    miss = max(abs(np.exp(-1j * theta) - sign) for theta, sign in phases)
    if not miss <= 1e-9:
        raise ValueError(f"{indices} too large: the sector phases miss "
                         f"their signs by {miss:.1e} in floating point")


@dataclass(frozen=True)
class StarTransferParams:
    """Star flip-transfer family member for integer indices (k1, k2).

    v = J(4 k1/(1+2 k2) - 2) and T = pi (1+2 k2)/(2 J), making the
    symmetric sector return to itself while the flat sector picks up a
    minus sign over T.
    """

    graph = "star"
    k1: int
    k2: int
    J: float

    def __post_init__(self):
        _require_coupling(self.J)
        _require_int(self.k1, "k1", 4)
        _require_int(self.k2, "k2", 2)
        _require_duration(self.T)
        v, T, J = self.v, self.T, self.J
        # the three sector phases the derivation rests on
        _require_phases(f"k2={self.k2}", ((v * T, -1), ((v - 2 * J) * T, 1),
                                          ((v + 2 * J) * T, 1)))

    @cached_property
    def v(self):
        return self.J * (4 * self.k1 / (1 + 2 * self.k2) - 2)

    @cached_property
    def T(self):
        return np.pi * (1 + 2 * self.k2) / (2 * self.J)


@dataclass(frozen=True)
class SevenTransferParams:
    """Seven-site flip-transfer family member for an integer index k.

    T = pi (2 k + 1)/(sqrt2 J) with free potential v; requires the
    inner couplings at sqrt3 * J.
    """

    graph = "seven"
    k: int
    J: float
    v: float = 0.0

    def __post_init__(self):
        _require_coupling(self.J)
        _require_int(self.k, "k", 2)
        _require_duration(self.T)

    @cached_property
    def T(self):
        # Python floats: a tiny J overflows to inf, refused as not finite
        return math.pi * (2 * self.k + 1) / (math.sqrt(2.0) * self.J)


@dataclass(frozen=True)
class GenerationParams:
    """Hub-to-dimer generation family member on the star.

    branch 1: v = sqrt2 J' (4k1'-1)/(1+4k2'), T = pi (4k1'-1)/(2v);
    branch 2: v = sqrt2 J' (4k1'+1)/(-1+4k2'), T = pi (4k1'+1)/(2v).
    Over T the (v - sqrt2 J') sector flips sign while the
    (v + sqrt2 J') sector returns, swapping hub and dimer exactly.
    """

    graph = "star"
    branch: int
    k1p: int
    k2p: int
    Jp: float

    def __post_init__(self):
        _require_int(self.branch, "branch")
        if self.branch not in (1, 2):
            raise ValueError("branch must be 1 or 2")
        _require_int(self.k1p, "k1p", 4)
        _require_int(self.k2p, "k2p", 4)
        if self.v == 0:
            raise ValueError("family point has v = 0 (is Jp zero?)")
        if not self.T > 0:
            raise ValueError(f"generation time must be positive, got {self.T}")
        v, T, root2_Jp = self.v, self.T, np.sqrt(2.0) * self.Jp
        _require_phases(f"k1p={self.k1p}, k2p={self.k2p}",
                        (((v - root2_Jp) * T, -1), ((v + root2_Jp) * T, 1)))

    @property
    def _fraction(self):
        """(numerator, denominator) of the branch's v / (sqrt2 J')."""
        if self.branch == 1:
            return 4 * self.k1p - 1, 1 + 4 * self.k2p
        return 4 * self.k1p + 1, -1 + 4 * self.k2p

    @cached_property
    def v(self):
        num, den = self._fraction
        return np.sqrt(2.0) * self.Jp * num / den

    @cached_property
    def T(self):
        return np.pi * self._fraction[0] / (2 * self.v)


def transfer_member_for(J, v):
    """Star flip-transfer member matching a lattice's (J, v), with the
    smallest duration among k2 = 0..7: the inverse of
    :attr:`StarTransferParams.v`."""
    _require_coupling(J)
    for k2 in range(8):
        x = (v / J + 2.0) * (1 + 2 * k2) / 4.0
        k1 = round(x)
        if abs(k1 - x) < 1e-9:
            return StarTransferParams(k1, k2, J)
    raise ValueError(f"no flip-transfer timing exists for J={J}, v={v}")


_TRANSFER_MEMBERS = (StarTransferParams, SevenTransferParams)

# per variant: the family members it runs on and the options it takes
_VARIANTS = {
    "phase-flip-transfer": (_TRANSFER_MEMBERS, ("in_site", "out_site")),
    "hopping-flip-transfer": (_TRANSFER_MEMBERS, ("pair",)),
    "generation": ((GenerationParams,), ("final_flip",)),
    "reverse-generation": ((GenerationParams,), ()),
    "piecewise-transfer": ((GenerationParams,), ("in_site", "out_site")),
}


def build_schedule(variant, params, **options):
    """Schedule for one protocol variant on the network of ``params``.

    Transfer variants (phase-flip-transfer, hopping-flip-transfer) run
    on a :class:`StarTransferParams` or :class:`SevenTransferParams`
    member.  The star-only variants generation (hub -> stored dimer
    state), reverse-generation (stored dimer state -> hub) and
    piecewise-transfer (transfer routed through the hub in two
    generation-length halves) run on a :class:`GenerationParams`
    member.  Options select which dimer member a phase flip hits
    (``in_site``, ``out_site``), which coupling pair a hopping variant
    flips (``pair``: 'J1J3'/'J2J4' on the star, 'J2J6'/'J1J5' on the
    seven-site unit), and whether generation ends with the flip to the
    antisymmetric state (``final_flip``).
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    members, allowed = _VARIANTS[variant]
    if not isinstance(params, members):
        raise ValueError(f"{variant} needs "
                         f"{' or '.join(m.__name__ for m in members)}")
    unknown = set(options) - set(allowed)
    if unknown:
        raise TypeError(f"{variant} takes no options {sorted(unknown)}")

    v, T, star = params.v, params.T, params.graph == "star"
    if "in_site" in allowed:  # one phase flip on each dimer
        out_pair = (3, 4) if star else (5, 6)
        in_site = options.get("in_site", 1)
        out_site = options.get("out_site", out_pair[1])
        # a bool would index the state as a mask, a float fail there
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer))
               for i in (in_site, out_site)) or in_site not in (0, 1) \
                or out_site not in out_pair:
            raise ValueError(f"{'star' if star else 'seven-site'} flips "
                             "must hit one site of each dimer")
    if variant in TRANSFER_VARIANTS:
        J = params.J
        base = build_star([J] * 4, v) if star else \
            build_seven([J, J, np.sqrt(3.0) * J, np.sqrt(3.0) * J, J, J], v)
        if variant == "phase-flip-transfer":
            items = (PhaseFlip(in_site), Segment(T), PhaseFlip(out_site))
        else:
            pairs = _STAR_HOPPING_PAIRS if star else _SEVEN_HOPPING_PAIRS
            pair = options.get("pair", next(iter(pairs)))
            if pair not in pairs:
                raise ValueError(f"unknown hopping pair {pair!r}")
            a, b = pairs[pair]
            items = (HoppingFlip(a), HoppingFlip(b), Segment(T),
                     HoppingFlip(a), HoppingFlip(b))
        return ProtocolSchedule(base, items,
                                initial_state=cls_state(params.graph, "I"),
                                target_state=cls_state(params.graph, "F"))

    # generation: the in-half of the star couplings, then the out-half
    H_in = build_star([params.Jp, params.Jp, 0.0, 0.0], v)
    H_out = build_star([0.0, 0.0, params.Jp, params.Jp], v)
    if variant == "generation":
        items = [Segment(T)]
        target = cls_state("star", "L")
        if not isinstance(flip := options.get("final_flip", True), bool):
            raise ValueError(f"final_flip must be True or False, not {flip!r}")
        if flip:
            items.append(PhaseFlip(1))
            target = items[-1].apply(target)
        return ProtocolSchedule(H_in, tuple(items),
                                initial_state=cls_state("star", "c"),
                                target_state=target)

    if variant == "reverse-generation":
        items = (PhaseFlip(1), Segment(T))
        return ProtocolSchedule(H_in, items,
                                initial_state=cls_state("star", "I"),
                                target_state=cls_state("star", "c"))

    items = (PhaseFlip(in_site), Segment(T), Segment(T, H_out),
             PhaseFlip(out_site))
    return ProtocolSchedule(H_in, items,
                            initial_state=cls_state("star", "I"),
                            target_state=cls_state("star", "F"))
