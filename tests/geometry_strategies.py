"""Hypothesis strategy for random valid link set-ups, shared by the property tests."""

import math
from dataclasses import dataclass

from hypothesis import strategies as st

from risofdm.frame import FrameGeometry


@dataclass(frozen=True)
class LinkSetup:
    geometry: FrameGeometry
    epsilon: float
    zc_root: int
    seed: int


@st.composite
def link_setups(draw, max_n=256, max_m=16):
    """Any valid (N, L, L_CP, n_z, M) with an offset, a Zadoff-Chu root and a seed."""
    l = draw(st.integers(1, 32))
    n_s = draw(st.integers(2, max(2, max_n // l)))
    n = n_s * l
    geometry = FrameGeometry(
        n=n,
        l=l,
        l_cp=draw(st.integers(l, 2 * l)),
        m=draw(st.integers(0, max_m)),
        n_z=draw(st.integers(2, n_s)),
    )
    roots = [q for q in range(1, 2 * l + 2) if math.gcd(q, l) == 1]
    return LinkSetup(
        geometry=geometry,
        epsilon=draw(st.floats(-0.5, 0.5, exclude_min=True)),
        zc_root=draw(st.sampled_from(roots)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
