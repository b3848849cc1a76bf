"""Hypothesis strategies and test domains shared by the test modules."""

import math

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from panharmonic.geometry import Disc, Point2, Polygon, l_shape
from panharmonic.mesh import _disc_web, refine_uniform


@st.composite
def star_polygons(draw):
    """Simple polygons star-shaped about the origin: vertices at increasing
    angles, each gap under 0.9 pi, with radii in [0.3, 1]."""
    n = draw(st.integers(3, 10))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    theta = np.cumsum(gaps) * (2.0 * np.pi / gaps.sum())
    if np.max(np.diff(np.concatenate([[theta[-1] - 2.0 * np.pi], theta]))) >= 0.9 * np.pi:
        reject()
    radii = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    return Polygon(np.column_stack([radii * np.cos(theta), radii * np.sin(theta)]))


def skyline(heights, step=0.4) -> Polygon:
    """Rectilinear polygon: columns of width step and the given heights."""
    xs = [round(i * step, 10) for i in range(len(heights) + 1)]
    verts = [[0.0, 0.0], [xs[-1], 0.0]]
    for i in reversed(range(len(heights))):
        verts += [[xs[i + 1], heights[i]], [xs[i], heights[i]]]
    return Polygon(verts)


@st.composite
def skylines(draw):
    """Skylines of 2 to 7 columns on a grid of heights, neighbours unequal:
    every rectangle of grid corners is co-circular."""
    heights = draw(st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0, 1.2]),
                            min_size=2, max_size=7))
    if any(a == b for a, b in zip(heights, heights[1:])):
        reject()
    return skyline(heights, step=draw(st.sampled_from([0.25, 0.4, 0.5])))


def comb(teeth, tooth=0.2, gap=0.2, spine=0.2, depth=0.4) -> Polygon:
    """Rectilinear comb: a spine of height spine with teeth of width tooth
    and length depth on top, gap apart, the outer teeth flush with the
    spine's ends.  comb(3) is the 12-vertex comb of 1 x 0.6."""
    lefts = [round(k * (tooth + gap), 10) for k in range(teeth)]
    verts = [[0.0, 0.0], [round(lefts[-1] + tooth, 10), 0.0]]
    for k in reversed(range(teeth)):
        top = round(spine + depth, 10)
        verts += [[round(lefts[k] + tooth, 10), top], [lefts[k], top]]
        if k:
            verts += [[lefts[k], spine], [round(lefts[k] - gap, 10), spine]]
    return Polygon(verts)


@st.composite
def combs(draw):
    """Combs of 2 to 5 teeth, their widths, gaps and lengths on a grid."""
    return comb(draw(st.integers(2, 5)),
                tooth=draw(st.sampled_from([0.1, 0.2, 0.3])),
                gap=draw(st.sampled_from([0.1, 0.2, 0.3])),
                spine=draw(st.sampled_from([0.1, 0.2])),
                depth=draw(st.sampled_from([0.2, 0.4, 0.6])))


def rotated_l_shape(theta=0.7, scale=1.3) -> Polygon:
    """The L-shape turned by theta and scaled: its right angles are no
    longer exact in floating point, as in the bench's similarity copies."""
    c, s = math.cos(theta), math.sin(theta)
    return Polygon(l_shape().vertices @ (scale * np.array([[c, s], [-s, c]])))


@st.composite
def refined_discs(draw):
    """(disc, root rings, refinements): a similarity copy of the unit disc,
    its centre within about 14 radii of the origin, and a web of 1 to 12
    rings refined 1 to 3 times (refined_web)."""
    radius = draw(st.floats(1e-3, 1e3))
    cx, cy = (radius * draw(st.floats(-10.0, 10.0)) for _ in range(2))
    return Disc(Point2(cx, cy), radius), draw(st.integers(1, 12)), draw(st.integers(1, 3))


def refined_web(disc, rings, refinements):
    """The disc's web of the given rings, refined uniformly."""
    m = _disc_web(disc, rings)
    for _ in range(refinements):
        m = refine_uniform(m, disc)
    return m
