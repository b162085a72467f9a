"""Vectorized Gauss-Kronrod panel quadrature.

The pressure integrand, written in the scaled variable u = 2 a q, is smooth
and decays like u^2 exp(-u), so a short ladder of geometrically widening
panels with a 15-point Kronrod rule per panel integrates it to near machine
precision.  The embedded 7-point Gauss rule provides the error estimate used
for panel-splitting refinement; because the node layout is shared by every
Matsubara term, whole blocks of terms are evaluated in single numpy
operations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod abscissae on [-1, 1] (non-negative half) and weights,
# with the embedded 7-point Gauss weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full rule on [-1, 1], nodes ascending
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
# Gauss nodes are the odd-indexed Kronrod nodes; elsewhere the Gauss weight is 0
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])

# Default panel edges, as offsets from the lower integration limit.  The
# integrand falls below ~1e-16 of its peak well before the last edge; the
# dropped tail beyond it is O(exp(-60)).
DEFAULT_EDGES = np.array([0.0, 0.5, 1.5, 3.5, 7.5, 15.5, 31.5, 60.0])


@dataclass(frozen=True)
class PanelRule:
    """Kronrod nodes/weights for a fixed ladder of panel offsets.

    ``nodes`` are offsets from the lower limit, flattened across panels.
    ``weights`` has two columns, so one product ``f(lo + nodes) @ weights``
    gives the integral of f over [lo, lo + edges[-1]] and the signed
    Kronrod-Gauss difference, whose magnitude is the error estimate.
    ``decay`` is exp(-nodes).  ``gauss_only`` marks an embedded Gauss rule
    alone (see :meth:`from_edges`).
    """

    edges: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    decay: np.ndarray
    gauss_only: bool = False

    @classmethod
    def from_edges(cls, edges: np.ndarray, gauss_only: bool = False) -> "PanelRule":
        """The Kronrod rule on ``edges``, or with ``gauss_only`` its embedded
        7-point Gauss rule alone, whose estimate column is 0."""
        half = 0.5 * np.diff(edges)
        center = 0.5 * (edges[:-1] + edges[1:])
        keep = slice(1, None, 2) if gauss_only else slice(None)
        nodes = (center[:, None] + half[:, None] * _NODES[None, keep]).ravel()
        gauss = (half[:, None] * _GAUSS_W[None, keep]).ravel()
        weights = gauss if gauss_only else (half[:, None] * _KRONROD_W[None, :]).ravel()
        return cls(edges=edges, nodes=nodes, weights=np.column_stack([weights, weights - gauss]),
                   decay=np.exp(-nodes), gauss_only=gauss_only)

    def refined(self) -> "PanelRule":
        """Rule with every panel split in half."""
        e = self.edges
        return PanelRule.from_edges(np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])])))

    @functools.cached_property
    def gauss(self) -> "PanelRule":
        """The embedded 7-point Gauss rule alone on these edges, built once."""
        return PanelRule.from_edges(self.edges, gauss_only=True)

    @functools.cached_property
    def gauss_index(self) -> np.ndarray:
        """Positions of :attr:`gauss`'s nodes among ``nodes``."""
        return np.flatnonzero(np.tile(_GAUSS_W, len(self.edges) - 1))


DEFAULT_RULE = PanelRule.from_edges(DEFAULT_EDGES)
# Start rules below DEFAULT_RULE, by level, for rows whose integral starts at
# u0 far enough out that the fine head panels are not needed.  The edges of
# each are a subset of the next finer rule's.  Level -3 stops at offset 31.5:
# it serves u0 > 16, where u^2 exp(-u) < 6e-18 beyond u0 + 31.5.
START_EDGES = {-1: np.array([0.0, 1.5, 3.5, 7.5, 15.5, 31.5, 60.0]),
               -2: np.array([0.0, 1.5, 7.5, 15.5, 31.5, 60.0]),
               -3: np.array([0.0, 7.5, 31.5])}
