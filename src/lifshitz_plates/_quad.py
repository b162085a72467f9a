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
    ``decay`` is exp(-nodes).
    """

    edges: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    decay: np.ndarray

    @classmethod
    def from_edges(cls, edges: np.ndarray) -> "PanelRule":
        half = 0.5 * np.diff(edges)
        center = 0.5 * (edges[:-1] + edges[1:])
        nodes = (center[:, None] + half[:, None] * _NODES[None, :]).ravel()
        weights = (half[:, None] * _KRONROD_W[None, :]).ravel()
        gauss = (half[:, None] * _GAUSS_W[None, :]).ravel()
        return cls(edges=edges, nodes=nodes, weights=np.column_stack([weights, weights - gauss]),
                   decay=np.exp(-nodes))

    def refined(self) -> "PanelRule":
        """Rule with every panel split in half."""
        e = self.edges
        return PanelRule.from_edges(np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])])))


DEFAULT_RULE = PanelRule.from_edges(DEFAULT_EDGES)
# DEFAULT_RULE one level coarser: every other edge, the last edge kept
COARSE_RULE = PanelRule.from_edges(np.append(DEFAULT_EDGES[:-1:2], DEFAULT_EDGES[-1]))
