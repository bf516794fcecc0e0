"""Scoring for approximate translations and the loss/deformation trade-off.

The score is a weighted sum of three normalized penalties: lost vertices,
edge-constraint violations, and pairwise geodesic-distance deformation.
Compositions are scored additively, which overestimates the deformation of
the net mapping but is monotone along a chain of steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import mapping as mp
from .graph import _check_int


@dataclass(frozen=True)
class ScoreParams:
    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.5
    k_block: int = 1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):  # any real number but a bool
            w = getattr(self, name)
            if isinstance(w, np.generic):  # numpy scalars become the Python numbers JSON encodes
                w = w.item()
                object.__setattr__(self, name, w)
            if isinstance(w, bool) or not isinstance(w, numbers.Real) or not (math.isfinite(w) and w >= 0):
                raise ValueError(f"weights must be finite and non-negative real numbers, not {w!r}")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "k_block", _check_int(self.k_block, "k_block", 1))


@dataclass(frozen=True)
class ScoreBreakdown:
    loss_term: float
    ec_term: float
    def_term: float
    total: float
    raw_loss: int
    raw_ec: int
    raw_def: int

    def to_json_dict(self):
        return {
            "loss": self.loss_term,
            "ec": self.ec_term,
            "def": self.def_term,
            "total": self.total,
        }


def _weigh(p, n1, raw_loss, raw_ec, raw_def):
    """(loss_term, ec_term, def_term, total) from raw sums over n1 sources.

    The same float expression for Python scalars and numpy arrays alike.
    With k <= 1 mapped vertices the edge-constraint or deformation sum is 0,
    so clamping its normalizer to 1 (x + (x == 0), as x >= 0) yields 0.0.
    """
    k = n1 - raw_loss  # mapped vertices
    pairs = k * (k - 1)
    loss_term = p.alpha * raw_loss / n1
    ec_term = p.beta * raw_ec / (k + (k == 0))
    def_term = p.gamma * 2.0 * raw_def / (pairs + (pairs == 0))
    return loss_term, ec_term, def_term, loss_term + ec_term + def_term


def score(g, m, p: ScoreParams) -> ScoreBreakdown:
    """Weighted penalty of a partial mapping, normalized per term.

    The loss ratio is taken over the mapping's domain; the edge-constraint
    ratio over the vertices that keep an image; deformation over pairs of
    those. Degenerate normalizers (no mapped vertices, or a single one)
    contribute zero rather than dividing by zero. The raw sums are the
    loss, edge-constraint violations and deformation of
    `mapping.property_report`, so the two always agree.
    """
    n1 = len(m.domain)
    if n1 == 0:
        raise ValueError("score needs a nonempty domain")
    rep = mp.property_report(g, m)
    raw = rep.loss, rep.ec_violations, rep.deformation
    return ScoreBreakdown(*_weigh(p, n1, *raw), *raw)


def evaluation_pair(g, composed):
    """(loss ratio, normalized strong-preservation violations) of a mapping."""
    n1 = len(composed.domain)
    if n1 == 0:
        raise ValueError("evaluation needs a nonempty domain")
    rep = mp.property_report(g, composed)
    pairs = (n1 - rep.loss) * (n1 - rep.loss - 1)  # ordered pairs of mapped vertices, clamped as in _weigh
    return rep.loss / n1, 2.0 * rep.snp_violations / (pairs + (pairs == 0))


def pareto_front(points):
    """Non-dominated subset of (loss_ratio, snp_ratio, *payload) tuples.

    Minimizes both coordinates; keeps duplicates and preserves input order.
    """
    out = []
    for p in points:
        dominated = False
        for q in points:
            if q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1]):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out
