"""Scoring for approximate translations and the loss/deformation trade-off.

The score is a weighted sum of three normalized penalties: lost vertices,
edge-constraint violations, and pairwise geodesic-distance deformation.
Compositions are scored additively, which overestimates the deformation of
the net mapping but is monotone along a chain of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mapping as mp


@dataclass(frozen=True)
class ScoreParams:
    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.5
    k_block: int = 1

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("weights must be non-negative")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError("at least one weight must be positive")
        if self.k_block < 1:
            raise ValueError("k_block must be a positive integer")


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
    contribute zero rather than dividing by zero. The raw edge-constraint
    and deformation sums come from the same pair gather as
    `mapping.property_report`, so the two always agree.
    """
    n1 = len(m.domain)
    if n1 == 0:
        raise ValueError("score needs a nonempty domain")
    d_src, d_img, raw_ec = mp._pairs(g, m)
    raw_loss = m.loss()
    # Full-block sums count every unordered pair twice.
    raw_def = int(mp._gaps(d_src, d_img, g.n).sum()) // 2
    return ScoreBreakdown(*_weigh(p, n1, raw_loss, raw_ec, raw_def), raw_loss, raw_ec, raw_def)


def composition_score(breakdowns):
    return sum(b.total for b in breakdowns)


def evaluation_pair(g, composed):
    """(loss ratio, normalized strong-preservation violations) of a mapping."""
    n1 = len(composed.domain)
    if n1 == 0:
        raise ValueError("evaluation needs a nonempty domain")
    loss_ratio = composed.loss() / n1
    k = n1 - composed.loss()
    if k <= 1:
        return loss_ratio, 0.0
    snp_ratio = 2.0 * mp.snp_violations(g, composed) / (k * (k - 1))
    return loss_ratio, snp_ratio


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
