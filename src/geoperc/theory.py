"""Closed-form percolation and cascade conditions.

The critical density is one constant, ``LAMBDA_C``, and the critical mean
degree is ``MU_C = pi LAMBDA_C``. All series are Poisson-weighted sums
truncated once the remaining Poisson tail mass drops below ``TAIL_MASS``; every
summand is bounded by its Poisson weight (probabilities are <= 1), so the
truncation error is below ``TAIL_MASS``. Condition evaluators return the raw
left-hand value together with the decision threshold so sweeps can plot
margins, never just the boolean.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Area of the unit-radius collar around a square of side sqrt(2)/2: every
# neighbor of a node inside the square lies in the square or this collar.
COLLAR_AREA = 2.0 * math.sqrt(2.0) + math.pi

ONE_27TH = 1.0 / 27.0


class SubcriticalDensityError(ValueError):
    """Raised when an operation requires a supercritical density."""


# Critical density of the unit-radius geometric graph, the midpoint of the
# simulation bracket (1.43, 1.44); q_c and mu_c inherit its uncertainty. It is
# 0.09% below the literature value 4 eta_c / pi ~ 1.4363, eta_c = 1.12808737
# for disks (Mertens & Moore, Phys. Rev. E 86, 061109 (2012)).
LAMBDA_C = 1.435
MU_C = LAMBDA_C * math.pi


# Every series stops once its remaining Poisson tail mass is below this.
TAIL_MASS = 1e-12

# Loop guard: at TAIL_MASS no mean the underflow check admits needs 1000 terms.
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class ConditionResult:
    """Raw LHS value of a condition plus the threshold it is compared against."""

    lhs: float
    threshold: float
    holds: bool
    relation: str  # ">" or ">=" or "<"


def critical_q(lam: float) -> float:
    """Critical independent-failure probability 1 - LAMBDA_C / lambda.

    Defined for lam >= LAMBDA_C (zero exactly at the critical density);
    subcritical densities have no percolation to destroy.
    """
    _require_positive(lam)
    if lam < LAMBDA_C:
        raise SubcriticalDensityError(
            f"lambda={lam} is below the critical density {LAMBDA_C}; "
            "q_c is undefined in the subcritical phase"
        )
    return 1.0 - LAMBDA_C / lam


def _poisson_pmf(mean: float, tol: float) -> np.ndarray:
    """pmf[0..K] of Poisson(mean) with remaining tail mass < tol."""
    if mean < 0:
        raise ValueError(f"Poisson mean must be non-negative, got {mean}")
    terms = [math.exp(-mean)]
    if terms[0] < sys.float_info.min:
        # a subnormal exp(-mean) has lost mantissa bits, and the series its mass
        raise ValueError(f"Poisson mean {mean:g} from lambda is too large for float evaluation")
    cum = terms[0]
    k = 0
    while 1.0 - cum >= tol:
        if k >= _MAX_TERMS:
            raise ValueError(f"Poisson series did not reach tail mass {tol} in {_MAX_TERMS} terms")
        k += 1
        terms.append(terms[-1] * mean / k)
        cum += terms[-1]
    return np.asarray(terms)


def _require_positive(value: float, what: str = "density") -> None:
    if not value > 0:  # also refuses NaN
        raise ValueError(f"{what} must be positive, got {value}")


def no_infinite_component_nondecreasing(lam: float, rule) -> ConditionResult:
    """Subcriticality condition for a non-decreasing failure rule.

    LHS = P(N=0) + sum_{k>=1} P(N=k) q(k-1)^k with N ~ Poisson(lam/2); the
    remaining network has no infinite component when LHS > 1 - 1/27.
    """
    _require_positive(lam)
    if not rule.is_nondecreasing():
        raise ValueError("this condition requires a non-decreasing failure rule")
    pmf = _poisson_pmf(lam / 2.0, TAIL_MASS)
    ks = np.arange(1, len(pmf))
    q = rule.probabilities(ks - 1)
    lhs = float(pmf[0] + np.sum(pmf[1:] * q**ks))
    threshold = 1.0 - ONE_27TH
    return ConditionResult(lhs, threshold, lhs > threshold, ">")


def _collar_double_series(lam: float, survive_factor) -> float:
    """sum_{k>=1} P(K=k) sum_{m>=0} P(M=m) (1 - f(m+k-1)^k).

    K ~ Poisson(lam/2), M ~ Poisson(lam * COLLAR_AREA); f is q for failure
    rules or the reliable probability for threshold distributions.
    """
    pk = _poisson_pmf(lam / 2.0, TAIL_MASS / 2.0)
    pm = _poisson_pmf(lam * COLLAR_AREA, TAIL_MASS / 2.0)
    ks = np.arange(1, len(pk))
    ms = np.arange(len(pm))
    f = survive_factor(ms[None, :] + ks[:, None] - 1)
    inner = (1.0 - f ** ks[:, None]) @ pm
    return float(np.sum(pk[1:] * inner))


def no_infinite_component_nonincreasing(lam: float, rule) -> ConditionResult:
    """Subcriticality condition for a non-increasing failure rule.

    Uses the collar construction: a node in the reference square has degree at
    most m+k-1 when the square holds k nodes and the collar holds m. The
    remaining network has no infinite component when LHS < 1/27.
    """
    _require_positive(lam)
    if not rule.is_nonincreasing():
        raise ValueError("this condition requires a non-increasing failure rule")
    lhs = _collar_double_series(lam, rule.probabilities)
    return ConditionResult(lhs, ONE_27TH, lhs < ONE_27TH, "<")


def reliable_probabilities(dist, ks) -> np.ndarray:
    """Probability 1 - F((k-1)/k) that a degree-k node survives while any
    neighbor is operational; degree-0 nodes are reliable by convention."""
    k = np.asarray(ks, dtype=np.int64)
    if (k < 0).any():
        raise ValueError(f"degrees must be non-negative, got {k.min()}")
    ratio = (k - 1) / np.maximum(k, 1)
    return np.where(k == 0, 1.0, 1.0 - dist.cdf(ratio))


def no_cascade_condition(lam: float, dist) -> ConditionResult:
    """No infinite component of unreliable nodes, hence no cascade.

    Same series as the non-increasing failure condition with q replaced by the
    reliable probability of the threshold distribution; holds when LHS < 1/27.
    """
    _require_positive(lam)
    lhs = _collar_double_series(lam, lambda j: reliable_probabilities(dist, j))
    return ConditionResult(lhs, ONE_27TH, lhs < ONE_27TH, "<")


def vulnerable_percolation_check(mu: float, mu1: float, dist, k0: int) -> ConditionResult:
    """Sufficient condition F(1/k0) >= mu1/mu for a giant vulnerable component.

    k0 is caller-supplied: the block cap it derives from is not computable in
    closed form (see block_count_cap for the diagnostic value).
    """
    if not mu > mu1:
        raise ValueError(f"mu={mu} must exceed mu1={mu1}")
    if not mu1 > MU_C:
        raise ValueError(f"mu1={mu1} must exceed the critical mean degree {MU_C}")
    if k0 < 1:
        raise ValueError(f"k0 must be at least 1, got {k0}")
    lhs = float(dist.cdf(1.0 / k0))
    threshold = mu1 / mu
    return ConditionResult(lhs, threshold, lhs >= threshold, ">=")


def block_count_cap(lam: float, block_edge: float) -> float:
    """Twice the expected node count of a lattice block extended by the radius.

    The extended block has dimensions (d/2 + 2) x (3d/2 + 2) for lattice edge
    length d; node counts above twice the mean are unlikely (Chebyshev), which
    is what makes the cap useful as a degree bound inside the block.
    """
    if block_edge <= 4:
        raise ValueError(f"block edge length must exceed 4, got {block_edge}")
    _require_positive(lam)
    cap = 2.0 * (block_edge / 2.0 + 2.0) * (3.0 * block_edge / 2.0 + 2.0) * lam
    if not math.isfinite(cap):
        raise ValueError(f"block cap for lambda={lam} and d={block_edge} is not finite")
    return cap


def critical_phi(lam: float) -> float:
    """Largest attack threshold phi for which the network cannot percolate.

    Finds the largest integer phi >= -1 with
    sum_{k=0}^{phi+1} (lam/2)^k / k!  <  e^{lam/2}/27 + 1.
    The partial sum at index 0 equals 1 and is always below the bound, so the
    result is at least -1. For densities small enough that the full series
    e^{lam/2} stays below the bound, every finite phi qualifies and the result
    is math.inf (any attack threshold leaves the network subcritical).
    """
    _require_positive(lam)
    half = lam / 2.0
    # exp(half) overflows past ln(float max); below it the partial sums stay finite
    if half > math.log(sys.float_info.max):
        raise ValueError(f"lambda={lam} is too large for float evaluation")
    bound = math.exp(half) / 27.0 + 1.0
    if math.exp(half) <= bound:
        return math.inf
    partial = 1.0
    term = 1.0
    j = 0
    while partial < bound:
        j += 1
        term *= half / j
        partial += term
    return j - 2


def circuit_count_bound(m: int) -> int:
    """Upper bound 4 (m-1) 3^(2m-3) on circuits of length 2m around a cell center."""
    if m < 2:
        raise ValueError(f"half-length must be at least 2, got {m}")
    return 4 * (m - 1) * 3 ** (2 * m - 3)


def _surrounds_cell_center(poly: list[tuple[int, int]]) -> bool:
    """Even-odd ray test of the point (1/2, 1/2) against an axis-aligned polygon."""
    inside = False
    for i in range(len(poly)):
        x1, y1 = poly[i]
        _, y2 = poly[(i + 1) % len(poly)]
        if (y1 > 0.5) != (y2 > 0.5) and x1 >= 1:
            inside = not inside
    return inside


def count_circuits_of_length(edge_count: int) -> int:
    """Exact number of lattice circuits of the given length surrounding a cell center.

    Circuits are closed self-avoiding paths on the unit grid, identified up to
    starting point and direction; "surrounding" means the polygon contains the
    center (1/2, 1/2) of the cell with corners (0,0) and (1,1).
    """
    if edge_count < 4:
        return 0
    m = edge_count // 2
    if edge_count % 2 == 0:
        lo, hi = 2 - m, m - 1  # exact window: extents satisfy w + h <= m
    else:
        lo, hi = 1 - m, m

    count = 0
    path: list[tuple[int, int]] = []
    on_path: set[tuple[int, int]] = set()

    def extend(cur: tuple[int, int], remaining: int, start: tuple[int, int]) -> None:
        nonlocal count
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if remaining == 1:
                if nxt == start and path[1] < path[-1] and _surrounds_cell_center(path):
                    count += 1
                continue
            if nxt < start or nxt in on_path:
                continue
            if not (lo <= nxt[0] <= hi and lo <= nxt[1] <= hi):
                continue
            gap = abs(nxt[0] - start[0]) + abs(nxt[1] - start[1])
            if gap > remaining - 1 or (gap - (remaining - 1)) % 2:
                continue
            path.append(nxt)
            on_path.add(nxt)
            extend(nxt, remaining - 1, start)
            path.pop()
            on_path.remove(nxt)

    for sx in range(lo, hi + 1):
        for sy in range(lo, hi + 1):
            start = (sx, sy)
            path = [start]
            on_path = {start}
            extend(start, edge_count, start)
    return count


def enumerate_circuits(m: int) -> int:
    """Exact circuit count gamma(2m) by exhaustive enumeration; 2 <= m <= 6."""
    if not 2 <= m <= 6:
        raise ValueError(f"half-length must be in [2, 6], got {m}")
    return count_circuits_of_length(2 * m)
