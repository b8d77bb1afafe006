"""Adaptive Gauss-Kronrod quadrature over finite and infinite intervals.

A 7-15 Gauss-Kronrod pair is applied per panel; the panel with the largest
error estimate is bisected until the global estimate meets tolerance.  Once
the estimate converges, every leaf is bisected once more and checked against
its children, which exposes panels where the Gauss and Kronrod sums happened
to agree on a wrong value (a kink can sit where the two rules' errors
coincide).  Known non-smooth points should still be declared through the
``breakpoints`` argument so they land on panel edges.

Semi-infinite ranges are mapped through u = t/(1-t); the doubly infinite
range is split at zero (or at the declared breakpoints) and mapped on both
sides.  Integrands are called on arrays of nodes and must be vectorized.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "QuadratureResult", "QuadratureError", "integrate", "gk15"]

# Nodes and weights of the 7-point Gauss / 15-point Kronrod pair on [-1, 1].
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552591, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472782,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927664,
    0.38183005050511894, 0.41795918367346938,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])        # Kronrod weights
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])  # Gauss weights sit on odd slots

# Read-only views for callers that build their own fixed panel rules.
KRONROD_NODES = _NODES
KRONROD_WEIGHTS = _WEIGHTS_K


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted before tolerance."""

    def __init__(self, message: str, value: float = math.nan, error_estimate: float = math.nan):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    function_evals: int


def gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel on [a, b]: (kronrod, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must be vectorized and preserve shape")
    if not np.all(np.isfinite(y)):
        return 0.0, math.inf
    resk = half * float(np.dot(_WEIGHTS_K, y))
    resg = half * float(np.dot(_WEIGHTS_G, y))
    # QUADPACK-style rescaled error estimate.
    mean = resk / (b - a)
    resasc = abs(half) * float(np.dot(_WEIGHTS_K, np.abs(y - mean)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def _half_line(f, edge, sign):
    """f on the half-line edge + sign * [0, inf), as an integrand over t in
    [0, 1) with x = edge + sign * t/(1-t)."""
    # Panels bisected down to rounding width can place a node at t == 1;
    # gk15 treats the resulting non-finite values as "split this panel".
    def g(t):
        with np.errstate(all="ignore"):
            x = edge + sign * (t / (1.0 - t))
            return f(x) / (1.0 - t) ** 2

    return g


def integrate(
    f,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    breakpoints=(),
) -> QuadratureResult:
    """Integrate a vectorized integrand over (lo, hi); endpoints may be infinite.

    Known kinks or other non-smooth points should be declared through
    ``breakpoints``: each becomes a panel edge, where the rule handles them
    exactly.  An undeclared feature narrower than the node spacing of a panel
    can hide between samples and evade the error estimate, as with any
    fixed-rule quadrature.  Breakpoints outside the open interval are ignored.

    Raises QuadratureError when the subdivision budget runs out before the
    requested tolerance is reached.
    """
    if spec is None:
        spec = QuadratureSpec()
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError("lower limit must be below upper limit")
    pts = sorted({float(p) for p in breakpoints if lo < float(p) < hi})
    if not pts and math.isinf(lo) and math.isinf(hi):
        pts = [0.0]  # the doubly infinite range splits at 0
    edges = [lo, *pts, hi]
    pieces = []
    for left, right in zip(edges, edges[1:]):
        if math.isinf(left):
            pieces.append((_half_line(f, right, -1.0), 0.0, 1.0))
        elif math.isinf(right):
            pieces.append((_half_line(f, left, 1.0), 0.0, 1.0))
        else:
            pieces.append((f, left, right))

    heap = []
    counter = itertools.count()  # breaks error ties in the order panels were made
    total = 0.0
    total_err = 0.0
    for idx, (g, a, b) in enumerate(pieces):
        val, err = gk15(g, a, b)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, next(counter), a, b, val, idx))

    def halves(a, b, idx):
        """The two halves of panel [a, b] of piece idx as (mid, v1, e1, v2, e2),
        or None where the panel has shrunk to rounding width."""
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            return None
        g = pieces[idx][0]
        return (mid, *gk15(g, a, mid), *gk15(g, mid, b))

    subdivisions = 0
    while True:
        while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
            if subdivisions >= spec.max_subdivisions:
                raise QuadratureError(
                    "quadrature did not converge within the subdivision budget",
                    value=total,
                    error_estimate=total_err,
                )
            neg_err, _, a, b, val, idx = heapq.heappop(heap)
            err = -neg_err
            split = halves(a, b, idx)
            if split is None:
                # Panel collapsed to rounding width but still reports error:
                # the integrand is not resolvable (e.g. non-finite spike).
                raise QuadratureError(
                    "integrand could not be resolved on a collapsed panel",
                    value=total,
                    error_estimate=total_err,
                )
            mid, v1, e1, v2, e2 = split
            total += (v1 + v2) - val
            total_err += (e1 + e2) - err
            heapq.heappush(heap, (-e1, next(counter), a, mid, v1, idx))
            heapq.heappush(heap, (-e2, next(counter), mid, b, v2, idx))
            subdivisions += 1

        # Verification sweep: bisect every leaf once and compare it against
        # its children.  The Gauss-Kronrod difference can alias to ~0 when a
        # kink sits where the two rules' errors happen to coincide, hiding an
        # error far above tolerance; the parent-child discrepancy is an
        # independent signal that does not share those blind spots.
        entries = heap
        heap = []
        total = 0.0
        total_err = 0.0
        for neg_err, _, a, b, val, idx in entries:
            err = -neg_err
            split = halves(a, b, idx) if subdivisions < spec.max_subdivisions else None
            if split is None:
                heapq.heappush(heap, (neg_err, next(counter), a, b, val, idx))
                total += val
                total_err += err
                continue
            mid, v1, e1, v2, e2 = split
            subdivisions += 1
            disc = abs((v1 + v2) - val)
            if disc > 10.0 * (err + e1 + e2):
                # Children agree with each other but not with the parent:
                # the parent estimate aliased.  Charge the children with the
                # revealed discrepancy so refinement continues there.
                e1 = max(e1, disc / 6.0)
                e2 = max(e2, disc / 6.0)
            heapq.heappush(heap, (-e1, next(counter), a, mid, v1, idx))
            heapq.heappush(heap, (-e2, next(counter), mid, b, v2, idx))
            total += v1 + v2
            total_err += e1 + e2
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            # every piece took one panel (15 evaluations), every subdivision two
            evals = 15 * len(pieces) + 30 * subdivisions
            return QuadratureResult(
                value=total, error_estimate=total_err, subdivisions=subdivisions, function_evals=evals
            )
