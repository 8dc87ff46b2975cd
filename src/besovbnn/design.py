"""Closed-form network geometry and prior hyperparameter rules, plus numerical
verification of the shrinkage-prior sufficient conditions and covering-number
bounds.

Everything that involves products like (B v 1)^(L-1) (W+1)^L is carried in
natural-log space: for table-sized networks those products overflow doubles by
dozens of orders of magnitude, and the derived threshold a and spike scale
sigma_1 underflow symmetrically.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

__all__ = [
    "SmoothnessSpec",
    "ArchSpec",
    "MixturePriorSpec",
    "ConditionReport",
    "base_width",
    "design_architecture",
    "desk_scale_widths",
    "mixture_hyperparams",
    "check_shrinkage_conditions",
    "covering_bound",
    "covering_bound_truncated",
    "TruncationThresholdError",
]

DESK_DEPTH, DESK_WIDTH = 2, 24  # caps of the reduced network trained at desk scale

# Constants of the shrinkage-condition check: the tail budget is
# TAIL_BUDGET * n eps^2, the support bound SUPPORT_FACTOR * exp(-K0 n eps^2),
# and the strict spike inequality has relative slack SPIKE_SLACK.
TAIL_BUDGET = 10.0
SUPPORT_FACTOR = 1.0
SPIKE_SLACK = 1e-9

# log Qinv(eps), eps = machine epsilon: log(-scipy.special.ndtri(eps)), the
# spike scale's offset from log a wherever the spike equation's w is floored.
_LOG_QINV_EPS = 2.0950553424789424
# How far below 0 the bound eta/2 - 1/2 + phi(0) a/sigma2 of the spike
# equation's eta/2 - Q(a/sigma2) must lie for the floor to be certain; it
# dwarfs the bound's rounding error.
_FLOOR_MARGIN = -1e-12


@dataclass(frozen=True)
class SmoothnessSpec:
    """Smoothness and problem-dimension parameters (s, p, q, d, m).

    Requires d/p < s < min(m, m - 1 + 1/p); p or q may be math.inf.
    """

    s: float
    p: float = math.inf
    q: float = math.inf
    d: int = 1
    m: int = 2

    def __post_init__(self):
        if not (self.s > 0 and self.p > 0 and self.q > 0):
            raise ValueError("need s, p, q > 0")
        if self.d < 1 or self.m < 1:
            raise ValueError("need d, m >= 1")
        if self.delta >= self.s:
            raise ValueError(
                f"smoothness constraint violated: d/p = {self.delta} >= s = {self.s}"
            )
        inv_p = 0.0 if math.isinf(self.p) else 1.0 / self.p
        if self.s >= min(self.m, self.m - 1 + inv_p):
            raise ValueError(
                f"need s < min(m, m-1+1/p) = {min(self.m, self.m - 1 + inv_p)}"
            )

    @property
    def delta(self) -> float:
        return 0.0 if math.isinf(self.p) else self.d / self.p

    @property
    def nu(self) -> float:
        """(s - delta) / (2 delta); infinite when p = infinity (delta = 0)."""
        if self.delta == 0.0:
            return math.inf
        return (self.s - self.delta) / (2.0 * self.delta)

    @property
    def xi(self) -> float:
        inv_nu = 0.0 if math.isinf(self.nu) else 1.0 / self.nu
        return min(1.0, inv_nu + 1.0 / self.d)


def base_width(d: int, m: int) -> int:
    """Base width of the approximation construction: 6 d m (m+2) + 2 d."""
    if d < 1 or m < 1:
        raise ValueError("need d, m >= 1")
    return 6 * d * m * (m + 2) + 2 * d


@dataclass(frozen=True)
class ArchSpec:
    """Derived network geometry and rate quantities for a sample size n."""

    n: int
    N: int
    W0: int
    L: int
    W: int
    S: int
    B: float
    T: int
    eps: float

    @property
    def n_eps_sq(self) -> float:
        return self.n * self.eps**2

    @property
    def S_compat(self) -> int:
        """Alternate sparsity count L*W0^2*N + N (matches the reported tables)."""
        return self.L * self.W0**2 * self.N + self.N

    @property
    def T_compat(self) -> int:
        """Alternate total count: weights only, without the L*W + 1 biases."""
        return self.T - self.L * self.W - 1

    def sparsity_fraction(self, counting: str = "canonical") -> float:
        if counting == "canonical":
            return self.S / self.T
        if counting == "compat":
            return self.S_compat / self.T_compat
        raise ValueError(f"unknown counting convention {counting!r}")

    @property
    def log_a(self) -> float:
        """Natural log of the truncation threshold a_n (equality at the
        experiment setting a_n = eps / (72 L (B v 1)^(L-1) (W+1)^L))."""
        return (
            math.log(self.eps)
            - math.log(72.0)
            - math.log(self.L)
            - (self.L - 1) * math.log(max(self.B, 1.0))
            - self.L * math.log(self.W + 1)
        )


def design_architecture(spec: SmoothnessSpec, n: int, cB: float = 10.0) -> ArchSpec:
    """Evaluate the closed-form architecture rules at sample size n.

    N = ceil(n^(d/(2s+d))), W = N * W0, S = (L-1) W0^2 N + N, B = cB * N^xi,
    with the depth rule L = 3 + 2 ceil(log2(3^(d v m) / (tau c)) + 5) ceil(log2(d v m)).
    For large m, c grows as (2e)^m faster than 3^(d v m) and the rule gives
    L < 1; the paper states no floor, so such a geometry is a ValueError.
    """
    from .network import NetworkShape  # numpy loads only when an architecture is designed

    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < cB < math.inf:
        raise ValueError(f"need finite cB > 0, got {cB}")
    s, d, m = spec.s, spec.d, spec.m
    W0 = base_width(d, m)
    dm = max(d, m)
    try:
        N = math.ceil(n ** (d / (2 * s + d)))
        tau = N ** (-s / d) / math.log(N) if N > 1 else 1.0
        c = 1.0 + 2.0 * d * math.e * (2.0 * math.e) ** m / math.sqrt(m)
        L = 3 + 2 * math.ceil(math.log2(3**dm / (tau * c)) + 5) * math.ceil(math.log2(dm))
        eps = n ** (-s / (2 * s + d)) * math.log(n) ** 1.5
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(
            f"the design rules overflow doubles at n={n}, s={s}, d={d}, m={m}"
        ) from exc
    if L < 1:
        raise ValueError(
            f"the depth rule L = 3 + 2 ceil(log2(3^(d v m) / (tau c)) + 5) ceil(log2(d v m)) "
            f"gives L = {L} < 1 at s={s}, d={d}, m={m}, n={n}"
        )
    W = N * W0
    S = (L - 1) * W0**2 * N + N
    B = cB * N**spec.xi
    if math.isinf(B):
        raise ValueError(f"B = cB N^xi overflows doubles at cB={cB}, n={n}")
    T = NetworkShape(d, (W,) * L).n_params
    return ArchSpec(n=n, N=N, W0=W0, L=L, W=W, S=S, B=B, T=T, eps=eps)


def desk_scale_widths(arch: ArchSpec) -> list[int]:
    """Hidden widths of a reduced network for workstation-scale training:
    the designed geometry capped at DESK_DEPTH layers of DESK_WIDTH units."""
    return [min(arch.W, DESK_WIDTH)] * min(arch.L, DESK_DEPTH)


@dataclass(frozen=True)
class MixturePriorSpec:
    """Two-component Gaussian mixture shrinkage hyperparameters.

    The spike scale sigma_1 is stored only as log_sigma1: its linear value
    underflows doubles for table-sized networks.
    """

    log_a: float
    eta: float
    log_sigma1: float
    sigma2: float
    pi1: float
    pi2: float
    B: float
    K0: float

    def __post_init__(self):
        if not (0.0 < self.pi1 < 1.0 and 0.0 < self.pi2 < 1.0):
            raise ValueError("mixture weights must lie in (0, 1)")
        if abs(self.pi1 + self.pi2 - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.log_sigma1 > self.log_a:
            raise ValueError("spike scale must not exceed the threshold a")


def _eta(arch: ArchSpec, K0: float) -> float:
    """eta = exp(-K0 n eps^2 / S) of the spike condition, for finite K0 > 4."""
    if not 4 < K0 < math.inf:
        raise ValueError(f"need finite K0 > 4, got {K0}")
    return math.exp(-K0 * arch.n_eps_sq / arch.S)


def mixture_hyperparams(
    arch: ArchSpec,
    K0: float = 5.0,
    counting: str = "canonical",
) -> MixturePriorSpec:
    """Gaussian-mixture hyperparameters for a designed architecture.

    The slab variance is B^2 / (2 (K0+1) n eps^2), the experiment setting,
    which reproduces the reported slab scales to four digits.

    The spike scale comes from a / Qinv(w) with
    w = (pi2/pi1) (eta/2 - Q(a/sigma2)), floored at machine epsilon.  At the
    designed geometries w is negative in exact arithmetic, not through
    rounding: a is e^-119 (f2, n=100) or smaller, so Q(a/sigma2) is 1/2 less
    a negligible amount, while eta < 1; at 60 digits eta/2 - Q(a/sigma2) is
    -0.0064 at f2 n=100 and -0.098 at f2 n=1e6.  The equation has a root only
    where a/sigma2 exceeds Qinv(eta/2), about 0.016 at f2 n=100.  So the
    floor is a convention, not a root: it sets a/sigma_1 = Qinv(eps), about
    8.1, which matches the reported spike scales.  This is documented as an
    order-of-magnitude quantity only.

    Since Q(x) >= 1/2 - x phi(0) for x >= 0, eta/2 - 1/2 + phi(0) a/sigma2
    below _FLOOR_MARGIN, with pi1 > 0, makes w negative both exactly and as
    scipy computes it, so the floor applies and log sigma_1 =
    log a - _LOG_QINV_EPS, the same double, without scipy.  Only other
    inputs, where w may be a root, load scipy.special to evaluate Q and Qinv.
    """
    eta = _eta(arch, K0)
    pi2 = arch.sparsity_fraction(counting)
    pi1 = 1.0 - pi2
    n_eps_sq = arch.n_eps_sq
    try:
        sigma2 = math.sqrt(arch.B**2 / (2.0 * (K0 + 1.0) * n_eps_sq))
    except OverflowError as exc:
        raise ValueError(
            f"the slab variance overflows doubles at B={arch.B:.6g}; lower cB") from exc
    if sigma2 == 0.0:
        raise ValueError(f"the slab scale sigma2 underflows to 0 at B={arch.B:.6g}; raise cB")
    log_a = arch.log_a
    a_lin = math.exp(log_a)  # may be 0.0 for extreme geometries; Q(0) = 1/2
    bound = 0.5 * eta - 0.5 + (a_lin / sigma2) / math.sqrt(2.0 * math.pi)
    if pi1 > 0.0 and bound < _FLOOR_MARGIN:
        log_sigma1 = log_a - _LOG_QINV_EPS
    else:
        from scipy.special import log_ndtr, ndtri

        q_a = math.exp(float(log_ndtr(-(a_lin / sigma2))))
        w = (pi2 / pi1) * (0.5 * eta - q_a)
        eps = sys.float_info.epsilon
        w = min(max(w, eps), 1.0 - eps)
        log_sigma1 = log_a - math.log(float(-ndtri(w)))
    return MixturePriorSpec(
        log_a=log_a, eta=eta, log_sigma1=log_sigma1, sigma2=sigma2,
        pi1=pi1, pi2=pi2, B=arch.B, K0=K0,
    )


@dataclass
class ConditionReport:
    """Numerical check of the shrinkage-prior sufficient conditions.

    spike:   S/T > 1 - u >= (S/T) eta        with u the prior mass of [-a, a]
    tail:    -log g(B) within the budget C * n eps^2   (C * (log n)^2 is also
             reported; see `tail_rhs_logsq`)
    support: v = prior mass outside [-B, B] <= tol * exp(-K0 n eps^2)
    """

    u: float
    log_one_minus_u: float
    log_v: float
    spike_lhs: float
    spike_mid: float
    spike_rhs: float
    tail_lhs: float
    tail_rhs: float
    tail_rhs_logsq: float
    support_lhs_log: float
    support_rhs_log: float
    pass_spike: bool
    pass_tail: bool
    pass_support: bool

    @property
    def all_pass(self) -> bool:
        return self.pass_spike and self.pass_tail and self.pass_support

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "all_pass": self.all_pass}


def _spot_check_symmetry(g, scale: float) -> None:
    import numpy as np

    ts = np.linspace(0.1, 3.0, 7) * scale
    lp = g.log_pdf(ts)
    lm = g.log_pdf(-ts)
    if not np.allclose(lp, lm, rtol=1e-8, atol=1e-8, equal_nan=True):
        raise ValueError("density handle is not symmetric about 0")


def check_shrinkage_conditions(
    g,
    arch: ArchSpec,
    K0: float = 5.0,
    counting: str = "canonical",
) -> ConditionReport:
    """Evaluate the three shrinkage-prior conditions for a density handle g.

    The strict spike inequality S/T > 1 - u is tested with relative slack
    SPIKE_SLACK: the designed mixture saturates it at machine precision
    (1 - u exceeds S/T by a few ulps), so an exact strict comparison would
    reject the very prior the conditions were built for.

    The tail budget is TAIL_BUDGET * n eps^2.  The literal reading
    TAIL_BUDGET * (log n)^2 is reported in `tail_rhs_logsq` but not used for
    the pass flag: the designed mixture has -log g(B) = (K0+1) n eps^2, which
    exceeds any fixed multiple of (log n)^2 at table-sized geometry.
    """
    eta = _eta(arch, K0)
    _spot_check_symmetry(g, max(arch.B, 1.0) / 10.0)
    ratio = arch.sparsity_fraction(counting)
    n_eps_sq = arch.n_eps_sq
    a = math.exp(arch.log_a)

    log_one_minus_u = g.log_tail_mass(a)
    one_minus_u = math.exp(log_one_minus_u)
    u = 1.0 - one_minus_u
    pass_spike = (one_minus_u <= ratio * (1.0 + SPIKE_SLACK)) and (
        one_minus_u >= ratio * eta * (1.0 - SPIKE_SLACK)
    )

    tail_lhs = -float(g.log_pdf(arch.B))
    tail_rhs = TAIL_BUDGET * n_eps_sq
    tail_rhs_logsq = TAIL_BUDGET * math.log(arch.n) ** 2
    pass_tail = tail_lhs <= tail_rhs

    log_v = g.log_tail_mass(arch.B)
    support_rhs_log = math.log(SUPPORT_FACTOR) - K0 * n_eps_sq
    pass_support = log_v <= support_rhs_log

    return ConditionReport(
        u=u,
        log_one_minus_u=log_one_minus_u,
        log_v=log_v,
        spike_lhs=ratio,
        spike_mid=one_minus_u,
        spike_rhs=ratio * eta,
        tail_lhs=tail_lhs,
        tail_rhs=tail_rhs,
        tail_rhs_logsq=tail_rhs_logsq,
        support_lhs_log=log_v,
        support_rhs_log=support_rhs_log,
        pass_spike=pass_spike,
        pass_tail=pass_tail,
        pass_support=pass_support,
    )


def covering_bound(L: int, W: int, S: int, B: float, delta: float) -> float:
    """(S+1) log(2 delta^-1 L (B v 1)^L (W+1)^(2L)), in log space."""
    if L < 1 or W < 1 or S < 1 or not 0 < B < math.inf:
        raise ValueError("need positive L, W, S and finite B > 0")
    if not 0 < delta < math.inf:
        raise ValueError("need finite delta > 0")
    inner = (
        math.log(2.0)
        - math.log(delta)
        + math.log(L)
        + L * math.log(max(B, 1.0))
        + 2 * L * math.log(W + 1)
    )
    return (S + 1) * inner


class TruncationThresholdError(ValueError):
    """delta below the admissible floor for the truncated covering bound."""

    def __init__(self, log_min_delta: float):
        self.log_min_delta = log_min_delta
        super().__init__(
            "delta below the truncation floor; minimal admissible "
            f"log(delta) = {log_min_delta:.6g}"
        )


def covering_bound_truncated(
    L: int, W: int, S: int, B: float, a: float, delta: float
) -> float:
    """Covering bound for thresholded networks; requires
    delta >= 2 a L (B v 1)^(L-1) (W+1)^L, checked in log space."""
    if not 0 <= a < math.inf:
        raise ValueError("need finite a >= 0")
    if not 0 < delta < math.inf:
        raise ValueError("need finite delta > 0")
    if a > 0:
        log_min_delta = (
            math.log(2.0 * a)
            + math.log(L)
            + (L - 1) * math.log(max(B, 1.0))
            + L * math.log(W + 1)
        )
        if math.log(delta) < log_min_delta - 1e-9:
            raise TruncationThresholdError(log_min_delta)
    return covering_bound(L, W, S, B, delta)
