"""Renyi-DP curves for Gaussian and Poisson-subsampled Gaussian mechanisms.

Conventions: ``q`` is the Poisson sampling probability, ``noise_multiplier``
is the dimensionless ratio of noise standard deviation to sensitivity, and
curves live on strictly increasing grids of integer orders >= 2 (the stable
binomial closed form needs integer orders; the quadrature oracle accepts any
real order > 1 and is the independent check on the closed form).
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

import numpy as np

from .kernel import _check_orders, sgm_rdp_matrix


class CalibrationError(RuntimeError):
    """Noise calibration failed to converge."""


class InfeasibleTargetError(CalibrationError):
    """No noise multiplier up to the search cap meets the target epsilon."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""


def default_orders() -> np.ndarray:
    """Production order grid: integers 2..64 plus 128 and 256."""
    return np.concatenate([np.arange(2, 65), [128, 256]])


def _check_fields(obj, numbers=(), finite=(), integers=()) -> None:
    """Type checks shared by the config dataclasses; each message names the
    field.  ``numbers`` reject booleans, ``finite`` reject NaN and
    infinities, and ``integers`` accept only non-boolean integers."""
    for name in numbers:
        if isinstance(getattr(obj, name), bool):
            raise ValueError(f"{name} must be a number, got {getattr(obj, name)!r}")
    for name in finite:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")
    for name in integers:
        value = getattr(obj, name)
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _from_json(cls, doc, what: str):
    """The ``cls`` that the JSON object ``doc`` sets, with an integer in a
    float field stored as that float.  Each refusal is a ValueError naming
    ``what`` ("config", say); the caller adds where ``doc`` came from."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)} (known: {sorted(known)})")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING} - set(doc)
    if missing:
        raise ValueError(f"missing {what} keys {sorted(missing)}")
    hints = typing.get_type_hints(cls)
    values = dict(doc)
    for name, value in doc.items():
        # bool is an int subclass, so compare exact types
        if type(value) is int and hints[name] in (float, typing.Optional[float]):
            try:
                values[name] = float(value)
            except OverflowError:
                raise ValueError(f"{name} is an integer too large for a float64")
    try:
        return cls(**values)
    except TypeError as exc:
        raise ValueError(str(exc))


@dataclass
class RdpCurve:
    """RDP values aligned with a grid of integer orders."""

    orders: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.orders = _check_orders(self.orders)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.orders.shape:
            raise ValueError("values and orders must have the same length")
        if np.any(np.isnan(vals)) or np.any(vals < -1e-9):
            raise ValueError("RDP values must be non-negative")
        self.values = np.maximum(vals, 0.0)

    def scaled(self, steps: int) -> "RdpCurve":
        """Curve of ``steps`` identical compositions."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        return RdpCurve(self.orders, self.values * steps)


def sgm_rdp_int(q: float, noise_multiplier: float, alpha: int) -> float:
    """Subsampled-Gaussian RDP at one integer order, via the log-space
    binomial sum (overflow-free by construction)."""
    return float(sgm_rdp_matrix(q, np.array([noise_multiplier]), [alpha])[0, 0])


def sgm_rdp_curve(q: float, noise_multiplier: float, orders) -> RdpCurve:
    return RdpCurve(orders, sgm_rdp_matrix(q, np.array([noise_multiplier]), orders)[0])


def _conversion_terms(orders: np.ndarray, delta: float) -> np.ndarray:
    """log(1/delta)/(alpha - 1) at each order, decreasing in alpha: what
    the RDP-to-DP conversion adds to rho_alpha."""
    return math.log(1.0 / delta) / (orders - 1.0)


def _eps_from_rdp(rdp: np.ndarray, orders: np.ndarray,
                  delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise RDP-to-DP conversion of an (n, orders) matrix: minimize
    rho_alpha + log(1/delta)/(alpha - 1) over the grid. Returns the (n,)
    epsilons and minimizing orders (smallest order on ties)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    total = rdp + _conversion_terms(orders, delta)[None, :]
    best = np.argmin(total, axis=1)
    return total[np.arange(total.shape[0]), best], orders[best]


def rdp_to_dp(curve: RdpCurve, delta: float) -> tuple[float, int]:
    """Convert a curve to (epsilon, delta)-DP: minimize
    rho_alpha + log(1/delta)/(alpha - 1) over the grid. Returns the epsilon
    and the minimizing order (smallest order on ties)."""
    eps, best = _eps_from_rdp(curve.values[None, :], curve.orders, delta)
    return float(eps[0]), int(best[0])


_SIGMA_CAP = 1e6
_CANDIDATES = 64            # interior noise multipliers per narrowing call


def calibrate_noise(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    orders=None,
    tol: float = 1e-3,
) -> float:
    """Smallest-noise search: returns a noise multiplier whose composed
    epsilon over ``steps`` lands in [target - tol, target]. Epsilon is
    strictly decreasing in the multiplier, so one kernel call over a
    power-of-two ladder brackets the target, and each further call narrows
    the bracket to one of ``_CANDIDATES + 1`` geometric sub-intervals."""
    if target_epsilon <= 0.0:
        raise ValueError("target epsilon must be > 0")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    orders = default_orders() if orders is None else _check_orders(orders)

    def eps_at(sigmas: np.ndarray) -> np.ndarray:
        return _eps_from_rdp(sgm_rdp_matrix(q, sigmas, orders) * steps, orders, delta)[0]

    # Aim inside the window by a margin far above the last-bit difference
    # between a batched row and the single-row curve that confirms the result.
    margin = min(1e-9 * target_epsilon, tol / 4.0)
    low, high = target_epsilon - tol + margin, target_epsilon - margin

    sig = np.append(2.0 ** np.arange(-33, 20), _SIGMA_CAP)    # 1.2e-10 .. cap
    eps = eps_at(sig)
    if eps[-1] > high:
        raise InfeasibleTargetError(
            f"epsilon at noise multiplier {_SIGMA_CAP:g} still exceeds "
            f"target {target_epsilon}")
    if eps[0] <= high:
        raise CalibrationError("failed to bracket the target epsilon")
    for _ in range(60):
        i = int(np.argmax(eps <= high))     # least noise meeting the target
        if eps[i] >= low:
            break
        sig = np.geomspace(sig[i - 1], sig[i], _CANDIDATES + 2)
        eps = np.concatenate(([eps[i - 1]], eps_at(sig[1:-1]), [eps[i]]))
    else:
        raise CalibrationError("calibration did not converge in 60 narrowing steps")
    sigma = float(sig[i])
    eps_one = rdp_to_dp(sgm_rdp_curve(q, sigma, orders).scaled(steps), delta)[0]
    if not target_epsilon - tol <= eps_one <= target_epsilon:
        raise CalibrationError(
            f"epsilon {eps_one} at noise multiplier {sigma:g} left the target window")
    return sigma


def sgm_rdp_quadrature_oracle(
    q: float,
    noise_multiplier: float,
    alpha: float,
    direction: str = "mixture_vs_base",
) -> float:
    """Independent numerical evaluation of the subsampled-Gaussian Renyi
    divergence at any real order > 1.

    Integrates (1/(alpha-1)) log int (d mu / d nu)^alpha d nu in one
    dimension with base N(0, s^2), shifted N(1, s^2) and the Poisson
    mixture, after factoring out the integrand's log-maximum so the
    quadrature runs on an O(1) integrand. The upper integration limit
    grows with alpha because the mixture-vs-base integrand has a mode
    near x = alpha."""
    from scipy.integrate import quad    # imported here so that only the oracle loads scipy

    if alpha <= 1.0:
        raise ValueError(f"order must be > 1, got {alpha}")
    if noise_multiplier <= 0.0:
        raise ValueError("noise multiplier must be > 0")
    if not 0.0 <= q <= 1.0:
        raise ValueError("sampling probability must be in [0, 1]")
    if direction not in ("mixture_vs_base", "base_vs_mixture"):
        raise ValueError(f"unknown direction {direction!r}")
    if q == 0.0:
        return 0.0

    s = noise_multiplier
    inv2s2 = 1.0 / (2.0 * s * s)
    log_norm = -math.log(s * math.sqrt(2.0 * math.pi))

    def log_base(x):
        return log_norm - x * x * inv2s2

    def log_shifted(x):
        return log_norm - (x - 1.0) ** 2 * inv2s2

    if q == 1.0:
        def log_mix(x):
            return log_shifted(x)
    else:
        lq, l1q = math.log(q), math.log1p(-q)

        def log_mix(x):
            return np.logaddexp(l1q + log_base(x), lq + log_shifted(x))

    if direction == "mixture_vs_base":
        def log_integrand(x):
            return alpha * log_mix(x) - (alpha - 1.0) * log_base(x)
    else:
        def log_integrand(x):
            return alpha * log_base(x) - (alpha - 1.0) * log_mix(x)

    a, b = -20.0 * s, max(1.0, alpha) + 20.0 * s
    scan = np.linspace(a, b, 8001)
    h_max = float(np.max(log_integrand(scan)))

    def integrand(x):
        return math.exp(log_integrand(x) - h_max)

    breaks = sorted({p for p in (0.0, 1.0, float(min(alpha, b - 1.0))) if a < p < b})
    val, abserr = quad(integrand, a, b, points=breaks, epsabs=1e-12, epsrel=1e-12, limit=500)
    if abserr > 1e-9 * max(1.0, abs(val)):
        raise QuadratureError(
            f"quadrature error {abserr:g} above tolerance for alpha={alpha}, "
            f"q={q}, noise_multiplier={noise_multiplier}")
    rho = (h_max + math.log(val)) / (alpha - 1.0)
    return max(rho, 0.0)
