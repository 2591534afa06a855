"""Rate gauges and comparison-function envelopes.

GaugeFunction is the running-cost / decrease-rate carrier: radial, zero at
zero, usually nondecreasing.  ComparisonGauge carries fitted class-K
envelopes and separable class-KL envelopes
``beta(r, t) = gamma(r) * exp(-kappa t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = ["GaugeFunction", "ComparisonGauge", "monotone_envelope"]


@dataclass(frozen=True, eq=False)
class GaugeFunction:
    """Scalar gauge of a nonnegative radius (or distance) argument.

    Either piecewise linear through ``(knots_r, knots_v)`` (constant beyond
    the last knot) or an expression in the variable ``r``.  ``lipschitz`` is
    the steepest knot slope, 0 for an expression.
    """

    knots_r: np.ndarray | None = None
    knots_v: np.ndarray | None = None
    expression: ex.Node | None = None
    monotone: bool = True
    lipschitz: float = field(default=0.0, init=False)

    def __eq__(self, other):
        if not isinstance(other, GaugeFunction):
            return NotImplemented
        if (self.knots_r is None) != (other.knots_r is None):
            return False
        if self.knots_r is not None:
            knots_equal = np.array_equal(self.knots_r, other.knots_r) and \
                np.array_equal(self.knots_v, other.knots_v)
        else:
            knots_equal = True
        return (knots_equal and self.expression == other.expression
                and self.monotone == other.monotone)

    def __post_init__(self):
        if (self.expression is None) == (self.knots_r is None):
            raise ValueError("gauge needs exactly one of knots or expression")
        if self.expression is not None:
            fault = ex._constant_fault(self.expression)
            if fault:
                raise ValueError(f"gauge expression: {fault}")
            object.__setattr__(self, "_kernel", ex._compile_rows([self.expression], ["r"]))
        if self.knots_r is not None:
            r = np.asarray(self.knots_r, dtype=float)
            v = np.asarray(self.knots_v, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
                raise ValueError("knots must be two equal-length 1-d arrays")
            _check_finite(r, v)
            if r[0] != 0.0 or v[0] != 0.0:
                raise ValueError("gauge must have value 0 at 0")
            if np.any(np.diff(r) <= 0):
                raise ValueError("knot radii must be strictly increasing")
            if self.monotone and np.any(np.diff(v) < 0):
                raise ValueError("monotone gauge must have nondecreasing values")
            object.__setattr__(self, "knots_r", r)
            object.__setattr__(self, "knots_v", v)
            slopes = np.abs(np.diff(v) / np.diff(r))
            object.__setattr__(self, "lipschitz", float(slopes.max()))

    @classmethod
    def from_expression(cls, text_or_node, monotone: bool = True) -> "GaugeFunction":
        node = ex.parse_expr(text_or_node) if isinstance(text_or_node, str) else text_or_node
        if not ex.free_vars(node) <= {"r"}:
            raise ValueError("gauge expression may only use the variable r")
        return cls(expression=node, monotone=monotone)

    @classmethod
    def from_knots(cls, radii, values, monotone: bool = True) -> "GaugeFunction":
        return cls(knots_r=np.asarray(radii, float), knots_v=np.asarray(values, float),
                   monotone=monotone)

    @classmethod
    def zero(cls) -> "GaugeFunction":
        return cls.from_knots([0.0, 1.0], [0.0, 0.0])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.expression is not None:
            # a new array even for the gauge "r", with -0.0 turned to 0.0
            return ex._run(self._kernel, r[..., None]) + 0.0
        # constant extension beyond the last knot
        return np.interp(r, self.knots_r, self.knots_v)

    def of_points(self, x: np.ndarray):
        """Evaluate on states, radially: g(|x|) for x of shape (..., N)."""
        x = np.asarray(x, dtype=float)
        return self(np.linalg.norm(x, axis=-1))

    def is_zero(self) -> bool:
        if self.knots_v is not None:
            return bool(np.all(self.knots_v == 0.0))
        return self.expression == ex.Num(0.0)


def _check_finite(r: np.ndarray, v: np.ndarray):
    if not (np.isfinite(r).all() and np.isfinite(v).all()):
        raise ValueError(f"gauge knots must be finite, got radii {r.tolist()} and values "
                         f"{v.tolist()}")


def monotone_envelope(radii, values, strict: bool = True) -> np.ndarray:
    """Least nondecreasing majorant of ``values`` over increasing radii.

    With ``strict`` set, flat stretches are tilted by a relative epsilon so
    the result is strictly increasing (class-K fits need strictness).
    """
    radii = np.asarray(radii, float)
    values = np.asarray(values, float)
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    env = np.maximum.accumulate(values)
    if strict:
        scale = max(env.max(), 1.0)
        for i in range(1, len(env)):
            least = env[i - 1] + 1e-12 * scale * (radii[i] - radii[i - 1])
            if env[i] <= least:
                env[i] = least
    return env


@dataclass(frozen=True)
class ComparisonGauge:
    """Fitted comparison function: class 'K' or 'KL'.

    Class K stores strictly increasing knots with gamma(0) = 0 and
    extrapolates linearly with the last slope.  Class KL stores a class-K
    radius gauge plus a decay exponent kappa.
    """

    class_tag: str
    knots_r: np.ndarray | None = None
    knots_v: np.ndarray | None = None
    kappa: float | None = None

    def __post_init__(self):
        if self.class_tag not in ("K", "KL"):
            raise ValueError(f"unknown gauge class {self.class_tag!r}")
        if self.knots_r is not None:
            r = np.asarray(self.knots_r, float)
            v = np.asarray(self.knots_v, float)
            _check_finite(r, v)
            if r[0] != 0.0 or v[0] != 0.0:
                raise ValueError("comparison gauge must vanish at 0")
            if np.any(np.diff(r) <= 0) or np.any(np.diff(v) <= 0):
                raise ValueError("comparison gauge knots must be strictly increasing")
            object.__setattr__(self, "knots_r", r)
            object.__setattr__(self, "knots_v", v)
        if self.class_tag == "KL" and (self.kappa is None):
            raise ValueError("KL gauge needs kappa")

    def gamma(self, r):
        r = np.asarray(r, float)
        out = np.interp(r, self.knots_r, self.knots_v)
        # linear extrapolation keeps gamma unbounded
        last_slope = (self.knots_v[-1] - self.knots_v[-2]) / (self.knots_r[-1] - self.knots_r[-2])
        out = np.where(r > self.knots_r[-1],
                       self.knots_v[-1] + last_slope * (r - self.knots_r[-1]), out)
        return out

    def __call__(self, r, t=None):
        if self.class_tag == "KL":
            if t is None:
                raise ValueError("KL gauge is a function of (r, t)")
            return self.gamma(r) * np.exp(-self.kappa * np.asarray(t, float))
        return self.gamma(r)
