"""Named drift and initial-datum presets.

The CLI (and the acceptance experiments) select inputs from a small, vetted
registry instead of parsing arbitrary expressions.  Every preset is a plain
:class:`~stochtransport.flow.DriftField` or
:class:`~stochtransport.transport.InitialDatum`, so library users are never
restricted to this list -- it only bounds what the command-line surface will
build.  A parameter that makes a preset nan or infinite on its validation
sample (a nan, an infinity, or a slope like m = 1e308 that overflows) is
refused with DomainError, which the CLI reports with exit code 2.

Drift presets
    zero            b = 0
    constant        b = lam                         (constant in t and x)
    linear          b = -lam * x                    (mean reverting, lam >= 0)
    sine            b = a * sin(x)

Initial-datum presets, with the slope facts the density criterion uses
(documentation only; nothing checks them)
    identity        u0 = x                          (u0')^2 = 1
    affine          u0 = m*x + c                    (u0')^2 = m^2
    tanh-floor      u0 = 0.6*x + 0.4*tanh(x)        (u0')^2 >= 0.36
    offset-tanh     u0 = level + tanh(x)            bounded, no slope floor
"""

import numpy as np

from .errors import DomainError
from .flow import DriftField
from .transport import InitialDatum

# The linear drift is unbounded on the whole line; its sup-norm field is the
# bound over the widest box any shipped experiment samples from.
_LINEAR_BOX = 8.0


def _zero_drift() -> DriftField:
    return DriftField(
        b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        b_prime=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        sup_norm_b=0.0,
        sup_norm_bprime=0.0,
    )


def _constant_drift(lam: float = 0.5) -> DriftField:
    lam = float(lam)
    return DriftField(
        b=lambda t, x: np.full_like(np.asarray(x, dtype=float), lam),
        b_prime=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        sup_norm_b=abs(lam),
        sup_norm_bprime=0.0,
    )


def _linear_drift(lam: float = 0.5) -> DriftField:
    lam = float(lam)
    if not lam >= 0:  # a nan fails too
        raise DomainError("linear drift rate must be >= 0 (b = -lam*x)")
    return DriftField(
        b=lambda t, x: -lam * np.asarray(x, dtype=float),
        b_prime=lambda t, x: np.full_like(np.asarray(x, dtype=float), -lam),
        sup_norm_b=lam * _LINEAR_BOX,
        sup_norm_bprime=lam,
    )


def _sine_drift(a: float = 0.5) -> DriftField:
    a = float(a)
    return DriftField(
        b=lambda t, x: a * np.sin(np.asarray(x, dtype=float)),
        b_prime=lambda t, x: a * np.cos(np.asarray(x, dtype=float)),
        sup_norm_b=abs(a),
        sup_norm_bprime=abs(a),
    )


def _identity_datum() -> InitialDatum:
    return InitialDatum(
        u0=lambda x: np.asarray(x, dtype=float),
        u0_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


def _affine_datum(m: float = 1.0, c: float = 0.0) -> InitialDatum:
    m, c = float(m), float(c)
    return InitialDatum(
        u0=lambda x: m * np.asarray(x, dtype=float) + c,
        u0_prime=lambda x: np.full_like(np.asarray(x, dtype=float), m),
    )


def _tanh_floor_datum() -> InitialDatum:
    # u0' = 0.6 + 0.4 sech^2 in (0.6, 1.0], so (u0')^2 >= 0.36 everywhere.
    return InitialDatum(
        u0=lambda x: 0.6 * np.asarray(x, dtype=float) + 0.4 * np.tanh(x),
        u0_prime=lambda x: 0.6 + 0.4 / np.cosh(np.asarray(x, dtype=float)) ** 2,
    )


def _offset_tanh_datum(level: float = 1.5) -> InitialDatum:
    level = float(level)
    return InitialDatum(
        u0=lambda x: level + np.tanh(np.asarray(x, dtype=float)),
        u0_prime=lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2,
    )


DRIFT_PRESETS = {
    "zero": _zero_drift,
    "constant": _constant_drift,
    "linear": _linear_drift,
    "sine": _sine_drift,
}

U0_PRESETS = {
    "identity": _identity_datum,
    "affine": _affine_datum,
    "tanh-floor": _tanh_floor_datum,
    "offset-tanh": _offset_tanh_datum,
}


def drift_preset(name: str, **params) -> DriftField:
    """Build a named drift; unknown names or parameters raise DomainError."""
    try:
        factory = DRIFT_PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown drift preset {name!r}; available: "
            f"{sorted(DRIFT_PRESETS)}") from None
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:  # also a value float() refuses
        raise DomainError(f"bad parameters for drift preset {name!r}: {exc}") from None


def u0_preset(name: str, **params) -> InitialDatum:
    """Build a named initial datum; unknown names or parameters raise DomainError."""
    try:
        factory = U0_PRESETS[name]
    except KeyError:
        raise DomainError(
            f"unknown u0 preset {name!r}; available: "
            f"{sorted(U0_PRESETS)}") from None
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:  # also a value float() refuses
        raise DomainError(f"bad parameters for u0 preset {name!r}: {exc}") from None


__all__ = ["DRIFT_PRESETS", "U0_PRESETS", "drift_preset", "u0_preset"]
