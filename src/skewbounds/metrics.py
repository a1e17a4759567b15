"""Registry of monotone-metric kernels.

Each metric is described by its Morozova-Chentsov function c(x, y) built from
an operator monotone f with f(t) = t f(1/t), together with the constant
m(c) = lim_{t->0} f(t).  What the rest of the package actually consumes is the
pairwise weight

    w(x, y) = (m(c) / 2) * c(x, y) * (x - y)**2,

the eigenbasis action of the kernel on a commutator.  For the WYD family the
weight is always evaluated in the product form (x^a - y^a)(x^(1-a) - y^(1-a))/2,
which has no 0/0 at x = y and no pole at y = 0, so zero eigenvalues (pure and
rank-deficient states) are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

KIND_WY = "wy"
KIND_WYD = "wyd"
KIND_SLD = "sld"


@dataclass(frozen=True)
class MetricSpec:
    """A named monotone metric with its constant m(c)."""

    kind: str
    m_c: float
    alpha: float | None = None


def make_metric(kind: str, alpha: float | None = None) -> MetricSpec:
    """Build a metric spec.  ``alpha`` is required iff kind is 'wyd'."""
    kind = kind.lower()
    if kind == KIND_WYD:
        if alpha is None:
            raise DomainError("wyd metric requires alpha")
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha {alpha} outside (0, 1)")
        return MetricSpec(kind=KIND_WYD, m_c=alpha * (1.0 - alpha), alpha=alpha)
    if alpha is not None:
        raise DomainError(f"metric {kind!r} takes no alpha")
    if kind == KIND_WY:
        return MetricSpec(kind=KIND_WY, m_c=0.25)
    if kind == KIND_SLD:
        return MetricSpec(kind=KIND_SLD, m_c=0.5)
    raise DomainError(f"unknown metric kind {kind!r}")


def parse_metric(text: str) -> MetricSpec:
    """Parse 'wy', 'sld', or 'wyd:<alpha>'."""
    text = text.strip()
    if text.startswith("wyd:"):
        try:
            alpha = float(text[4:])
        except ValueError as exc:
            raise ValidationError(f"bad wyd alpha in {text!r}") from exc
        try:
            return make_metric(KIND_WYD, alpha)
        except DomainError as exc:
            raise ValidationError(str(exc)) from exc
    if text in (KIND_WY, KIND_SLD):
        return make_metric(text)
    raise ValidationError(f"unknown metric string {text!r}")


def _wyd_alpha(m: MetricSpec) -> float:
    return 0.5 if m.kind == KIND_WY else float(m.alpha)


def weight_matrix(m: MetricSpec, eigenvalues: np.ndarray) -> np.ndarray:
    """Matrix W[i, j] = w(lam_i, lam_j) of pairwise weights for a vector of eigenvalues.

    A stack of eigenvalue vectors (T, d) gives a stack of weight matrices (T, d, d).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if m.kind == KIND_SLD:
        s = lam[..., :, None] + lam[..., None, :]
        diff2 = (lam[..., :, None] - lam[..., None, :]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            W = np.where(s > 0, diff2 / (2.0 * np.where(s > 0, s, 1.0)), 0.0)
        return W
    a = _wyd_alpha(m)
    pa = lam**a
    pb = lam ** (1 - a)
    return 0.5 * (pa[..., :, None] - pa[..., None, :]) * (pb[..., :, None] - pb[..., None, :])
