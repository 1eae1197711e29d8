"""Score-space loss functions: cyclic consistency, adversarial terms, total objective.

The discriminator itself is out of scope; the adversarial losses take batches
of externally supplied scores. The nll variant reads scores as probabilities
in (0, 1); the hinge variant takes unbounded reals.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .hv import as_float, cosine_similarity

VARIANTS = ("nll", "hinge")


@dataclass(frozen=True)
class LossConfig:
    """Weights of the objective: cyclic weight, the two fake-term weights, GAN variant."""

    lam: float = 10.0
    fake_term_weights: tuple[float, float] = (1.0, 1.0)
    variant: str = "hinge"

    def __post_init__(self):
        object.__setattr__(self, "lam", _nonnegative(self.lam, f"lam must be finite and >= 0, got {self.lam!r}"))
        error = f"fake_term_weights must be two finite nonnegative reals, got {self.fake_term_weights!r}"
        weights = tuple(_nonnegative(w, error) for w in self.fake_term_weights)
        if len(weights) != 2:
            raise InvalidArgumentError(error)
        object.__setattr__(self, "fake_term_weights", weights)
        if self.variant not in VARIANTS:
            raise InvalidArgumentError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def _nonnegative(value, error: str) -> float:
    with contextlib.suppress(InvalidArgumentError):
        if (number := as_float(value)) >= 0.0:
            return number
    raise InvalidArgumentError(error)


def _scores(batch, name: str) -> np.ndarray:
    try:
        arr = np.asarray(batch, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{name} must be a batch of numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError(f"{name} must be a nonempty 1-D score batch, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite scores")
    return arr


def vsa_cyclic_loss(v_x, v_cycled) -> float:
    """Mean row-wise cosine distance between (patch_count, dim) stacks of original and
    cycled patch hypervectors; range [0, 2]."""
    distances = 1.0 - cosine_similarity(v_x, v_cycled)
    if np.ndim(distances) != 1:
        raise InvalidArgumentError("need two (patch_count, dim) stacks, got single hypervectors")
    return float(np.mean(distances))


def gan_loss_nll(real, fake_translated, fake_mapped, cfg: LossConfig = LossConfig()) -> tuple[float, float]:
    """Non-saturating log-likelihood adversarial loss over probability scores.

    Returns (d_loss, g_loss). The two fake batches are the translated and
    mapped hypervector scores, weighted by cfg.fake_term_weights.
    """
    r = _scores(real, "real")
    ft = _scores(fake_translated, "fake_translated")
    fm = _scores(fake_mapped, "fake_mapped")
    for name, batch in (("real", r), ("fake_translated", ft), ("fake_mapped", fm)):
        if np.any(batch <= 0.0) or np.any(batch >= 1.0):
            raise InvalidArgumentError(f"{name}: nll scores must lie strictly in (0, 1)")
    w1, w2 = cfg.fake_term_weights
    d_loss = -(
        np.mean(np.log(r))
        + w1 * np.mean(np.log1p(-ft))
        + w2 * np.mean(np.log1p(-fm))
    )
    g_loss = -(w1 * np.mean(np.log(ft)) + w2 * np.mean(np.log(fm)))
    return float(d_loss), float(g_loss)


def gan_loss_hinge(real, fake_translated, fake_mapped, cfg: LossConfig = LossConfig()) -> tuple[float, float]:
    """Geometric-GAN hinge loss over unbounded scores. Returns (d_loss, g_loss)."""
    r = _scores(real, "real")
    ft = _scores(fake_translated, "fake_translated")
    fm = _scores(fake_mapped, "fake_mapped")
    w1, w2 = cfg.fake_term_weights
    d_loss = (
        np.mean(np.maximum(0.0, 1.0 - r))
        + w1 * np.mean(np.maximum(0.0, 1.0 + ft))
        + w2 * np.mean(np.maximum(0.0, 1.0 + fm))
    )
    g_loss = -(w1 * np.mean(ft) + w2 * np.mean(fm))
    return float(d_loss), float(g_loss)


def gan_loss(real, fake_translated, fake_mapped, cfg: LossConfig = LossConfig()) -> tuple[float, float]:
    """Dispatch on cfg.variant."""
    if cfg.variant == "nll":
        return gan_loss_nll(real, fake_translated, fake_mapped, cfg)
    return gan_loss_hinge(real, fake_translated, fake_mapped, cfg)


def total_loss(gan: float, vsa: float, cfg: LossConfig = LossConfig()) -> float:
    """gan + lam * vsa."""
    if not (np.isfinite(gan) and np.isfinite(vsa)):
        raise InvalidArgumentError(f"loss terms must be finite, got gan={gan}, vsa={vsa}")
    return float(gan + cfg.lam * vsa)


def check_no_zero_vectors(vs, name: str) -> None:
    """Raise naming every all-zero row of a (count, dim) batch."""
    idx = np.flatnonzero(~np.any(np.asarray(vs, dtype=np.float64), axis=1))
    if idx.size:
        raise DegenerateInputError(f"{name}: zero-norm hypervectors at indices {idx.tolist()}")
