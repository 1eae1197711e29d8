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
from .hv import as_float, as_float64, as_hypervectors, cosine_similarity

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
        try:
            weights = tuple(_nonnegative(w, error) for w in self.fake_term_weights)
        except TypeError:
            raise InvalidArgumentError(error) from None
        if len(weights) != 2 or isinstance(self.fake_term_weights, (str, bytes)):
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
    """``batch`` as a nonempty 1-D float64 array of finite scores; the one score rule of the
    library and the CLI. A boolean is not a score: a bool array, or a ``True`` or ``False``
    entry of a list or object array, is rejected. A numeric array's entries are not visited."""
    arr = as_float64(batch, f"{name} must be a batch of numbers")
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError(f"{name} must be a nonempty 1-D score batch, got shape {arr.shape}")
    dtype = getattr(batch, "dtype", np.dtype(object))
    if dtype == np.bool_ or dtype == object and any(isinstance(s, (bool, np.bool_)) for s in batch):
        raise InvalidArgumentError(f"{name} must be a batch of numbers, not booleans")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite scores")
    return arr


def vsa_cyclic_loss(v_x, v_cycled) -> float:
    """Mean row-wise cosine distance between (patch_count, dim) stacks of original and
    cycled patch hypervectors; range [0, 2]. A zero row is named by ``check_no_zero_vectors``."""
    x, cycled = check_no_zero_vectors(v_x, "x"), check_no_zero_vectors(v_cycled, "cycled")
    return float(np.mean(1.0 - cosine_similarity(x, cycled)))


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


def check_no_zero_vectors(vs, name: str) -> np.ndarray:
    """``vs`` as a (count, dim) stack through the rank gate; raises naming every all-zero row."""
    stack = as_hypervectors(vs, (2,), name)
    idx = np.flatnonzero(~np.any(stack, axis=1))
    if idx.size:
        raise DegenerateInputError(f"{name}: zero-norm hypervectors at indices {idx.tolist()}")
    return stack
