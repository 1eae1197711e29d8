"""Score-space loss functions: cyclic consistency, adversarial terms, total objective.

The discriminator itself is out of scope; the adversarial losses take batches
of externally supplied scores. ``gan_loss`` is the one body of the adversarial
loss: each variant is a row of ``_TERMS``, and ``gan_loss_nll`` and
``gan_loss_hinge`` are ``gan_loss`` with the variant set. The nll variant reads
scores as probabilities in (0, 1); the hinge variant takes unbounded reals.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError
from .hv import as_float, as_float64, as_hypervectors, check_rows, cosine_similarity

# variant -> (sign of d_loss, D term of a real score, D term of a fake score, G term of a fake score)
_TERMS = {
    "nll": (-1.0, np.log, lambda f: np.log1p(-f), np.log),
    "hinge": (1.0, lambda r: np.maximum(0.0, 1.0 - r), lambda f: np.maximum(0.0, 1.0 + f), lambda f: f),
}
VARIANTS = tuple(_TERMS)


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
    """``batch`` as a nonempty 1-D float64 array of finite scores with a finite sum; the one score rule
    of the library and the CLI. A boolean is not a score: a bool array, or a ``True`` or ``False``
    entry of a list or object array, is rejected. A numeric array's entries are not visited, and
    ``hv.check_rows`` names the non-finite ones as rows of a column; ``as_float`` then rejects a sum
    that overflows float64."""
    arr = as_float64(batch, f"{name} must be a batch of numbers")
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError(f"{name} must be a nonempty 1-D score batch, got shape {arr.shape}")
    dtype = getattr(batch, "dtype", np.dtype(object))
    if dtype == np.bool_ or dtype == object and any(isinstance(s, (bool, np.bool_)) for s in batch):
        raise InvalidArgumentError(f"{name} must be a batch of numbers, not booleans")
    check_rows(arr[:, np.newaxis], noun=f"{name} scores")
    with np.errstate(over="ignore"):
        as_float(arr.sum(), f"a finite sum of {name} scores")
    return arr


def vsa_cyclic_loss(v_x, v_cycled) -> float:
    """Mean row-wise cosine distance between (patch_count, dim) stacks of original and
    cycled patch hypervectors; range [0, 2]. A zero row is named by ``check_no_zero_vectors``."""
    x, cycled = check_no_zero_vectors(v_x, "x"), check_no_zero_vectors(v_cycled, "cycled")
    return float(np.mean(1.0 - cosine_similarity(x, cycled)))


@np.errstate(over="ignore", invalid="ignore")
def gan_loss(real, fake_translated, fake_mapped, cfg: LossConfig = LossConfig()) -> tuple[float, float]:
    """The adversarial loss of cfg.variant, (d_loss, g_loss), each finite (``as_float``). With (sign, D_real,
    D_fake, G) = ``_TERMS[cfg.variant]``, (w1, w2) = cfg.fake_term_weights and ft, fm the translated and mapped
    scores: d_loss = sign * (mean D_real(real) + w1 * mean D_fake(ft) + w2 * mean D_fake(fm)) and g_loss =
    -(w1 * mean G(ft) + w2 * mean G(fm)). A negation outside the sum keeps the sign of a zero loss."""
    names = ("real", "fake_translated", "fake_mapped")
    r, ft, fm = batches = [_scores(b, name) for b, name in zip((real, fake_translated, fake_mapped), names)]
    if cfg.variant == "nll":
        for name, batch in zip(names, batches):
            if np.any(batch <= 0.0) or np.any(batch >= 1.0):
                raise InvalidArgumentError(f"{name}: nll scores must lie strictly in (0, 1)")
    sign, d_real, d_fake, g_fake = _TERMS[cfg.variant]
    w1, w2 = cfg.fake_term_weights
    d_loss = sign * (np.mean(d_real(r)) + w1 * np.mean(d_fake(ft)) + w2 * np.mean(d_fake(fm)))
    g_loss = -(w1 * np.mean(g_fake(ft)) + w2 * np.mean(g_fake(fm)))
    return as_float(d_loss, "a finite discriminator loss"), as_float(g_loss, "a finite generator loss")


def gan_loss_nll(real, fake_translated, fake_mapped, cfg: LossConfig = LossConfig()) -> tuple[float, float]:
    """Non-saturating log-likelihood adversarial loss over probability scores (Goodfellow et al., 2014)."""
    return gan_loss(real, fake_translated, fake_mapped, replace(cfg, variant="nll"))


def gan_loss_hinge(real, fake_translated, fake_mapped, cfg: LossConfig = LossConfig()) -> tuple[float, float]:
    """Geometric-GAN hinge loss over unbounded scores (Lim & Ye, 2017)."""
    return gan_loss(real, fake_translated, fake_mapped, replace(cfg, variant="hinge"))


def total_loss(gan: float, vsa: float, cfg: LossConfig = LossConfig()) -> float:
    """gan + lam * vsa; each term and the total is a finite number, not a boolean (``as_float``)."""
    total = as_float(gan, "a finite gan loss term") + cfg.lam * as_float(vsa, "a finite vsa loss term")
    return as_float(total, "a finite total loss")


def check_no_zero_vectors(vs, name: str) -> np.ndarray:
    """``vs`` as a (count, dim) stack through the rank gate; ``hv.check_rows`` raises
    ``DegenerateInputError`` naming the first 8 all-zero rows."""
    stack = as_hypervectors(vs, (2,), name)
    check_rows(np.any(stack, axis=1)[:, np.newaxis], f"{name}: zero-norm hypervectors")
    return stack
