"""Score-space loss functions: cyclic consistency, adversarial terms, total objective.

The discriminator itself is out of scope; the adversarial losses take batches
of externally supplied scores. ``gan_loss`` is the one adversarial loss: each
variant is a row of ``_TERMS``, chosen by ``LossConfig.variant``. The nll
variant reads scores as probabilities in (0, 1); the hinge variant takes
unbounded reals.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .hv import as_float, as_float64, as_hypervectors, check_rows, cosine_similarity

# variant -> (sign of d_loss, D term of a real score, D term of a fake score, G term of a fake score): the
# non-saturating log-likelihood of Goodfellow et al. (2014) and the geometric-GAN hinge of Lim & Ye (2017)
_TERMS = {
    "nll": (-1.0, np.log, lambda f: np.log1p(-f), np.log),
    "hinge": (1.0, lambda r: np.maximum(0.0, 1.0 - r), lambda f: np.maximum(0.0, 1.0 + f), lambda f: f),
}
VARIANTS = tuple(_TERMS)


@dataclass(frozen=True)
class LossConfig:
    """The objective's weights, each a finite number >= 0: ``lam`` of the cyclic loss, ``w1`` of the
    translated and ``w2`` of the mapped fake scores; and the GAN variant."""

    lam: float = 10.0
    w1: float = 1.0
    w2: float = 1.0
    variant: str = "hinge"

    def __post_init__(self):
        for name in ("lam", "w1", "w2"):
            value = getattr(self, name)
            with contextlib.suppress(InvalidArgumentError):
                if (number := as_float(value)) >= 0.0:
                    object.__setattr__(self, name, number)
                    continue
            raise InvalidArgumentError(f"{name} must be finite and >= 0, got {value!r}")
        if self.variant not in VARIANTS:
            raise InvalidArgumentError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


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
    D_fake, G) = ``_TERMS[cfg.variant]`` and ft, fm the translated and mapped scores: d_loss = sign * (mean
    D_real(real) + w1 * mean D_fake(ft) + w2 * mean D_fake(fm)) and g_loss = -(w1 * mean G(ft) + w2 * mean G(fm)),
    w1 and w2 being cfg.w1 and cfg.w2. A negation outside the sum keeps the sign of a zero loss."""
    names = ("real", "fake_translated", "fake_mapped")
    r, ft, fm = batches = [_scores(b, name) for b, name in zip((real, fake_translated, fake_mapped), names)]
    if cfg.variant == "nll":
        for name, batch in zip(names, batches):
            if np.any(batch <= 0.0) or np.any(batch >= 1.0):
                raise InvalidArgumentError(f"{name}: nll scores must lie strictly in (0, 1)")
    sign, d_real, d_fake, g_fake = _TERMS[cfg.variant]
    d_loss = sign * (np.mean(d_real(r)) + cfg.w1 * np.mean(d_fake(ft)) + cfg.w2 * np.mean(d_fake(fm)))
    g_loss = -(cfg.w1 * np.mean(g_fake(ft)) + cfg.w2 * np.mean(g_fake(fm)))
    return as_float(d_loss, "a finite discriminator loss"), as_float(g_loss, "a finite generator loss")


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
