"""Sender-side threshold splitting (paper Section 3.2, Figure 1).

Operates on quantized DCT coefficients, "conceptually inserted into the
JPEG compression pipeline after the quantization step":

* every DC coefficient moves to the secret part (replaced by zero in the
  public part) — DC carries enough information for a recognizable
  thumbnail;
* each AC coefficient ``y`` with ``|y| <= T`` stays in the public part
  (secret gets zero);
* each AC coefficient with ``|y| > T`` is replaced by ``T`` in the public
  part, and the secret part stores ``sign(y) * (|y| - T)``.

Note the public value for clipped coefficients is ``+T`` regardless of
the true sign: sign information of significant coefficients lives only
in the secret part, which the paper identifies as crucial for privacy
(Section 3.4).

``T`` is one threshold, or per-block threshold maps: one ``(blocks_y,
blocks_x)`` array per component (:mod:`repro.core.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.jpeg.structures import CoefficientImage


@dataclass
class SplitResult:
    """The outcome of splitting one image: two JPEG-compatible halves.

    Both halves carry the same quantization tables and geometry as the
    original, so ``public``/``secret`` can each be entropy-coded into a
    compliant JPEG file, and recombination is exact integer arithmetic.
    """

    public: CoefficientImage
    secret: CoefficientImage = field(repr=False)  # taint: source(secret)
    threshold: int | list[np.ndarray]

    def storage_fractions(self) -> tuple[float, float]:
        """(public, secret) nonzero-coefficient fractions of the original.

        A fast structural proxy for the byte-level measurements of
        Figure 5 (tests use it to check monotonicity in T).
        """
        total = self.public.total_nonzero() + self.secret.total_nonzero()
        if total == 0:
            return 0.0, 0.0
        return (
            self.public.total_nonzero() / total,
            self.secret.total_nonzero() / total,
        )


def block_thresholds(
    threshold: int | np.ndarray, blocks: tuple[int, ...], dtype
) -> np.ndarray:
    """``threshold`` as a ``dtype`` array that broadcasts over a block
    array on the grid ``blocks``: 0-d for one T, ``(by, bx, 1, 1)`` for
    a per-block map, which must match the grid."""
    grid = np.asarray(threshold, dtype=dtype)
    if grid.ndim == 0:
        return grid
    if grid.shape != blocks:
        raise ValueError(
            f"threshold map {grid.shape} does not match block grid {blocks}"
        )
    return grid[:, :, None, None]


def component_thresholds(
    threshold: int | list[np.ndarray], image: CoefficientImage
) -> list:
    """``threshold`` for each component of ``image``: the one T, or
    the component's own ``(blocks_y, blocks_x)`` map."""
    if isinstance(threshold, (int, np.integer)):
        return [threshold] * image.num_components
    return threshold


def split_block_array(
    coefficients: np.ndarray, threshold: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split a ``(by, bx, 8, 8)`` quantized coefficient array.

    ``threshold`` is one T of at least 1, or a ``(by, bx)`` map of
    per-block thresholds.  Returns ``(public, secret)`` int32 arrays of
    the same shape.
    """
    if np.ndim(threshold) == 0 and threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    grid = block_thresholds(threshold, coefficients.shape[:2], np.int32)
    coefficients = coefficients.astype(np.int32)
    magnitude = np.abs(coefficients)
    above = magnitude > grid

    public = np.where(
        above,
        grid,  # clipped, sign deliberately lost
        coefficients,
    ).astype(np.int32)
    secret = np.where(
        above,
        np.sign(coefficients) * (magnitude - grid),
        np.int32(0),
    ).astype(np.int32)

    # DC extraction: secret takes the whole DC, public gets zero.
    public[..., 0, 0] = 0
    secret[..., 0, 0] = coefficients[..., 0, 0]
    return public, secret


def split_image(
    image: CoefficientImage, threshold: int | list[np.ndarray]
) -> SplitResult:
    """Split a full coefficient image into public and secret halves.

    ``threshold`` is one T for every component, or one per-block map
    per component.
    """
    public_components = []
    secret_components = []
    thresholds = component_thresholds(threshold, image)
    for c, t in zip(image.components, thresholds, strict=True):
        public, secret = split_block_array(c.coefficients, t)
        public_components.append(c.with_coefficients(public))
        secret_components.append(c.with_coefficients(secret))
    return SplitResult(
        public=image.with_components(public_components, image.progressive),
        # The secret part is never served scaled, so never progressive.
        secret=image.with_components(secret_components),
        threshold=threshold,
    )


def guess_threshold(public: CoefficientImage) -> int:
    """An attacker's estimate of T from the public part alone.

    Section 3.4: "Given only the public part, the attacker can guess the
    threshold T by assuming it to be the most frequent non-zero value."
    Implemented here because the evaluation's guessing-attack analysis
    needs it.  Returns 0 when the public part has no nonzero AC values.
    """
    votes: dict[int, int] = {}
    for component in public.components:
        ac = component.coefficients.reshape(-1, 64)[:, :]
        flat = ac.copy()
        flat = flat.reshape(-1, 8, 8)
        flat[..., 0, 0] = 0
        values, counts = np.unique(flat[flat != 0], return_counts=True)
        for value, count in zip(values, counts):
            votes[int(value)] = votes.get(int(value), 0) + int(count)
    if not votes:
        return 0
    return max(votes, key=votes.get)
