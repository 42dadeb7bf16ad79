"""Reverse engineering PSP transformation pipelines (paper Section 4.1).

The precise server-side processing (resize kernel, sharpening,
color/gamma adjustments) is not visible to the recipient, so P3
"search[es] the space of possible transformations for an outcome that
matches the output of transformations performed by the PSP ...
exhaustively searching the parameter space with salient options based
on commonly-used resizing techniques".

:func:`reverse_engineer` does exactly that: the calibrator uploads
*known* reference photos, downloads what the PSP serves, and scores
each candidate (kernel, sharpen, gamma) setting by PSNR against the
served pixels.  The winning estimate yields the linear operator the
recipient proxy replays on secret/correction images (Eq. 2).  The
search only needs to be repeated "when a PSP re-jiggers its image
transformation pipeline".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.metrics import psnr
from repro.transforms.enhance import adjust_gamma, unsharp_mask
from repro.transforms.operators import Compose, LinearOperator
from repro.transforms.resize import KERNELS, Resize, resize_plane

#: Salient candidate values, mirroring the paper's search dimensions
#: (colorspace/filter/sharpen/enhance/gamma); kernels come from [28].
DEFAULT_KERNELS: tuple[str, ...] = tuple(sorted(KERNELS))
DEFAULT_SHARPEN: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 1.0)
DEFAULT_GAMMA: tuple[float, ...] = (1.0, 0.9, 1.1)


@dataclass(frozen=True)
class SharpenOperator:
    """Unsharp masking as a shape-preserving linear operator."""

    amount: float
    radius: float = 1.0

    def __call__(self, plane: np.ndarray) -> np.ndarray:
        return unsharp_mask(plane, radius=self.radius, amount=self.amount)

    def output_shape(self, input_shape: tuple[int, int]) -> tuple[int, int]:
        return input_shape


@dataclass(frozen=True)
class TransformEstimate:
    """The recovered PSP pipeline parameters."""

    kernel: str
    sharpen_amount: float
    gamma: float
    score_db: float  # PSNR of the best candidate against served pixels

    def operator(self, out_height: int, out_width: int) -> LinearOperator:
        """The *linear* part of the pipeline as an Eq. 2 operator.

        Gamma is excluded (nonlinear); when the estimate found a gamma
        other than 1.0, the recipient should invert it on the served
        public pixels before reconstruction, per the paper's one-to-one
        remapping discussion.
        """
        resize = Resize(out_height, out_width, self.kernel)
        if self.sharpen_amount == 0.0:
            return resize
        return Compose(operators=(resize, SharpenOperator(self.sharpen_amount)))


def _apply_candidate(
    plane: np.ndarray,
    out_height: int,
    out_width: int,
    kernel: str,
    sharpen_amount: float,
    gamma: float,
) -> np.ndarray:
    candidate = resize_plane(plane, out_height, out_width, kernel)
    if sharpen_amount > 0.0:
        candidate = unsharp_mask(candidate, amount=sharpen_amount)
    if gamma != 1.0:
        candidate = adjust_gamma(candidate, gamma)
    return np.clip(candidate, 0.0, 255.0)


def reverse_engineer(
    originals: list[np.ndarray],
    served: list[np.ndarray],
    kernels: tuple[str, ...] = DEFAULT_KERNELS,
    sharpen_amounts: tuple[float, ...] = DEFAULT_SHARPEN,
    gammas: tuple[float, ...] = DEFAULT_GAMMA,
) -> TransformEstimate:
    """Search the salient parameter space for the PSP's pipeline.

    ``originals`` are luma planes of the uploaded calibration photos;
    ``served`` are the luma planes the PSP returned (already resized).
    Every (kernel, sharpen, gamma) combination is scored by mean PSNR
    over the calibration set; the best wins.
    """
    if len(originals) != len(served) or not originals:
        raise ValueError("need equal, nonzero numbers of calibration images")
    best: TransformEstimate | None = None
    for kernel, sharpen_amount, gamma in product(
        kernels, sharpen_amounts, gammas
    ):
        scores = []
        for original, target in zip(originals, served):
            out_h, out_w = target.shape
            candidate = _apply_candidate(
                original, out_h, out_w, kernel, sharpen_amount, gamma
            )
            scores.append(psnr(target, candidate))
        mean_score = float(np.mean(scores))
        if best is None or mean_score > best.score_db:
            best = TransformEstimate(
                kernel=kernel,
                sharpen_amount=sharpen_amount,
                gamma=gamma,
                score_db=mean_score,
            )
    assert best is not None
    return best
