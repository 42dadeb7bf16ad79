"""In-memory representation of a JPEG image at the coefficient level.

:class:`CoefficientImage` is the pivot type of the whole reproduction: the
encoder produces one, the decoder consumes one, and the P3 splitter
(paper Section 3.2) transforms one into the public/secret pair.  It is
the equivalent of what ``jpegio`` exposes from libjpeg internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ComponentInfo:
    """One color component (Y, Cb or Cr) of a JPEG image.

    ``coefficients`` holds quantized DCT coefficients in raster block
    layout, shape ``(blocks_y, blocks_x, 8, 8)``, dtype int32.
    """

    identifier: int
    h_sampling: int
    v_sampling: int
    quant_table: np.ndarray  # (8, 8) int32
    coefficients: np.ndarray  # (by, bx, 8, 8) int32

    def __post_init__(self) -> None:
        if self.quant_table.shape != (8, 8):
            raise ValueError(
                f"quant_table must be 8x8, got {self.quant_table.shape}"
            )
        if self.coefficients.ndim != 4 or self.coefficients.shape[2:] != (8, 8):
            raise ValueError(
                "coefficients must have shape (by, bx, 8, 8), got "
                f"{self.coefficients.shape}"
            )

    @property
    def blocks_y(self) -> int:
        return self.coefficients.shape[0]

    @property
    def blocks_x(self) -> int:
        return self.coefficients.shape[1]

    @property
    def num_blocks(self) -> int:
        return self.blocks_y * self.blocks_x

    def with_coefficients(self, coefficients: np.ndarray) -> "ComponentInfo":
        """This component's geometry and a copy of its quantization
        table, around ``coefficients``."""
        return ComponentInfo(
            identifier=self.identifier,
            h_sampling=self.h_sampling,
            v_sampling=self.v_sampling,
            quant_table=self.quant_table.copy(),
            coefficients=coefficients,
        )

    def copy(self) -> "ComponentInfo":
        return self.with_coefficients(self.coefficients.copy())


@dataclass
class CoefficientImage:
    """A JPEG image represented as quantized DCT coefficients.

    ``width``/``height`` are the true pixel dimensions; each component's
    block grid covers its (possibly subsampled) plane rounded up to 8.
    ``progressive`` records whether the source/destination bitstream uses
    the progressive mode (SOF2); the coefficient content is identical.
    """

    width: int
    height: int
    components: list[ComponentInfo]
    progressive: bool = False
    app_segments: list[tuple[int, bytes]] = field(default_factory=list)
    comment: bytes | None = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"invalid dimensions {self.width}x{self.height}"
            )
        if not self.components:
            raise ValueError("image must have at least one component")

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def is_grayscale(self) -> bool:
        return len(self.components) == 1

    @property
    def luma(self) -> ComponentInfo:
        """The luminance component (always the first)."""
        return self.components[0]

    @property
    def max_h_sampling(self) -> int:
        return max(c.h_sampling for c in self.components)

    @property
    def max_v_sampling(self) -> int:
        return max(c.v_sampling for c in self.components)

    def component_plane_size(self, index: int) -> tuple[int, int]:
        """Pixel dimensions of component ``index``'s (subsampled) plane."""
        component = self.components[index]
        height = -(-self.height * component.v_sampling // self.max_v_sampling)
        width = -(-self.width * component.h_sampling // self.max_h_sampling)
        return height, width

    def with_components(
        self, components: list[ComponentInfo], progressive: bool = False
    ) -> "CoefficientImage":
        """An image of this one's size around ``components``."""
        return CoefficientImage(
            width=self.width,
            height=self.height,
            components=components,
            progressive=progressive,
        )

    def copy(self) -> "CoefficientImage":
        return CoefficientImage(
            width=self.width,
            height=self.height,
            components=[c.copy() for c in self.components],
            progressive=self.progressive,
            app_segments=list(self.app_segments),
            comment=self.comment,
        )

    def total_nonzero(self) -> int:
        """Total count of nonzero quantized coefficients (all components)."""
        return int(
            sum(np.count_nonzero(c.coefficients) for c in self.components)
        )

    def same_quantization(self, other: "CoefficientImage") -> bool:
        """True if every component pair shares its quantization table.

        The exact Eq. 1 recombination requires it; a PSP that recompressed
        the public part will fail this check even at identical geometry.
        """
        if len(self.components) != len(other.components):
            return False
        return all(
            np.array_equal(a.quant_table, b.quant_table)
            for a, b in zip(self.components, other.components)
        )

    def same_geometry(self, other: "CoefficientImage") -> bool:
        """True if dims, component count and sampling factors all match."""
        if (self.width, self.height) != (other.width, other.height):
            return False
        if len(self.components) != len(other.components):
            return False
        return all(
            (a.h_sampling, a.v_sampling, a.coefficients.shape)
            == (b.h_sampling, b.v_sampling, b.coefficients.shape)
            for a, b in zip(self.components, other.components)
        )
