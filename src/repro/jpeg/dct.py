"""8x8 forward and inverse DCT-II used by JPEG (ITU-T T.81 Annex A.3.3).

The transform is expressed in matrix form:  ``Y = C X C^T`` where ``C`` is
the orthonormal 8-point DCT basis.  On a row-major flattened block that
is one ``(64, 64)`` matrix, ``kron(C, C)``, so the forward transform of a
whole plane is an ``(N, 64) @ (64, 64)`` GEMM.  The inverse is still a
three-operand einsum over the block stack until ROADMAP item 1 lets the
benchmark resolve its GEMM replacement.
"""

from __future__ import annotations

import numpy as np


def _dct_basis() -> np.ndarray:
    """Return the orthonormal 8x8 DCT-II basis matrix ``C``.

    ``C[k, n] = a(k) * cos((2n + 1) k pi / 16)`` with ``a(0) = sqrt(1/8)``
    and ``a(k>0) = sqrt(2/8)``, so that ``C @ C.T == I``.
    """
    k = np.arange(8).reshape(8, 1).astype(np.float64)
    n = np.arange(8).reshape(1, 8).astype(np.float64)
    basis = np.cos((2.0 * n + 1.0) * k * np.pi / 16.0)
    basis *= np.sqrt(2.0 / 8.0)
    basis[0, :] = np.sqrt(1.0 / 8.0)
    return basis


#: The orthonormal 8-point DCT basis; ``DCT_BASIS @ DCT_BASIS.T`` is identity.
DCT_BASIS: np.ndarray = _dct_basis()

#: ``C X C^T`` on row-major flattened blocks: ``flat @ _FORWARD_KRON``.
_FORWARD_KRON: np.ndarray = np.kron(DCT_BASIS, DCT_BASIS).T

#: Rows per GEMM slab.  A 64 x 64 x 64 product is at OpenBLAS's
#: single-thread threshold, so every slab runs on the calling thread.
#: One threaded GEMM over a whole plane waited 5-8 ms per call on its
#: BLAS worker in some processes on a 2-vCPU guest; slabs took 1.2-1.7
#: ms per 4096 blocks in every process, with bitwise-equal output.
_SLAB_ROWS = 64


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Apply the 2-D DCT-II to a stack of 8x8 blocks.

    ``blocks`` has shape ``(..., 8, 8)`` of (level-shifted) pixel values;
    returns float64 coefficients with the same shape.  The DC coefficient
    of a flat block of value ``v`` is ``8 v``.
    """
    if blocks.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing 8x8 blocks, got {blocks.shape}")
    flat = np.ascontiguousarray(blocks, dtype=np.float64).reshape(-1, 64)
    out = np.empty_like(flat)
    whole = len(flat) - len(flat) % _SLAB_ROWS
    np.matmul(
        flat[:whole].reshape(-1, _SLAB_ROWS, 64),
        _FORWARD_KRON,
        out=out[:whole].reshape(-1, _SLAB_ROWS, 64),
    )
    np.matmul(flat[whole:], _FORWARD_KRON, out=out[whole:])
    return out.reshape(blocks.shape)


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Apply the 2-D inverse DCT (DCT-III) to a stack of 8x8 blocks.

    Exact inverse of :func:`forward_dct` up to float rounding.
    """
    if coefficients.shape[-2:] != (8, 8):
        raise ValueError(
            f"expected trailing 8x8 blocks, got {coefficients.shape}"
        )
    c = DCT_BASIS
    return np.einsum(
        "ji,...jk,kl->...il", c, coefficients.astype(np.float64), c
    )
