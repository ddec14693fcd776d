"""Dense float64 linear algebra helpers shared across the package.

Subspace arithmetic is phrased against an explicit inner product (Gram)
matrix so that the same routines serve both the coordinate dot product
and the negative Killing form. Every rank decision cuts singular values at
``rank_threshold``, max(shape) * eps * sigma_max, floored at an absolute
1e-12 so numerically-zero matrices have rank 0. Empty matrices need no
special case: numpy's SVD and least squares return empty factors.
Inputs are assumed to carry O(1) scale (orthonormal bases, integer
structure constants); rescale before calling if that does not hold.

Seeded streams: ``rng_for(*parts)`` is ``default_rng`` seeded from a
SHA-256 of the parts. Each GO lane, float and exact, reads one such
stream per seed as an addressed sequence of raw 64-bit words
(``go._Stream``): PCG64's ``advance`` jumps to a sample's words in
O(log n) steps, and no ``Generator`` method, whose output numpy may
change between releases, is called.

Heap: importing the module pins glibc's mmap and trim thresholds
(``_pin_heap``). glibc's defaults start at 128 KiB and rise only after a
large block is freed, so without the pin the stacks each GO fill frees
(1-2.3 MiB) are unmapped or trimmed and page-faulted back on every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

import numpy as np

DEFAULT_TOL = 1e-9


def _pin_heap() -> None:
    """Fix glibc's thresholds once: freed blocks under 32 MiB stay in the
    heap, and it is trimmed only above 64 MiB. Skipped off glibc, and when
    a ``MALLOC_*`` variable or a ``glibc.malloc`` tunable is set."""
    if (platform.libc_ver()[0] != "glibc"
            or any(name.startswith("MALLOC_") for name in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(-3, 32 * 2 ** 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 * 2 ** 20)  # M_TRIM_THRESHOLD


_pin_heap()

_EPS = np.finfo(np.float64).eps


def rng_for(*parts) -> np.random.Generator:
    """Deterministic generator derived from heterogeneous seed parts: the
    first 8 bytes of the SHA-256 of the joined parts seed ``default_rng``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


RANK_FLOOR = 1e-12


def rank_threshold(singular_values: np.ndarray,
                   shape: tuple[int, int]) -> np.ndarray:
    """Singular values at or below this count as zero, one per row: (..., 1)."""
    return np.maximum(max(shape) * _EPS * singular_values[..., :1], RANK_FLOOR)


def rank_of(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a matrix of ``shape`` from its singular values."""
    return int(np.count_nonzero(
        singular_values > rank_threshold(singular_values, shape)))


def svd_rank(a: np.ndarray) -> int:
    return rank_of(np.linalg.svd(a, compute_uv=False), a.shape)


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``a``. A tall ``a`` is
    first reduced to the R of its QR, which has the same singular values
    and right singular vectors, so no tall U is formed."""
    rows, cols = a.shape
    if rows > cols:
        _, s, vt = np.linalg.svd(np.linalg.qr(a, mode="r"))
    else:
        _, s, vt = np.linalg.svd(a, full_matrices=rows < cols)
    return vt[rank_of(s, a.shape):].T.copy()


def column_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :rank_of(s, a.shape)].copy()


def gram_orthonormalize(basis: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Trim ``basis`` columns to an independent set, orthonormal w.r.t. ``gram``.

    ``gram`` must be symmetric positive definite on the ambient space.
    """
    independent = column_space(basis)
    c = independent.T @ gram @ independent
    c = 0.5 * (c + c.T)
    chol = np.linalg.cholesky(c)
    return independent @ np.linalg.inv(chol).T


def project_onto(v: np.ndarray, ortho_basis: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the span of gram-orthonormal columns."""
    return ortho_basis @ (ortho_basis.T @ (gram @ v))


def min_norm_solve(a: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimum-norm least squares solution of ``a x = b``, its residual
    norm, and the singular values of ``a``, from one thin SVD cut where
    ``np.linalg.lstsq(rcond=None)`` cuts: at max(shape) eps s_max, with
    no absolute floor (``rank_threshold`` has one)."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = int(np.count_nonzero(s > max(a.shape) * _EPS * s[:1]))
    x = ((b @ u[:, :k]) / s[:k]) @ vt[:k]
    return x, float(np.linalg.norm(a @ x - b)), s


def consistency_gap(a: np.ndarray, b: np.ndarray,
                    rank_a: int) -> tuple[int, float]:
    """Rank data certifying whether ``a x = b`` is solvable.

    Given the rank of ``a``, returns (rank_aug, margin): the rank of the
    augmented matrix and its smallest singular value beyond rank_a, the
    size of the inconsistency. margin is 0.0 when the ranks agree.
    """
    aug = np.hstack([a, b.reshape(-1, 1)])
    s_aug = np.linalg.svd(aug, compute_uv=False)
    rank_aug = rank_of(s_aug, aug.shape)
    margin = 0.0
    if rank_aug > rank_a:
        margin = float(s_aug[rank_a:rank_aug].min())
    return rank_aug, margin
