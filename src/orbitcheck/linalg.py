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
SHA-256 of the parts. ``stream_states`` derives the PCG64 states of many
such streams in one vectorised pass, re-implementing numpy's SeedSequence
(pool size 4) and PCG64 seeding, so a generator set to one of them draws
bit for bit what its ``rng_for`` generator draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_TOL = 1e-9

_EPS = np.finfo(np.float64).eps


def _seed_bytes(parts) -> bytes:
    """The seed of ``rng_for(*parts)``, 8 big-endian bytes."""
    return hashlib.sha256(":".join(map(str, parts)).encode()).digest()[:8]


def rng_for(*parts) -> np.random.Generator:
    """Deterministic generator derived from heterogeneous seed parts: the
    first 8 bytes of the SHA-256 of the joined parts seed ``default_rng``.
    ``stream_states`` derives many of these streams in one pass."""
    return np.random.default_rng(int.from_bytes(_seed_bytes(parts), "big"))


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash constant h_0 = init, h_k+1 = h_k mult
    (mod 2^32), h_0..h_n as a uint32 column: it does not depend on the
    entropy."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, v -> ((v ^ h_k) h_k+1) ^ (. >> 16), with
    one (h_k, h_k+1) pair per row of ``xor`` and ``mult``."""
    v = (v ^ xor) * mult
    return v ^ (v >> _SHIFT)


# numpy's SeedSequence (NEP 19) at pool size 4 mixes its entropy with 16
# hashmix calls: one per pool word, then 12 in four rounds, round src
# hashing word src into each other word d in turn; 8 more hash the pool
# out as generate_state(4, uint64)
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _round_hash(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The (h_k, h_k+1) columns of mixing round src, one row per word
    (row src is not used)."""
    k = 4 + 3 * src + np.array([d - (d > src) for d in range(4)])
    k[src] = 0
    return _MIX_HASH[k], _MIX_HASH[k + 1]


_ROUND_HASH = [_round_hash(src) for src in range(4)]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def default_rng_states(seeds) -> list[dict]:
    """``default_rng(s).bit_generator.state`` for integer seeds 0 <= s <
    2^64, in one vectorised pass. It re-implements numpy's SeedSequence
    entropy mixing at pool size 4 and ``generate_state(4, uint64)`` on
    uint32 rows (a seed's one or two 32-bit words pad the pool exactly as
    zero words do), then PCG64 seeding (``pcg64_set_seed``) on Python
    ints: inc = 2i + 1, state = ((inc + s) MULT + inc) mod 2^128 with
    s = v0 v1 and i = v2 v3 the 128-bit pairs of the four output words."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _MIX_HASH[:4], _MIX_HASH[1:5])
    for src, (xor, mult) in enumerate(_ROUND_HASH):
        # mix(x, y) = (L x - R y) ^ (. >> 16) of each word x with the hash y
        # of word src; the three words of a round are independent
        r = pool * _MIX_L - _hashmix(pool[src], xor, mult) * _MIX_R
        r ^= r >> _SHIFT
        r[src] = pool[src]
        pool = r
    words = _hashmix(np.concatenate([pool, pool]), _OUT_HASH[:-1],
                     _OUT_HASH[1:]).astype(np.uint64)
    words = (words[0::2] | (words[1::2] << np.uint64(32))).T
    states = []
    for v0, v1, v2, v3 in words.tolist():
        inc = ((v2 << 65) | (v3 << 1) | 1) & _MASK128
        state = ((inc + ((v0 << 64) | v1)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def stream_states(parts: tuple, indices) -> list[dict]:
    """PCG64 states of ``rng_for(*parts, j)`` for each j in ``indices``,
    derived in one pass: a generator given one of these states draws
    exactly what that ``rng_for`` generator draws."""
    seeds = b"".join(_seed_bytes((*parts, j)) for j in indices)
    return default_rng_states(np.frombuffer(seeds, dtype=">u8"))


RANK_FLOOR = 1e-12


def rank_threshold(singular_values: np.ndarray,
                   shape: tuple[int, int]) -> np.ndarray:
    """Singular values at or below this count as zero, one per row: (..., 1)."""
    return np.maximum(max(shape) * _EPS * singular_values[..., :1], RANK_FLOOR)


def rank_of(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank of a matrix of ``shape`` from its singular values."""
    return int(np.sum(singular_values > rank_threshold(singular_values,
                                                       shape)))


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
    norm, and the singular values of ``a`` that the solve computed."""
    x, _, _, s = np.linalg.lstsq(a, b, rcond=None)
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
