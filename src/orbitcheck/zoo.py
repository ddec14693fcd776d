"""Compact matrix Lie algebras, octonion constructions, and named embeddings.

Basis conventions
-----------------
so(n):  L_ab = E_ab - E_ba for a < b in lexicographic order; the
        coordinate of L_ab in an antisymmetric matrix M is M[a, b].
su(n):  H_k = i(E_kk - E_{k+1,k+1}) for k = 0..n-2, then for each pair
        a < b the matrices A_ab = E_ab - E_ba and S_ab = i(E_ab + E_ba),
        interleaved per pair.
u(n):   D_k = i E_kk for k = 0..n-1, then A_ab, S_ab as in su(n).
sp(n):  complex 2n x 2n matrices [[A, B], [-conj(B), conj(A)]] with A in
        u(n) and B complex symmetric; basis is the u(n) basis in the A
        block, then Re E_kk, Re(E_ab + E_ba), Im E_kk, Im(E_ab + E_ba)
        in the B block.
torus(n): abelian, identity inner product.

Classical structure constants are integers and are computed exactly,
from one sparse join: each basis matrix is expanded once into its
matrix-unit entries with Gaussian-integer coefficients, every commutator
comes from joining them on the shared index (E_rs E_uv = delta_su E_rv),
and its coordinates from the family's extractor applied once to each
matrix unit, a sparse dual. Constructors raise unless the extractor
reads the basis as the identity and the coordinates are integers that
rebuild the commutators exactly, entry for entry, which proves Jacobi.
g2, the octonions' derivation algebra, has exact rational constants.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from . import exact
from .core import (LieAlgebra, StructureConstants, ValidationError,
                   _accumulate, _join, bracket_images, direct_sum,
                   make_algebra, pair_bracket_tensor, structure_constants,
                   trivial_algebra)
from .linalg import svd_rank

RANK_MIN = {"so": 2, "su": 2, "u": 1, "sp": 1, "torus": 1}
RANK_CAPS = {"so": 16, "su": 8, "u": 8, "sp": 7, "torus": 16}
_DIMENSION = {"so": lambda n: n * (n - 1) // 2, "su": lambda n: n * n - 1,
             "u": lambda n: n * n, "sp": lambda n: n * (2 * n + 1),
             "torus": lambda n: n}


def _check_family(family: str, n: int) -> None:
    if family not in RANK_CAPS:
        raise ValueError(f"unknown family {family!r}; known: so, su, u, sp, torus")
    lo, hi = RANK_MIN[family], RANK_CAPS[family]
    if not lo <= n <= hi:
        raise ValueError(f"{family}({n}) outside supported range [{lo}, {hi}]")


def so_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _offdiag_matrices(n: int) -> list[np.ndarray]:
    mats = []
    for a, b in so_pairs(n):
        for upper, lower in ((1.0, -1.0), (1j, 1j)):
            m = np.zeros((n, n), dtype=np.complex128)
            m[a, b], m[b, a] = upper, lower
            mats.append(m)
    return mats


def _so_matrices(n: int) -> list[np.ndarray]:
    return _offdiag_matrices(n)[::2]


def _u_matrices(n: int) -> list[np.ndarray]:
    return ([np.diag(1j * (np.arange(n) == k)) for k in range(n)]
            + _offdiag_matrices(n))


def _su_matrices(n: int) -> list[np.ndarray]:
    d = _u_matrices(n)
    return [d[k] - d[k + 1] for k in range(n - 1)] + d[n:]


def _sp_from_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    m = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    m[:n, :n] = a
    m[:n, n:] = b
    m[n:, :n] = -np.conj(b)
    m[n:, n:] = np.conj(a)
    return m


def _sp_matrices(n: int) -> list[np.ndarray]:
    zero = np.zeros((n, n), dtype=np.complex128)
    mats = [_sp_from_blocks(u, zero) for u in _u_matrices(n)]
    unit = np.eye(n, dtype=np.complex128)
    sym = [np.outer(unit[k], unit[k]) for k in range(n)] + [
        np.outer(unit[a], unit[b]) + np.outer(unit[b], unit[a])
        for a, b in so_pairs(n)]
    mats.extend(_sp_from_blocks(zero, b) for b in sym)
    mats.extend(_sp_from_blocks(zero, 1j * b) for b in sym)
    return mats


def matrix_basis(family: str, n: int) -> list[np.ndarray]:
    """Defining-representation basis matrices, complex128 and exact."""
    _check_family(family, n)
    if family not in _MATRIX_BASES:
        raise ValueError(f"{family} has no matrix basis")
    return _MATRIX_BASES[family](n)


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of n x n,
    read-only, as every call shares them."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _offdiag_coords(batch: np.ndarray, n: int) -> np.ndarray:
    entries = batch[(slice(None), *_upper(n))]
    out = np.empty((batch.shape[0], 2 * entries.shape[1]))
    out[:, 0::2] = np.real(entries)
    out[:, 1::2] = np.imag(entries)
    return out


def _extract_so(batch: np.ndarray, n: int) -> np.ndarray:
    return _offdiag_coords(batch, n)[:, ::2]


def _extract_su(batch: np.ndarray, n: int) -> np.ndarray:
    im_diag = np.imag(np.diagonal(batch, axis1=1, axis2=2))
    h = np.cumsum(im_diag[:, : n - 1], axis=1)
    return np.hstack([h, _offdiag_coords(batch, n)])


def _extract_u(batch: np.ndarray, n: int) -> np.ndarray:
    d = np.imag(np.diagonal(batch, axis1=1, axis2=2))
    return np.hstack([d, _offdiag_coords(batch, n)])


def _extract_sp(batch: np.ndarray, n: int) -> np.ndarray:
    b_block = batch[:, :n, n:]
    diag = np.diagonal(b_block, axis1=1, axis2=2)
    off = b_block[(slice(None), *_upper(n))]
    return np.hstack([
        _extract_u(batch[:, :n, :n], n),
        np.real(diag), np.real(off),
        np.imag(diag), np.imag(off),
    ])


_MATRIX_BASES = {"so": _so_matrices, "su": _su_matrices, "u": _u_matrices,
                 "sp": _sp_matrices}
_EXTRACTORS = {"so": _extract_so, "su": _extract_su, "u": _extract_u,
               "sp": _extract_sp}


def _coordinates(batch: np.ndarray, family: str, n: int, stack: np.ndarray,
                 name: str, atol: float = 0.0) -> np.ndarray:
    """Coordinates (one row per matrix) of a batch of matrices against
    the basis ``stack`` of the family; raises unless they rebuild the
    batch to within ``atol``."""
    coords = _EXTRACTORS[family](batch, n)
    recon = coords @ stack.reshape(len(stack), -1)
    err = np.abs(recon - batch.reshape(len(batch), -1)).max(initial=0.0)
    if err > atol:
        raise ValidationError(f"{name}: matrices do not lie in {family}({n}) "
                              f"(residual {err:.2e})")
    return coords


@lru_cache(maxsize=None)
def classical(family: str, n: int) -> LieAlgebra:
    """Compact classical algebra with integer structure constants, read
    off and proven by ``_matrix_constants`` (a torus has none).

    The inner product is minus the Killing form on the derived algebra
    and the coordinate dot product on the center.
    """
    _check_family(family, n)
    name = f"{family}({n})"
    if family == "torus":
        return make_algebra(structure_constants(n, []), name)
    return make_algebra(_matrix_constants(family, n, name), name)


def _matrix_constants(family: str, n: int, name: str) -> StructureConstants:
    """The family's integer structure constants, from one sparse join.

    Each basis matrix x_t is expanded once into its matrix-unit entries
    (t, r, s, c), x_t = sum c E_rs with c a Gaussian integer, and every
    commutator [x_i, x_j] = x_i x_j - x_j x_i comes from one join of the
    entries on the shared index, as E_rs E_uv = delta_su E_rv. The
    family's extractor is real-linear, so applied once to each E_rv and
    i E_rv it gives a sparse dual, and the coordinates of every
    commutator are one more join, of its real and imaginary parts with
    that dual. They must rebuild the commutators exactly, entry for entry
    (a sparse rebuild, exact on Gaussian integers), and be integers; they
    are the constants. The extractor must read the basis as the identity:
    the matrices are then independent, so antisymmetry and Jacobi hold.
    """
    stack = np.stack(matrix_basis(family, n))
    dim, size = len(stack), stack.shape[1]
    if not np.array_equal(_EXTRACTORS[family](stack, n), np.identity(dim)):
        raise ValidationError(f"{name}: basis matrices are not independent")
    units = size * size
    t, r, s = np.nonzero(stack)
    c = stack[t, r, s]
    # x_a x_b holds c_a c_b at E_(r_a, s_b) wherever s_a == r_b
    a, b = _join(s, r)
    at = r[a] * size + s[b]
    keys, comm = _accumulate(
        np.concatenate([(t[a] * dim + t[b]) * units + at,
                        (t[b] * dim + t[a]) * units + at]),
        np.concatenate([c[a] * c[b], -c[a] * c[b]]))
    keys, comm = keys[comm != 0], comm[comm != 0]
    # Re w reads the dual row of E_rv, Im w the row of i E_rv
    basis = np.identity(units).reshape(units, size, size)
    dual = _EXTRACTORS[family](np.concatenate([basis, 1j * basis]), n)
    unit, k = np.nonzero(dual)
    pair, at = np.divmod(keys, units)
    part = np.concatenate([comm.real, comm.imag])
    live = np.flatnonzero(part)
    a, b = _join(np.concatenate([at, at + units])[live], unit)
    ijk, coords = _accumulate(np.tile(pair, 2)[live][a] * dim + k[b],
                              part[live][a] * dual[unit[b], k[b]])
    ijk, coords = ijk[coords != 0], coords[coords != 0]
    # sum_k c_ijk x_k against [x_i, x_j], entry for entry
    a, b = _join(ijk % dim, t)
    _, diff = _accumulate(
        np.concatenate([ijk[a] // dim * units + r[b] * size + s[b], keys]),
        np.concatenate([coords[a] * c[b], -comm]))
    err = np.abs(diff).max(initial=0.0)
    if err > 0:
        raise ValidationError(f"{name}: matrices do not lie in {family}({n}) "
                              f"(residual {err:.2e})")
    if not np.array_equal(coords, np.rint(coords)):
        raise ValidationError(f"{name}: constants are not integers")
    index = np.column_stack([ijk // (dim * dim), ijk // dim % dim, ijk % dim])
    return StructureConstants(dim, index,
                              coords.astype(np.int64).astype(object))


# --- octonions ---------------------------------------------------------

_QUAT_SGN = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [1, 1, -1, -1],
], dtype=np.int64)
_QUAT_IDX = np.array([
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
], dtype=np.int64)


def quaternion_multiply(x, y):
    x, y = np.asarray(x), np.asarray(y)
    out = np.zeros(4, dtype=np.result_type(x, y))
    np.add.at(out, _QUAT_IDX, _QUAT_SGN * np.multiply.outer(x, y))
    return out


def quaternion_conjugate(x):
    x = np.asarray(x)
    out = -x.copy()
    out[0] = x[0]
    return out


def octonion_multiply(x, y):
    """Cayley-Dickson product on pairs of quaternions."""
    x = np.asarray(x)
    y = np.asarray(y)
    a, b = x[:4], x[4:]
    c, d = y[:4], y[4:]
    first = quaternion_multiply(a, c) - quaternion_multiply(quaternion_conjugate(d), b)
    second = quaternion_multiply(d, a) + quaternion_multiply(b, quaternion_conjugate(c))
    return np.concatenate([first, second])


@lru_cache(maxsize=1)
def octonion_table() -> tuple[np.ndarray, np.ndarray]:
    """Signs and indices with e_a e_b = sgn[a, b] e_{idx[a, b]}."""
    sgn = np.zeros((8, 8), dtype=np.int64)
    idx = np.zeros((8, 8), dtype=np.int64)
    unit = np.eye(8, dtype=np.int64)
    for a in range(8):
        for b in range(8):
            z = octonion_multiply(unit[a], unit[b])
            nz = np.nonzero(z)[0]
            if len(nz) != 1 or abs(z[nz[0]]) != 1:
                raise ValidationError("octonion basis product is not a signed unit")
            idx[a, b] = nz[0]
            sgn[a, b] = z[nz[0]]
    return sgn, idx


def _octonion_f() -> np.ndarray:
    """Antisymmetric multiplication coefficients on imaginary units."""
    sgn, idx = octonion_table()
    a, b = np.nonzero(~np.eye(7, dtype=bool))
    c = idx[a + 1, b + 1] - 1
    if (c < 0).any():
        raise ValidationError("imaginary product fell on the unit")
    f = np.zeros((7, 7, 7), dtype=np.int64)
    f[a, b, c] = sgn[a + 1, b + 1]
    return f


def unit_mult_matrices() -> tuple[np.ndarray, np.ndarray]:
    """8x8 integer matrices of left and of right multiplication by
    e_1..e_7, each stack of shape (7, 8, 8)."""
    sgn, idx = octonion_table()
    t, q = np.arange(1, 8)[:, None], np.arange(8)
    left, right = np.zeros((2, 7, 8, 8), dtype=np.int64)
    left[t - 1, idx[t, q], q] = sgn[t, q]
    right[t - 1, idx[q, t], q] = sgn[q, t]
    return left, right


@lru_cache(maxsize=1)
def _g2_data() -> tuple[LieAlgebra, np.ndarray]:
    """g2 with exact structure constants plus its so(7) coordinate basis.

    A derivation D of the octonions preserves the imaginary part and is
    antisymmetric, so it is a vector in so(7); the derivation property
    D(e_a e_b) = D(e_a) e_b + e_a D(e_b) on basis products, one row per
    (a, b, q) and one column per so(7) basis matrix, gives an integer
    linear system whose kernel is g2. Its distinct nonzero rows have the
    same row space, so the same rref and kernel K = N / d (N integer).
    W = ad(N) N holds d^2 [K_s, K_t] at W[s, :, t]; as K[free] = I, its
    rows ``free`` are their coordinates in K, and the closure check
    N W[:, free] = d W is an identity of integers. The two checks prove
    Jacobi: K[free] = I makes the columns of K independent.
    """
    f = _octonion_f()
    basis = np.real(np.stack(_so_matrices(7))).astype(np.int64)
    defect = (np.einsum("abc,tqc->abqt", f, basis)
              - np.einsum("tca,cbq->abqt", basis, f)
              - np.einsum("tcb,acq->abqt", basis, f))
    rows = {tuple(row) for row in defect.reshape(-1, 21).tolist() if any(row)}
    kernel, d = exact.null_space(np.array(sorted(rows), dtype=object))
    # in free-column form every later row of a kernel column is zero
    free = [int(np.flatnonzero(col)[-1]) for col in kernel.T]
    if kernel.shape != (21, 14) or not np.array_equal(
            kernel[free], d * np.eye(14, dtype=np.int64)):
        raise ValidationError("derivation kernel is not 14-dimensional "
                              "in free-column form")
    w = exact.imatmul(classical("so", 7).structure_exact.ad_numerators(kernel),
                      kernel).astype(object)
    coords = w[:, free]
    if not np.array_equal(kernel @ coords, d * w):
        raise ValidationError("derivation bracket left the kernel")
    numer, denom = exact.reduced(coords.transpose(0, 2, 1), d * d)
    index = np.column_stack(np.nonzero(numer))
    constants = StructureConstants(14, index, numer[tuple(index.T)], denom)
    return make_algebra(constants, "g2"), exact.over(kernel, d)


def g2() -> LieAlgebra:
    return _g2_data()[0]


def algebra_by_name(text: str) -> LieAlgebra:
    """Parse names like 'so(5)', 'g2', 'torus(2)', or sums 'su(3)+su(2)'."""
    text = text.strip()
    if "+" in text:
        return direct_sum([algebra_by_name(part) for part in text.split("+")])
    if text == "g2":
        return g2()
    if text in ("0", "trivial"):
        return trivial_algebra()
    if "(" in text and text.endswith(")"):
        family, arg = text[:-1].split("(", 1)
        return classical(family.strip(), int(arg))
    raise ValueError(f"cannot parse algebra name {text!r}")


# --- embeddings --------------------------------------------------------

# Largest homomorphism residual an Embedding accepts.
HOMOMORPHISM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Embedding:
    """Injective Lie algebra homomorphism in coordinates.

    ``matrix`` maps source coordinates to target coordinates and has
    shape (target.dim, source.dim). Construction verifies injectivity
    and the homomorphism property, to ``HOMOMORPHISM_TOL``. Equality and
    hashing are by identity.
    The float matrix is the only copy: where its entries are exactly
    rational, the exact lane reads them off it
    (``spaces.exact_module_bases``).
    """

    source: LieAlgebra
    target: LieAlgebra
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        if m.shape != (self.target.dim, self.source.dim):
            raise ValidationError(
                f"embedding matrix shape {m.shape}, expected "
                f"({self.target.dim}, {self.source.dim})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if self.source.dim and svd_rank(m) != self.source.dim:
            raise ValidationError(f"{self.name or 'embedding'}: matrix is not injective")
        res = self.homomorphism_residual()
        if res > HOMOMORPHISM_TOL:
            raise ValidationError(
                f"{self.name or 'embedding'}: homomorphism residual {res:.2e}")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def homomorphism_residual(self) -> float:
        phi = self.matrix
        lhs = pair_bracket_tensor(self.target, phi, phi)
        return float(np.abs(lhs - bracket_images(self.source, phi.T)).max(initial=0))

    def compose(self, inner: "Embedding") -> "Embedding":
        """Composite self o inner; inner.target must match self.source.

        The matrix is the float product. The exact lane takes its
        entries as rationals only where they read back exactly, and then
        proves that the image closes (``spaces.exact_module_bases``).
        """
        if inner.target.dim != self.source.dim:
            raise ValidationError("embedding composition dimension mismatch")
        matrix = self.matrix @ inner.matrix
        name = f"{self.name} o {inner.name}" if self.name and inner.name else ""
        return Embedding(source=inner.source, target=self.target, matrix=matrix,
                         name=name)


@dataclass(frozen=True)
class EmbeddingChain:
    """Composable sequence of embeddings, first step innermost."""

    steps: tuple[Embedding, ...]

    @cached_property
    def composite(self) -> Embedding:
        emb = self.steps[0]
        for nxt in self.steps[1:]:
            emb = nxt.compose(emb)
        return emb

    @property
    def source(self) -> LieAlgebra:
        return self.steps[0].source

    @property
    def target(self) -> LieAlgebra:
        return self.steps[-1].target


def _embedding_from_matrices(source: LieAlgebra, family: str, n: int,
                             source_mats: list[np.ndarray], name: str,
                             atol: float = 0.0) -> Embedding:
    target = classical(family, n)
    batch = np.stack([np.asarray(m, dtype=np.complex128) for m in source_mats])
    matrix = _coordinates(batch, family, n, np.stack(matrix_basis(family, n)),
                          name, atol).T
    return Embedding(source=source, target=target, matrix=matrix, name=name)


def _pad(m: np.ndarray, size: int, offset: int) -> np.ndarray:
    k = m.shape[0]
    out = np.zeros((size, size), dtype=np.complex128)
    out[offset:offset + k, offset:offset + k] = m
    return out


def embed_so_in_so(k: int, n: int, offset: int = 0) -> Embedding:
    """so(k) acting on coordinates offset..offset+k-1 of R^n."""
    return _block_embedding("so", k, n, offset)


def embed_su_in_su(k: int, n: int, offset: int = 0) -> Embedding:
    """su(k) block at the given diagonal offset inside su(n)."""
    return _block_embedding("su", k, n, offset)


def _block_embedding(family: str, k: int, n: int, offset: int) -> Embedding:
    if offset + k > n:
        raise ValueError("block does not fit")
    return _embedding_from_matrices(
        classical(family, k), family, n,
        [_pad(m, n, offset) for m in matrix_basis(family, k)],
        f"{family}({k})<{family}({n})@{offset}")


def embed_su_in_u(n: int) -> Embedding:
    return _embedding_from_matrices(classical("su", n), "u", n,
                                    matrix_basis("su", n), f"su({n})<u({n})")


def embed_u_in_so_even(k: int) -> Embedding:
    """u(k) in so(2k) by realification P + iQ -> [[P, -Q], [Q, P]]."""
    mats = []
    for m in matrix_basis("u", k):
        p, q = np.real(m), np.imag(m)
        big = np.zeros((2 * k, 2 * k), dtype=np.complex128)
        big[:k, :k] = p
        big[:k, k:] = -q
        big[k:, :k] = q
        big[k:, k:] = p
        mats.append(big)
    return _embedding_from_matrices(classical("u", k), "so", 2 * k, mats,
                                    f"u({k})<so({2 * k})")


def embed_su_x_su(m: int, n: int) -> Embedding:
    """su(m) + su(n) as diagonal blocks of su(m + n); su(1) parts vanish."""
    parts = []
    if m >= 2:
        parts.append(embed_su_in_su(m, m + n, 0))
    if n >= 2:
        parts.append(embed_su_in_su(n, m + n, m))
    if not parts:
        raise ValueError("su(1) + su(1) is trivial")
    return embed_sum(parts, name=f"su({m})+su({n})<su({m + n})")


def embed_sp_in_su_even(n: int) -> Embedding:
    return _embedding_from_matrices(classical("sp", n), "su", 2 * n,
                                    matrix_basis("sp", n), f"sp({n})<su({2 * n})")


def embed_sp_u1_in_su_odd(n: int) -> Embedding:
    """sp(n) + u(1) inside su(2n + 1), u(1) = diag(i..i, -2ni)."""
    source = direct_sum([classical("sp", n), classical("torus", 1)])
    mats = [_pad(m, 2 * n + 1, 0) for m in matrix_basis("sp", n)]
    u1 = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.complex128)
    for t in range(2 * n):
        u1[t, t] = 1j
    u1[2 * n, 2 * n] = -2j * n
    mats.append(u1)
    return _embedding_from_matrices(source, "su", 2 * n + 1, mats,
                                    f"sp({n})+u(1)<su({2 * n + 1})")


def embed_sp_u1_in_sp(n: int) -> Embedding:
    """sp(n) + u(1) inside sp(n + 1), u(1) on the first quaternionic line."""
    source = direct_sum([classical("sp", n), classical("torus", 1)])
    mats = []
    for m in matrix_basis("sp", n):
        a, b = m[:n, :n], m[:n, n:]
        mats.append(_sp_from_blocks(_pad(a, n + 1, 1), _pad(b, n + 1, 1)))
    u1a = np.zeros((n + 1, n + 1), dtype=np.complex128)
    u1a[0, 0] = 1j
    mats.append(_sp_from_blocks(u1a, np.zeros((n + 1, n + 1), dtype=np.complex128)))
    return _embedding_from_matrices(source, "sp", n + 1, mats,
                                    f"sp({n})+u(1)<sp({n + 1})")


def embed_so_x_so_tensor(p: int, q: int) -> Embedding:
    """so(p) + so(q) acting on R^p tensor R^q inside so(pq)."""
    source = direct_sum([classical("so", p), classical("so", q)])
    mats = [np.kron(m, np.eye(q)) for m in matrix_basis("so", p)]
    mats += [np.kron(np.eye(p), m) for m in matrix_basis("so", q)]
    return _embedding_from_matrices(source, "so", p * q, mats,
                                    f"so({p})+so({q})<so({p * q})")


def embed_diagonal(family: str, n: int, copies: int) -> Embedding:
    """Diagonal copy of an algebra inside its own direct power.

    At least two copies, and the power may not be larger than the largest
    algebra inside ``RANK_CAPS`` (so(16), dimension 120).
    """
    _check_family(family, n)
    largest = max(_DIMENSION[f](cap) for f, cap in RANK_CAPS.items())
    if copies < 2 or copies * _DIMENSION[family](n) > largest:
        raise ValueError(f"{copies} copies of {family}({n}): need at least 2 "
                         f"copies and a total dimension of at most {largest}")
    alg = classical(family, n)
    target = direct_sum([alg] * copies)
    matrix = np.tile(np.eye(alg.dim), (copies, 1))
    return Embedding(source=alg, target=target, matrix=matrix,
                     name=f"diag({alg.name}^{copies})")


def embed_sum(parts: list[Embedding], target: LieAlgebra | None = None,
              name: str = "") -> Embedding:
    """Sources combine into a direct sum mapping into a common target."""
    if target is None:
        target = parts[0].target
    for p in parts:
        if p.target.dim != target.dim:
            raise ValidationError("embedding sum targets differ")
    source = direct_sum([p.source for p in parts])
    matrix = np.hstack([p.matrix for p in parts])
    return Embedding(source=source, target=target, matrix=matrix, name=name)


def embed_stack(parts: list[Embedding], target: LieAlgebra,
                name: str = "") -> Embedding:
    """One source mapping diagonally into consecutive summands of target."""
    source = parts[0].source
    for p in parts:
        if p.source.dim != source.dim:
            raise ValidationError("embedding stack sources differ")
    matrix = np.vstack([p.matrix for p in parts])
    return Embedding(source=source, target=target, matrix=matrix, name=name)


def embed_into_summand(emb: Embedding, target: LieAlgebra,
                       offset: int, name: str = "") -> Embedding:
    """Pad an embedding's rows so it lands in a block of a larger algebra."""
    rows, cols = emb.matrix.shape
    if offset + rows > target.dim:
        raise ValidationError("padded embedding does not fit in target")
    matrix = np.zeros((target.dim, cols))
    matrix[offset:offset + rows] = emb.matrix
    return Embedding(source=emb.source, target=target, matrix=matrix,
                     name=name or emb.name)


def embed_g2_in_so7() -> Embedding:
    alg, kernel = _g2_data()
    return Embedding(source=alg, target=classical("so", 7),
                     matrix=exact.to_float(kernel), name="g2<so(7)")


@lru_cache(maxsize=1)
def embed_spin7_in_so8() -> Embedding:
    """Spin representation of so(7) on the octonions, inside so(8).

    The generator image for the pair (a, b) is a half multiple of the
    product of the two unit multiplications; the sign and the side
    (left or right) are fixed by the exact homomorphism test, run on the
    integer P = 2 phi: [P e_i, P e_j] = 2 P [e_i, e_j] for all basis
    pairs. P and both algebras' constants lie in {0, 1, -1}, so each side
    is a sum of at most 28^2 such products, exact in int64.
    """
    so7 = classical("so", 7)
    so8 = classical("so", 8)
    a7, b7 = np.array(so_pairs(7)).T
    p8, q8 = np.array(so_pairs(8)).T
    # P @ ad7 holds P [e_i, e_j] at [i, :, j], ad8 @ P [P e_i, P e_j]
    ad7 = so7.structure_exact.ad_numerators(np.eye(21, dtype=np.int64))
    left, right = unit_mult_matrices()
    for mats, sign in ((left, -1), (left, 1), (right, -1), (right, 1)):
        prods = mats[a7] @ mats[b7]
        if not np.array_equal(prods, -prods.transpose(0, 2, 1)):
            continue
        p = sign * prods[:, p8, q8].T
        ad8 = so8.structure_exact.ad_numerators(p)
        if np.array_equal(ad8 @ p, 2 * (p @ ad7)):
            return Embedding(source=so7, target=so8, matrix=p / 2,
                             name="spin7<so(8)")
    raise ValidationError("no sign convention makes the spin map a homomorphism")


def su2_irrep_matrices(two_j: int) -> np.ndarray:
    """Images of the su(2) basis (H, A, S) in the spin-j representation."""
    if two_j < 1:
        raise ValueError("two_j must be at least 1")
    n = two_j + 1
    j = two_j / 2.0
    m = j - np.arange(n)
    jz = np.diag(m).astype(np.complex128)
    jp = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(n - 1)
    jp[rows, rows + 1] = np.sqrt((j - m[1:]) * (j + m[1:] + 1))
    jm = jp.T.copy()
    jy = (jp - jm) / 2j
    jx = (jp + jm) / 2
    rho = np.stack([2j * jz, 2j * jy, 2j * jx])
    su2 = classical("su", 2)
    lhs = rho[:, None] @ rho - rho @ rho[:, None]
    worst = float(np.abs(lhs - bracket_images(su2, rho)).max())
    if worst > 1e-10:
        raise ValidationError(f"spin-{two_j}/2 matrices fail the bracket test ({worst:.2e})")
    return rho


def embed_irreducible_su2_in_su(two_j: int) -> Embedding:
    """Irreducible su(2) inside su(2j + 1); entries are irrational."""
    rho = su2_irrep_matrices(two_j)
    return _embedding_from_matrices(classical("su", 2), "su", two_j + 1,
                                    list(rho), f"su(2)<su({two_j + 1}) spin",
                                    atol=1e-11)


def embed_principal_su2_in_sp3() -> Embedding:
    """Principal su(2) in sp(3) through the six dimensional irreducible."""
    rho = su2_irrep_matrices(5)
    u = np.zeros((6, 6))
    cols = [(0, 1.0), (1, 1.0), (2, 1.0), (5, -1.0), (4, 1.0), (3, -1.0)]
    for c, (r, v) in enumerate(cols):
        u[r, c] = v
    jmat = np.zeros((6, 6))
    jmat[:3, 3:] = np.eye(3)
    jmat[3:, :3] = -np.eye(3)
    mats = []
    for k in range(3):
        m = u.T @ rho[k] @ u
        if np.abs(m + np.conj(m.T)).max() > 1e-12:
            raise ValidationError("conjugated matrix is not anti-Hermitian")
        if np.abs(m @ jmat - jmat @ np.conj(m)).max() > 1e-12:
            raise ValidationError("conjugated matrix is not symplectic")
        mats.append(m)
    return _embedding_from_matrices(classical("su", 2), "sp", 3, mats,
                                    "su(2)<sp(3) principal", atol=1e-11)


def embed_so2_plus_g2_in_so9() -> Embedding:
    so2 = embed_so_in_so(2, 9, 0)
    g2part = embed_so_in_so(7, 9, 2).compose(embed_g2_in_so7())
    return embed_sum([so2, g2part], name="so(2)+g2<so(9)")


_CHAIN_BUILDERS = {
    "u_in_so_odd": (lambda k: EmbeddingChain(
        (embed_u_in_so_even(k), embed_so_in_so(2 * k, 2 * k + 1)))),
    "su_in_so_even": (lambda k: EmbeddingChain(
        (embed_su_in_u(k), embed_u_in_so_even(k)))),
    "g2_in_so7_in_so8": (lambda: EmbeddingChain(
        (embed_g2_in_so7(), embed_so_in_so(7, 8, 1)))),
    "spin7_in_so8_in_so9": (lambda: EmbeddingChain(
        (embed_spin7_in_so8(), embed_so_in_so(8, 9, 0)))),
}

_EMBEDDING_BUILDERS = {
    "so_in_so": embed_so_in_so,
    "su_in_su": embed_su_in_su,
    "su_in_u": embed_su_in_u,
    "u_in_so_even": embed_u_in_so_even,
    "su_x_su_in_su": embed_su_x_su,
    "sp_in_su_even": embed_sp_in_su_even,
    "sp_u1_in_su_odd": embed_sp_u1_in_su_odd,
    "sp_u1_in_sp": embed_sp_u1_in_sp,
    "so_x_so_tensor": embed_so_x_so_tensor,
    "diagonal": embed_diagonal,
    "g2_in_so7": embed_g2_in_so7,
    "spin7_in_so8": embed_spin7_in_so8,
    "irreducible_su2_in_su": embed_irreducible_su2_in_su,
    "principal_su2_in_sp3": embed_principal_su2_in_sp3,
    "so2_plus_g2_in_so9": embed_so2_plus_g2_in_so9,
}


_BUILDERS = {**_EMBEDDING_BUILDERS, **_CHAIN_BUILDERS}
_SIGNATURES = {key: inspect.signature(b) for key, b in _BUILDERS.items()}


def _signature_text(key: str) -> str:
    """Builder parameters as shown by ``zoo list``: name or name=default."""
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default}"
        for p in _SIGNATURES[key].parameters.values())


EMBEDDING_KEYS = {
    **{key: _signature_text(key) for key in _EMBEDDING_BUILDERS},
    **{key: f"{_signature_text(key)} (chain)".lstrip()
       for key in _CHAIN_BUILDERS},
}


def named_embedding(key: str, **params) -> Embedding | EmbeddingChain:
    """Look up a standard embedding or chain by registry key.

    Built once per process for each key and parameter set (the last 64
    kept), so repeated lookups return the same object: a chain's
    composite is composed once, and spaces built from it share one
    reductive split (``spaces.reductive_space``). Embeddings are frozen
    and their arrays read-only. An unknown key raises KeyError. A
    parameter the builder does not take or lacks, a parameter it
    annotates ``str`` that is not a string, and any other that is not an
    integer (or is a bool) raise TypeError naming the key.
    """
    if key not in _SIGNATURES:
        raise KeyError(f"unknown embedding {key!r}; known keys: "
                       f"{', '.join(sorted(EMBEDDING_KEYS))}")
    known = _SIGNATURES[key].parameters
    wrong = [f"got an unexpected keyword argument {name!r}"
             for name in params if name not in known]
    wrong += [f"missing a required argument: {name!r}"
              for name, p in known.items()
              if p.default is p.empty and name not in params]
    if wrong:
        raise TypeError(f"{key}: {wrong[0]}; takes "
                        f"{_signature_text(key) or 'no parameters'}")
    for name, value in params.items():
        if known[name].annotation in ("str", str):
            if not isinstance(value, str):
                raise TypeError(f"{key}: parameter {name} must be a string, "
                                f"got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{key}: parameter {name} must be an integer, "
                            f"got {value!r}")
    return _named_embedding(key, **dict(sorted(params.items())))


@lru_cache(maxsize=64, typed=True)
def _named_embedding(key: str, **params) -> Embedding | EmbeddingChain:
    return _BUILDERS[key](**params)


def as_embedding(obj: Embedding | EmbeddingChain) -> Embedding:
    return obj.composite if isinstance(obj, EmbeddingChain) else obj
