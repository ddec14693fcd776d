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

Classical structure constants are integers and are computed exactly;
constructors raise if exact reconstruction ever fails. The exceptional
algebra g2 is realized as the derivation algebra of the octonions and
carries exact rational structure constants.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import exact
from .core import (LieAlgebra, ValidationError, default_inner_product,
                   direct_sum, make_algebra, trivial_algebra, validate_algebra)
from .linalg import svd_rank

RANK_MIN = {"so": 2, "su": 2, "u": 1, "sp": 1, "torus": 1}
RANK_CAPS = {"so": 16, "su": 8, "u": 8, "sp": 7, "torus": 16}


def _check_family(family: str, n: int) -> None:
    if family not in RANK_CAPS:
        raise ValueError(f"unknown family {family!r}; known: so, su, u, sp, torus")
    lo, hi = RANK_MIN[family], RANK_CAPS[family]
    if not lo <= n <= hi:
        raise ValueError(f"{family}({n}) outside supported range [{lo}, {hi}]")


def so_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: t for t, p in enumerate(so_pairs(n))}


def _so_matrices(n: int) -> list[np.ndarray]:
    mats = []
    for a, b in so_pairs(n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[a, b] = 1.0
        m[b, a] = -1.0
        mats.append(m)
    return mats


def _su_matrices(n: int) -> list[np.ndarray]:
    mats = []
    for k in range(n - 1):
        m = np.zeros((n, n), dtype=np.complex128)
        m[k, k] = 1j
        m[k + 1, k + 1] = -1j
        mats.append(m)
    mats.extend(_offdiag_matrices(n))
    return mats


def _u_matrices(n: int) -> list[np.ndarray]:
    mats = []
    for k in range(n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[k, k] = 1j
        mats.append(m)
    mats.extend(_offdiag_matrices(n))
    return mats


def _offdiag_matrices(n: int) -> list[np.ndarray]:
    mats = []
    for a, b in so_pairs(n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[a, b] = 1.0
        m[b, a] = -1.0
        mats.append(m)
        m = np.zeros((n, n), dtype=np.complex128)
        m[a, b] = 1j
        m[b, a] = 1j
        mats.append(m)
    return mats


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
    sym: list[np.ndarray] = []
    for k in range(n):
        b = np.zeros((n, n), dtype=np.complex128)
        b[k, k] = 1.0
        sym.append(b)
    for a, b_ in so_pairs(n):
        b = np.zeros((n, n), dtype=np.complex128)
        b[a, b_] = 1.0
        b[b_, a] = 1.0
        sym.append(b)
    mats.extend(_sp_from_blocks(zero, b) for b in sym)
    mats.extend(_sp_from_blocks(zero, 1j * b) for b in sym)
    return mats


def matrix_basis(family: str, n: int) -> list[np.ndarray]:
    """Defining-representation basis matrices, complex128 and exact."""
    _check_family(family, n)
    if family == "so":
        return _so_matrices(n)
    if family == "su":
        return _su_matrices(n)
    if family == "u":
        return _u_matrices(n)
    if family == "sp":
        return _sp_matrices(n)
    raise ValueError(f"{family} has no matrix basis")


def _extract_so(batch: np.ndarray, n: int) -> np.ndarray:
    pairs = so_pairs(n)
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    return np.real(batch[:, a, b])


def _offdiag_coords(batch: np.ndarray, n: int) -> np.ndarray:
    pairs = so_pairs(n)
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    entries = batch[:, a, b]
    out = np.empty((batch.shape[0], 2 * len(pairs)))
    out[:, 0::2] = np.real(entries)
    out[:, 1::2] = np.imag(entries)
    return out


def _extract_su(batch: np.ndarray, n: int) -> np.ndarray:
    im_diag = np.imag(np.diagonal(batch, axis1=1, axis2=2))
    h = np.cumsum(im_diag[:, : n - 1], axis=1)
    return np.hstack([h, _offdiag_coords(batch, n)])


def _extract_u(batch: np.ndarray, n: int) -> np.ndarray:
    d = np.imag(np.diagonal(batch, axis1=1, axis2=2))
    return np.hstack([d, _offdiag_coords(batch, n)])


def _extract_sp(batch: np.ndarray, n: int) -> np.ndarray:
    a_block = batch[:, :n, :n]
    b_block = batch[:, :n, n:]
    pairs = so_pairs(n)
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    diag = np.diagonal(b_block, axis1=1, axis2=2)
    off = b_block[:, a, b]
    return np.hstack([
        _extract_u(a_block, n),
        np.real(diag), np.real(off),
        np.imag(diag), np.imag(off),
    ])


_EXTRACTORS = {"so": _extract_so, "su": _extract_su, "u": _extract_u,
               "sp": _extract_sp}


def _structure_from_matrices(mats: list[np.ndarray], family: str, n: int,
                             atol: float = 0.0) -> np.ndarray:
    d = len(mats)
    stack = np.stack(mats)
    structure = np.zeros((d, d, d))
    for i in range(d):
        comm = stack[i] @ stack - stack @ stack[i]
        coords = _EXTRACTORS[family](comm, n)
        recon = np.einsum("jc,ckl->jkl", coords, stack)
        if atol == 0.0:
            if not np.array_equal(recon, comm):
                raise ValidationError(f"{family}({n}): inexact coordinate extraction")
        elif np.abs(recon - comm).max() > atol:
            raise ValidationError(f"{family}({n}): coordinate extraction residual "
                                  f"{np.abs(recon - comm).max():.2e}")
        structure[i] = coords
    return structure


def _sparse_from_integer(structure: np.ndarray):
    sparse = {}
    for i, j, k in np.argwhere(structure != 0.0):
        sparse.setdefault((int(i), int(j)), {})[int(k)] = Fraction(int(structure[i, j, k]))
    return sparse


@lru_cache(maxsize=None)
def classical(family: str, n: int) -> LieAlgebra:
    """Compact classical algebra with integer structure constants.

    The inner product is minus the Killing form on the derived algebra
    and the coordinate dot product on the center.
    """
    _check_family(family, n)
    name = f"{family}({n})"
    if family == "torus":
        return LieAlgebra(structure=np.zeros((n, n, n)), inner_product=np.eye(n),
                          name=name, structure_exact={},
                          inner_product_exact=exact.fidentity(n))
    mats = matrix_basis(family, n)
    structure = _structure_from_matrices(mats, family, n)
    if not np.array_equal(structure, np.rint(structure)):
        raise ValidationError(f"{name}: non-integer structure constants")
    sparse = _sparse_from_integer(structure)
    gram, gram_exact = default_inner_product(structure, sparse)
    alg = LieAlgebra(structure=structure, inner_product=gram, name=name,
                     structure_exact=sparse, inner_product_exact=gram_exact)
    report = validate_algebra(structure)
    if not report.passed:
        raise ValidationError(f"{name}: structure validation failed")
    return alg


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
    x = np.asarray(x)
    y = np.asarray(y)
    out = np.zeros(4, dtype=np.result_type(x, y))
    for a in range(4):
        if x[a] == 0:
            continue
        for b in range(4):
            if y[b] == 0:
                continue
            out[_QUAT_IDX[a, b]] += _QUAT_SGN[a, b] * x[a] * y[b]
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
    for a in range(8):
        for b in range(8):
            x = np.zeros(8, dtype=np.int64)
            y = np.zeros(8, dtype=np.int64)
            x[a] = 1
            y[b] = 1
            z = octonion_multiply(x, y)
            nz = np.nonzero(z)[0]
            if len(nz) != 1 or abs(z[nz[0]]) != 1:
                raise ValidationError("octonion basis product is not a signed unit")
            idx[a, b] = nz[0]
            sgn[a, b] = z[nz[0]]
    return sgn, idx


def _octonion_f() -> np.ndarray:
    """Antisymmetric multiplication coefficients on imaginary units."""
    sgn, idx = octonion_table()
    f = np.zeros((7, 7, 7), dtype=np.int64)
    for a in range(7):
        for b in range(7):
            if a == b:
                continue
            c = idx[a + 1, b + 1] - 1
            if c < 0:
                raise ValidationError("imaginary product fell on the unit")
            f[a, b, c] = sgn[a + 1, b + 1]
    return f


def left_mult_matrices() -> list[np.ndarray]:
    """8x8 integer matrices of left multiplication by e_1..e_7."""
    sgn, idx = octonion_table()
    mats = []
    for t in range(1, 8):
        m = np.zeros((8, 8), dtype=np.int64)
        for q in range(8):
            m[idx[t, q], q] = sgn[t, q]
        mats.append(m)
    return mats


def right_mult_matrices() -> list[np.ndarray]:
    """8x8 integer matrices of right multiplication by e_1..e_7."""
    sgn, idx = octonion_table()
    mats = []
    for t in range(1, 8):
        m = np.zeros((8, 8), dtype=np.int64)
        for q in range(8):
            m[idx[q, t], q] = sgn[q, t]
        mats.append(m)
    return mats


@lru_cache(maxsize=1)
def _g2_data() -> tuple[LieAlgebra, np.ndarray]:
    """g2 with exact structure constants plus its so(7) coordinate basis.

    A derivation D of the octonions preserves the imaginary part and is
    antisymmetric, so it is a vector in so(7); the derivation property
    on basis products gives an integer linear system whose kernel is g2.
    """
    f = _octonion_f()
    col = _pair_index(7)
    rows = []
    for a in range(7):
        for b in range(7):
            if a == b:
                continue
            for q in range(7):
                row = [Fraction(0)] * 21
                def add(x, y, coeff):
                    if x == y or coeff == 0:
                        return
                    if x < y:
                        row[col[(x, y)]] += coeff
                    else:
                        row[col[(y, x)]] -= coeff
                for c in range(7):
                    add(q, c, int(f[a, b, c]))
                    add(c, a, -int(f[c, b, q]))
                    add(c, b, -int(f[a, c, q]))
                rows.append(row)
    mat = np.array(rows, dtype=object)
    _, pivots = exact.rref(mat)
    free = [c for c in range(21) if c not in pivots]
    kernel = exact.null_space(mat)
    if kernel.shape != (21, 14):
        raise ValidationError(f"derivation kernel has shape {kernel.shape}, expected (21, 14)")
    for t, c in enumerate(free):
        for s in range(14):
            expected = Fraction(1) if s == t else Fraction(0)
            if kernel[c, s] != expected:
                raise ValidationError("derivation kernel is not in free-column form")
    so7 = classical("so", 7)
    sparse = {}
    for s in range(14):
        for t in range(s + 1, 14):
            w = so7.bracket_exact(kernel[:, s], kernel[:, t])
            coords = w[free]
            recon = exact.matmul(kernel, coords)
            if not all(recon[r] == w[r] for r in range(21)):
                raise ValidationError("derivation bracket left the kernel")
            fwd = {k: v for k, v in enumerate(coords) if v != 0}
            if fwd:
                sparse[(s, t)] = fwd
                sparse[(t, s)] = {k: -v for k, v in fwd.items()}
    alg = make_algebra(sparse, 14, "g2")
    return alg, kernel


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

def _exactify_matrix(m: np.ndarray) -> np.ndarray:
    out = np.empty(m.shape, dtype=object)
    for idx in np.ndindex(*m.shape):
        out[idx] = exact.frac(float(m[idx]))
    return out


@dataclass(frozen=True)
class Embedding:
    """Injective Lie algebra homomorphism in coordinates.

    ``matrix`` maps source coordinates to target coordinates and has
    shape (target.dim, source.dim). Construction verifies injectivity
    and the homomorphism property.
    """

    source: LieAlgebra
    target: LieAlgebra
    matrix: np.ndarray
    name: str = ""
    matrix_exact: np.ndarray | None = field(default=None, repr=False)
    atol: float = field(default=1e-8, repr=False)

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
        if res > self.atol:
            raise ValidationError(
                f"{self.name or 'embedding'}: homomorphism residual {res:.2e}")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def homomorphism_residual(self) -> float:
        if self.source.dim == 0:
            return 0.0
        phi = self.matrix
        half = np.einsum("ijk,ia->ajk", self.target.structure, phi)
        lhs = np.einsum("ajk,jb->abk", half, phi)
        rhs = np.einsum("abc,kc->abk", self.source.structure, phi)
        return float(np.abs(lhs - rhs).max())

    def compose(self, inner: "Embedding") -> "Embedding":
        """Composite self o inner; inner.target must match self.source."""
        if inner.target.dim != self.source.dim:
            raise ValidationError("embedding composition dimension mismatch")
        matrix = self.matrix @ inner.matrix
        mex = None
        if self.matrix_exact is not None and inner.matrix_exact is not None:
            mex = exact.matmul(self.matrix_exact, inner.matrix_exact)
        name = f"{self.name} o {inner.name}" if self.name and inner.name else ""
        return Embedding(source=inner.source, target=self.target, matrix=matrix,
                         name=name, matrix_exact=mex, atol=max(self.atol, inner.atol))

    def killing_index(self) -> tuple[float, float]:
        """Frobenius ratio of the pulled-back Killing form, with residual.

        For a simple source the pullback is a constant multiple of the
        source Killing form; the residual measures deviation from that.
        """
        induced = self.matrix.T @ self.target.killing_form @ self.matrix
        bsrc = self.source.killing_form
        denom = float((bsrc * bsrc).sum())
        if denom == 0.0:
            return 0.0, float(np.abs(induced).max()) if induced.size else 0.0
        ratio = float((induced * bsrc).sum()) / denom
        residual = float(np.abs(induced - ratio * bsrc).max())
        return ratio, residual


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
                             exact_entries: bool = True,
                             atol: float = 0.0) -> Embedding:
    target = classical(family, n)
    stack = np.stack(matrix_basis(family, n))
    batch = np.stack([np.asarray(m, dtype=np.complex128) for m in source_mats])
    coords = _EXTRACTORS[family](batch, n)
    recon = np.einsum("sc,ckl->skl", coords, stack)
    err = np.abs(recon - batch).max() if batch.size else 0.0
    limit = 0.0 if atol == 0.0 else atol
    if err > limit:
        raise ValidationError(f"{name}: matrices do not lie in {family}({n}) "
                              f"(residual {err:.2e})")
    matrix = coords.T
    mex = _exactify_matrix(matrix) if exact_entries else None
    emb_atol = 1e-8 if atol == 0.0 else max(1e-8, 10 * atol)
    return Embedding(source=source, target=target, matrix=matrix, name=name,
                     matrix_exact=mex, atol=emb_atol)


def _pad(m: np.ndarray, size: int, offset: int) -> np.ndarray:
    k = m.shape[0]
    out = np.zeros((size, size), dtype=np.complex128)
    out[offset:offset + k, offset:offset + k] = m
    return out


def embed_so_in_so(k: int, n: int, offset: int = 0) -> Embedding:
    """so(k) acting on coordinates offset..offset+k-1 of R^n."""
    if offset + k > n:
        raise ValueError("block does not fit")
    src = classical("so", k)
    tgt = classical("so", n)
    col = _pair_index(n)
    matrix = np.zeros((tgt.dim, src.dim))
    for t, (a, b) in enumerate(so_pairs(k)):
        matrix[col[(a + offset, b + offset)], t] = 1.0
    return Embedding(source=src, target=tgt, matrix=matrix,
                     name=f"so({k})<so({n})@{offset}",
                     matrix_exact=_exactify_matrix(matrix))


def embed_su_in_su(k: int, n: int, offset: int = 0) -> Embedding:
    """su(k) block at the given diagonal offset inside su(n)."""
    if offset + k > n:
        raise ValueError("block does not fit")
    src = classical("su", k)
    tgt = classical("su", n)
    matrix = np.zeros((tgt.dim, src.dim))
    col = _pair_index(n)
    for t in range(k - 1):
        matrix[t + offset, t] = 1.0
    base = k - 1
    for p, (a, b) in enumerate(so_pairs(k)):
        tgt_pair = col[(a + offset, b + offset)]
        matrix[(n - 1) + 2 * tgt_pair, base + 2 * p] = 1.0
        matrix[(n - 1) + 2 * tgt_pair + 1, base + 2 * p + 1] = 1.0
    return Embedding(source=src, target=tgt, matrix=matrix,
                     name=f"su({k})<su({n})@{offset}",
                     matrix_exact=_exactify_matrix(matrix))


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
    """Diagonal copy of an algebra inside its own direct power."""
    alg = classical(family, n)
    target = direct_sum([alg] * copies)
    matrix = np.tile(np.eye(alg.dim), (copies, 1))
    return Embedding(source=alg, target=target, matrix=matrix,
                     name=f"diag({alg.name}^{copies})",
                     matrix_exact=_exactify_matrix(matrix))


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
    mex = None
    if all(p.matrix_exact is not None for p in parts):
        mex = np.hstack([p.matrix_exact for p in parts])
    return Embedding(source=source, target=target, matrix=matrix, name=name,
                     matrix_exact=mex, atol=max(p.atol for p in parts))


def embed_stack(parts: list[Embedding], target: LieAlgebra,
                name: str = "") -> Embedding:
    """One source mapping diagonally into consecutive summands of target."""
    source = parts[0].source
    for p in parts:
        if p.source.dim != source.dim:
            raise ValidationError("embedding stack sources differ")
    matrix = np.vstack([p.matrix for p in parts])
    mex = None
    if all(p.matrix_exact is not None for p in parts):
        mex = np.vstack([p.matrix_exact for p in parts])
    return Embedding(source=source, target=target, matrix=matrix, name=name,
                     matrix_exact=mex, atol=max(p.atol for p in parts))


def embed_into_summand(emb: Embedding, target: LieAlgebra,
                       offset: int, name: str = "") -> Embedding:
    """Pad an embedding's rows so it lands in a block of a larger algebra."""
    rows, cols = emb.matrix.shape
    if offset + rows > target.dim:
        raise ValidationError("padded embedding does not fit in target")
    matrix = np.zeros((target.dim, cols))
    matrix[offset:offset + rows] = emb.matrix
    mex = None
    if emb.matrix_exact is not None:
        mex = exact.fzeros((target.dim, cols))
        mex[offset:offset + rows] = emb.matrix_exact
    return Embedding(source=emb.source, target=target, matrix=matrix,
                     name=name or emb.name, matrix_exact=mex, atol=emb.atol)


def embed_g2_in_so7() -> Embedding:
    alg, kernel = _g2_data()
    return Embedding(source=alg, target=classical("so", 7),
                     matrix=exact.to_float(kernel), name="g2<so(7)",
                     matrix_exact=kernel)


@lru_cache(maxsize=1)
def embed_spin7_in_so8() -> Embedding:
    """Spin representation of so(7) on the octonions, inside so(8).

    The generator image for the pair (a, b) is a half multiple of the
    product of the two unit multiplications; the sign and the side
    (left or right) are fixed by the exact homomorphism test.
    """
    so7 = classical("so", 7)
    so8 = classical("so", 8)
    pairs7 = so_pairs(7)
    col8 = _pair_index(8)
    for mats, sign in ((left_mult_matrices(), -1), (left_mult_matrices(), 1),
                       (right_mult_matrices(), -1), (right_mult_matrices(), 1)):
        phi = exact.fzeros((28, 21))
        good = True
        for t, (a, b) in enumerate(pairs7):
            prod = mats[a] @ mats[b]
            if not np.array_equal(prod, -prod.T):
                good = False
                break
            half = Fraction(sign, 2)
            for p, q in so_pairs(8):
                phi[col8[(p, q)], t] = half * int(prod[p, q])
        if not good:
            continue
        ok = True
        for i in range(21):
            for j in range(i + 1, 21):
                lhs = so8.bracket_exact(phi[:, i], phi[:, j])
                rhs = exact.fzeros(28)
                for k, c in so7.structure_exact.get((i, j), {}).items():
                    rhs = rhs + c * phi[:, k]
                if not all(lhs[r] == rhs[r] for r in range(28)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Embedding(source=so7, target=so8, matrix=exact.to_float(phi),
                             name="spin7<so(8)", matrix_exact=phi)
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
    worst = 0.0
    for i in range(3):
        for jdx in range(3):
            lhs = rho[i] @ rho[jdx] - rho[jdx] @ rho[i]
            rhs = np.einsum("k,kpq->pq", su2.structure[i, jdx], rho)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    if worst > 1e-10:
        raise ValidationError(f"spin-{two_j}/2 matrices fail the bracket test ({worst:.2e})")
    return rho


def embed_irreducible_su2_in_su(two_j: int) -> Embedding:
    """Irreducible su(2) inside su(2j + 1); entries are irrational."""
    rho = su2_irrep_matrices(two_j)
    return _embedding_from_matrices(classical("su", 2), "su", two_j + 1,
                                    list(rho), f"su(2)<su({two_j + 1}) spin",
                                    exact_entries=False, atol=1e-11)


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
                                    "su(2)<sp(3) principal",
                                    exact_entries=False, atol=1e-11)


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


def _signature_text(builder) -> str:
    """Builder parameters as shown by ``zoo list``: name or name=default."""
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default}"
        for p in inspect.signature(builder).parameters.values())


EMBEDDING_KEYS = {
    **{key: _signature_text(b) for key, b in _EMBEDDING_BUILDERS.items()},
    **{key: f"{_signature_text(b)} (chain)".lstrip()
       for key, b in _CHAIN_BUILDERS.items()},
}


def named_embedding(key: str, **params) -> Embedding | EmbeddingChain:
    """Look up a standard embedding or chain by registry key."""
    if key in _CHAIN_BUILDERS:
        return _CHAIN_BUILDERS[key](**params)
    if key in _EMBEDDING_BUILDERS:
        return _EMBEDDING_BUILDERS[key](**params)
    raise KeyError(f"unknown embedding {key!r}; known keys: "
                   f"{', '.join(sorted(EMBEDDING_KEYS))}")


def as_embedding(obj: Embedding | EmbeddingChain) -> Embedding:
    return obj.composite if isinstance(obj, EmbeddingChain) else obj
