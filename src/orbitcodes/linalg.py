"""Exact linear algebra over prime fields, on numpy integer matrices.

Matrices come in as integer arrays and go out as 2-d int64 arrays.
rref_mod_p is the one Gaussian elimination.  At p = 2 it runs on rows
packed as the bits of uint64 words (pack_bits), with no int64 copy of
its input, and a row update is one XOR of words (M4RI:
Albrecht, Bard & Hart, ACM TOMS 2010, without its tables).  At p > 2 it
reduces a C-ordered copy mod p lazily (Dumas, Giorgi & Pernet,
FFLAS-FFPACK, ACM TOMS 2008): a column is reduced when it is read as the
pivot column, the pivot row once, and the row updates run without a
reduction; an int64 growth bound keeps them exact.  The primes involved
are tiny, so scalar inverses come from Fermat's little theorem.

matmul_mod_p is the one F_p matrix product, of plain matrices or of
stacks of them broadcast as np.matmul does.  A small product runs as one
int64 np.matmul; numpy has no BLAS path for int64, so a larger one
multiplies in float64, which is exact while every sum stays below 2^53.

pack_bits and unpack_bits are the one packing of F_2 vectors into words,
which the elimination, the base-u expansion (fppoly), the encoding's
field elements (gf.power_sums) and the distance enumeration (codecore)
share; word_width is their one rule for the smallest word that holds a
vector.  xor_rows is the one F_2 product on packed rows, for a sparse
left operand: the XOR of the rows that each row of coefficients
selects, gathered in bounded chunks and summed by
np.bitwise_xor.reduceat.  The base-u expansion and the encoding's power
sums use it at p = 2; matmul_mod_p stays the product for dense
operands, such as the sampled distance's.
"""

from __future__ import annotations

import math

import numpy as np

from orbitcodes.errors import ParameterError

FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
INT64_LIMIT = 1 << 63
MATMUL_CHUNK_ENTRIES = 1 << 17  # bound on the float64 copies of one inner chunk, unless the product is larger
STACK_BLOCK_ENTRIES = 1 << 15  # bound on the product of one block of a stack, and so on its float64 sum and quotient
INT64_PRODUCT_WORK = 1 << 14  # products with at most this many multiply-adds (inner * entries) run in int64
XOR_GATHER_WORDS = 1 << 17  # bound on the words of one gather of xor_rows (1 MiB)


def matmul_mod_p(a, b, p: int) -> np.ndarray:
    """a @ b mod p as int64, for integer arrays with entries in (-p, p).

    As in np.matmul, a and b are (..., rows, inner) and (..., inner, cols)
    stacks of matrices whose leading dimensions broadcast, and every pair
    of matrices is multiplied; two plain matrices are a stack of one.
    A product of at most INT64_PRODUCT_WORK multiply-adds is one int64
    np.matmul, cheaper there than float64 copies and floor.  In a larger
    one, a stack with more than STACK_BLOCK_ENTRIES product entries is
    taken in blocks of its leading axis that stay within that bound.  In
    a block, or a plain product, the inner dimension is taken in chunks
    whose float64 copies of both operands hold no more entries than
    MATMUL_CHUNK_ENTRIES or the product, whichever is larger, one BLAS
    GEMM per chunk and matrix, and the float sum is reduced once as
    x - p*floor(x/p).  Every partial sum is below inner*(p-1)^2 in
    absolute value; a shape that lets it reach 2^53 is refused, in
    either arithmetic, and so are stacks that do not broadcast.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ParameterError(f"cannot multiply shapes {a.shape} and {b.shape}")
    try:
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) if a.ndim > 2 or b.ndim > 2 else ()
    except ValueError:
        raise ParameterError(f"cannot multiply shapes {a.shape} and {b.shape}: the stacks do not broadcast") from None
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= FLOAT_EXACT:
        raise ParameterError(f"an inner dimension of {inner} mod {p} can reach 2^53, where float64 products stop being exact")
    size = math.prod(stack) * a.shape[-2] * b.shape[-1]
    if inner * size <= INT64_PRODUCT_WORK:
        return np.matmul(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)) % p
    if stack and stack[0] > 1 and size > STACK_BLOCK_ENTRIES:
        out = np.empty(stack + (a.shape[-2], b.shape[-1]), dtype=np.int64)
        block = max(1, stack[0] * STACK_BLOCK_ENTRIES // size)
        for lo in range(0, stack[0], block):  # an operand of size 1 or without that axis broadcasts whole
            a_part, b_part = (x[lo : lo + block] if x.ndim == out.ndim and len(x) > 1 else x for x in (a, b))
            out[lo : lo + block] = matmul_mod_p(a_part, b_part, p)
        return out
    per_inner = (a.size + b.size) // max(1, inner)  # float entries one inner index adds to the copies
    chunk = max(1, max(MATMUL_CHUNK_ENTRIES, size) // max(1, per_inner))
    acc = np.zeros(stack + (a.shape[-2], b.shape[-1]))
    for lo in range(0, inner, chunk):
        acc += a[..., lo : lo + chunk].astype(np.float64) @ b[..., lo : lo + chunk, :].astype(np.float64)
    quotient = acc / p
    np.floor(quotient, out=quotient)
    quotient *= p
    acc -= quotient
    del quotient  # before the int64 copy, which needs the memory
    return acc.astype(np.int64)


def pack_bits(bits, word_bits: int = 64) -> np.ndarray:
    """Words (..., ceil(n / word_bits)) holding the entries (..., n) of bits mod 2, little-endian.

    Entry j of a vector is bit j % word_bits of word j // word_bits, and the
    bits past n in the last word are 0.  The words are unsigned integers of
    word_bits = 8, 16, 32 or 64 bits.  The entries are bool or integers of
    any sign; their low bits, which are their residues mod 2 in two's
    complement, are read in one pass into a byte buffer, so no reduced copy
    of bits is made.
    """
    bits = np.asarray(bits)
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-n // word_bits) * word_bits,), dtype=np.uint8)
    np.bitwise_and(bits, 1, out=padded[..., :n], casting="unsafe")
    return np.packbits(padded, axis=-1, bitorder="little").view(np.dtype(f"<u{word_bits // 8}"))


def word_width(n: int) -> int:
    """Bits of the smallest unsigned word (8, 16 or 32 bits) that holds n bits, or 64 for any larger n."""
    return next((w for w in (8, 16, 32) if n <= w), 64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits (..., n) of every vector of words packed by pack_bits, as uint8 0/1 entries."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=n, bitorder="little").reshape(words.shape[:-1] + (n,))


def xor_rows(acc: np.ndarray, coeffs, packed: np.ndarray) -> None:
    """acc[r] ^= the XOR of packed[t] over the odd coeffs[r, t], for every r: acc + coeffs @ packed over F_2.

    acc and packed are rows of words (pack_bits), and coeffs is an
    integer or bool matrix, read mod 2.  The terms (r, t) come in row-major
    order, so each row's terms are consecutive; they are taken in chunks
    whose gather packed[t] holds at most XOR_GATHER_WORDS words (at least
    one term), and one np.bitwise_xor.reduceat per chunk sums each row's
    run.  A row whose terms straddle two chunks is XORed into twice, which
    is the same sum.  The work is one gathered row per nonzero
    coefficient, so this is the F_2 product for sparse coeffs; a dense
    left operand belongs in matmul_mod_p.
    """
    hit, at = np.nonzero(np.bitwise_and(coeffs, 1))
    chunk = max(1, XOR_GATHER_WORDS // max(1, packed.shape[-1]))
    for lo in range(0, hit.size, chunk):
        rows, terms = hit[lo : lo + chunk], at[lo : lo + chunk]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # the first term of each row in the chunk
        acc[rows[starts]] ^= np.bitwise_xor.reduceat(packed[terms], starts, axis=0)


def _as_matrix(mat) -> np.ndarray:
    """mat as a 2-d integer array, with no copy where it already is one; 0-d and 1-d inputs are one row."""
    a = np.asarray(mat)
    if a.ndim > 2:
        raise ParameterError(f"cannot eliminate an array of shape {a.shape}: it is not a matrix")
    if a.dtype.kind not in "biu":
        a = a.astype(np.int64)
    if a.ndim < 2:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a


def rref_mod_p(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (int64) and pivot column indices.

    mat is a matrix of bool or integer entries of any sign; 0-d and 1-d
    inputs are one row, and an array of more dimensions is refused.  It is
    never written to.  At p = 2 its entries are packed mod 2 straight into
    words (pack_bits), with no int64 copy: the pivot search reads one bit
    of one word per row, and a row update XORs the pivot row into another
    from the pivot's word onward, since the pivot row is zero before its
    pivot column.  At p > 2 a C-ordered int64 copy (whatever mat's layout)
    starts reduced and each pivot adds at most (p-1)^2 to an entry's
    absolute value, so no entry exceeds (p-1) + min(rows, cols)*(p-1)^2;
    a shape that lets that bound reach 2^63 is refused.  The row updates
    start at the pivot column, and a column is read only at its own step,
    so the RREF is reduced once, at the end.
    """
    a = _as_matrix(mat)
    if p == 2:
        return _rref_packed(a)
    a = np.remainder(a, p, dtype=np.int64, order="C")
    rows, cols = a.shape
    if (p - 1) + min(rows, cols) * (p - 1) ** 2 >= INT64_LIMIT:
        raise ParameterError(f"eliminating a {rows}x{cols} matrix mod {p} can overflow int64")
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[:, c] % p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            col[r], col[pr] = col[pr], col[r]
        inv = pow(int(col[r]), p - 2, p)
        row = a[r, c:] % p
        if inv != 1:
            row = row * inv % p
        a[r, c:] = row
        col[r] = 0
        other = col.nonzero()[0]
        if other.size:
            a[other, c:] -= col[other, None] * row
        pivots.append(c)
        r += 1
    return a[: len(pivots)] % p, pivots


def _rref_packed(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """rref_mod_p at p = 2 of an integer matrix, on its rows packed mod 2 into uint64 words."""
    rows, cols = a.shape
    packed = pack_bits(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        w = c // 64
        col = packed[:, w] & np.uint64(1 << (c % 64))  # column c's bit of every row
        pr = r + int(col[r:].argmax())  # the first row at or below r with the bit, if any
        if not col[pr]:
            continue
        if pr != r:
            packed[[r, pr]] = packed[[pr, r]]
            col[pr] = col[r]
        col[r] = 0
        other = col.nonzero()[0]
        if other.size:
            packed[other, w:] ^= packed[r, w:]
        pivots.append(c)
        r += 1
    return unpack_bits(packed[:r], cols).astype(np.int64), pivots


def rank_mod_p(mat, p: int) -> int:
    return len(rref_mod_p(mat, p)[1])


def nullspace_mod_p(mat, p: int) -> np.ndarray:
    """Basis (as rows) of {x : mat @ x = 0 mod p}.

    Basis row i is 1 at the i-th free column and, at each pivot column,
    minus that pivot row's RREF entry in the free column.
    """
    rr, pivots = rref_mod_p(mat, p)
    cols = rr.shape[1]
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rr[:, free].T % p
    return basis
