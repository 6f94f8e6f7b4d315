"""Exact linear algebra over prime fields, on numpy integer matrices.

Matrices come in as integer arrays and go out as 2-d int64 arrays.
rref_mod_p, nullspace_mod_p and rank_mod_p read one Gaussian
elimination, _rref, which gives the RREF's pivot rows in their own
narrow type and their pivot columns.  At p = 2 it sweeps the rows,
packed as the bits of uint64 words (pack_bits) with no int64 copy of
the input: each row in turn takes its lowest set bit as its pivot and is
XORed into every other row with that bit (M4RI: Albrecht, Bard & Hart,
ACM TOMS 2010, without its tables); no rows are swapped, and the pivot
rows are sorted at the end.  kernel_counts runs the same sweep across a
stack of small matrices.  At p > 2 it walks the columns of a copy
reduced mod p lazily (Dumas, Giorgi & Pernet, FFLAS-FFPACK, ACM TOMS
2008), swapping rows by plain copies; an int64 growth bound keeps the
unreduced updates exact, and inverses come from Fermat's little theorem.

matmul_mod_p is the one F_p matrix product, of plain matrices or of
stacks of them broadcast as np.matmul does.  A small product runs as one
int64 np.matmul; numpy has no BLAS path for int64, so a larger one
multiplies in float64, which is exact while every sum stays below 2^53.

pack_bits and unpack_bits are the one packing of F_2 vectors into words,
each one flat call on a whole buffer (so unpack_bits may return a view),
which the elimination, the base-u expansion (fppoly), the field's
products on words (gf.mul_rows and gf.power_sums) and the kernel counter
share; word_width is their one rule for the smallest word that holds a
vector.  xor_rows is the one F_2 product on packed rows, for a sparse
left operand: the XOR of the rows that each row of coefficients selects
(odd_terms, which products with the same coefficients share), gathered
in bounded chunks and summed by np.bitwise_xor.reduceat.  The base-u
expansion and the encoding's power sums use it at p = 2; matmul_mod_p
stays the product for dense operands, such as the sampled distance's.

kernel_counts counts, for every m in F_p^N, the matrices of an
(s, rows, N) stack that vanish at m: one elimination sweep per row
across the whole stack (on N-bit words at p = 2), then each matrix's
kernel elements, one slab of at most KERNEL_SLAB_CODES consecutive codes
at a time, enumerated in bounded chunks and counted by np.unique.  The
exhaustive distance (codecore) is n minus its largest count at a
nonzero message.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from orbitcodes.errors import ParameterError

FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly
INT64_LIMIT = 1 << 63
MATMUL_CHUNK_ENTRIES = 1 << 17  # bound on the float64 copies of one inner chunk, unless the product is larger
STACK_BLOCK_ENTRIES = 1 << 15  # bound on the product of one block of a stack, and so on its float64 sum and quotient
INT64_PRODUCT_WORK = 1 << 14  # products with at most this many multiply-adds (inner * entries) run in int64
XOR_GATHER_WORDS = 1 << 17  # bound on the words of one gather of xor_rows (1 MiB)
KERNEL_CHUNK_ENTRIES = 1 << 20  # bound on the words or digits of one chunk of kernel_counts' kernel elements
KERNEL_SLAB_CODES = 1 << 20  # bound on the counters of one slab of kernel_counts


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
    complement, are read in one pass into a C-ordered byte buffer of whole
    words, so no reduced copy of bits is made, packed by one flat np.packbits.
    """
    bits = np.asarray(bits)
    *lead, n = bits.shape
    words = -(-n // word_bits)
    padded = np.zeros((*lead, words * word_bits), dtype=np.uint8)
    np.bitwise_and(bits, 1, out=padded[..., :n], casting="unsafe")
    return np.packbits(padded, bitorder="little").view(f"<u{word_bits // 8}").reshape(*lead, words)


def word_width(n: int) -> int:
    """Bits of the smallest unsigned word (8, 16 or 32 bits) that holds n bits, or 64 for any larger n."""
    return next((w for w in (8, 16, 32) if n <= w), 64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits (..., n) of every vector of pack_bits words, as uint8 0/1: one flat unpacking, sliced, so maybe a view."""
    words = np.ascontiguousarray(words)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits.reshape(*words.shape[:-1], words.shape[-1] * words.itemsize * 8)[..., :n]


def odd_terms(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, terms) index arrays of the odd entries of an integer or bool matrix, in row-major order: the terms xor_rows sums."""
    return np.nonzero(np.bitwise_and(coeffs, 1))


def xor_rows(acc: np.ndarray, terms: tuple[np.ndarray, np.ndarray], packed: np.ndarray) -> None:
    """acc[r] ^= the XOR of packed[t] over the terms (r, t), for every r: acc + coeffs @ packed over F_2.

    acc and packed are rows of words (pack_bits), and terms is
    odd_terms(coeffs), the odd entries of a coefficient matrix, which
    several products with the same coeffs may share.  The terms come in
    row-major order, so each row's terms are consecutive; they are taken
    in chunks whose gather packed[t] holds at most XOR_GATHER_WORDS words
    (at least one term), and one np.bitwise_xor.reduceat per chunk sums
    each row's run.  A row whose terms straddle two chunks is XORed into
    twice, which is the same sum.  The work is one gathered row per
    nonzero coefficient, so this is the F_2 product for sparse coeffs; a
    dense left operand belongs in matmul_mod_p.
    """
    hit, at = terms
    chunk = max(1, XOR_GATHER_WORDS // max(1, packed.shape[-1]))
    for lo in range(0, hit.size, chunk):
        rows, cols = hit[lo : lo + chunk], at[lo : lo + chunk]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # the first term of each row in the chunk
        acc[rows[starts]] ^= np.bitwise_xor.reduceat(packed[cols], starts, axis=0)


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
    never written to.  The form is _rref's pivot rows, cast to int64.
    """
    rows, pivots = _rref(mat, p)
    return rows.astype(np.int64, copy=False), pivots.tolist()


def rank_mod_p(mat, p: int) -> int:
    return len(_rref(mat, p)[1])


def nullspace_mod_p(mat, p: int) -> np.ndarray:
    """Basis (as int64 rows) of {x : mat @ x = 0 mod p}.

    Basis row i is 1 at the i-th free column and, at each pivot column,
    minus that pivot row's entry in the free column of _rref's rows.
    """
    rows, pivots = _rref(mat, p)
    cols = rows.shape[1]
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (p - rows[:, free].T) % p
    return basis


def _rref(mat, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The RREF of mat mod p: its pivot rows, top to bottom, and their pivot columns, ascending, as an int array.

    At p = 2 the rows are uint8 bits (_rref_packed).  At p > 2 they are
    int64 digits: a C-ordered int64 copy (whatever mat's layout) starts
    reduced and each pivot adds at most (p-1)^2 to an entry's absolute
    value, so no entry exceeds (p-1) + min(rows, cols)*(p-1)^2; a shape
    that lets that bound reach 2^63 is refused.  The walk goes column by
    column, the row updates start at the pivot column, a column is read
    only at its own step and rows are swapped by plain copies, so the
    RREF is reduced once, at the end.
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
            row = a[pr].copy()
            a[pr] = a[r]
            a[r] = row
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
    return a[:r] % p, np.array(pivots, dtype=np.intp)


def _rref_packed(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_rref at p = 2 of an integer matrix: one sweep over its rows packed mod 2 into uint64 words.

    Row r in turn, reduced by the earlier pivots, takes its lowest set bit
    (the first nonzero word w, then word & -word) as its pivot and is
    XORed, from w on, into every other row with that bit; a row that the
    earlier pivots cleared has none.  A row only ever receives rows whose
    pivots lie past its own lowest bit, so it never gains a bit below
    it, and the rows end in the unique RREF, unordered and unswapped.
    The pivot rows are sorted by pivot column as words, then unpacked.
    """
    rows, cols = a.shape
    packed = pack_bits(a)
    pivot_rows = {}  # pivot column: the row that takes it
    for r in range(rows):
        nonzero = packed[r].nonzero()[0]
        if not nonzero.size:
            continue
        w = int(nonzero[0])
        word = int(packed[r, w])
        lead = word & -word  # the lowest set bit
        col = packed[:, w] & np.uint64(lead)
        col[r] = 0
        other = col.nonzero()[0]
        if other.size:
            packed[other, w:] ^= packed[r, w:]
        pivot_rows[64 * w + lead.bit_length() - 1] = r
    pivots = sorted(pivot_rows)
    return unpack_bits(packed[np.array([pivot_rows[c] for c in pivots], dtype=np.intp)], cols), np.array(pivots, dtype=np.intp)


def kernel_counts(mats, p: int) -> Iterator[np.ndarray]:
    """How many matrices of an (s, rows, N) stack vanish at each m in F_p^N, one slab of codes at a time.

    m's code is c = sum_t m_t * p^t.  Slab i holds the counters of the
    codes [i * p^L, (i + 1) * p^L), in the narrowest unsigned type that
    holds s, where p^L is the largest power of p up to p^N that is at most
    KERNEL_SLAB_CODES; the slabs come in order, each in a fresh array.
    Each matrix adds 1 at every element of its kernel: that is
    sum_M p^(N - rank M) elements and p^N counters, not s * p^N products,
    and the memory is one slab and one chunk of elements, whatever N.

    A kernel vector (_kernel_bases) is 1 at its free column f, 0 at the
    other free columns and nonzero elsewhere only at pivot columns below
    f.  So an element's top N - L digits, its slab, are fixed by its
    coefficients on the free columns from L up, which are its digits
    there.  Slab i takes those coefficients from i's digits, keeps the
    matrices whose combination of those vectors has i's digits on top,
    and adds every combination of the vectors below L to it.  The
    matrices are taken by their number d of vectors below L.  An element
    is a word of N bits at p = 2, whose low L bits are its code in the
    slab, and L digits at p > 2; a chunk holds at most
    KERNEL_CHUNK_ENTRIES words or digits.  The combinations of the first
    vectors of a block of matrices are one table (_span), and each
    combination of the remaining ones is added to it in turn, one chunk
    each, counted by np.unique.  The stack is checked here, before any
    slab is counted; p^N must stay below 2^63.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ParameterError(f"kernel counts need an (s, rows, N) stack of matrices, got shape {mats.shape}")
    s, rows, N = mats.shape
    if p**N >= INT64_LIMIT:
        raise ParameterError(f"codes of {N} base-{p} digits overflow int64")
    if N == 0:
        return iter([np.full(1, s, dtype=np.min_scalar_type(s))])
    L = N
    while L and p**L > KERNEL_SLAB_CODES:
        L -= 1
    return _slabs(*_kernel_bases(mats, p), p, L, np.min_scalar_type(s))


def _slabs(basis: np.ndarray, free: np.ndarray, p: int, L: int, dtype) -> Iterator[np.ndarray]:
    """kernel_counts' slabs of p^L codes, from the kernel vectors and free-column masks of _kernel_bases."""
    s, N = free.shape
    low = free.copy()
    low[:, L:] = False
    high = free[:, L:]
    dims = low.sum(axis=1)
    vectors = basis if p == 2 else basis[..., :L]  # the vectors below L are 0 from L up
    groups = []
    for d in sorted(set(dims.tolist())):  # a plain np.unique imports numpy.ma on its first call, about 15 ms
        group = np.flatnonzero(dims == d)
        groups.append((group, vectors[group][low[group]].reshape((len(group), d) + vectors.shape[2:])))
    per_chunk = max(1, KERNEL_CHUNK_ENTRIES // (1 if p == 2 else max(L, 1)))
    powers = p ** np.arange(L, dtype=np.int64)
    top = p ** np.arange(N - L, dtype=np.int64)
    for i in range(p ** (N - L)):
        digits = i // top % p  # the top N - L digits of slab i's codes
        if p == 2:
            shift = np.bitwise_xor.reduce(basis[:, L:] * (high & (digits == 1)), axis=1)
            hit = shift >> L == i
            shift &= (1 << L) - 1
        else:
            shift = matmul_mod_p((high * digits)[:, None], basis[:, L:], p)[:, 0]
            hit = (shift[:, L:] == digits).all(axis=1)
            shift = shift[:, :L].astype(basis.dtype)
        counts = np.zeros(p**L, dtype=dtype)
        for group, gens in groups:
            at, gens = group[hit[group]], gens[hit[group]]
            k = gens.shape[1]
            while p**k > per_chunk:
                k -= 1
            block = max(1, per_chunk // p**k)
            for lo in range(0, len(at), block):
                table = _span(gens[lo : lo + block, :k], p)
                if p == 2:
                    table ^= shift[at[lo : lo + block], None]
                else:
                    table = (table + shift[at[lo : lo + block], None]) % p
                for rest in _span(gens[lo : lo + block, k:], p).swapaxes(0, 1):  # one combination of the rest per matrix
                    codes = (table ^ rest[:, None]).astype(np.int64) if p == 2 else (table + rest[:, None]) % p @ powers
                    found, times = np.unique(codes, return_counts=True)
                    counts[found] += times.astype(dtype)
        yield counts


def _kernel_bases(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel vectors of every matrix of an (s, rows, N) stack, and the (s, N) mask of their free columns.

    _rref's sweep over the rows at p = 2, run across the whole stack at
    once and at every p: row r, reduced by the earlier pivots, takes its
    first nonzero column as its pivot, is scaled to 1 there and is
    subtracted from every other row with an entry in that column.  Rows are not swapped or sorted, so each
    matrix ends in RREF up to the order of its rows, with its dependent
    rows 0.  Entry f holds the kernel vector of free column f: 1 at f, 0
    at the other free columns and, at each pivot column, minus that pivot
    row's entry in f (as in nullspace_mod_p), which is nonzero only below
    f; the entries of pivot columns mean nothing.  At p = 2 a row and a
    kernel vector are words of N bits, packed by pack_bits in the word
    that word_width gives and read back bit by bit by unpack_bits, a row's
    pivot is its lowest set bit and the update is XOR.  At p > 2 they are
    digits, held in the narrowest unsigned type that holds p^2 - 1, which
    bounds a row update before its % p, and _span's sums.  One call of
    nullspace_mod_p per matrix gives the same vectors, but its fixed cost
    per call made the distance command on I(3,2) at D = 40 about a third
    slower end to end.
    """
    s, rows, N = mats.shape
    if p == 2:
        a = pack_bits(mats, word_width(N))[..., 0]  # (s, rows) words
        one = a.dtype.type(1)
        leads = np.empty_like(a)
        for r in range(rows):
            row = a[:, r].copy()
            lead = row & (~row + one)  # the lowest set bit, 0 for a zero row
            a ^= np.where(a & lead[:, None], row[:, None], 0)
            a[:, r] = row
            leads[:, r] = lead
        basis = np.bitwise_or.reduce(unpack_bits(a[..., None], N) * leads[..., None], axis=1) | one << np.arange(N, dtype=a.dtype)
        free = unpack_bits(np.bitwise_or.reduce(leads, axis=1)[:, None], N) == 0
        return basis, free
    a = (mats % p).astype(np.min_scalar_type(p * p - 1))
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=a.dtype)
    stack = np.arange(s)
    pivot = np.full((s, rows), -1)
    for r in range(rows):
        nonzero = a[:, r] != 0
        c = nonzero.argmax(axis=1)
        row = a[:, r] * inverse[a[stack, r, c]][:, None] % p  # 0 for a zero row
        a += (p - a[stack, :, c])[..., None] * row[:, None, :]
        a %= p
        a[:, r] = row
        pivot[:, r] = np.where(nonzero.any(axis=1), c, -1)
    at, r = np.nonzero(pivot >= 0)
    free = np.ones((s, N), dtype=bool)
    free[at, pivot[at, r]] = False
    basis = np.zeros((s, N, N), dtype=a.dtype)
    basis[:, np.arange(N), np.arange(N)] = 1
    basis[at, :, pivot[at, r]] = (p - a[at, r]) % p
    return basis, free


def _span(gens: np.ndarray, p: int) -> np.ndarray:
    """Every F_p combination (g, p^d, ...) of the d elements along axis 1 of (g, d, ...) gens: words at p = 2, digits at p > 2."""
    out = np.zeros((len(gens), 1) + gens.shape[2:], dtype=gens.dtype)
    for j in range(gens.shape[1]):
        term = gens[:, j, None]
        if p == 2:
            out = np.concatenate([out, out ^ term], axis=1)
        else:
            out = np.concatenate([(out + x * term) % p for x in range(p)], axis=1)
    return out
