"""Exact linear algebra over prime fields, on numpy integer matrices.

Matrices come in as integer arrays and go out as 2-d int64 arrays.
rref_mod_p, nullspace_mod_p and rank_mod_p read one Gaussian
elimination, _rref, which gives the RREF's pivot rows in their own
narrow type and their pivot columns.  It sweeps the rows once at every
p: each row in turn takes its first nonzero entry as its pivot and
clears that column from every other row (M4RI: Albrecht, Bard & Hart,
ACM TOMS 2010, without its tables); no rows are swapped, and the pivot
rows are sorted at the end.  At p = 2 the rows are the bits of uint64
words (pack_bits), with no int64 copy of the input, the pivot is the
lowest set bit and the update is XOR; at p > 2 they are digits in the
narrowest unsigned type that holds p^2 - 1, which bounds a row update
before its % p, and the pivot row is scaled to 1 by Fermat's little
theorem.  kernel_counts runs the same sweep across a stack of small
matrices.

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
    """The rank of mat mod p: the number of _rref's pivots."""
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

    One sweep over the rows, with no pivot search and no swap: row r in
    turn, reduced by the earlier pivots, takes its first nonzero entry as
    its pivot and clears that column from every other row, from the
    pivot's word or column on, until every column is a pivot.  At p = 2
    the rows are uint64 words (pack_bits, no int64 copy of mat), the
    pivot is the lowest set bit (word & -word) and the update is XOR.  At
    p > 2 they are digits in the narrowest unsigned type that holds
    p^2 - 1, a C-ordered copy whatever mat's layout: the row is scaled to
    1 by lead^(p-2), and (p - c) times it is added to each row with an
    entry c in the pivot column, a sum below p^2 until its % p; a p with
    p^2 past 2^63 is refused.  A row only ever receives rows whose pivots
    lie past its own, so the rows end in the unique RREF, unordered; the
    pivot rows are sorted by pivot column (and unpacked at p = 2).
    """
    if p * p > INT64_LIMIT:
        raise ParameterError(f"eliminating a matrix mod {p} can overflow int64")
    a = _as_matrix(mat)
    rows, cols = a.shape
    if p == 2:
        a = pack_bits(a)
    else:
        digits = np.empty((rows, cols), dtype=np.min_scalar_type(p * p - 1))
        # the remainder runs, chunk by chunk, in a type that holds p and a's entries
        a = np.remainder(a, p, out=digits, dtype=np.promote_types(a.dtype, np.min_scalar_type(p)), casting="unsafe")
    pivot_rows = {}  # pivot column: the row that takes it
    for r in range(rows):
        if len(pivot_rows) == cols:
            break
        nonzero = a[r].nonzero()[0]
        if not nonzero.size:
            continue
        w = int(nonzero[0])  # the pivot's word at p = 2, its column at p > 2
        lead = int(a[r, w])
        if p == 2:
            lead &= -lead  # the lowest set bit
            hit = a[:, w] & np.uint64(lead)
            c = 64 * w + lead.bit_length() - 1
        else:
            if lead != 1:
                a[r, w:] = a[r, w:] * pow(lead, p - 2, p) % p
            hit = a[:, w].copy()
            c = w
        hit[r] = 0
        other = hit.nonzero()[0]
        if other.size:
            if p == 2:
                a[other, w:] ^= a[r, w:]
            else:
                a[other, w:] = (a[other, w:] + (p - hit[other, None]) * a[r, w:]) % p
        pivot_rows[c] = r
    pivots = sorted(pivot_rows)
    picked = a[np.array([pivot_rows[c] for c in pivots], dtype=np.intp)]
    return unpack_bits(picked, cols) if p == 2 else picked, np.array(pivots, dtype=np.intp)


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

    _rref's sweep over the rows, run across the whole stack at once: row
    r, reduced by the earlier pivots, takes its first nonzero column as
    its pivot, is scaled to 1 there and is subtracted from every other
    row with an entry in that column.  Rows are not swapped or sorted, so
    each matrix ends in RREF up to the order of its rows, with its
    dependent rows 0.  Entry f holds the kernel vector of free column f:
    1 at f, 0 at the other free columns and, at each pivot column, minus
    that pivot row's entry in f (as in nullspace_mod_p), which is nonzero
    only below f; the entries of pivot columns mean nothing.  At p = 2 a
    row and a kernel vector are words of N bits, packed by pack_bits in
    the word that word_width gives and read back bit by bit by
    unpack_bits, a row's pivot is its lowest set bit and the update is
    XOR.  At p > 2 they are digits, held in the narrowest unsigned type
    that holds p^2 - 1, which bounds a row update before its % p, and
    _span's sums.  This loop stays apart from _rref's: each step here
    updates every row of every matrix whole, and one loop for both, with
    _rref's matrix as a stack of one, made a single elimination 2-3 times
    slower (rate-I23's 448 x 512 block 3.2 -> 8.6 ms, I(2,3)'s 1792 x 2048
    block at D = n 34.5 -> 105 ms, on a shared 2-vCPU VM).  One call of
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
