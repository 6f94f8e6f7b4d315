"""Base-u expansion of batches of F_p polynomials, the one polynomial division in src.

digit_chunks builds the base-u digit matrix E, whose row t holds the
digits of X^t, by one recurrence in bounded chunks of rows.
expansion_degrees expands whole batches of polynomials with F_p
coefficients through it, and codecore.message_space reads its block of
E from the same chunks: the translation constraint is a kernel of that
digit map.  The field's reduction reads it too: gf's multiplication
tensor takes X^t mod the modulus as digit 0 of the base-modulus chunks.
Every other polynomial job works on digit arrays elsewhere: the modulus
search and the Frobenius matrix in gf, the roots and the splitting
degree of a linearized polynomial in groupgeom.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from orbitcodes.errors import ParameterError
from orbitcodes.linalg import matmul_mod_p, odd_terms, pack_bits, unpack_bits, xor_rows

EXPANSION_CHUNK_ENTRIES = 1 << 17  # bound on the digit rows X^t built and multiplied at a time


def _monic_base(u, p: int) -> tuple[np.ndarray, int]:
    """u's F_p coefficients, reduced, and its degree; a constant or non-monic base is refused."""
    u = np.asarray(u, dtype=np.int64) % p
    degree = len(u) - 1
    if degree < 1:
        raise ParameterError("expansion base must be nonconstant")
    if u[-1] != 1:
        raise ParameterError("expansion base must be monic")
    return u, degree


def digit_chunks(u, length: int, p: int, least: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, E[lo:hi]) for consecutive chunks of the rows t < length of the base-u digit matrix E.

    u is the monic base's F_p coefficients, lowest degree first.  Row t of
    E holds the base-u digits of X^t, digit j in columns j*deg u to
    (j+1)*deg u - 1, over the ceil(length / deg u) digit blocks; f's
    digits are f times E (radix conversion as a linear map; von zur
    Gathen & Gerhard, Modern Computer Algebra, 9.2).  Below deg u, X^t is
    its own digit.  Above it, X^t = X^(t - deg u)*u - sum_e u_e X^(t -
    deg u + e) over u's lower terms: the first term is row t - deg u with
    every digit moved up one block, and the rest are earlier rows, at
    least step = deg u minus u's largest lower exponent back, so step rows
    of E come in one vector operation.  A chunk is as many rows as fit in
    EXPANSION_CHUNK_ENTRIES entries, or least rows if more, never past
    length; it is a view of one buffer that the next chunk overwrites.

    At p = 2 the buffer is uint8 and the lower terms of u are XORed in,
    with no multiply and no reduction.  At p > 2 each of u's t lower terms
    adds (p - u_e) times an earlier row and a step is reduced once, so the
    buffer is the narrowest unsigned type holding (p - 1)(1 + t(p - 1)).
    """
    u, degree = _monic_base(u, p)
    lower = [(e, int(u[e])) for e in range(degree) if u[e]]
    step = degree - max((e for e, _ in lower), default=0)
    width = -(-length // degree) * degree  # whole digit blocks
    chunk = max(1, min(length, max(least, EXPANSION_CHUNK_ENTRIES // max(width, 1))))
    bound = 1 if p == 2 else (p - 1) * (1 + len(lower) * (p - 1))  # a step's largest entry before its reduction
    # buf[i] holds the digits of X^(lo - degree + i): the chunk's rows after the degree rows before them
    buf = np.zeros((degree + chunk, width), dtype=np.min_scalar_type(bound))
    for lo in range(0, length, chunk):
        buf[:degree] = buf[chunk:]
        hi = min(lo + chunk, length)
        for t in range(lo, min(hi, degree)):
            buf[degree + t - lo] = 0
            buf[degree + t - lo, t] = 1
        for t in range(max(lo, degree), hi, step):
            new = buf[degree + t - lo : degree + min(t + step, hi) - lo]
            back = t - lo  # the buf index of row t - degree
            new[:, :degree] = 0
            new[:, degree:] = buf[back : back + len(new), :-degree]
            if p == 2:
                for e, _ in lower:
                    new ^= buf[back + e : back + e + len(new)]
            else:
                for e, coeff in lower:
                    new += (p - coeff) * buf[back + e : back + e + len(new)]
                new %= p
        yield lo, buf[degree : degree + hi - lo]


def expansion_degrees(rows: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Largest digit degree of every row's expansion in base u; -1 for a zero row.

    rows is an (R, L) array of F_p coefficients, bool or integers of any
    width and sign, read as they are (no int64 copy): row r is
    sum_t rows[r, t] X^t.  u is the monic divisor's F_p coefficients,
    lowest degree first.  The degrees are int64, found in int32.

    The expansion is F_p-linear, so the digits are rows times the digit
    matrix E, taken from digit_chunks at least R rows at a time, and a
    row's largest digit degree is its largest column mod deg u over
    nonzero columns.  For u = X^(deg u) the digits are the coefficients
    themselves.  At p = 2 each chunk of E is packed into words
    (linalg.pack_bits), and a row's digits are the XOR of the packed E
    rows at its nonzero coefficients (linalg.xor_rows), read back as bool
    digits with no reduction; at p > 2 the product is linalg.matmul_mod_p.
    """
    u, degree = _monic_base(u, p)
    rows = np.asarray(rows)
    length = rows.shape[1]
    if not u[:degree].any():
        nonzero = rows % p != 0
    else:
        width = -(-length // degree) * degree
        if p == 2:
            digits = np.zeros((len(rows), -(-width // 64)), dtype=np.uint64)  # the words of pack_bits
        else:
            digits = np.zeros((len(rows), width), dtype=np.int64)
        for lo, block in digit_chunks(u, length, p, least=len(rows)):
            hi = lo + len(block)
            if p == 2:
                xor_rows(digits, odd_terms(rows[:, lo:hi]), pack_bits(block))
            else:
                digits += matmul_mod_p(rows[:, lo:hi] % p, block, p)
        nonzero = unpack_bits(digits, width).view(bool) if p == 2 else digits % p != 0
    offsets = np.arange(nonzero.shape[1], dtype=np.int32) % degree
    return np.where(nonzero, offsets, -1).max(axis=1, initial=-1).astype(np.int64)
