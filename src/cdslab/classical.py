"""Classical baseline protocols over small binary fields.

The protocols here are exactly correct and exactly secure by construction;
the test suite re-derives both facts by exhaustive enumeration rather than
trusting the algebra.

Field elements of GF(2^n) are integers in ``[0, 2^n)`` whose bits are the
polynomial coefficients (bit i = coefficient of X^i).  Products and
inverses read log/antilog tables over a primitive element, one pair per
degree, built on that degree's first use and kept for the process; GF(2)
needs none.

``neq_cds`` and ``ip_psm`` also carry an :class:`~cdslab.framework.ArrayForm`:
the same messages and decoder over an int64 grid of draws, inputs and
secrets, whose field products and inverses read numpy copies of the same
tables.  The scalar functions stay the reference the array forms are
tested against.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .framework import (
    ENUMERATION_BUDGET_BITS,
    ArrayForm,
    CdsProtocol,
    PromiseFunction,
    PsmProtocol,
)

# Irreducible moduli for GF(2^n), one per supported degree, written with the
# leading coefficient included (degree-n polynomial as an (n+1)-bit integer).
IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def _clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _reduce(a: int, n: int) -> int:
    mod = IRREDUCIBLE[n]
    for shift in range(a.bit_length() - (n + 1), -1, -1):
        if a >> (shift + n) & 1:
            a ^= mod << shift
    return a


@cache
def _field_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(exp, log)`` for GF(2^n), n >= 2, built on the degree's first use.

    ``exp[i] = g^i`` for a primitive element ``g``, stored twice over so
    that ``exp[log[a] + log[b]]`` needs no reduction; ``log[0]`` is unused.
    ``g`` is searched for: ``X`` need not be primitive (under 0x11B it has
    order 51, not 255).
    """
    order = (1 << n) - 1
    for g in range(2, 1 << n):
        powers = [1]
        while len(powers) <= order:
            nxt = _reduce(_clmul(powers[-1], g), n)
            if nxt == 1:
                break
            powers.append(nxt)
        if len(powers) == order:
            log = [0] * (1 << n)
            for i, v in enumerate(powers):
                log[v] = i
            return tuple(powers + powers), tuple(log)
    raise ValueError(f"GF(2^{n}) has no primitive element: its modulus is not irreducible")


def gf_mul(a: int, b: int, n: int) -> int:
    """Product in GF(2^n), by the degree's log/antilog tables."""
    if n not in IRREDUCIBLE:
        raise ValueError(f"no modulus tabulated for GF(2^{n})")
    if not (0 <= a < 1 << n and 0 <= b < 1 << n):
        raise ValueError(f"operands {a}, {b} outside GF(2^{n})")
    if n == 1:
        return a & b
    if not (a and b):
        return 0
    exp, log = _field_tables(n)
    return exp[log[a] + log[b]]


def gf_inv(a: int, n: int) -> int:
    """Multiplicative inverse in GF(2^n): ``g^(-log a)`` from the degree's
    log/antilog tables."""
    if n not in IRREDUCIBLE:
        raise ValueError(f"no modulus tabulated for GF(2^{n})")
    if not 0 <= a < 1 << n:
        raise ValueError(f"operand {a} outside GF(2^{n})")
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^n)")
    if n == 1:
        return 1
    exp, log = _field_tables(n)
    return exp[(1 << n) - 1 - log[a]]


@cache
def _array_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_field_tables(n)`` as int64 arrays."""
    exp, log = _field_tables(n)
    return np.array(exp, dtype=np.int64), np.array(log, dtype=np.int64)


def _gf_mul_array(a: np.ndarray, b, n: int) -> np.ndarray:
    """``gf_mul`` elementwise over int64 arrays that broadcast (or an array
    and a scalar); products with a zero factor are masked, since ``log[0]``
    means nothing."""
    if n == 1:
        return a & b
    exp, log = _array_tables(n)
    return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])


def _gf_inv_array(a, n: int):
    """``gf_inv`` elementwise over an int64 array or an int; 0 maps to an
    arbitrary field element, which the caller masks."""
    if n == 1:
        return a
    exp, log = _array_tables(n)
    return exp[(1 << n) - 1 - log[a]]


def _parity(v: int) -> int:
    return v.bit_count() & 1


def _parity_array(v: np.ndarray) -> np.ndarray:
    return np.bitwise_count(v).astype(np.int64) & 1


def _promise_neq_log_length(n: int) -> int:
    """``log2 n`` of a promise-NEQ string length ``n``, which must be a
    power of two >= 2: the one length rule of promise NEQ, its
    Deutsch-Jozsa shortening and the hybrid protocol."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"promise NEQ needs a string length that is a power of two >= 2, got {n}")
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# promise functions
# ---------------------------------------------------------------------------

def neq_function(n: int) -> PromiseFunction:
    """Total NEQ: disclose exactly when the inputs differ."""
    return PromiseFunction(n, lambda x, y: int(x != y), f"neq_{n}")


def and_function() -> PromiseFunction:
    return PromiseFunction(1, lambda x, y: x & y, "and")


def ip_function(n: int) -> PromiseFunction:
    """Total inner product mod 2 on n-bit strings."""
    return PromiseFunction(n, lambda x, y: _parity(x & y), f"ip_{n}")


def constant_function(n: int, value: int) -> PromiseFunction:
    return PromiseFunction(n, lambda x, y: int(value), f"const_{value}")


def promise_neq_function(n: int) -> PromiseFunction:
    """Promise NEQ on length-n strings: equal, or at Hamming distance n/2."""
    _promise_neq_log_length(n)

    def value(x, y):
        d = (x ^ y).bit_count()
        if d == 0:
            return 0
        if d == n // 2:
            return 1
        return None

    return PromiseFunction(n, value, f"promise_neq_{n}")


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

def neq_cds(n: int) -> CdsProtocol:
    """Perfect one-bit CDS for NEQ on n-bit inputs, cost 2n+1 bits.

    Shared randomness is a uniform field pair (a, b); Alice sends the line
    point ``a*x + b`` together with ``s`` padded by the low bit of ``a``,
    Bob sends ``a*y + b``.  When ``x != y`` the referee recovers the slope
    ``a`` from the two line points and strips the pad; when ``x = y`` both
    points coincide and the transcript is independent of ``s``.
    """
    if not 1 <= n <= 16:
        raise ValueError("neq_cds supports 1 <= n <= 16")
    mask = (1 << n) - 1

    def split(r):
        return r >> n, r & mask  # (a, b)

    def message_a(x, s, r):
        a, b = split(r)
        return (gf_mul(a, x, n) ^ b, s ^ (a & 1))

    def message_b(y, r):
        a, b = split(r)
        return gf_mul(a, y, n) ^ b

    @cache
    def inverse(d):  # at most 2^n - 1 distinct x ^ y per protocol
        return gf_inv(d, n)

    def decoder(m_a, x, m_b, y):
        if x == y:
            return None
        u, c = m_a
        a = gf_mul(u ^ m_b, inverse(x ^ y), n)
        return c ^ (a & 1)

    # the same over a grid of draws, inputs and secrets as ints or columns;
    # Alice's code is u << 1 | c
    def message_a_array(x, s, r):
        a = r >> n
        return (_gf_mul_array(a, x, n) ^ (r & mask)) << 1 | (s ^ (a & 1))

    def message_b_array(y, r):
        return _gf_mul_array(r >> n, y, n) ^ (r & mask)

    def decoder_array(code_a, x, code_b, y):
        d = np.bitwise_xor(x, y)
        a = _gf_mul_array((code_a >> 1) ^ code_b, _gf_inv_array(d, n), n)
        return np.where(d == 0, -1, (code_a ^ a) & 1)

    return CdsProtocol(
        n=n,
        randomness_bits=2 * n,
        secret_alphabet=2,
        message_a=message_a,
        message_b=message_b,
        decoder=decoder,
        message_bits_a=n + 1,
        message_bits_b=n,
        construction=f"neq_cds({n})",
        params=(("field", f"GF(2^{n})"),),
        arrays=ArrayForm(message_a_array, message_b_array, decoder_array),
    )


def and_cds() -> CdsProtocol:
    """Perfect one-bit CDS for AND on single bits (one-time-pad gate).

    Alice sends ``s XOR r`` only when ``x = 1`` (a constant 0 placeholder
    otherwise); Bob releases the pad ``r`` only when ``y = 1``.
    """

    def message_a(x, s, r):
        return s ^ r if x else 0

    def message_b(y, r):
        return r if y else 0

    def decoder(m_a, x, m_b, y):
        return m_a ^ m_b if x and y else None

    return CdsProtocol(
        n=1,
        randomness_bits=1,
        secret_alphabet=2,
        message_a=message_a,
        message_b=message_b,
        decoder=decoder,
        message_bits_a=1,
        message_bits_b=1,
        construction="and_cds",
        params=(),
    )


def double_secret(p: CdsProtocol) -> CdsProtocol:
    """Two independent copies of a one-bit CDS hiding a 2-bit secret.

    The high secret bit rides copy one, the low bit copy two; randomness
    is the concatenation (copy one in the low bits).
    """
    if p.secret_alphabet != 2:
        raise ValueError("double_secret needs a one-bit-secret CDS")
    rb = p.randomness_bits
    rmask = (1 << rb) - 1

    def message_a(x, s, r):
        return (p.message_a(x, (s >> 1) & 1, r & rmask), p.message_a(x, s & 1, r >> rb))

    def message_b(y, r):
        return (p.message_b(y, r & rmask), p.message_b(y, r >> rb))

    def decoder(m_a, x, m_b, y):
        hi = p.decoder(m_a[0], x, m_b[0], y)
        lo = p.decoder(m_a[1], x, m_b[1], y)
        if hi is None or lo is None:
            return None
        return (hi << 1) | lo

    return CdsProtocol(
        n=p.n,
        randomness_bits=2 * rb,
        secret_alphabet=4,
        message_a=message_a,
        message_b=message_b,
        decoder=decoder,
        message_bits_a=2 * p.message_bits_a,
        message_bits_b=2 * p.message_bits_b,
        construction=f"double_secret({p.construction or 'anonymous'})",
        params=p.params,
    )


def ip_psm(n: int) -> PsmProtocol:
    """Perfect PSM for the inner product mod 2, cost 2(n+1) bits.

    Both inputs travel one-time-padded; each party also sends a masked
    cross term so the referee's bilinear form telescopes to <x, y>.
    """
    if not 1 <= n <= 10:
        raise ValueError("ip_psm supports 1 <= n <= 10")
    mask = (1 << n) - 1

    def split(r):
        return r & mask, (r >> n) & mask, r >> (2 * n)  # (r1, r2, r3)

    def message_a(x, r):
        r1, r2, r3 = split(r)
        return (x ^ r1, _parity(x & r2) ^ r3)

    def message_b(y, r):
        r1, r2, r3 = split(r)
        return (y ^ r2, _parity(y & r1) ^ _parity(r1 & r2) ^ r3)

    def referee(m_a, m_b):
        u, alpha = m_a
        v, beta = m_b
        return _parity(u & v) ^ alpha ^ beta

    # the same over a grid of draws, inputs as ints or columns; each code is
    # (pad-masked input) << 1 | bit
    def message_a_array(x, r):
        r1, r2, r3 = split(r)
        return (x ^ r1) << 1 | (_parity_array(x & r2) ^ r3)

    def message_b_array(y, r):
        r1, r2, r3 = split(r)
        return (y ^ r2) << 1 | (_parity_array(y & r1) ^ _parity_array(r1 & r2) ^ r3)

    def referee_array(code_a, code_b):
        return _parity_array((code_a >> 1) & (code_b >> 1)) ^ ((code_a ^ code_b) & 1)

    return PsmProtocol(
        n=n,
        randomness_bits=2 * n + 1,
        value_alphabet=2,
        message_a=message_a,
        message_b=message_b,
        referee=referee,
        message_bits_a=n + 1,
        message_bits_b=n + 1,
        construction=f"ip_psm({n})",
        params=(),
        arrays=ArrayForm(message_a_array, message_b_array, referee_array),
    )


def table_psm(h, x_bits: int, y_bits: int) -> PsmProtocol:
    """Brute-force perfect PSM for an arbitrary Boolean ``h(x, y)``.

    Alice sends her input shifted by a shared offset plus one pad bit;
    Bob sends the whole shifted, padded truth-table column for his input.
    Works for any function but costs ``2^x_bits`` message bits, so it is a
    feasibility construction for tiny domains only.
    """
    if x_bits < 1 or y_bits < 1:
        raise ValueError("empty input domain")
    domain = 1 << x_bits
    randomness_bits = x_bits + domain
    if randomness_bits > ENUMERATION_BUDGET_BITS:
        raise ValueError(f"table_psm randomness {randomness_bits} bits exceeds the "
                         f"{ENUMERATION_BUDGET_BITS}-bit budget")

    def split(r):
        return r & (domain - 1), r >> x_bits  # (shift, pad table)

    def message_a(x, r):
        shift, pads = split(r)
        a = x ^ shift
        return (a, (pads >> a) & 1)

    def message_b(y, r):
        shift, pads = split(r)
        column = 0
        for u in range(domain):
            column |= (h(u ^ shift, y) ^ ((pads >> u) & 1)) << u
        return column

    def referee(m_a, m_b):
        a, c = m_a
        return ((m_b >> a) & 1) ^ c

    return PsmProtocol(
        n=y_bits,
        randomness_bits=randomness_bits,
        value_alphabet=2,
        message_a=message_a,
        message_b=message_b,
        referee=referee,
        message_bits_a=x_bits + 1,
        message_bits_b=domain,
        construction=f"table_psm({x_bits}x{y_bits})",
        params=(("truth_table_bits", domain),),
    )
