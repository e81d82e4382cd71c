"""The prime field F_P, P = PRIME = 2^61 - 1, and remainders in F_P[x].

ModP is the field object of freealg.SpanBasis over ints mod P, beside the
Context that serves Scalars; row_space_compare takes the rank of modular
images on it.  The polynomial helpers decide, for scalars._exquo, whether
a polynomial leaves a nonzero remainder modulo a factor f once every
parameter but one, x, is evaluated at the fixed point (scalars.POINT).  If
f h = g over ZZ then the same holds at the point, so a nonzero remainder of
g mod f in F_P[x] proves that f does not divide g, provided f keeps its
degree in x there: its leading coefficient in x must not vanish at the
point.  A term c x^k is reduced by square-and-multiply, in about log k
products of polynomials of degree below deg_x f.

This module imports nothing from the package, so scalars imports it.
"""

PRIME = 2 ** 61 - 1


class ModP:
    """The field F_P of ints mod PRIME, for SpanBasis over modular images.

    Its elements are ints.  neg and mul reduce, so a stored row holds ints
    in [0, P) and each product that add_terms sums is below P^2; a sum is
    reduced when it is tested for zero or stored.
    """

    one = 1

    @staticmethod
    def is_zero(c):
        return not c % PRIME

    @staticmethod
    def neg(c):
        return -c % PRIME

    @staticmethod
    def mul(a, b):
        return a * b % PRIME

    @staticmethod
    def inv(c):
        return pow(c, -1, PRIME)


def first_monic(candidates):
    """(x, fbar) for the first (x, terms) of candidates whose terms, (k, c)
    pairs standing for the sum of c x^k, make a polynomial of degree d >= 1
    with a leading coefficient nonzero mod PRIME: fbar is its monic list of
    d + 1 coefficients, lowest first.  None when no candidate qualifies."""
    for x, terms in candidates:
        coeffs = {}
        for k, c in terms:
            coeffs[k] = coeffs.get(k, 0) + c
        d = max(coeffs)
        if not d or not coeffs[d] % PRIME:
            continue
        inv = pow(coeffs[d], -1, PRIME)
        return x, [coeffs.get(k, 0) * inv % PRIME for k in range(d + 1)]
    return None


def has_remainder(terms, fbar):
    """Whether the sum of c x^k over the (k, c) pairs of terms is nonzero
    mod fbar, a monic coefficient list of degree at least 1."""
    out = [0] * (len(fbar) - 1)
    powers = {}
    for k, c in terms:
        xk = powers.get(k)
        if xk is None:
            xk = powers[k] = _xpow(k, fbar)
        for j, v in enumerate(xk):
            out[j] += c * v
    return any(v % PRIME for v in out)


def _xpow(k, fbar):
    """x^k mod fbar as its coefficients, lowest first: square-and-multiply
    over the bits of k."""
    d = len(fbar) - 1
    out = [1] + [0] * (d - 1)
    base = _fmod([0, 1], fbar)
    while k:
        if k & 1:
            out = _fmod(_fmul(out, base), fbar)
        k >>= 1
        base = _fmod(_fmul(base, base), fbar)
    return out


def _fmul(a, b):
    """The product of two coefficient lists, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fmod(a, fbar):
    """The coefficient list a, of at least d entries, mod the monic fbar of
    degree d, as d ints in [0, PRIME)."""
    d = len(fbar) - 1
    a = list(a)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % PRIME
        if c:
            for j in range(d):
                a[i - d + j] -= c * fbar[j]
    return [v % PRIME for v in a[:d]]
