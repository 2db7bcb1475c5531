"""GF(p^m) on vertex ids, and the affine-orbit factorization of (n-1)K_2n.

A field element is its vertex id 0..q-1 with q = p^m: the id
sum(a_i * p^i) stands for sum(a_i * v^i), where v is the residue class of
x modulo a monic primitive polynomial.  Addition is digitwise mod p;
multiplication goes through the table exp[k] = v^k (k = 0..q-2) and its
inverse log.  The vertex set of the factorization is GF(p^m) plus one
extra vertex "infinity" with id q.  The affine maps x -> x*b + a (b != 0)
fix infinity and act on edges and factors vertexwise.  x -> -x fixes the
base factor, so the orbit runs over AGL(1, q)/{+-1} and each of its
q(q-1)/2 factors is built once; the build checks that x -> -x fixes the
base factor, by mapping its own vertices, and that no image repeats,
which together prove its stabilizer is {x, -x}.

The orbit is built on the dense pair ids of `core.pair_rows`: an image is
the sorted list of its edges' ids.  A translation keeps the difference of
an edge's ends, so for each multiplier b one table per difference d, of
the ids of {y, y + d}, gives an edge's ids under all q translations in
one C call, and the q images of b*F are these columns zipped; no edge
tuples are made.  Id order is pair order, so the sorted ids are the
canonical factor.  The images are turned into flat factors by two slice
assignments from the endpoint tables of the ids, and all of them share
one int object per vertex.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from operator import eq, itemgetter

from .core import (MultiFactorization, OneFactor, Record, canonicalize_factor, pair_rows,
                   vertex_ids)


class NotPrime(ValueError):
    """p must be prime."""


class EvenP(ValueError):
    """p must be odd (the base-factor pairing needs (p-1)/2 integral)."""


class BadDegree(ValueError):
    """m must be >= 1."""


class FieldCtx(Record):
    """Odd prime p, degree m, monic primitive modulus and its power tables.

    `modulus` stores the m+1 coefficients constant-term first; the residue
    class v of x generates the multiplicative group.  `exp[k]` is the id
    of v^k for k = 0..q-2 and `log` is its inverse on the ids 1..q-1
    (`log[0]` is None).  Immutable; the tables follow from (p, m, modulus),
    so equality, hashing and repr leave them out.
    """

    _key = ("p", "m", "modulus")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...],
                 exp: tuple[int, ...], log: tuple[int | None, ...]):
        vars(self).update(p=p, m=m, modulus=modulus, exp=exp, log=log)

    @property
    def q(self) -> int:
        return self.p ** self.m


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def field_ctx(p: int, m: int) -> FieldCtx:
    """Deterministic context: the smallest monic primitive modulus.

    For m = 1 the candidates are x - g for g = 2, 3, ...; for m >= 2 they
    are the monic polynomials ordered by their coefficient vectors
    (c_{m-1}, ..., c_0) ascending.  The first candidate whose powers of x
    first return to 1 at exactly q - 1 wins, and that walk is `exp`.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p == 2:
        raise EvenP("p must be an odd prime")
    if m < 1:
        raise BadDegree(f"m = {m}: the extension degree must be >= 1")
    if m == 1:
        candidates = (((-g) % p, 1) for g in range(2, p))
    else:
        candidates = (tuple(reversed(vec)) + (1,) for vec in product(range(p), repeat=m))
    for modulus in candidates:
        exp = _powers_of_x(p, m, modulus)
        if exp is not None:
            log: list[int | None] = [None] * p ** m
            for k, x in enumerate(exp):
                log[x] = k
            return FieldCtx(p, m, modulus, exp, tuple(log))
    raise AssertionError("no primitive polynomial found")  # unreachable


def _powers_of_x(p: int, m: int, modulus: tuple[int, ...]) -> tuple[int, ...] | None:
    """Ids of x^0, x^1, ... modulo `modulus` if x has order p^m - 1, else None.

    Multiplying by x moves every digit one place up; the top digit folds
    back through x^m = sum(fold[i] * x^i).
    """
    q = p ** m
    places = [p ** i for i in range(m)]
    fold = [(-c) % p for c in modulus[:m]]
    powers = [1]
    while len(powers) < q:
        top, rest = divmod(powers[-1], places[-1])
        x = sum((rest * p // w + top * c) % p * w for c, w in zip(fold, places))
        if x == 1:
            return tuple(powers) if len(powers) == q - 1 else None
        powers.append(x)
    return None


def base_factor(ctx: FieldCtx) -> OneFactor:
    """The base 1-factor: [0, infinity] plus layered consecutive pairs.

    Layer j pairs (2i-1)v^j + tail with (2i)v^j + tail for 1 <= i <=
    (p-1)/2 and every tail t*p^(j+1) above digit j, so layer j contributes
    p^(m-j-1)*(p-1)/2 edges with difference set {+-v^j}.
    """
    p, m, q = ctx.p, ctx.m, ctx.q
    edges = [(0, q)]
    for j in range(m):
        for i in range(1, (p - 1) // 2 + 1):
            for t in range(p ** (m - 1 - j)):
                tail = t * p ** (j + 1)
                edges.append(((2 * i - 1) * p ** j + tail, 2 * i * p ** j + tail))
    return canonicalize_factor(edges, q + 1)


def _scaling(ctx: FieldCtx, log_b: int) -> list[int]:
    """The vertex map x -> x * v^log_b on ids 0..q; it fixes 0 and infinity."""
    q, exp, log = ctx.q, ctx.exp, ctx.log
    return [0] + [exp[(log[x] + log_b) % (q - 1)] for x in range(1, q)] + [q]


def _translations(p: int, m: int) -> list[list[int]]:
    """table[a][x] is the id of x + a, for ids a, x in 0..p^m - 1.

    Built one digit at a time, lowest first: on ids below w = p^j the
    table is known, and the digit of weight w adds mod p on its own.
    """
    table = [[0]]
    for w in (p ** j for j in range(m)):
        table = [[s + (d + e) % p * w for e in range(p) for s in low]
                 for d in range(p) for low in table]
    return table


def _pair_tables(nv: int) -> tuple[list[int], list[int]]:
    """The pair with dense id i is (lo[i], hi[i]), lo[i] < hi[i].

    Ids follow `pair_rows`, so their order is the lexicographic pair order.
    The endpoints are the objects of `vertex_ids`.
    """
    ids = vertex_ids(nv)
    lo = list(chain.from_iterable(repeat(u, nv - 1 - i) for i, u in enumerate(ids)))
    hi = list(chain.from_iterable(ids[i + 1:] for i in range(nv)))
    return lo, hi


def _flat_factor(ids, lo: list[int], hi: list[int]) -> OneFactor:
    """The flat factor of a sorted list of at least two pair ids.

    Two slice assignments from the endpoint tables, each read in C by one
    itemgetter (which would return a bare int for a single id).
    """
    get = itemgetter(*ids)
    f = [0] * (2 * len(ids))
    f[0::2], f[1::2] = get(lo), get(hi)
    return tuple(f)


def _affine_image_ids(ctx: FieldCtx, f: OneFactor, log_bs):
    """The image of the flat canonical factor f under x -> x*b + a for every
    b = v^k with k in `log_bs` and, for each b, every a (a = 0 first), as a
    sorted list of pair ids.

    The one image kernel.  A translation by a moves the edge {x, x + d}
    to {x + a, x + a + d}, so with along[d][y] the id of {y, y + d}
    (along[q][y] that of {y, infinity}) the ids of an edge {u, u + d} of
    b*f under all q translations are along[d] read at u + a for every a:
    one itemgetter call in C per edge.  Zipping these columns gives the q
    translates of b*f, and each one, sorted, is its canonical form.
    """
    q = ctx.q
    row = pair_rows(q + 1)
    shifts = _translations(ctx.p, ctx.m)  # shifts[x][a] = x + a: rows are columns
    along = [[row[y] + z if y < z else row[z] + y for y, z in enumerate(zs)]
             for zs in shifts]  # along[0] unused
    along.append([row[y] + q for y in range(q)])
    at = [itemgetter(*zs) for zs in shifts]
    neg = _scaling(ctx, (q - 1) // 2)  # x -> x * v^((q-1)/2) = -x
    us = f[0::2]
    ds = [shifts[neg[u]][v] if v < q else q for u, v in zip(us, f[1::2])]  # v - u
    for log_b in log_bs:
        scale = _scaling(ctx, log_b)  # fixes 0 and infinity, so d = q stays q
        yield from map(sorted, zip(*[at[scale[u]](along[scale[d]]) for u, d in zip(us, ds)]))


def agl_orbit_factorization(ctx: FieldCtx) -> MultiFactorization:
    """Orbit of the base factor F under AGL(1, q), each factor built once.

    x -> -x fixes F, so the maps x*b + a and x*(-b) + a give the same
    image, and the orbit is built over AGL(1, q)/{+-1}: the multipliers
    b = v^k for k = 0..(q-3)/2 (one of each pair +-b, as -1 = v^((q-1)/2))
    with all q translations, q(q-1)/2 kept maps.  Every call checks that
    x -> -x fixes F, by mapping F's own vertices and canonicalizing the
    result, and that no two kept images are equal, and raises
    otherwise.  Together the two checks prove that Stab(F) = {+-1}: if
    |Stab(F)| = 2k > 2, each coset g*Stab(F) is k cosets of {+-1}, each
    holding one kept map, so k kept maps give the same image g(F).
    Returns the orbit as a simple factorization of lambda*K_2n with
    2n = q + 1 and lambda = (q-1)/2.
    """
    q = ctx.q
    half = (q - 1) // 2
    lo, hi = _pair_tables(q + 1)
    f = base_factor(ctx)
    neg = _scaling(ctx, half)  # x -> -x
    if canonicalize_factor([neg[x] for x in f], q + 1) != f:
        raise AssertionError(f"x -> -x does not fix the base factor of GF({q})")
    orbit = sorted(_affine_image_ids(ctx, f, range(half)))
    if any(map(eq, orbit, orbit[1:])):
        raise AssertionError(f"an image repeats in the orbit of GF({q})")
    model = {"tag": "field", "p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus)}
    # Id order is pair order, so the sorted id lists are the sorted factors,
    # each already canonical.
    return MultiFactorization((q + 1) // 2, half, tuple(
        (_flat_factor(ids, lo, hi), 1) for ids in orbit), model)
