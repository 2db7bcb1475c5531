"""The Z_n x Z_2 vertex model: orbit factors, round-robin factorizations, joins.

The 2n vertices split into two sides V_0 = {0..n-1} and V_1 = {n..2n-1};
the vertex a_j has id a + n*j.  The shift group H = Z_n acts by adding h to
the Z_n coordinate on both sides.  Cross edges [a_0, b_1] fall into n orbit
factors M_a (all cross edges of difference a), side edges are covered by
Lucas' round-robin 1-factorization of K_n (even n) or its near-1-factor
variant (odd n), joined across the two sides.

A cross-edge 1-factor is conveniently a permutation pi of Z_n: the factor
{[x_0, pi(x)_1]}.  Its difference profile t[a] = |edges in common with M_a|
= #{x : pi(x) - x = a (mod n)} is the fingerprint all the starter machinery
works with.

Every factor built here is flat and canonical by construction, without
`core.canonicalize_factor` or a sort: a cross factor lists its edges by
x, a (near-)round-robin factor is two blocks of pairs in closed form
(`_fold`), and a joined factor puts its V_0 edges, which all precede its
V_1 edges, first, with the odd join's cross edge where its V_0 end
falls.  Ids are drawn from `core.vertex_ids`, and the factors are built
by slicing, not per edge.
"""

from __future__ import annotations

from .core import OneFactor, vertex_ids


class OddOrder(ValueError):
    """Operation requires an even n."""


class EvenOrder(ValueError):
    """Operation requires an odd n."""


class NotAPermutation(ValueError):
    """Sequence is not a permutation of 0..k-1."""


def m_factor(n: int, a: int) -> OneFactor:
    """The orbit factor M_a = {[x_0, (x+a)_1] : x in Z_n}."""
    assert n >= 2
    a %= n
    ids = vertex_ids(2 * n)
    return _cross(ids[:n], ids[n + a:] + ids[n:n + a])


def cross_factor(pi, n: int) -> OneFactor:
    """The cross-edge factor {[x_0, pi(x)_1]} of a permutation pi of Z_n."""
    _check_permutation(pi, n)
    ids = vertex_ids(2 * n)
    return _cross(ids[:n], [ids[n + y] for y in pi])


def _cross(lo: list[int], hi: list[int]) -> OneFactor:
    """The flat factor lo[0], hi[0], lo[1], hi[1], ... of two ends lists."""
    f = lo + hi
    f[0::2], f[1::2] = lo, hi
    return tuple(f)


def orbit_factors(pi, n: int) -> list[OneFactor]:
    """The n cross factors F + h, h in H, of the permutation pi, in order of h.

    F + h matches x_0 to (pi(x - h) + h)_1, so its V_1 ends are those of
    pi shifted by h and rotated h places.  A factor fixed by a shift
    appears once per stabilizer element.  Raises NotAPermutation.
    """
    _check_permutation(pi, n)
    ids = vertex_ids(2 * n)
    lo, hi = ids[:n], ids[n:] * 2  # hi[y + h] is the id of (y + h)_1
    out = []
    for h in range(n):
        ends = list(map(hi[h:].__getitem__, pi))
        out.append(_cross(lo, ends[n - h:] + ends[:n - h]))
    return out


def profile(pi, n: int) -> dict[int, int]:
    """Difference profile t[a] = |E(F) & E(M_a)| of the cross factor F of pi.

    Only nonzero entries are present in the returned dict.
    """
    _check_permutation(pi, n)
    t: dict[int, int] = {}
    for x in range(n):
        a = (pi[x] - x) % n
        t[a] = t.get(a, 0) + 1
    return t


def h_orbit(pi, n: int) -> list[tuple[int, ...]]:
    """The orbit {pi + h : h in H} of a permutation, deduplicated and sorted.

    The factor F + h has the permutation x -> pi(x - h) + h.  Cross factors
    list their edges by x, so the sorted permutations give the sorted
    factors.  Raises NotAPermutation.
    """
    _check_permutation(pi, n)
    return sorted({tuple((pi[(x - h) % n] + h) % n for x in range(n))
                   for h in range(n)})


def h_stabilizer_order(pi, n: int) -> int:
    """Order of {h : pi + h = pi}: n / h for the least h > 0 in it, a divisor of n.

    Only divisors are tried; a shift that moves pi usually shows it at x = 0.
    """
    for h in range(1, n):
        if n % h == 0 and all((pi[(x + h) % n] - pi[x] - h) % n == 0
                              for x in range(n)):
            return n // h
    return 1


def _fold(mod: int, i: int, ids: list[int]) -> OneFactor:
    """The pairs {i+a, i-a} of Z_mod for a = 1..(mod-1)//2 as a canonical
    flat list, for odd mod; the ids come from `ids`.

    With c = 2i mod `mod`, x is paired with c - x when x < c and with
    c + mod - x when x > c.  So the pairs are (x, c - x) for x below c/2,
    then (x, c + mod - x) for c < x < (c + mod)/2, first endpoints
    ascending in each block; the unpaired vertex i sits between or after
    them: at 2i when 2i < mod, else at the end.
    """
    c = 2 * i % mod
    k, rest = (c + 1) // 2, (mod - 1 - c) // 2
    return (_cross(ids[:k], ids[c:c - k:-1])
            + _cross(ids[c + 1:c + 1 + rest], ids[mod - 1:mod - 1 - rest:-1]))


def lucas_factorization(n: int) -> list[OneFactor]:
    """Round-robin 1-factorization of K_n for even n.

    Vertex set is Z_{n-1} together with a hub encoded as label n-1.
    Factor i pairs the hub with i and folds the remaining labels
    symmetrically around it; every edge of K_n occurs exactly once.
    """
    if n % 2:
        raise OddOrder(f"n={n} must be even")
    assert n >= 2
    ids = vertex_ids(n)
    out = []
    for i in range(n - 1):
        f = list(_fold(n - 1, i, ids))
        at = min(2 * i, n - 2)  # where i sits, as _fold says
        f[at:at] = ids[i], ids[n - 1]
        out.append(tuple(f))
    return out


def near_one_factorization(n: int) -> list[OneFactor]:
    """Near-1-factors of K_n for odd n; factor i leaves vertex i unmatched.

    Factor i folds Z_n around i, as the round robin of K_{n+1} does
    around its hub.  Every edge of K_n occurs in exactly one near-factor.
    """
    if n % 2 == 0:
        raise EvenOrder(f"n={n} must be odd")
    ids = vertex_ids(n)
    return [_fold(n, i, ids) for i in range(n)]


def join_even(n: int) -> list[OneFactor]:
    """The n-1 side factors L_i(V_0) | L_i(V_1).

    Covers every side edge exactly once and no cross edge.
    """
    if n % 2:
        raise OddOrder(f"n={n} must be even")
    hi = vertex_ids(2 * n)[n:]
    return [f + tuple(map(hi.__getitem__, f)) for f in lucas_factorization(n)]


def join_odd(n: int, b: int) -> list[OneFactor]:
    """The n factors L*_i(V_0) | L*_{i+b}(V_1) + [i_0,(i+b)_1].

    Covers every side edge exactly once, every edge of M_b exactly once,
    and no other cross edge.  The cross edge goes where i, unmatched in
    L*_i, sits among its pairs (see `_fold`).
    """
    if n % 2 == 0:
        raise EvenOrder(f"n={n} must be odd")
    near = near_one_factorization(n)
    ids = vertex_ids(2 * n)
    hi = ids[n:]
    out = []
    for i in range(n):
        j = (i + b) % n
        f = list(near[i])
        at = min(2 * i, n - 1)
        f[at:at] = ids[i], hi[j]
        f += map(hi.__getitem__, near[j])
        out.append(tuple(f))
    return out


def _check_permutation(pi, k: int) -> None:
    if len(pi) != k or sorted(pi) != list(range(k)):
        raise NotAPermutation(f"not a permutation of 0..{k - 1}: {tuple(pi)!r}")
