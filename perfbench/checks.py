"""Output checks made apart from the package, by plain counting on vertex ids.

Nothing here imports `onefac`: a factorization is a list of factors, a
factor a list of (u, v) vertex pairs on the ids 0..2n-1.  Each function
returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations


def factorization_errors(n: int, lam: int, factors) -> list[str]:
    """Every factor is a perfect matching, there are lam(2n-1) of them,
    and every vertex pair is covered exactly lam times."""
    nv = 2 * n
    errors = []
    if len(factors) != lam * (nv - 1):
        errors.append(f"{len(factors)} factors, expected {lam * (nv - 1)}")
    cover = [0] * (nv * nv)
    for i, f in enumerate(factors):
        seen: set[int] = set()
        for u, v in f:
            if u == v or not (0 <= u < nv and 0 <= v < nv) or u in seen or v in seen:
                errors.append(f"factor {i} is not a matching at ({u}, {v})")
                break
            seen.add(u)
            seen.add(v)
            a, b = (u, v) if u < v else (v, u)
            cover[a * nv + b] += 1
        else:
            if len(seen) != nv:
                errors.append(f"factor {i} leaves {nv - len(seen)} vertices uncovered")
    off = sum(1 for u in range(nv) for v in range(u + 1, nv) if cover[u * nv + v] != lam)
    if off:
        errors.append(f"{off} vertex pairs not covered exactly {lam} times")
    return errors


def _key(factor) -> tuple:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in factor))


def repeated_factors(factors) -> int:
    """How many factors equal an earlier one (0 means simple)."""
    return len(factors) - len({_key(f) for f in factors})


def translation_errors(p: int, m: int, factors) -> list[str]:
    """The factor set is closed under x -> x + a on GF(p^m).

    Vertex ids are base-p digit vectors and infinity is q = p^m, which
    every translation fixes.  The translations by the unit vectors p^i
    generate the additive group, so closure under them is closure under
    every translation.
    """
    q = p ** m
    keys = {_key(f) for f in factors}
    errors = []
    for i in range(m):
        shift = [_digit_add(x, p ** i, p, m) for x in range(q)] + [q]
        moved = sum(1 for f in factors
                    if _key([(shift[u], shift[v]) for u, v in f]) not in keys)
        if moved:
            errors.append(f"{moved} factors leave the set under x -> x + {p ** i}")
    return errors


def _digit_add(x: int, a: int, p: int, m: int) -> int:
    out, place = 0, 1
    for _ in range(m):
        out += (x // place % p + a // place % p) % p * place
        place *= p
    return out


def witness_errors(n: int, lam: int, factors, lambda0: int, indices) -> list[str]:
    """The chosen factors form a proper lambda0-subfactorization."""
    if not 0 < lambda0 < lam:
        return [f"lambda0 = {lambda0} is not strictly between 0 and {lam}"]
    if len(set(indices)) != len(indices):
        return ["witness repeats a factor index"]
    if any(not 0 <= i < len(factors) for i in indices):
        return ["witness index out of range"]
    return factorization_errors(n, lambda0, [factors[i] for i in indices])
