import hashlib
from collections import Counter

import pytest

from onefac import cyclic, docio, gf
from onefac.core import is_simple, validate_factorization


def _add(ctx, a, b):
    """Digitwise sum of two ids mod p."""
    out, place = 0, 1
    for _ in range(ctx.m):
        out += (a // place % ctx.p + b // place % ctx.p) % ctx.p * place
        place *= ctx.p
    return out


def _neg(ctx, a):
    out, place = 0, 1
    for _ in range(ctx.m):
        out += (-(a // place)) % ctx.p * place
        place *= ctx.p
    return out


def _times_v(ctx, a):
    """a * x folded by the monic modulus, on the digits of the id a."""
    digits = [a // ctx.p ** i % ctx.p for i in range(ctx.m)]
    top = digits[-1]
    shifted = [0] + digits[:-1]
    return sum((d - top * c) % ctx.p * ctx.p ** i
               for i, (d, c) in enumerate(zip(shifted, ctx.modulus)))


def _mul(ctx, a, b):
    """Product of two ids through the exp/log tables."""
    if a == 0 or b == 0:
        return 0
    return ctx.exp[(ctx.log[a] + ctx.log[b]) % (ctx.q - 1)]


def test_field_ctx_gf3():
    ctx = gf.field_ctx(3, 1)
    assert ctx.modulus == (1, 1)  # x + 1 = x - 2
    assert ctx.exp == (1, 2)


def test_field_ctx_gf9_skips_non_primitive_irreducible():
    ctx = gf.field_ctx(3, 2)
    # x^2 + 1 is irreducible but its root has order 4; x^2 + x + 2 is primitive
    assert ctx.modulus == (2, 1, 1)


def test_field_ctx_gf5_smallest_primitive_root():
    ctx = gf.field_ctx(5, 1)
    assert ctx.exp[1] == 2
    assert ctx.modulus == (3, 1)  # x - 2


def test_field_ctx_rejects_bad_p():
    with pytest.raises(gf.NotPrime):
        gf.field_ctx(9, 1)
    with pytest.raises(gf.EvenP):
        gf.field_ctx(2, 3)


@pytest.mark.parametrize("m", [0, -1])
def test_field_ctx_rejects_bad_degree(m):
    with pytest.raises(gf.BadDegree):
        gf.field_ctx(3, m)


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_exp_is_bijection_onto_nonzero(p, m):
    ctx = gf.field_ctx(p, m)
    assert sorted(ctx.exp) == list(range(1, ctx.q))
    assert ctx.log[0] is None
    assert all(ctx.log[x] == k for k, x in enumerate(ctx.exp))


def test_generator_order_is_group_order():
    # v is the class of x, so v^(k+1) is v^k times x reduced by the modulus,
    # computed here on digits without the exp/log tables.
    for p, m in [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]:
        ctx = gf.field_ctx(p, m)
        seen = []
        acc = 1
        for _ in range(ctx.q - 1):
            seen.append(acc)
            acc = _times_v(ctx, acc)
        assert acc == 1
        assert len(set(seen)) == ctx.q - 1
        assert tuple(seen) == ctx.exp


def test_arith_gf9_v_squared():
    ctx = gf.field_ctx(3, 2)
    assert ctx.exp[1] == 3  # v has digits (0, 1)
    assert ctx.exp[2] == 7  # v^2 = 2v + 1


def test_arith_negation_and_inverse():
    ctx5 = gf.field_ctx(5, 1)
    assert ctx5.exp[-ctx5.log[2] % 4] == 3  # 2^-1 = 3 in GF(5)
    for p, m in [(5, 1), (3, 2), (3, 3)]:
        ctx = gf.field_ctx(p, m)
        for x in range(ctx.q):
            assert _add(ctx, x, _neg(ctx, x)) == 0
            if x:
                inverse = ctx.exp[-ctx.log[x] % (ctx.q - 1)]
                assert _mul(ctx, x, inverse) == 1


def test_elem_int_roundtrip():
    ctx = gf.field_ctx(3, 3)
    for value in range(27):
        assert _neg(ctx, _neg(ctx, value)) == value
        if value:
            assert ctx.exp[ctx.log[value]] == value


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3)])
def test_table_multiplication_distributes_over_addition(p, m):
    ctx = gf.field_ctx(p, m)
    q = ctx.q
    for a in range(q):
        for b in range(q):
            ab = _mul(ctx, a, b)
            for c in range(q):
                assert _mul(ctx, a, _add(ctx, b, c)) == _add(ctx, ab, _mul(ctx, a, c))


def test_base_factor_gf3():
    assert gf.base_factor(gf.field_ctx(3, 1)) == ((0, 3), (1, 2))


def test_base_factor_gf5():
    assert gf.base_factor(gf.field_ctx(5, 1)) == ((0, 5), (1, 2), (3, 4))


def test_base_factor_gf9_explicit():
    f = gf.base_factor(gf.field_ctx(3, 2))
    # {[0,inf]} + {[1,2],[1+v,2+v],[1+2v,2+2v]} + {[v,2v]} with ids a0 + 3*a1
    assert f == ((0, 9), (1, 2), (3, 6), (4, 5), (7, 8))


def test_base_factor_layer_sizes_and_differences():
    for p, m in [(3, 2), (5, 2), (3, 3), (7, 1)]:
        ctx = gf.field_ctx(p, m)
        f = gf.base_factor(ctx)
        assert len(f) == (ctx.q + 1) // 2
        powers = {}
        for j in range(m):
            powers[ctx.exp[j]] = j
            powers[_neg(ctx, ctx.exp[j])] = j
        layer_counts = Counter()
        for a, b in f:
            if b == gf.infinity_id(ctx):
                continue
            diff = _add(ctx, b, _neg(ctx, a))
            assert diff in powers
            layer_counts[powers[diff]] += 1
        for j in range(m):
            assert layer_counts[j] == p ** (m - j - 1) * (p - 1) // 2


def test_orbit_factorization_gf3_is_k4():
    mf = gf.agl_orbit_factorization(gf.field_ctx(3, 1))
    assert mf.lam == 1 and sorted(mf.factors) == sorted(cyclic.lucas_factorization(4))


def test_orbit_factorization_gf5():
    ctx = gf.field_ctx(5, 1)
    mf = gf.agl_orbit_factorization(ctx)
    assert mf.n == 3 and mf.lam == 2 and len(mf.factors) == 10
    assert validate_factorization(mf).valid
    assert is_simple(mf)[0]
    assert gf.base_factor_stabilizer_order(ctx) == 2


def test_orbit_factorization_gf7():
    mf = gf.agl_orbit_factorization(gf.field_ctx(7, 1))
    assert mf.lam == 3 and len(mf.factors) == 21
    assert validate_factorization(mf).valid and is_simple(mf)[0]


def test_orbit_size_matches_stabilizer():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (7, 2)]:
        ctx = gf.field_ctx(p, m)
        mf = gf.agl_orbit_factorization(ctx)
        q = ctx.q
        assert len(mf.factors) * gf.base_factor_stabilizer_order(ctx) == q * (q - 1)


# sha256 of the serialized field documents with m > 1; the affine orbit,
# the modulus and the vertex labelling all enter these bytes.
FIELD_DOCUMENT_SHA256 = {
    (3, 2): "ad92bf6add16739e3fb72f6e8269af0b457da776c6aae8165c834a774ce99258",
    (5, 2): "ffd75587fa19d3182f89b28a7411ec3930579b2bcdef4ae1e8042005e4587729",
    (3, 3): "ad84ec1656690a1426f9bb81b7136b60ad6576f6f70f91ce0dd51777de16db85",
    (7, 2): "208eb0506fbe7fd1ab76267d04ec901d13243b1212b277a0f5f927975cb52e3c",
    (3, 4): "248de5aba4abbb19d4dce956fa61e77afd20f14bb4e692e3b12db7dc37f829c1",
}


@pytest.mark.parametrize("p, m", sorted(FIELD_DOCUMENT_SHA256))
def test_field_document_bytes_pinned(p, m):
    mf = gf.agl_orbit_factorization(gf.field_ctx(p, m))
    text = docio.serialize(docio.document_from_mf(mf))
    assert hashlib.sha256(text.encode()).hexdigest() == FIELD_DOCUMENT_SHA256[(p, m)]
