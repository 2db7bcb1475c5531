import hashlib
from collections import Counter

import pytest

from onefac import cyclic, docio, families, gf
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


# sha256 of the serialized catalog documents for every lambda served at
# n = 9 and n = 23; the profiles, the realized starters and the orbit
# assembly all enter these bytes.  A realizer that returns other
# permutations changes them.
CATALOG_DOCUMENT_SHA256 = {
    (9, 3): "c824f5322cfa0bc521f597b89af08aad0d991ef9de7ddcd7ef5f4798182f5aef",
    (9, 4): "6424b88e94876a7efe05e2a57d63301cc44615cac1fcb5207b048cab3da830f2",
    (9, 5): "8bb1054a50a9654ff37d4ae7c4065384419d7d079d86641ed47425f35fdd5841",
    (9, 6): "e7737a46588204d86e9c39f850e0df7ccc0f386ed67ef995ff371ee77454dd74",
    (9, 7): "9781f8a3e1c2c7fd9c072e4f8f61b7a928785b2d710250ca30e9afd7faac94c3",
    (9, 8): "56bfc51b61515e78a657057a643d4bf551d596d183c6417351cb7f3bab08b6bc",
    (9, 9): "12226f4569c9ee75251d5e2dc170232d6bc3c7d746fd43d713dcb07613dfd11e",
    (9, 10): "227dd52c53432fa462bae595335e8af4722335518f46465cb7a3a3501199357d",
    (9, 11): "6032ac15e8e034449f82e4225e3c3570b4419a45397878de799d0b04b2b8e737",
    (9, 12): "917475512aa6b459d1b7dfe022ff252706574a69064e51efec394af4c2db55fe",
    (9, 13): "cd5e807f3c0180cd28544c979ef557ff965d4e1378dbc3bd1445c9000c20b62f",
    (9, 14): "01a1c5f17eeae381046b12220898d95c649ca4cca546f24628dd42a352c3bd2b",
    (9, 15): "1a00b4abbf1cddd80cc9efb1f8a856595f51f7ef388c49b5d882c8cf6a290be3",
    (9, 16): "fe0629c1d19ef32e0f8f77e988769babafb848aa00e30a4660037d9fb7150a8b",
    (9, 17): "bd1e75fea9ed2459577fcabbb5ab42331c5ebe3bcda6ddc0dfb5457662e7e486",
    (9, 18): "ab20861a97cc9f135c80e3d44e8bc6582cdda4724eb4629e926e2a01bf7da803",
    (23, 7): "3f80fd6073d98c7ade63256b809c6bad5fa0c746baba06fdb1f5f11601d25398",
    (23, 8): "71ade897265b5ddd27549f6c9bda89e8145347298f42410910847a04f0bb0281",
    (23, 9): "f44cce78fe82bd3da344ad56ddb40b605dc9fbc707b7152a96aa45650726361a",
    (23, 10): "5bccb6cb2125ebd6855d4a7a090d6c2c014c226efbb81fc509e97d05033b48bd",
    (23, 11): "d70e1802df28831741ee0ef8c0652b75cdc406a48709aa29b9a5dd68b34948d7",
    (23, 12): "914e26514ca5f5d4adbc781dd2cef9ded9f9b685ef6343004441ee0929ad411f",
    (23, 13): "461edcfda96c0f58b4ef4c29f15f1a930eb5ce847f567c0042078b31179dee6f",
    (23, 14): "1920ae7190d14391d0d262f7a48ebea58c73ba7c9ae14b04bc52f3460653a08c",
    (23, 15): "f9cded9efba93ba5e056fb1cc4345ae0ecfe53348714487be323463257c3f010",
    (23, 16): "79903df9670684c52238d2811a2afd32299fe2beada9cd01d63532b1fc563b97",
    (23, 17): "7710cea9fc0f9162ca40770e06683e173dad54b2437599361b2a662b6fdc103b",
    (23, 18): "b31c5ba4cd2ffa86a3d9bcba3beea642e68284019ce2fe03ced057479c796671",
    (23, 19): "e8a4c0baeaa74c7e7decf1a20ab6e2f9134f9b245f381cf8234bd899d88bb0cd",
    (23, 20): "fd9a4c59969fa467223f192f978b349eb75aa60bf2a50f4af8ae5d338c7d1bd4",
    (23, 21): "d18a2402ca958b8b85b190408b39267da84119f55fef587cfece5b348b317e98",
    (23, 22): "189611585125f9737a6c301c8c4e2aa2bcbb271d36474371f0fa9b34b77a7ea5",
    (23, 23): "2c6905da494f754573901fe6f7e5a141660a18c4d1ee93cb6d45a4b53d2fd482",
    (23, 24): "61ebfbda9d574d7aef5da6700d0eea6913e78d9513b010eea2d4cd186ba9310b",
    (23, 25): "c5f2f9da34f4ef4892a6f55c6f930c97d601b5e0aaa64d77938a14b9e020ae36",
    (23, 26): "42dcc9b52c5dfba265c1b4991a9c5e1fdf45f28072f19c3323f1e2116a89cb59",
    (23, 27): "1dcf278c3310ea2876889b697db5d1d65531a5bbcad78a0677605b09e3d04855",
    (23, 28): "3b51d9880f8998b8579a38bc49dc8299b34a9b253cd3a45b61918e3e71a2de45",
    (23, 29): "af80fc9ca911acd5ab3104e211c34026acc4d2348c8062e46e947463ebf0b1e1",
    (23, 30): "d34a7389567a313d9e925336ec8d3641a123e1efbae727a18b9f58cd9bce96ea",
    (23, 31): "1f8c003e2afed6d886b3dc2a6e3b7d6bce2217f430d75ab808b63b8de26733f3",
    (23, 32): "9c95af105085942ea431efb3fc00a2657a1cad52a0c2ca32aa65d376a6aa95d2",
    (23, 33): "92eeb75414a9737d0a3c776da750750e8a3fb374bd1850bc775b6de1129d8b5d",
    (23, 34): "cc008176b5ae5ad2b8af18b52a890ce787945441fb8c78b449cbb32b5529b55b",
    (23, 35): "9b0784f287fb353a7a31fd1bb6255f16ac35646b07842daa0e3b5ed9a069fde6",
    (23, 36): "afe1da46de492057a3d1dc1c56b1412018a96f4ab706161b3cb42da3d6fa9af9",
    (23, 37): "a0cd3876fd43f70c1912482587c5983b62f5498cb3bdb20aa5c949a9acf40c23",
    (23, 38): "e824da0ee43d370010faa12f66b06e1a658b82426406ce0de7f0ba95ce517e55",
    (23, 39): "e2fd584d5eaa397d2d691d61f83f09415ba059b38e913a3285b020a2dad0b382",
    (23, 40): "1eed9ac51f848ea32a938a8f879a785e6e23a93400b1875b53789697f607a6d8",
    (23, 41): "9d240bd689a7a677928e356379810473aab59cc5a5078c264e28a7103ef22723",
    (23, 42): "f59ed4bdd7607dad66e480f0c1ae3dc1f882adf88fdb5a359e1c037cf758c20d",
    (23, 43): "8e29532a74aa0afbd871ff2beada916d16c941b1eaa847bbd4c8d4ce93420dbc",
    (23, 44): "861c258f66d0e71518b8e2bd9c5027b86e1dec756fbf4dde03fe439b72f6f9ed",
    (23, 45): "4654d0f951c07a5c398dae0bf6e1c04750b81c6b2be08f6bc95ae3242d481ae2",
    (23, 46): "c0e537dee477dc70dab81bef629b4d26e87c35a0cc8d7d56253131c37dc24484",
}


def test_catalog_pins_cover_every_served_lambda():
    for n in (9, 23):
        pinned = {lam for m, lam in CATALOG_DOCUMENT_SHA256 if m == n}
        assert pinned == set(range(families.lambda_floor(n), 2 * n + 1))


@pytest.mark.parametrize("n, lam", sorted(CATALOG_DOCUMENT_SHA256))
def test_catalog_document_bytes_pinned(n, lam):
    text = docio.serialize(docio.document_from_mf(families.construct(n, lam)))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DOCUMENT_SHA256[(n, lam)]
