import hashlib
import random
from collections import Counter

import pytest

from onefac import cyclic, docio, families, gf
from onefac.acceptance import A4_PRIME_POWERS
from onefac.core import _decoded, canonicalize_factor, is_simple, validate_factorization, vertex_ids

from edgelists import edges, flat


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


def _stabilizer_order(ctx, f):
    """Number of maps x -> x*v^k + a that send every edge of the flat
    factor f to an edge of f, by this file's field arithmetic.

    Every such map fixes infinity, so it must fix infinity's partner c:
    a = c - c*v^k, one map to test per k.
    """
    q = ctx.q
    fe = set(edges(f))
    c = next(u for u, v in fe if v == q)
    order = 0
    for k in range(q - 1):
        b = ctx.exp[k]
        a = _add(ctx, c, _neg(ctx, _mul(ctx, c, b)))
        images = ((_add(ctx, _mul(ctx, u, b), a), v if v == q else _add(ctx, _mul(ctx, v, b), a))
                  for u, v in fe)
        order += all((u, v) in fe or (v, u) in fe for u, v in images)
    return order


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
    assert gf.base_factor(gf.field_ctx(3, 1)) == flat([(0, 3), (1, 2)])


def test_base_factor_gf5():
    assert gf.base_factor(gf.field_ctx(5, 1)) == flat([(0, 5), (1, 2), (3, 4)])


def test_base_factor_gf9_explicit():
    f = gf.base_factor(gf.field_ctx(3, 2))
    # {[0,inf]} + {[1,2],[1+v,2+v],[1+2v,2+2v]} + {[v,2v]} with ids a0 + 3*a1
    assert f == flat([(0, 9), (1, 2), (3, 6), (4, 5), (7, 8)])


def test_base_factor_layer_sizes_and_differences():
    for p, m in [(3, 2), (5, 2), (3, 3), (7, 1)]:
        ctx = gf.field_ctx(p, m)
        f = edges(gf.base_factor(ctx))
        assert len(f) == (ctx.q + 1) // 2
        powers = {}
        for j in range(m):
            powers[ctx.exp[j]] = j
            powers[_neg(ctx, ctx.exp[j])] = j
        layer_counts = Counter()
        for a, b in f:
            if b == ctx.q:
                continue
            diff = _add(ctx, b, _neg(ctx, a))
            assert diff in powers
            layer_counts[powers[diff]] += 1
        for j in range(m):
            assert layer_counts[j] == p ** (m - j - 1) * (p - 1) // 2


def test_orbit_factorization_gf3_is_k4():
    mf = gf.agl_orbit_factorization(gf.field_ctx(3, 1))
    assert mf.lam == 1 and sorted(map(flat, mf.factors)) == sorted(cyclic.lucas_factorization(4))


def test_orbit_factorization_gf5():
    ctx = gf.field_ctx(5, 1)
    mf = gf.agl_orbit_factorization(ctx)
    assert mf.n == 3 and mf.lam == 2 and len(mf.factors) == 10
    assert validate_factorization(mf).valid
    assert is_simple(mf)[0]
    assert _stabilizer_order(ctx, gf.base_factor(ctx)) == 2


def test_orbit_factorization_gf7():
    mf = gf.agl_orbit_factorization(gf.field_ctx(7, 1))
    assert mf.lam == 3 and len(mf.factors) == 21
    assert validate_factorization(mf).valid and is_simple(mf)[0]


def test_orbit_size_matches_stabilizer():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (7, 2)]:
        ctx = gf.field_ctx(p, m)
        mf = gf.agl_orbit_factorization(ctx)
        q = ctx.q
        assert len(mf.factors) * _stabilizer_order(ctx, gf.base_factor(ctx)) == q * (q - 1)


def _affine_images(ctx, f):
    """The flat factors of all q(q-1) images of the flat canonical factor
    f from the package's kernel, in the reference's order: for each
    translation a, every multiplier.

    The kernel yields each multiplier's q translates, a = 0 first; one
    call per multiplier keeps them apart for the reordering.
    """
    q = ctx.q
    per_b = [list(gf._affine_image_bytes(ctx, f, [k])) for k in range(q - 1)]
    return _decoded(b"".join(per_b[k][a] for a in range(q) for k in range(q - 1)), q + 1)


@pytest.mark.parametrize("p, m", A4_PRIME_POWERS)  # m = 1 and m > 1, q <= 81
def test_halved_orbit_is_the_full_group_orbit(p, m):
    ctx = gf.field_ctx(p, m)
    q = ctx.q
    f = gf.base_factor(ctx)
    negated = sorted(tuple(sorted((_neg(ctx, u) if u < q else u,
                                   _neg(ctx, v) if v < q else v))) for u, v in edges(f))
    assert flat(negated) == f
    mf = gf.agl_orbit_factorization(ctx)
    assert set(map(flat, mf.factors)) == set(_affine_images(ctx, f))
    assert len(mf.factors) == q * (q - 1) // 2


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1),
                                  (19, 1), (23, 1), (5, 2), (3, 3)])
def test_affine_images_are_canonical_by_construction(p, m):
    # _affine_image_bytes sorts the pair keys itself: each of the q(q-1)
    # images must already be the fixed point of the canonical form.
    ctx = gf.field_ctx(p, m)
    images = _affine_images(ctx, gf.base_factor(ctx))
    assert len(images) == ctx.q * (ctx.q - 1)
    assert all(canonicalize_factor(f, ctx.q + 1) == f for f in images)


def _reference_images(ctx, f, ks=None):
    """Every image of the flat factor f under x -> x*v^k + a, a = 0..q-1
    and, for each a, k in ks (by default 0..q-2), built edge by edge with
    this file's field arithmetic: map both endpoints, order the pair, sort
    the edges."""
    q = ctx.q
    for a in range(q):
        for k in range(q - 1) if ks is None else ks:
            vmap = [_add(ctx, _mul(ctx, x, ctx.exp[k]), a) for x in range(q)] + [q]
            image = []
            for u, v in edges(f):
                u, v = vmap[u], vmap[v]
                image.append((u, v) if u < v else (v, u))
            image.sort()
            yield flat(image)


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)])
def test_affine_images_match_the_edgewise_reference(p, m):
    ctx = gf.field_ctx(p, m)
    f = gf.base_factor(ctx)
    assert _affine_images(ctx, f) == list(_reference_images(ctx, f))


@pytest.mark.parametrize("p, m", [(7, 1), (3, 2), (11, 1), (5, 2), (3, 3)])
def test_affine_images_of_random_matchings_match_the_edgewise_reference(p, m):
    # The kernel takes any factor, not only the base factor: three
    # perfect matchings of GF(q) + {infinity} drawn at random.
    ctx = gf.field_ctx(p, m)
    q = ctx.q
    rng = random.Random(q)
    for _ in range(3):
        vertices = list(range(q + 1))
        rng.shuffle(vertices)
        f = canonicalize_factor(vertices, q + 1)
        assert _affine_images(ctx, f) == list(_reference_images(ctx, f))


def test_affine_images_with_two_byte_ids_match_the_edgewise_reference():
    # q = 257 is the first q with 2-byte ids (258 vertices): one multiplier,
    # all 257 translations, decoded onto the shared vertex id objects.
    ctx = gf.field_ctx(257, 1)
    f = gf.base_factor(ctx)
    blobs = list(gf._affine_image_bytes(ctx, f, [0]))
    reference = list(_reference_images(ctx, f, [0]))
    assert blobs == [b"".join(x.to_bytes(2, "big") for x in image) for image in reference]
    images = _decoded(b"".join(blobs), 258)
    assert images == reference
    shared = vertex_ids(258)
    assert all(x is shared[x] for image in images for x in image)


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3)])
def test_sorted_image_bytes_are_the_sorted_edgewise_images_in_format4(p, m):
    # One byte per id below 256 vertices: an image's format 4 bytes are
    # bytes() of its flat canonical factor, so the two sorts must agree.
    ctx = gf.field_ctx(p, m)
    f, ks = gf.base_factor(ctx), range((ctx.q - 1) // 2)
    orbit = sorted(gf._affine_image_bytes(ctx, f, ks))
    assert orbit == sorted(map(bytes, _reference_images(ctx, f, ks)))


def test_orbit_build_refuses_a_base_factor_that_negation_moves(monkeypatch):
    # x -> -x maps (0,1) to (0,4): halving the maps would lose images.
    monkeypatch.setattr(gf, "base_factor", lambda ctx: flat([(0, 1), (2, 3), (4, 5)]))
    with pytest.raises(AssertionError, match="does not fix"):
        gf.agl_orbit_factorization(gf.field_ctx(5, 1))


def test_orbit_build_runs_the_image_kernel_once(monkeypatch):
    # The x -> -x check maps the base factor's own vertices; only the
    # orbit itself goes through the kernel.
    calls = []
    kernel = gf._affine_image_bytes

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(gf, "_affine_image_bytes", counting)
    for p, m in [(3, 1), (5, 1), (3, 2), (7, 1), (3, 3)]:
        calls.clear()
        mf = gf.agl_orbit_factorization(gf.field_ctx(p, m))
        assert len(calls) == 1 and len(mf.runs) == p ** m * (p ** m - 1) // 2, (p, m)


def test_orbit_build_refuses_a_base_factor_with_a_larger_stabilizer(monkeypatch):
    # x -> 2x fixes {0, inf}, {1, 4}, {2, 3} as x -> -x does: the halved
    # maps give each image twice, and a set of them would be no factorization.
    monkeypatch.setattr(gf, "base_factor", lambda ctx: (0, 5, 1, 4, 2, 3))
    ctx = gf.field_ctx(5, 1)
    assert _stabilizer_order(ctx, gf.base_factor(ctx)) == 4
    with pytest.raises(AssertionError, match="image repeats"):
        gf.agl_orbit_factorization(ctx)


def test_base_factor_stabilizer_is_plus_minus_one_below_100():
    qs = [(p, m) for p in range(3, 100) for m in range(1, 5) if gf.is_prime(p) and p ** m < 100]
    assert len(qs) == 29
    for p, m in qs:
        ctx = gf.field_ctx(p, m)
        assert _stabilizer_order(ctx, gf.base_factor(ctx)) == 2, (p, m)


def _format2_text(mf) -> str:
    """The document of mf as format 2 wrote it: each factor as n [u, v] arrays.

    The content pins below hash this rendering, so they keep proving that
    no factorization changed whatever format the package writes.
    """
    return docio.serialize({
        "format": 2,
        "model": dict(mf.model),
        "n": mf.n,
        "lambda": mf.lam,
        "factors": [[[u, v] for u, v in edges(f)] for f, _ in mf.runs],
        "counts": [k for _, k in mf.runs],
    })


def _format3_text(mf) -> str:
    """The document of mf as format 3 wrote it: each factor as one flat
    array of its 2n vertex ids."""
    return docio.serialize({
        "format": 3,
        "model": dict(mf.model),
        "n": mf.n,
        "lambda": mf.lam,
        "factors": [list(f) for f, _ in mf.runs],
        "counts": [k for _, k in mf.runs],
    })


def _digests(mfs) -> tuple[str, str]:
    """sha256 of the format 3 renderings and of the package's (format 4)
    documents of mfs, each concatenated in order."""
    digest3, digest4 = hashlib.sha256(), hashlib.sha256()
    for mf in mfs:
        digest3.update(_format3_text(mf).encode())
        digest4.update(docio.serialize(docio.document_from_mf(mf)).encode())
    return digest3.hexdigest(), digest4.hexdigest()


# sha256 of the format 2 field documents, with m = 1 and m > 1; the
# affine orbit, the modulus and the vertex labelling all enter these bytes.
FIELD_DOCUMENT_SHA256 = {
    (11, 1): "fcdeee79509f21cbc8e3da7ae2720251d42bd3a039f9f438dd58a7103c6779b1",
    (13, 1): "0f6bd74c006da93b4d253644b2a19d99c4bae606dd56ddcb2d5cc17ff1c344af",
    (19, 1): "ee75102e1ca06a135bffc6ac77d41de2666423ac9e12786bced9f47884831ced",
    (23, 1): "1122c60d314daa6db5b84b3721b0f5d047fb6472a3b2ca1caac1e76f65d4ddc5",
    (43, 1): "81448af5ee302bb98a8d2823c8f4a475008559e59da7a82333dfbbef12a5d1ae",
    (3, 2): "7bda0a6ba11393960c67f0231e6d2642faee538db4aebc3db6d9cb7ab54e67ca",
    (5, 2): "d92cfeed85a0627b6183bc5437e49c3f6248344d7c8a302df76397584717cc3b",
    (3, 3): "132e93a557ebb20b19ce56aed496572d89ef6baec835db57d174e55b3d41148d",
    (7, 2): "03ffc545f3626ec2029177a621f491406f56207d264ce77c9c36af14ae2730c4",
    (3, 4): "ac517bb3d0dad457a8190c4273d795880a8490f3ca02fa30cbb4d1beadad2816",
}


@pytest.mark.parametrize("p, m", sorted(FIELD_DOCUMENT_SHA256))
def test_field_document_bytes_pinned(p, m):
    mf = gf.agl_orbit_factorization(gf.field_ctx(p, m))
    text = _format2_text(mf)
    assert hashlib.sha256(text.encode()).hexdigest() == FIELD_DOCUMENT_SHA256[(p, m)]


# sha256 of the format 3 and of the package's (format 4) documents of
# FIELD_DOCUMENT_SHA256, concatenated in key order.
FIELD_DOCUMENTS_FORMAT3_SHA256 = "4647f4678a9f887ecae73611f2747fec83eb14592cf16031252ca6c71602c37c"
FIELD_DOCUMENTS_FORMAT4_SHA256 = "26669f78793857756d95070f88ad0fd571765ba2e96bea8150d80f2e64361b87"


def test_field_documents_format3_bytes_pinned():
    assert _digests(gf.agl_orbit_factorization(gf.field_ctx(p, m))
                    for p, m in sorted(FIELD_DOCUMENT_SHA256)) \
        == (FIELD_DOCUMENTS_FORMAT3_SHA256, FIELD_DOCUMENTS_FORMAT4_SHA256)


# sha256 of the format 2 catalog documents for every lambda served at
# n = 9 and n = 23; the profiles, the realized starters and the orbit
# assembly all enter these bytes.  A realizer that returns other
# permutations changes them.
CATALOG_DOCUMENT_SHA256 = {
    (9, 3): "eee7fe15841af5af2fc842d90ddea864c55ba8115a4de8ed60f0cca558899bb8",
    (9, 4): "e57490e88135fb6e7d4a2cea150def893f0e24f7a7288de415302d63a73648be",
    (9, 5): "86f078491bb2d11d2f5ea8ef5d07d1e22403a6fe7713ad13519c9219f4ddf579",
    (9, 6): "5fa71ba7c34deb637b0e116963c1a61dd2b6dda26ddfb944a41085b46589ebf3",
    (9, 7): "32f29ff1a4900dcd1eb0df0f3cf20b38ca7cd22e25d372e1149f5c10648b2485",
    (9, 8): "d43fecaaf40edee67730dabce4e6e918090b0726925742f9ec181ab7c47a73ce",
    (9, 9): "dd649028fcfac0e674551901b589db8361474a53ded6deaa2c8afaf49e573cd4",
    (9, 10): "fe309d860f72f537a9341529332251cc57764759ef92178bc842a72cd8e4456c",
    (9, 11): "33baba197c6d68d90a8798dd0dab206921c5c22a5933c5aea926ba66813c4480",
    (9, 12): "3a521f303cd7f4d47aaaaa4957d7fedfe7c6354979878180003b03965b818fd2",
    (9, 13): "42878b5cae794c3a212eaef7f43a0a97b600746cee571756c9fb6a118552b9d0",
    (9, 14): "2c94f5372586e4da59d0feb9ef0c2f01857567d4d8a64ed93cfc0a477c7ee223",
    (9, 15): "e9fdd2523394e3a78c576d9260fab2757cc1128ec72e0f2cd649ddcd1fe7d26e",
    (9, 16): "9d586ab1c5c0079effb334189ceb5fe71f6a7bb5b558265ac57e2d7e010de1ec",
    (9, 17): "a9fa4b9bacabad648aab665aac4bb7299cc401ac92df4f09d49e846381de3470",
    (9, 18): "3b5b1b068593a71ba7e50787bf230ab2fe278c18a4b5bcc09b9405ed62cdf8d9",
    (23, 7): "c71fe1f8a43ead4cff0f9d98b20c29fa67065dec4050ac3cf8413ca7134b8111",
    (23, 8): "4dd131829e12736a645ded24ca672884cb7956cf69fa31f7dc069fd8359a132b",
    (23, 9): "8dbc1ac48e07fc881741613d7d71dcd96b2201c9ee9803d79f2b8e2822ec1187",
    (23, 10): "20720e0e72a478034cc8fd520b56a6721d663c938fb3f7d99a24a9cefcea4c96",
    (23, 11): "d81f771e778b47c5cbd0b0e8b5e2a45bc1daea1f7979d47d2b28b63e2b7f2159",
    (23, 12): "17de230a0d1edd1002de1e138dc824ba6f31e44911556624a895fb6e8ea3fb6b",
    (23, 13): "636f198c578530da0f9cd5bc99415184e0406f2c0993f19e8ae62f2f10d7ee80",
    (23, 14): "469d64d3105c68e1661720d1ee414e00167892d62fe95e6f426e14c012c0ce81",
    (23, 15): "2e224a3bde078832fcc819e22271184678fbcf8e33663452b0b0393c0247c4dd",
    (23, 16): "41256cbfb44775b711d257f0721213e31ee1dcf5088c0a457a0ba8bb12ca60b2",
    (23, 17): "33bd901ad38352239c7f9cc8618cd564f8f2bcf10d93446683e21ceb316825f1",
    (23, 18): "9f11508c0563dd613f56ed6caf5e0aa05a749009548076557382b21ed8a53717",
    (23, 19): "d5addd2ffd8b956e083ae89111bb97dd40a8cb56ead54d70aeafb6863d8bd70c",
    (23, 20): "5ecca99cca2c48aec4f96837b9faac28f5ac794378fa11aec8cee678b234d5ed",
    (23, 21): "204310a697713c318d243d6001d72177d94db37861d52a1bd1f2a6a8efb9c645",
    (23, 22): "8fac65d7feec0d6495be5d6fc3e74dbcec6eec191d7cee1840b04c4ac9dfb64a",
    (23, 23): "742655d36056c57433e726b2d2367a41fc447fcd8707cc73b3b99c03388846b7",
    (23, 24): "763a3e929d4f425ca98839398c7c1f42ddbaf7e78725cbaf856b01fcd8170088",
    (23, 25): "b1d1e6f2503eae6c92994189bd139665ba3d04059cc02af0f644f74761f09729",
    (23, 26): "81bfb8ca0e4c1b1930210c442e2223cd5c99d1afe933459b72b2a489def6d272",
    (23, 27): "3bb3534c1ece437be97934b7e3d7ef45a63034aba7abe957142542cd81449cb4",
    (23, 28): "94c701b9b5242297e4bad812708376fa56e9428f9e7f752433926d094774586f",
    (23, 29): "d13491ebffaf72cba34f17d083988bbf0879c0c3cfea939a8ce8f978fb5838ec",
    (23, 30): "e443197288d7cb9e28932826d0b031d94588a7e9fe671d046268353f8bd79e43",
    (23, 31): "e67fa9c0b4dd935cd72dab007ecffd4ee5ba4302ab3af727763db9fccbefef6f",
    (23, 32): "f34fd581964b00eed60bb761d77ae841612c9e8256d425f43fd9e97e6e9198f3",
    (23, 33): "2b1d7c5216a57c8eea9f78660bb184df81e0c6bb8214620e010b96dfeb63cb6d",
    (23, 34): "dbaa78e55bd37b00e4e81ed33718267f57a8de5a7f61914afa89fbc53c280191",
    (23, 35): "d762367a0432d5aaada5d8cb54b1b6c1d0112d23723e05adfecf7724c72c9e56",
    (23, 36): "711b57f60cae68e527caaa0e2665f4784d465c54552f82f9e049234e241e444d",
    (23, 37): "5c96ad256a9c8eefbe50f4c933af3165b360abbaa095cd308c8bb7b84bec6a68",
    (23, 38): "ed1d3dcf455306c6c78cb598dab70ad0ed27b3b34cb198631bb20ffbb851bbbc",
    (23, 39): "6b7769c742d34c5028dc11eb703537ca96c1a4c6f985fdd9e6daa1486796080f",
    (23, 40): "19e9ee2f6a01f5c96ae0d7edf7d1491f5cedbdc78b8c09b18825a160d4ed96c7",
    (23, 41): "f3d04dab62d57c48a35679d4af1caf7214767ce28f4bbb34f9c6f043179b41b4",
    (23, 42): "aa4f8c42bfd0862a4649f93dbaee20bcfb3b31ec8d328c1c23cd2271c0aa19c3",
    (23, 43): "9b181131d100e9f0d1306a47aa4a20dc6444a1fcdf541440d84404a26aa58e18",
    (23, 44): "d4f9254e14d7c50559ac0a8d5cba558b9acefb346685d2c7a286a90b0a4962f4",
    (23, 45): "e6e062eea48725e61ceaff2547cf134183b3e14124ccd1911adca92df411c51c",
    (23, 46): "bce1b6bd788bb384cc065f2cc234478002811b3b1647fdfe4a9e7e9265d85dd0",
}


def test_catalog_pins_cover_every_served_lambda():
    for n in (9, 23):
        pinned = {lam for m, lam in CATALOG_DOCUMENT_SHA256 if m == n}
        assert pinned == set(range(families.lambda_floor(n), 2 * n + 1))


@pytest.mark.parametrize("n, lam", sorted(CATALOG_DOCUMENT_SHA256))
def test_catalog_document_bytes_pinned(n, lam):
    text = _format2_text(families.construct(n, lam))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DOCUMENT_SHA256[(n, lam)]


# sha256 of the format 3 and of the package's (format 4) documents of
# CATALOG_DOCUMENT_SHA256, concatenated in key order.
CATALOG_DOCUMENTS_FORMAT3_SHA256 = "49e5e5fc2c7be0c05f9d248b872034ac2d35d3cfbceb765339ad8e7fb6e59679"
CATALOG_DOCUMENTS_FORMAT4_SHA256 = "35dd9d263994f81382299093ec04db7f8a45208036a29b94970e7a3dbdcc8234"


def test_catalog_documents_format3_bytes_pinned():
    assert _digests(families.construct(n, lam)
                    for n, lam in sorted(CATALOG_DOCUMENT_SHA256)) \
        == (CATALOG_DOCUMENTS_FORMAT3_SHA256, CATALOG_DOCUMENTS_FORMAT4_SHA256)


# sha256 of the documents of every lambda served at n = 23, concatenated
# in lambda order: the strip that the benchmark's strip workload builds.
# The pins hash the format 2 and the format 3 renderings and the package's
# (format 4) bytes.
STRIP_N23_DOCUMENTS_SHA256 = "6847b93b34cc6745975fd49c03de831552752971438c2b967a53c472efd9383e"
STRIP_N23_FORMAT3_SHA256 = "590093e496d4a43bcd0d662937b837d6d68476b499456fbaf340de0e2a6c0f4c"
STRIP_N23_FORMAT4_SHA256 = "1672f0513eb64981e86c17bf70e2351f14d8cd09ff7422622a66f90373b3623b"


def test_strip_n23_documents_pinned_and_read_back_equal():
    # The catalog is built canonical by construction; reading each
    # document back canonicalizes it as outside input and must change nothing.
    digest, digest3, digest4 = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    lams = range(families.lambda_floor(23), 47)
    assert lams[0] == 7
    for lam in lams:
        mf = families.construct(23, lam)
        digest.update(_format2_text(mf).encode())
        digest3.update(_format3_text(mf).encode())
        text = docio.serialize(docio.document_from_mf(mf))
        digest4.update(text.encode())
        assert docio.mf_from_document(docio.parse(text)) == mf, lam
    assert digest.hexdigest() == STRIP_N23_DOCUMENTS_SHA256
    assert digest3.hexdigest() == STRIP_N23_FORMAT3_SHA256
    assert digest4.hexdigest() == STRIP_N23_FORMAT4_SHA256


def test_catalog_document_at_300_300_reads_back_equal():
    # Far past the pinned strips: 1,198 distinct factors carry all 179,700.
    mf = families.construct(300, 300)
    old = _format2_text(mf)
    assert len(old) == 3_468_296
    assert hashlib.sha256(old.encode()).hexdigest() == \
        "9b6de596408f71f930c8420c20ef714d2f2cf7cda2f704156df5d982344cb423"
    flat = _format3_text(mf)
    assert len(flat) == 2_749_496
    assert hashlib.sha256(flat.encode()).hexdigest() == \
        "a8d3e655ba317c539e8a8a2ccf2749e411e27df80ff8f86a36d4e151c19c086a"
    text = docio.serialize(docio.document_from_mf(mf))
    assert len(text) == 2_882_474
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a25dd0fd281763d4e067fd4901751fe4f0811818e4e9bbde31e2fc4cca35dd51"
    doc = docio.parse(text)
    assert len(doc["counts"]) == 1_198 and sum(doc["counts"]) == 179_700
    assert docio.mf_from_document(doc) == mf
