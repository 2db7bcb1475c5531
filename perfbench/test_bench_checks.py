"""The benchmark's output checks reject corrupted outputs and wrong witnesses.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from onefac import agl_orbit_factorization, construct, field_ctx

import checks

# K_4 on GF(3) plus infinity (id 3): the three perfect matchings.
K4 = [[(0, 3), (1, 2)], [(0, 2), (1, 3)], [(0, 1), (2, 3)]]


def test_valid_factorizations_pass():
    assert checks.factorization_errors(2, 1, K4) == []
    assert checks.translation_errors(3, 1, K4) == []
    mf = construct(7, 4)
    assert checks.factorization_errors(mf.n, mf.lam, mf.factors) == []
    assert checks.repeated_factors(mf.factors) > 0


def test_corrupted_factorization_is_rejected():
    swapped = [K4[0], [(0, 2), (1, 3)], [(0, 2), (1, 3)]]
    assert checks.factorization_errors(2, 1, swapped)
    assert checks.factorization_errors(2, 1, [[(0, 1), (1, 2)], K4[1], K4[2]])
    assert checks.factorization_errors(2, 1, K4[:2])
    assert checks.factorization_errors(2, 1, [[(0, 1), (2, 4)], K4[1], K4[2]])
    mf = construct(6, 3)
    broken = list(mf.factors)
    (a, b), (c, d) = broken[0][:2]
    broken[0] = ((a, d), (c, b)) + broken[0][2:]
    assert checks.factorization_errors(mf.n, mf.lam, broken)


def test_field_output_is_translation_closed_and_a_gap_is_seen():
    mf = agl_orbit_factorization(field_ctx(3, 2))
    assert checks.translation_errors(3, 2, mf.factors) == []
    assert checks.repeated_factors(mf.factors) == 0
    assert checks.translation_errors(3, 2, mf.factors[1:])
    assert checks.translation_errors(3, 1, K4[:2])


def test_wrong_witness_is_rejected():
    doubled = [f for f in K4 for _ in range(2)]
    assert checks.witness_errors(2, 2, doubled, 1, [0, 2, 4]) == []
    assert checks.witness_errors(2, 2, doubled, 1, [0, 1, 2])
    assert checks.witness_errors(2, 2, doubled, 1, [0, 0, 4])
    assert checks.witness_errors(2, 2, doubled, 1, [0, 2, 6])
    assert checks.witness_errors(2, 2, doubled, 2, list(range(6)))
    assert checks.witness_errors(2, 2, doubled, 1, [0, 2])
