"""Witnesses are built and checked on the runs: no path of the package
reads `MultiFactorization.factors`, the view of every copy as edge pairs.

Kept apart from tests/test_verify.py, whose autouse differential fixture
reads that view itself.
"""

import json

from onefac import cli, cyclic, docio, families, starters, verify
from onefac.core import MultiFactorization
from onefac.starters import StarterSet


def _copies_view(mf):
    raise AssertionError("read MultiFactorization.factors")


def test_witnesses_never_read_the_flat_view(monkeypatch, tmp_path, capsys):
    doubled = MultiFactorization.make(2, 2, cyclic.lucas_factorization(4) * 2)
    union = MultiFactorization.make(
        8, 9, families.construct(8, 4).factors + families.construct(8, 5).factors)
    path = tmp_path / "doubled.json"
    docio.write_mf(doubled, path)
    monkeypatch.setattr(MultiFactorization, "factors", property(_copies_view))

    found = [(mf, verify.find_subfactorization(mf)) for mf in (doubled, union)]
    assert [res.outcome for _, res in found] == [verify.FOUND] * 2
    witnesses = [(mf, res.witness) for mf, res in found]
    for n, lam, profile in [(6, 4, {0: 2, 1: 1, 2: 1, 4: 1, 5: 1}),
                            (5, 3, {2: 2, 3: 1, 4: 2})]:
        s = StarterSet.from_profiles(n, lam, [profile])
        witnesses.append((starters.assemble(s), verify.certificate_witness(s)))
    for mf, w in witnesses:
        past_end = sum(k for _, k in mf.runs)
        assert verify.decomposability_witness_check(mf, w)
        for broken in (verify.Witness(w.lambda0, w.indices[:-1]),
                       verify.Witness(w.lambda0, w.indices[:-1] + (past_end,)),
                       verify.Witness(w.lambda0, w.indices[:-1] + w.indices[-2:-1]),
                       verify.Witness(mf.lam, w.indices)):
            assert not verify.decomposability_witness_check(mf, broken), broken

    assert cli.main(["verify", str(path), "--checks", "indecomposable"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witness"] == {"indices": [0, 2, 4], "lambda0": 1}
