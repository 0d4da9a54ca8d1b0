"""The unit contract at every entry, and the regulator under a change of
unit basis.

Every computation that takes units (the domain build, the regulator sign,
the regulator identity and the CLI commands on top of them) checks them
with NumberField.check_units before computing a single log, so an input
outside the contract fails with the same typed error everywhere.  The
signed domain exists for any set of fundamental units, so replacing the
units eps by eps^A, unit i being prod_j eps_j^(A[i][j]), multiplies the
signed regulator by det A.
"""

import json
import random

import pytest

from shintani.cli import main
from shintani.domain import build_signed_domain, verify_net_counts
from shintani.dyadic import START_PREC
from shintani.errors import DependentUnits, NotAUnit, NotTotallyPositive
from shintani.exactlinalg import mat_det
from shintani.field import NumberField

from fixtures import cubic_81, quartic_725

# unit sets on Q(sqrt2) outside the contract, and the error each must raise
BAD_UNITS = {
    "no-units": ([], DependentUnits),
    "two-units": ([["3", "2"], ["3", "2"]], DependentUnits),
    "not-a-unit": ([["2", "0"]], NotAUnit),
    "not-totally-positive": ([["1", "1"]], NotTotallyPositive),   # 1 + sqrt2
    "zero": ([["0", "0"]], NotAUnit),
}
ENTRIES = {
    "build_signed_domain": lambda fld, units: build_signed_domain(units, fld),
    "signed_regulator_sign": lambda fld, units: fld.signed_regulator_sign(units),
    "check_regulator_identity": lambda fld, units: fld.check_regulator_identity(units),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("name", sorted(BAD_UNITS))
def test_unit_contract_at_every_library_entry(name, entry, monkeypatch):
    coords, error = BAD_UNITS[name]
    fld = NumberField([-2, 0, 1])
    units = [fld.element(u) for u in coords]
    # the contract is decided before any log, at the starting precision
    precs = []
    embed_iv = NumberField.embed_iv

    def recording_embed_iv(self, elem, prec):
        precs.append(prec)
        return embed_iv(self, elem, prec)

    def no_logs(self, units, prec):
        raise AssertionError("unit logs computed before the unit check")

    monkeypatch.setattr(NumberField, "embed_iv", recording_embed_iv)
    monkeypatch.setattr(NumberField, "unit_logs", no_logs)
    with pytest.raises(error):
        ENTRIES[entry](fld, units)
    assert max(precs, default=START_PREC) == START_PREC


@pytest.mark.parametrize("cmd", ["cones", "verify", "regcheck"])
@pytest.mark.parametrize("name", sorted(BAD_UNITS))
def test_unit_contract_at_every_command(tmp_path, capsys, name, cmd):
    coords, error = BAD_UNITS[name]
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": {"poly": [-2, 0, 1], "units": coords},
                               "samples": 3, "seed": 1}))
    code = main([cmd, "--job", str(job)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"] == error.__name__


def _random_matrices(r, count, seed):
    rng = random.Random(seed)
    return [[[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            for _ in range(count)]


def _power_units(fld, units, a):
    """eps^A: unit i is prod_j eps_j^(A[i][j])."""
    out = []
    for row in a:
        acc = fld.one
        for u, e in zip(units, row):
            acc = acc * u ** e
        out.append(acc)
    return out


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("make", [cubic_81, quartic_725], ids=["cubic_81", "quartic_725"])
def test_regulator_sign_under_a_change_of_unit_basis(make):
    fld, units = make()
    base = fld.signed_regulator_sign(units)
    assert base in (-1, 1)
    mats = _random_matrices(len(units), 10, seed=2)
    assert any(mat_det(a) == 0 for a in mats)      # the seed draws a singular A
    for a in mats:
        new = _power_units(fld, units, a)
        # singular A: the regulator sign refuses the dependent units, and
        # so does the identity, which would read 0 = n 0
        if mat_det(a) == 0:
            with pytest.raises(DependentUnits):
                fld.signed_regulator_sign(new)
            with pytest.raises(DependentUnits):
                fld.check_regulator_identity(new)
        else:
            assert fld.signed_regulator_sign(new) == _sign(mat_det(a)) * base
            assert fld.check_regulator_identity(new)


@pytest.mark.parametrize("a", [[[2, 1], [1, 1]], [[1, -2], [0, -1]]],
                         ids=["det+1", "det-1"])
def test_unimodular_unit_basis_verifies(a):
    fld, units = cubic_81()
    new = _power_units(fld, units, a)
    dom = build_signed_domain(new, fld)
    assert dom.reg_sign == mat_det(a) * fld.signed_regulator_sign(units)
    assert verify_net_counts(dom, 20, seed=12)["ok"]


def test_verify_certifies_each_unit_log_once(tmp_path, capsys, monkeypatch):
    # the regulator sign and the domain's log lattice read the same rows:
    # n (n - 1) logs at 64 bits for the quartic, not twice that
    from shintani import field
    from fixtures import field_to_json

    calls = []
    log_iv = field.log_iv
    monkeypatch.setattr(field, "log_iv", lambda iv, prec: calls.append(prec) or log_iv(iv, prec))
    fld, units = quartic_725()
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"field": field_to_json(fld, units), "samples": 5}))
    assert main(["verify", "--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["net_count_ok"]
    assert calls == [START_PREC] * 12
