import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amlat.cli import main
from amlat.lattices import IdealLattice, verify_arakelov_modular
from amlat.orders import TwoSidedIdeal, ZLat4, order_from_basis
from amlat.quaternion import QuaternionAlgebra
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_case2(capsys):
    code, out, _ = run(capsys, "classify", "--ell", "7")
    assert code == 0
    data = json.loads(out)
    assert (data["a"], data["b"], data["case"], data["q"]) == (-1, -7, 2, None)


def test_classify_case4(capsys):
    code, out, _ = run(capsys, "classify", "--ell", "17")
    assert code == 0
    data = json.loads(out)
    assert (data["a"], data["b"], data["case"], data["q"]) == (-3, -17, 4, 3)


def test_classify_square_exits_2(capsys):
    code, out, err = run(capsys, "classify", "--ell", "4")
    assert code == 2
    assert "square" in err


def test_classify_bad_input_exits_1(capsys):
    code, _, _ = run(capsys, "classify", "--ell", "1")
    assert code == 1


def test_construct_record(capsys):
    code, out, _ = run(capsys, "construct", "--ell", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["det"] == "4"
    assert rec["min"] == "2"
    assert rec["kissing"] == 24
    assert rec["even"] is True
    assert rec["certificate"]["valid"] is True
    assert rec["certificate"]["checks"] == {
        "beta_in_order": True,
        "beta_in_normalizer": True,
        "nrd_beta_eq_ell": True,
        "dual_identity": True,
        "similitude_identity": True,
    }


def test_construct_27(capsys):
    code, out, _ = run(capsys, "construct", "--ell", "27")
    assert code == 0
    rec = json.loads(out)
    assert rec["det"] == "729"
    assert rec["min"] == "6"


def test_construct_no_plan(capsys):
    code, _, err = run(capsys, "construct", "--ell", "4")
    assert code == 2
    assert "square" in err


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_process(*args):
    """Run a Python command line in a fresh process; fail after 60 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


def test_construct_15015_does_not_hang():
    proc = run_process("-m", "amlat.cli", "construct", "--ell", "15015")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certificate"]["valid"] is True


def test_classify_15015_reports_pizer_q():
    proc = run_process("-m", "amlat.cli", "classify", "--ell", "15015")
    assert proc.returncode == 0, proc.stderr
    assert '"case": null' in proc.stdout
    data = json.loads(proc.stdout)
    assert (data["a"], data["b"], data["q"]) == (-67, -15015, 67)


def test_plan_level_large_three_prime_level_returns():
    # 300000000007 = 61 * 277 * 17754631
    code = "from amlat.classify import plan_level; print(plan_level(300000000007).q)"
    proc = run_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "139"


def test_classify_19_digit_prime_returns():
    proc = run_process("-m", "amlat.cli", "classify", "--ell", "1000000000000000003")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["case"], data["a"]) == (2, -1)


def test_construct_19_digit_prime_returns():
    proc = run_process("-m", "amlat.cli", "construct", "--ell", "1000000000000000003")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certificate"]["valid"] is True


def test_hilbert_19_digit_prime_returns():
    proc = run_process(
        "-m", "amlat.cli", "hilbert", "--a", "-1", "--b", "-1000000000000000003"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["product"] == 1


def test_classify_above_primality_cap_exits_1():
    # the least prime above psi_13 = 3317044064679887385961981
    proc = run_process(
        "-m", "amlat.cli", "classify", "--ell", "3317044064679887385962123"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "primality cap 3317044064679887385961981" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_classify_beyond_rho_budget_exits_1():
    # 10**103 + 7 = 131 · c, c a 101-digit composite that rho cannot split
    # within its step budget (about 3 s at this size, each step counted 4 times)
    proc = run_process("-m", "amlat.cli", "classify", "--ell", str(10**103 + 7))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "budget of 10000000 steps" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_classify_1000_digits_exits_1_within_a_minute():
    # rho's budget is charged by cost, so a 1001-digit composite cofactor
    # (each step counted 100 times) is refused in seconds, not hours
    proc = run_process("-m", "amlat.cli", "classify", "--ell", str(10**1000 + 7))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "budget of 10000000 steps" in proc.stderr
    assert "counted 100 times" in proc.stderr
    assert "Traceback" not in proc.stderr


def _non_utf8_file(tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_bytes(b"\xff2 0 0 1\n0 2 0 1\n0 0 2 1\n1 1 1 2\n")
    return str(path)


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--gram", ["min"]),
        ("--order", ["verify", "--algebra", "-1,-1", "--beta", "0,1,-1,0", "--ell", "2"]),
        (
            "--ideal",
            ["verify", "--algebra", "-1,-1", "--order", "hurwitz",
             "--beta", "0,1,-1,0", "--ell", "2"],
        ),
    ],
)
def test_non_utf8_matrix_file_exits_1(tmp_path, flag, argv):
    proc = run_process("-m", "amlat.cli", *argv, flag, _non_utf8_file(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error in {flag}: cannot read ")
    assert "Traceback" not in proc.stderr


def test_construct_json_into_missing_directory_exits_1(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_process("-m", "amlat.cli", "construct", "--ell", "27", "--json", str(target))
    assert proc.returncode == 1
    assert f"error in --json: cannot write {target}" in proc.stderr
    assert "Traceback" not in proc.stderr
    plain = run_process("-m", "amlat.cli", "construct", "--ell", "27")
    assert plain.returncode == 0
    assert proc.stdout == plain.stdout
    assert not target.parent.exists()


def test_construct_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "construct", "--ell", "3", "--json", str(path))
    assert code == 0
    rec = json.loads(out)
    on_disk = json.loads(path.read_text())
    assert rec == on_disk
    # rebuild the lattice from the record and re-verify the certificate
    alg = QuaternionAlgebra(rec["a"], rec["b"])
    order = order_from_basis(
        alg, [[Fraction(x) for x in row] for row in rec["order_basis"]]
    )
    ilat = ZLat4.from_rows(
        alg, [[Fraction(x) for x in row] for row in rec["ideal_basis"]]
    )
    t = alg.element(*[Fraction(x) for x in rec["certificate"]["t"]])
    ideal = TwoSidedIdeal.from_parts(
        order, ilat if t == alg.one else ilat.right_mul(t.inverse()), t
    )
    lat = IdealLattice(ideal, Fraction(rec["alpha"]))
    beta = alg.element(*[Fraction(x) for x in rec["certificate"]["beta"]])
    cert = verify_arakelov_modular(lat, beta, rec["ell"])
    assert cert.valid
    assert str(lat.discriminant) == rec["det"]
    grams = [
        [int(x) if x.denominator == 1 else str(x) for x in row] for row in lat.gram
    ]
    assert grams == rec["gram"]


def test_construct_byte_stable(capsys):
    _, out1, _ = run(capsys, "construct", "--ell", "5")
    _, out2, _ = run(capsys, "construct", "--ell", "5")
    assert out1 == out2


def test_verify_valid(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra", "-1,-1",
        "--order", "hurwitz",
        "--beta", "0,1,-1,0",
        "--alpha", "1",
        "--ell", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True


def test_verify_wrong_level_exits_3(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra", "-1,-1",
        "--order", "hurwitz",
        "--beta", "0,1,-1,0",
        "--ell", "3",
    )
    assert code == 3
    data = json.loads(out)
    assert data["checks"]["nrd_beta_eq_ell"] is False


def test_verify_beta_norm_one_exits_3(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra", "-1,-1",
        "--order", "hurwitz",
        "--beta", "0,1,0,0",
        "--ell", "2",
    )
    assert code == 3


def test_verify_with_files(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("1 0 0 0\n0 1 0 0\n1/2 0 1/2 0\n0 1/2 0 1/2\n")
    ideal_file = tmp_path / "ideal.txt"
    # j * Lambda for the (-1,-3) order: the two-sided prime over 3
    ideal_file.write_text("3/2 0 1/2 0\n0 3/2 0 1/2\n0 0 1 0\n0 0 0 1\n")
    code, out, _ = run(
        capsys,
        "verify",
        "--algebra", "-1,-3",
        "--order", str(order_file),
        "--ideal", str(ideal_file),
        "--beta", "0,0,3,0",
        "--ell", "27",
    )
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True


def test_verify_bad_order_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0 0\n0 1 0 0\n")
    code, _, err = run(
        capsys,
        "verify",
        "--algebra", "-1,-1",
        "--order", str(bad),
        "--beta", "0,1,-1,0",
        "--ell", "2",
    )
    assert code == 1
    assert "--order" in err


def test_verify_rejects_non_maximal_order(tmp_path, capsys):
    order_file = tmp_path / "order.txt"
    order_file.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run(
        capsys,
        "verify",
        "--algebra", "-1,-1",
        "--order", str(order_file),
        "--beta", "0,1,-1,0",
        "--ell", "2",
    )
    assert code == 1
    assert "not maximal" in err


def test_verify_bad_beta(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--algebra", "-1,-1",
        "--order", "hurwitz",
        "--beta", "0,1,x,0",
        "--ell", "2",
    )
    assert code == 1
    assert "--beta" in err


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["product"] == 1
    assert ["inf", -1] in data["symbols"]
    assert ["2", -1] in data["symbols"]


def test_hilbert_examples(capsys):
    _, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-3")
    data = json.loads(out)
    assert dict((k, v) for k, v in data["symbols"]) == {"inf": -1, "2": 1, "3": -1}
    _, out, _ = run(capsys, "hilbert", "--a", "-2", "--b", "-5")
    data = json.loads(out)
    assert dict((k, v) for k, v in data["symbols"]) == {"inf": -1, "2": 1, "5": -1}


def test_hilbert_single_place(capsys):
    code, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-1", "--p", "2")
    assert code == 0
    assert json.loads(out)["symbol"] == -1


def test_hilbert_zero_exits_1(capsys):
    code, _, _ = run(capsys, "hilbert", "--a", "0", "--b", "5")
    assert code == 1


def test_min_command(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text("2 0 0 1\n0 2 0 1\n0 0 2 1\n1 1 1 2\n")
    code, out, _ = run(capsys, "min", "--gram", str(gram))
    assert code == 0
    data = json.loads(out)
    assert data == {"kissing": 24, "min": "2"}


def test_min_rejects_asymmetric(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text("2 1 0 0\n0 2 0 0\n0 0 2 0\n0 0 0 2\n")
    code, _, err = run(capsys, "min", "--gram", str(gram))
    assert code == 1
    assert "symmetric" in err


def test_min_rejects_indefinite(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    for text in (
        "1 0 0 0\n0 -1 0 0\n0 0 1 0\n0 0 0 1\n",
        "1 1 0 0\n1 1 0 0\n0 0 1 0\n0 0 0 1\n",  # singular and semidefinite
    ):
        gram.write_text(text)
        code, _, err = run(capsys, "min", "--gram", str(gram))
        assert code == 1
        assert "not positive definite" in err


def test_min_skewed_gram(tmp_path, capsys):
    # G = B·B^T for a basis of Z^4 whose vectors all have length about n,
    # so the diagonal is about n^2 while the minimum is 1
    n = 10**6
    b = [(n, 1, 0, 0), (n + 1, 1, 0, 0), (0, 0, n, 1), (0, 0, n + 1, 1)]
    rows = [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]
    gram = tmp_path / "gram.txt"
    gram.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    code, out, _ = run(capsys, "min", "--gram", str(gram))
    assert code == 0
    assert json.loads(out) == {"kissing": 8, "min": "1"}


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--nope", "3"])
    assert exc.value.code == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "classify" in capsys.readouterr().out
