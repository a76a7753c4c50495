from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import pytest

from c4free import graph6
from c4free.cli import COMMANDS, _RecordWriter, emit_certificate, main
from c4free.spectral import spectral_radius
from c4free.verify import VerificationRecord


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_snk_command(capsys):
    code, out = run(capsys, "snk", "--n", "9", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx(3.0, abs=1e-9)
    assert payload["cubic"] == [1, -1, -8, 6]


def test_srg_table(capsys):
    code, out = run(capsys, "srg-table")
    assert code == 0
    assert all(row["ok"] for row in json.loads(out))


def test_enumerate_lines(capsys):
    code, out = run(capsys, "enumerate", "--m", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        g = graph6.decode(line)
        assert g.m == 3 and not g.has_c4()


def test_verify_in3_exit_codes(capsys):
    code, out = run(capsys, "verify-in3", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["equalities"][0]["classification"] == "equality-friendship"


def test_certificate_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out = run(capsys, "verify-in3", "--n", "5", "--certificate", str(cert))
    assert code == 0
    payload = json.loads(cert.read_text())
    rec = payload["summary"]["equality_certificates"][0]
    g = graph6.decode(rec["record"]["graph_id"])
    mu = spectral_radius(g).mu
    # recomputation reproduces the recorded slack
    assert mu * mu - mu == pytest.approx(
        rec["record"]["bound"] - rec["record"]["slack"], abs=1e-9
    )
    assert "hub" in rec["witness"]


def test_csv_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "verify-in3", "--n", "5", "--output", str(p1), "--format", "csv")
    run(capsys, "verify-in3", "--n", "5", "--output", str(p2), "--format", "csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_jsonl_records(tmp_path, capsys):
    out = tmp_path / "rec.jsonl"
    code, _ = run(capsys, "verify-conjecture", "--n", "4", "--output", str(out))
    assert code == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert recs and all(set(r) >= {"graph_id", "mu", "slack"} for r in recs)


def test_cap_exceeded_exit_1(capsys):
    code = main(["enumerate", "--m", "40"])
    err = capsys.readouterr().err
    assert code == 1
    assert "cap" in err


def test_search_command(capsys):
    code, out = run(capsys, "search", "--m", "9", "--restarts", "2", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx(3.0, abs=1e-9)


def test_verify_th2_flags_extra_equalities(capsys):
    # the equality family at m = 9 is larger than the stated star/S_{9,1}
    # pair; the classifier reports the extras as findings with exit code 2
    code, out = run(capsys, "verify-th2", "--m", "9")
    assert code == 2
    payload = json.loads(out)
    assert len(payload["findings"]) == 2


def test_injected_violation_record(tmp_path):
    # violation serialization path, exercised with a fabricated record
    fake = VerificationRecord("D?{", 5, 4, 9.9, 2.0, -7.9, "VIOLATION")
    writer = _RecordWriter(str(tmp_path / "v.jsonl"), "json")
    writer(fake)
    writer.close()
    rec = json.loads((tmp_path / "v.jsonl").read_text())
    assert rec["classification"] == "VIOLATION" and rec["slack"] == -7.9

    emit_certificate(str(tmp_path / "v.json"), {"record": rec})
    assert json.loads((tmp_path / "v.json").read_text())["record"]["mu"] == 9.9


def test_csv_header(tmp_path, capsys):
    out = tmp_path / "x.csv"
    run(capsys, "verify-in3", "--n", "4", "--output", str(out), "--format", "csv")
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert header == ["graph6", "n", "m", "mu", "bound", "slack", "classification"]


def test_graph6_lines_records(tmp_path, capsys):
    out = tmp_path / "rec.g6"
    code, stdout = run(capsys, "verify-in3", "--n", "4", "--output", str(out), "--format", "graph6-lines")
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == json.loads(stdout)["count"] == 8
    assert all(graph6.decode(line).n == 4 for line in lines)


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name}")


# one small run of every verify command of the table, with its exit code
VERIFY_RUNS = {
    "verify-th1": (["--m", "9"], 0),
    "verify-th2": (["--m", "9"], 2),
    "verify-small-m": (["--m", "4"], 0),
    "verify-in3": (["--n", "5"], 0),
    "verify-conjecture": (["--n", "4"], 0),
    "verify-k2k1": (["--n", "4", "--k", "2"], 0),
}


def test_verify_runs_cover_the_table():
    assert set(VERIFY_RUNS) == {name for name in COMMANDS if name.startswith("verify-")}


@pytest.mark.parametrize("command", sorted(VERIFY_RUNS))
def test_verify_command_strict_json(command, capsys):
    argv, expected = VERIFY_RUNS[command]
    code, out = run(capsys, command, *argv)
    assert code == expected
    payload = json.loads(out, parse_constant=_no_constants)
    assert payload["count"] > 0 and math.isfinite(payload["min_slack"])


@pytest.mark.parametrize("size", [["--m", "8"], ["--n", "6"]])
def test_enumerate_independent_of_workers(size, capsys):
    _, one = run(capsys, "enumerate", *size, "--workers", "1")
    _, two = run(capsys, "enumerate", *size, "--workers", "2")
    assert one == two


def test_readme_lists_every_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    for name, cmd in COMMANDS.items():
        flags = [flag for flag, _ in cmd.flags] + [f"--{key}" for key in cmd.shared]
        row = next(line for line in readme if line.startswith(f"| `{name}` |"))
        assert re.findall(r"`(--[a-z]+)`", row) == flags, name
