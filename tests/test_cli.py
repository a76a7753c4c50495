from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import c4free
from c4free import enumeration, graph6, search, spectral
from c4free.canon import canonical_form
from c4free.cli import COMMANDS, _finish, _RecordWriter, build_parser, main
from c4free.graph import make_friendship, make_snk
from c4free.spectral import spectral_radius
from c4free.verify import VerificationRecord, VerifySummary, ViolationCertificate


CSV_HEADER = ["graph6", "n", "m", "mu", "bound", "slack", "classification"]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_snk_command(capsys):
    code, out = run(capsys, "snk", "--n", "9", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx(3.0, abs=1e-9)
    assert payload["cubic"] == [1, -1, -8, 6]


def test_snk_command_order_one(capsys):
    # S_{1,0} = K_1 is a valid S_{n,k}; it has no cubic factor
    code, out = run(capsys, "snk", "--n", "1", "--k", "0")
    assert code == 0
    assert json.loads(out) == {"n": 1, "k": 0, "mu": 0.0, "cubic": None}


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


def test_verify_in3_k1_is_f0(capsys):
    # K_1 meets mu^2 - mu = n - 1 at mu = 0: it is F_0 = S_{1,0}
    code, out = run(capsys, "verify-in3", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == []
    assert [r["classification"] for r in payload["equalities"]] == ["equality-friendship"]


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


def test_search_m1(capsys):
    code, out = run(capsys, "search", "--m", "1")
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(1.0, abs=1e-12)


SEARCH_M14 = (3.741657386773941, "N?????????????~~_?G", 1000003)  # mu, graph6, seed
SEARCH_M14_MOVES_SHA = "39838adf51315dea7f0f58fab80182eb482d8505f48294433939bbf804d17ccb"
TH1_M9_STDOUT_SHA = "4019fe728ae76148cf7954040192a47dfac813474f6df93becb62e98c7d81d02"
TH1_M9_CSV_SHA = "c37165f9568cef1c4e68576af0d0e3b1d2c856691253a2cbcc55fd31e8fd28d8"


def test_search_m14_golden(capsys, tmp_path):
    # the benchmark's search workload: a change to the climb order, the
    # candidate set or the acceptance rule changes these values
    moves = tmp_path / "moves.json"
    code, out = run(capsys, "search", "--m", "14", "--restarts", "2", "--seed", "1", "--output", str(moves))
    assert code == 0
    payload = json.loads(out)
    assert (payload["mu"], payload["graph6"], payload["seed"]) == SEARCH_M14
    assert len(payload["moves"]) == 10
    assert hashlib.sha256(moves.read_bytes()).hexdigest() == SEARCH_M14_MOVES_SHA


def test_th1_m9_golden(capsys, tmp_path):
    # the benchmark's exhaustive workload: records stream in canonical
    # order and name each class by its representative, so a canonizer that
    # changes a single byte of a form, or an enumeration that keeps another
    # representative, changes these digests
    records = tmp_path / "th1.csv"
    code, out = run(capsys, "verify-th1", "--m", "9", "--format", "csv", "--workers", "1", "--output", str(records))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TH1_M9_STDOUT_SHA
    assert hashlib.sha256(records.read_bytes()).hexdigest() == TH1_M9_CSV_SHA
    code, out = run(capsys, "enumerate", "--m", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "747ad85f41aa8e29b449e79e7b8c7c528c299ee01b4411d9b95cad20b8b3fa7b"
    code, out = run(capsys, "enumerate", "--n", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "a37f6f1e3db95623e0814e7c802e84ae0b13bf9273e727605d01aeea17ca1ea2"


# (argv, sha256 of stdout, of the --output file, of the --certificate file
# or None), pinned before the enumeration prefilter and the piece-based
# solve: records, classes and certificates must not move by one byte
GOLDENS = [
    (
        ["verify-in3", "--n", "8", "--format", "csv"],
        "fca9805b593aeb24b30f3cd26f90bf8297a23a341a58f2d2b7caa2f6c64d1aa7",
        "10269b86b50e39eb884cdf1d9997e3ce8ac9e6d920872198d8ee51c43f9fb5fb",
        None,
    ),
    (
        ["verify-k2k1", "--n", "7", "--k", "2", "--format", "csv"],
        "0a648d2787382a58e9c3ca2f65cb22eff704f235735b81c78cb68bed0d27a799",
        "ebece325805c9d169c8b133cd81c300a5e89b8d6cd1f71d97661b21955cf1b0f",
        None,
    ),
    (
        ["verify-conjecture", "--n", "8", "--format", "csv"],
        "9068bba357176f5c42068b3d7929dbba72707c7aabe5843fef65bb298edceb73",
        "bcdf17f7f7fe56e21c1f783b02829f0902d378e4158b13e3bbd285508cc6df07",
        None,
    ),
    (
        ["verify-small-m", "--m", "8", "--format", "csv"],
        "8788d508782e069c07afb0c7d717f15d65485a13aeb48664d78f94a7085c715e",
        "99a13a5ed024b7f58e323a22abf06ed9f95556089412b91fcb1b0dab7b294278",
        "57592ee17493cb29d07347ad8d0636c5a13d0fb430e8557b5e4574a9e62c9178",
    ),
    (
        ["enumerate", "--m", "10"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "fd6e7020acf3aa4c37e9b0d4eede5e121dda15cdbdb9f2f1d877da6370c402d5",
        None,
    ),
]


@pytest.mark.parametrize("argv, stdout_sha, output_sha, certificate_sha", [pytest.param(*g, id=" ".join(g[0])) for g in GOLDENS])
def test_golden(argv, stdout_sha, output_sha, certificate_sha, capsys, tmp_path):
    output, certificate = tmp_path / "output", tmp_path / "certificate"
    extra = ["--certificate", str(certificate)] if certificate_sha else []
    code, out = run(capsys, *argv, "--output", str(output), *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(output.read_bytes()).hexdigest() == output_sha
    if certificate_sha:
        assert hashlib.sha256(certificate.read_bytes()).hexdigest() == certificate_sha


def test_in3_n7_certificate_golden(capsys, tmp_path):
    # certificate contents: the summary and each equality's record and witness
    cert = tmp_path / "in3.json"
    code, _ = run(capsys, "verify-in3", "--n", "7", "--certificate", str(cert))
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == "10488c37f4ac9a37d015de538bbddb457760c9ed2b17a033f28f139c7b87e57d"


def test_convergence_error_exit_1(monkeypatch, capsys):
    # an eigensolve above its residual tolerance is an operational error
    monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
    code = main(["verify-in3", "--n", "3"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: residual")


def test_search_needs_a_restart(capsys):
    code = main(["search", "--m", "5", "--restarts", "0"])
    assert code == 1
    assert "need restarts >= 1" in capsys.readouterr().err


# one small run of every command that takes --workers
WORKER_RUNS = {
    "verify-th1": ["--m", "9"],
    "verify-th2": ["--m", "9"],
    "verify-small-m": ["--m", "4"],
    "verify-in3": ["--n", "3"],
    "verify-conjecture": ["--n", "4"],
    "verify-k2k1": ["--n", "3", "--k", "2"],
    "enumerate": ["--m", "3"],
    "search": ["--m", "5", "--restarts", "1"],
}


def test_worker_runs_cover_the_table():
    assert set(WORKER_RUNS) == {name for name, cmd in COMMANDS.items() if "workers" in cmd.shared}


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", sorted(WORKER_RUNS))
def test_workers_below_one_rejected(command, workers, capsys):
    # no command falls back to one worker in silence
    code = main([command, *WORKER_RUNS[command], "--workers", workers])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: need workers >= 1\n"
    assert captured.out == ""


def _file_flags(command):
    return [f"--{key}" for key in ("output", "certificate") if key in COMMANDS[command].shared]


def _earlier_files(tmp_path, command):
    """An existing file for each file flag of command: the flags, and each
    file's contents by path."""
    argv, contents = [], {}
    for flag in _file_flags(command):
        path = tmp_path / f"earlier{flag}"
        contents[path] = f"earlier {flag}\n"
        path.write_text(contents[path])
        argv += [flag, str(path)]
    return argv, contents


def _assert_as_they_were(tmp_path, contents):
    assert {path: path.read_text() for path in contents} == contents
    assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in contents)  # no .part file left


# commands that fail an argument check before their first record
FAILED_CHECKS = [
    ["verify-th1", "--m", "9", "--workers", "0", "--format", "csv"],
    ["verify-th1", "--m", "17", "--format", "csv"],
    ["verify-th1", "--m", "5"],
    ["verify-in3", "--n", "11"],
    ["enumerate", "--m", "17"],
    ["enumerate", "--n", "3", "--workers", "0"],
    ["search", "--m", "5", "--restarts", "0"],
    ["search", "--m", "0"],
]


@pytest.mark.parametrize("argv", FAILED_CHECKS, ids=" ".join)
def test_failed_check_leaves_output_as_it_was(argv, tmp_path, capsys):
    files, contents = _earlier_files(tmp_path, argv[0])
    assert main([*argv, *files]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    _assert_as_they_were(tmp_path, contents)


# a mid-run failure and the fewest records written before it
MID_RUN = [(["verify-th1", "--m", "9", "--format", "csv"], 1), (["search", "--m", "14"], 0)]


@pytest.mark.parametrize("argv, least", [pytest.param(argv, least, id=" ".join(argv)) for argv, least in MID_RUN])
def test_mid_run_error_leaves_outputs_as_they_were(argv, least, tmp_path, monkeypatch, capsys):
    # every solve fails its residual test once the tolerance is 0, from the
    # second block of graphs on: after the first block's records (863 of
    # them make two blocks) have gone to the output, and after search's
    # first climb step
    solve_block, blocks, written = spectral._solve_block, [], []

    def later_blocks_fail(block):
        blocks.append(block)
        if len(blocks) > 1:
            monkeypatch.setattr(spectral, "DEFAULT_TOL", 0.0)
        return solve_block(block)

    def counting(writer, rec):
        written.append(rec)
        return write(writer, rec)

    write = _RecordWriter.__call__
    monkeypatch.setattr(spectral, "_solve_block", later_blocks_fail)
    monkeypatch.setattr(_RecordWriter, "__call__", counting)
    files, contents = _earlier_files(tmp_path, argv[0])
    assert main([*argv, *files]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: residual") and captured.out == ""
    assert len(blocks) == 2 and len(written) >= least
    _assert_as_they_were(tmp_path, contents)


# one run of every command that writes a file; the work it would do is
# never started when a file flag names an unusable target
FILE_RUNS = {
    "verify-th1": ["--m", "11"],
    "verify-th2": ["--m", "11"],
    "verify-small-m": ["--m", "8"],
    "verify-in3": ["--n", "8"],
    "verify-conjecture": ["--n", "8"],
    "verify-k2k1": ["--n", "7", "--k", "2"],
    "enumerate": ["--m", "11"],
    "search": ["--m", "14", "--restarts", "4"],
}


def test_file_runs_cover_the_table():
    assert set(FILE_RUNS) == {
        name for name, cmd in COMMANDS.items() if {"output", "certificate"} & set(cmd.shared)
    }


def _unusable(kind, tmp_path):
    if kind == "missing directory":
        return tmp_path / "missing" / "x"
    if kind == "directory":
        return tmp_path
    if kind == "device":
        return Path(os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    return fifo


@pytest.mark.parametrize("kind", ["missing directory", "directory", "device", "pipe"])
@pytest.mark.parametrize("command, flag", [(c, f) for c in sorted(FILE_RUNS) for f in _file_flags(c)])
def test_unusable_path_fails_before_the_work(command, flag, kind, tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the work started")

    monkeypatch.setattr(enumeration, "_classes", never)
    monkeypatch.setattr(search, "_climb_once", never)
    target = _unusable(kind, tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main([command, *FILE_RUNS[command], flag, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    # named as given, not as the part file
    assert str(target) in captured.err and ".part" not in captured.err
    assert sorted(os.listdir(tmp_path)) == before
    assert not os.path.exists(f"{target}.{os.getpid()}.part")
    if kind == "pipe":
        assert stat.S_ISFIFO(os.stat(target).st_mode)


@pytest.mark.parametrize("through", ["same path", "symlink"])
@pytest.mark.parametrize("command", sorted(c for c in FILE_RUNS if len(_file_flags(c)) > 1))
def test_two_flags_naming_one_file_fail_before_the_work(command, through, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(enumeration, "_classes", lambda *args: pytest.fail("the work started"))
    target = tmp_path / "same.json"
    target.write_text("earlier\n")
    other = target
    if through == "symlink":
        other = tmp_path / "link.json"
        other.symlink_to(target)
    before = sorted(os.listdir(tmp_path))
    assert main([command, *FILE_RUNS[command], "--output", str(other), "--certificate", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --output and --certificate name the same file: {target}\n"
    assert sorted(os.listdir(tmp_path)) == before and target.read_text() == "earlier\n"


def test_outputs_write_through_a_symlink(tmp_path, capsys):
    target, link, direct = tmp_path / "records.csv", tmp_path / "link.csv", tmp_path / "direct.csv"
    target.write_text("earlier\n")
    link.symlink_to(target)
    for path in (link, direct):
        assert main(["verify-in3", "--n", "4", "--format", "csv", "--output", str(path)]) == 0
    assert link.is_symlink() and target.read_bytes() == direct.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["direct.csv", "link.csv", "records.csv"]


def test_output_file_modes(tmp_path, capsys):
    # a new file gets the mode open(path, "w") gives; an existing one keeps its own
    reference, new, kept = tmp_path / "reference", tmp_path / "new.g6", tmp_path / "kept.json"
    open(reference, "w").close()
    kept.write_text("earlier\n")
    kept.chmod(0o600)
    assert main(["enumerate", "--m", "3", "--output", str(new)]) == 0
    assert main(["verify-in3", "--n", "3", "--certificate", str(kept)]) == 0
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert json.loads(kept.read_text())["summary"]["count"] == 4


def test_cli_import_leaves_the_process_pool_unloaded():
    # a one-worker command never starts a pool, so it does not import one
    src = str(Path(c4free.__file__).resolve().parent.parent)
    probe = "import sys, c4free.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_env(**set_vars):
    # this process imported c4free, so its environment carries the default
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return {**env, "PYTHONPATH": str(Path(c4free.__file__).resolve().parent.parent), **set_vars}


def test_cli_import_runs_one_blas_thread():
    # numpy's OpenBLAS pool would start a second thread that spins a core
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    probe = "import os, c4free.cli; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", probe], env=_blas_env(), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "1 1\n"), done.stderr


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_caller_blas_threads_left_as_given(variable):
    probe = "import json, os, c4free.cli; print(json.dumps({k: os.environ.get(k) for k in %r}))" % (BLAS_THREAD_VARIABLES,)
    done = subprocess.run([sys.executable, "-c", probe], env=_blas_env(**{variable: "2"}), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {k: "2" if k == variable else None for k in BLAS_THREAD_VARIABLES}


def test_goldens_hold_at_two_blas_threads(tmp_path):
    # a caller who overrides the one-thread default gets the same bytes
    env = _blas_env(OPENBLAS_NUM_THREADS="2")
    cli = [sys.executable, "-m", "c4free.cli"]
    records = tmp_path / "th1.csv"
    done = subprocess.run(
        cli + ["verify-th1", "--m", "9", "--format", "csv", "--workers", "1", "--output", str(records)],
        env=env, capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == TH1_M9_STDOUT_SHA
    assert hashlib.sha256(records.read_bytes()).hexdigest() == TH1_M9_CSV_SHA
    moves = tmp_path / "moves.json"
    done = subprocess.run(
        cli + ["search", "--m", "14", "--restarts", "2", "--seed", "1", "--output", str(moves)], env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["mu"], payload["graph6"], payload["seed"]) == SEARCH_M14
    assert hashlib.sha256(moves.read_bytes()).hexdigest() == SEARCH_M14_MOVES_SHA


def test_verify_th2_flags_extra_equalities(capsys):
    # the equality family at m = 9 is larger than the stated star/S_{9,1}
    # pair; the classifier reports the extras as findings with exit code 2
    code, out = run(capsys, "verify-th2", "--m", "9")
    assert code == 2
    payload = json.loads(out)
    assert payload["findings"] == [
        "unexpected equality class equality-friendship at FuiCG",
        "unexpected equality class equality-snk at GuiCC?",
    ]
    # the named graphs are F_3 and S_{8,2}
    assert canonical_form(graph6.decode("FuiCG")) == canonical_form(make_friendship(3))
    assert canonical_form(graph6.decode("GuiCC?")) == canonical_form(make_snk(8, 2))


@pytest.mark.parametrize("k", ["1", "2"])
def test_verify_k2k1_order_one(capsys, k):
    # K_1 has no vertex pair and meets the bound: mu = 0 = k(n - 1)
    code, out = run(capsys, "verify-k2k1", "--n", "1", "--k", k)
    payload = json.loads(out)
    assert (code, payload["count"], payload["findings"]) == (0, 1, [])
    assert [(r["graph_id"], r["classification"]) for r in payload["equalities"]] == [("@", "equality-k-common")]


def test_injected_violation_record(tmp_path, capsys):
    # violation serialization path, exercised with a fabricated record
    fake = VerificationRecord("D?{", 5, 4, 9.9, 2.0, -7.9, "VIOLATION")
    with open(tmp_path / "v.jsonl", "w") as fh:
        _RecordWriter(fh, "json")(fake)
    rec = json.loads((tmp_path / "v.jsonl").read_text())
    assert rec["classification"] == "VIOLATION" and rec["slack"] == -7.9

    summary = VerifySummary("theorem1", {"m": 4}, count=1, violations=[ViolationCertificate(fake, [0.5, 0.5])])
    with open(tmp_path / "v.json", "w") as fh:
        assert _finish(argparse.Namespace(certificate=fh), summary) == 2
    (violation,) = json.loads((tmp_path / "v.json").read_text())["summary"]["violations"]
    assert violation["record"]["mu"] == 9.9 and violation["eigenvector"] == [0.5, 0.5]


def test_csv_header(tmp_path, capsys):
    out = tmp_path / "x.csv"
    run(capsys, "verify-in3", "--n", "4", "--output", str(out), "--format", "csv")
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert header == CSV_HEADER


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


@pytest.mark.parametrize("size", [["--m", "8"], ["--n", "6"], ["--m", "9"], ["--n", "8"]])
def test_enumerate_independent_of_workers(size, capsys):
    _, one = run(capsys, "enumerate", *size, "--workers", "1")
    _, two = run(capsys, "enumerate", *size, "--workers", "2")
    _, three = run(capsys, "enumerate", *size, "--workers", "3")
    assert one == two == three


@pytest.mark.parametrize("size", [["--m", "10"], ["--n", "9"]])
def test_one_worker_pool_per_stream(size, capsys, monkeypatch):
    # the subtrees of the enumeration walk go to one pool for the stream,
    # not one per edge count
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    code, out = run(capsys, "enumerate", *size, "--workers", "2")
    assert code == 0 and out
    assert len(pools) == 1


def test_verify_k2k1_independent_of_workers(capsys, tmp_path):
    # the K_{2,3}-free subtrees carry their roots' automorphisms to the workers
    outputs = []
    for workers in ("1", "2"):
        records = tmp_path / f"k2k1-{workers}.jsonl"
        code, out = run(capsys, "verify-k2k1", "--n", "7", "--k", "2", "--workers", workers, "--output", str(records))
        assert code == 0
        outputs.append((out, records.read_text()))
    assert outputs[0] == outputs[1]


def test_readme_lists_every_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    for name, cmd in COMMANDS.items():
        flags = [flag for flag, _ in cmd.flags] + [f"--{key}" for key in cmd.shared]
        row = next(line for line in readme if line.startswith(f"| `{name}` |"))
        assert re.findall(r"`(--[a-z]+)`", row) == flags, name


def test_every_flag_has_help():
    # every option of every subcommand says what it does; --output says what
    # its command writes there
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)
    outputs = {}
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert action.help and action.help.strip(), (name, action.option_strings)
            if "--output" in action.option_strings:
                outputs[name] = action.help
    assert "graph6 lines" in outputs["enumerate"] and "moves" in outputs["search"]
    assert all("record" in outputs[name] for name in outputs if name.startswith("verify-"))


def test_readme_library_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
