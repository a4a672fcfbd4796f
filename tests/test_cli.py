import csv
import io
import json
import os
import re
import shutil
import subprocess
import threading
from collections import Counter
from pathlib import Path

import pytest

from sperner.bounds import BoundId
from sperner import cli
from sperner.cli import main
from sperner.search import min_comparability_table
from sperner.witness import check_witness, load_witness, parse_witness


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


# construct


def test_construct_product_stdout(capsys):
    assert run("construct", "product", "--n", "5", "--k", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5 and payload["k"] == 2
    assert payload["provenance"]["builder"] == "product"
    # blocks {1,2,3} and {4,5}, default segment floor(2^b / 2) each
    assert payload["provenance"]["parameters"]["segments"] == [4, 2]


def test_construct_writes_and_verifies(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run("construct", "sum", "--n", "6", "--k", "3",
               "--out", str(out)) == 0
    assert "wrote" in capsys.readouterr().out
    payload = load_witness(str(out))
    assert payload["provenance"]["parameters"]["a"] >= 0
    assert run("verify", str(out)) == 0
    missing = tmp_path / "missing" / "w.json"
    assert run("construct", "sum", "--n", "6", "--k", "3", "--out", str(missing)) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")


def test_construct_all_modes(tmp_path):
    cases = [
        ("product", ["--k", "3"]),
        ("sum", ["--k", "2"]),
        ("prefix", ["--k", "3"]),
        ("pair-product", []),
        ("pair-sum", []),
    ]
    for mode, extra in cases:
        out = tmp_path / f"{mode}.json"
        assert run("construct", mode, "--n", "6",
                   "--out", str(out), *extra) == 0
        assert run("verify", str(out)) == 0


def test_construct_explicit_segments(capsys):
    assert run("construct", "product", "--n", "6", "--k", "3",
               "--segments", "2,2,2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measures"]["product"] == 512


def test_construct_pair_rejects_other_width(capsys):
    assert run("construct", "pair-sum", "--n", "6", "--k", "3") == 2


def test_construct_requires_width(capsys):
    assert run("construct", "product", "--n", "6") == 2


def test_construct_domain_error_is_exit_2(capsys):
    assert run("construct", "product", "--n", "6", "--k", "3",
               "--segments", "4,1,1") == 2
    assert "error" in capsys.readouterr().err
    assert run("construct", "prefix", "--n", "5", "--k", "2",
               "--ell", "-1") == 2
    assert capsys.readouterr().err.startswith("error: prefix ground ell=-1")
    assert run("construct", "sum", "--n", "5", "--k", "2", "--a", "-1") == 2
    assert capsys.readouterr().err == "error: a=-1 must be non-negative\n"


@pytest.mark.parametrize("mode,flag,value", [
    ("prefix", "--segments", "1,2"),
    ("prefix", "--a", "3"),
    ("product", "--a", "2"),
    ("product", "--ell", "2"),
    ("sum", "--segments", "1,2"),
    ("sum", "--ell", "2"),
    ("pair-product", "--ell", "2"),
    ("pair-sum", "--a", "2"),
])
def test_construct_rejects_other_modes_flags(capsys, mode, flag, value):
    k = [] if mode.startswith("pair") else ["--k", "2"]
    assert run("construct", mode, "--n", "5", *k, flag, value) == 2
    assert f"mode {mode} takes no {flag}" in capsys.readouterr().err


def test_construct_bad_segment_syntax():
    assert run("construct", "product", "--n", "6", "--k", "3",
               "--segments", "a,b") == 2


def test_construct_ground_too_small_for_width(capsys):
    # k = 3 blocks inside a 2-element ground leaves an empty block
    assert run("construct", "product", "--n", "2", "--k", "3") == 2
    assert "error" in capsys.readouterr().err


# verify


def test_verify_flags_tampered_file(tmp_path, capsys):
    out = tmp_path / "w.json"
    run("construct", "pair-product", "--n", "4", "--out", str(out))
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["measures"]["sum"] += 1
    out.write_text(json.dumps(doc))
    assert run("verify", str(out)) == 1
    assert "INVALID" in capsys.readouterr().out


def test_verify_mixed_files_fail_together(tmp_path, capsys):
    good = tmp_path / "good.json"
    run("construct", "pair-product", "--n", "4", "--out", str(good))
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run("verify", str(good), str(bad)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(l.startswith("OK") for l in lines) >= 1
    assert sum(l.startswith("INVALID") for l in lines) == 1


def test_verify_reports_an_integer_past_the_digit_limit(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1' + "0" * 4300 + "}")
    assert run("verify", str(huge)) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"INVALID {huge}: not valid JSON: Exceeds the limit")
    assert err == ""


def test_verify_missing_file_is_usage_error(capsys):
    assert run("verify", "/nonexistent/w.json") == 2


def test_verify_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    binary = tmp_path / "ls.bin"
    binary.write_bytes(b'{"n": \xff\x00ELF}')
    good = tmp_path / "good.json"
    run("construct", "pair-product", "--n", "4", "--out", str(good))
    capsys.readouterr()
    assert run("verify", str(binary), str(good)) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"INVALID {binary}: not valid UTF-8: invalid start byte at byte 6",
        f"OK {good}: n=4 k=2 sum=8 product=16",
    ]
    assert err == ""


# verify split across forked workers


def _verify_files(tmp_path):
    """Three good witnesses, one with a format error and one whose
    families are comparable, in that order.  The smallest good file
    (pair-product), which the parent keeps when every file has a share
    of its own, is the middle one."""
    paths = []
    for mode, extra in (("product", ["--k", "3"]), ("pair-product", []),
                        ("sum", ["--k", "3"])):
        path = tmp_path / f"{mode}.json"
        assert run("construct", mode, "--n", "6", *extra, "--out", str(path)) == 0
        paths.append(str(path))
    fmt = tmp_path / "format.json"
    fmt.write_text("{}")
    comparable = tmp_path / "comparable.json"
    doc = json.loads(Path(paths[0]).read_text())
    doc.update(n=3, k=2, families=[[1], [3]], measures={"sum": 2, "product": 1})
    comparable.write_text(json.dumps(doc))
    return paths + [str(fmt), str(comparable)]


def _verify_both_ways(monkeypatch, capsys, argv):
    """verify's exit code, stdout and stderr in process and with every
    file in a forked worker of its own, checked equal, plus how many
    files the parent verified itself in the second run.  The first run
    must not fork, the second must, and neither may leave a child."""
    seen = []
    for threshold in (cli._FORK_BYTES, 0):
        forks, mine = [], []
        fork, verdict, parent = os.fork, cli._verdict, os.getpid()

        def counted_fork():
            forks.append(1)
            return fork()

        def counted_verdict(path):
            if os.getpid() == parent:
                mine.append(path)
            return verdict(path)

        with monkeypatch.context() as m:
            m.setattr(cli, "_FORK_BYTES", threshold)
            m.setattr(cli, "_verdict", counted_verdict)
            m.setattr(os, "cpu_count", lambda: 8)
            m.setattr(os, "fork", counted_fork)
            rc = run("verify", *argv)
        out, err = capsys.readouterr()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert (len(forks) > 0) == (threshold == 0)
        seen.append((rc, out, err))
    assert seen[0] == seen[1]
    return (*seen[0], len(mine))


def test_verify_split_all_ok(tmp_path, monkeypatch, capsys):
    paths = _verify_files(tmp_path)[:3]
    capsys.readouterr()
    rc, out, err, mine = _verify_both_ways(monkeypatch, capsys, paths)
    assert rc == 0 and err == ""
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"OK {p}" for p in paths]
    assert mine == 1  # the workers' verdicts are used, not redone


def test_verify_split_invalid_among_ok(tmp_path, monkeypatch, capsys):
    good1, good2, good3, fmt, comparable = _verify_files(tmp_path)
    capsys.readouterr()
    rc, out, err, mine = _verify_both_ways(
        monkeypatch, capsys, [good1, fmt, good2, comparable, good3])
    assert rc == 1 and err == "" and mine == 1
    lines = out.splitlines()
    assert [line.split(" ")[0] for line in lines] == [
        "OK", "INVALID", "OK", "INVALID", "OK"]
    assert lines[1].startswith(f"INVALID {fmt}: missing keys")
    assert lines[3] == (f"INVALID {comparable}: not cross-Sperner: mask 1 in "
                        f"family 0 is comparable to mask 3 in family 1")


def test_verify_split_stops_at_unreadable_file(tmp_path, monkeypatch, capsys):
    good1, good2, good3, fmt, _ = _verify_files(tmp_path)
    missing = str(tmp_path / "missing.json")
    capsys.readouterr()
    rc, out, err, mine = _verify_both_ways(
        monkeypatch, capsys, [good1, fmt, missing, good2, good3])
    assert rc == 2 and mine == 1
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"OK {good1}", f"INVALID {fmt}"]
    assert err == f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("cpus,kib,expected", [
    # the parent keeps the lightest share; the others fork, in argument order
    (3, [5120, 1, 3072, 2048, 512], [[1, 3, 4], [2], [0]]),
    (2, [1024, 4096, 2048, 1536], [[1], [0, 2, 3]]),
    # a share under 1 MiB folds into the parent's
    (3, [3072, 512, 400], [[1, 2], [0]]),
    (2, [1000, 1000], [[0, 1]]),
    (1, [4096, 4096], [[0, 1]]),
])
def test_shares_deal_largest_first_into_the_lightest(tmp_path, monkeypatch,
                                                     cpus, kib, expected):
    paths = []
    for i, size in enumerate(kib):
        path = tmp_path / f"{i}.json"
        with open(path, "wb") as fh:
            fh.truncate(size * 1024)
        paths.append(str(path))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli._shares(paths) == expected


def test_shares_stay_in_process_beside_a_second_thread(tmp_path, monkeypatch):
    paths = []
    for i in range(2):
        path = tmp_path / f"{i}.json"
        with open(path, "wb") as fh:
            fh.truncate(4 << 20)
        paths.append(str(path))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli._shares(paths) == [[0], [1]]
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert cli._shares(paths) == [[0, 1]]
    finally:
        release.set()
        thread.join()


def test_share_stops_at_its_first_unreadable_file(tmp_path):
    good1, good2 = _verify_files(tmp_path)[:2]
    missing = str(tmp_path / "missing.json")
    got = cli._verdicts([good1, missing, good2], [0, 1, 2])
    assert [code for code, _ in got] == [0, 2]


@pytest.mark.parametrize("where", range(3))
def test_verify_split_raises_what_the_verdict_raises(tmp_path, monkeypatch,
                                                     capsys, where):
    # where = 1 raises in the parent's own share, the others in a worker
    paths = _verify_files(tmp_path)[:3]
    capsys.readouterr()
    verdict = cli._verdict

    def fails(path):
        if path == paths[where]:
            raise RuntimeError(f"broken {path}")
        return verdict(path)

    monkeypatch.setattr(cli, "_verdict", fails)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    seen = []
    for threshold in (cli._FORK_BYTES, 0):
        monkeypatch.setattr(cli, "_FORK_BYTES", threshold)
        with pytest.raises(RuntimeError, match=f"^broken {re.escape(paths[where])}$"):
            main(["verify", *paths])
        seen.append(capsys.readouterr())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert seen[0] == seen[1]
    assert [line.split(":")[0] for line in seen[0].out.splitlines()] == [
        f"OK {p}" for p in paths[:where]]


def test_verify_reaps_its_workers_when_interrupted(tmp_path, monkeypatch, capsys):
    paths = _verify_files(tmp_path)[:3]
    parent, verdicts = os.getpid(), cli._verdicts

    def interrupted(paths, share):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return verdicts(paths, share)

    monkeypatch.setattr(cli, "_verdicts", interrupted)
    monkeypatch.setattr(cli, "_FORK_BYTES", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", *paths])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("sent", [
    [],  # short: the parent verifies the rest
    [(0, "OK forged")] * 4,  # more verdicts than files
    [(3, "OK forged")],  # malformed: the parent verifies it all
    None,  # the worker raises and exits 1
])
def test_verify_redoes_a_share_its_worker_got_wrong(tmp_path, monkeypatch,
                                                    capsys, sent):
    paths = _verify_files(tmp_path)[:3]
    capsys.readouterr()
    parent, verdicts = os.getpid(), cli._verdicts

    def forged(paths, share):
        if os.getpid() == parent:
            return verdicts(paths, share)
        if sent is None:
            raise RuntimeError("worker fails")
        return sent

    monkeypatch.setattr(cli, "_verdicts", forged)
    rc, out, err, _ = _verify_both_ways(monkeypatch, capsys, paths)
    assert rc == 0 and err == ""
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"OK {p}" for p in paths]


@pytest.mark.parametrize("data,status,expected", [
    (b'[[0, "OK a"], [1, "INVALID b"]]', 0, {4: (0, "OK a"), 7: (1, "INVALID b")}),
    (b'[[2, "error: a"]]', 0, {4: (2, "error: a")}),
    (b'[[0, "OK a"], [1, "INVALID b"]]', 1, {}),
    (b'[[0, "OK a"], [1, "INV', 0, {}),
    (b'[[0, "OK a"], [0, "OK b"], [0, "OK c"]]', 0, {}),
    (b'[[true, "OK a"]]', 0, {}),
    (b'[[0, "OK a", 1]]', 0, {}),
    (b'{"ab": 1}', 0, {}),
    (b"7", 0, {}),
    (b"\xff", 0, {}),
    (b"", 0, {}),
])
def test_collect_takes_only_well_formed_verdicts_from_a_clean_exit(
        data, status, expected):
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        os.write(w, data)
        os._exit(status)
    os.close(w)
    assert cli._collect(pid, r, [4, 7]) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_traced_witness_names_stay_on_the_paths(tmp_path, monkeypatch):
    # the benchmark's tracer replaces these attributes through
    # owner.__dict__: each must resolve there, and all but dumps_witness
    # (which the CLI only keeps for the tracer) must be called by
    # construct --out and verify
    from sperner import cli, witness
    from sperner.lattice import Family, FamilyTuple

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ["parse_witness", "check_witness", "witness_payload",
             "dumps_witness", "write_witness"]
    for name in names:
        monkeypatch.setattr(cli, name, counted(name, cli.__dict__[name]))
    monkeypatch.setattr(witness, "is_cross_sperner",
                        counted("is_cross_sperner",
                                witness.__dict__["is_cross_sperner"]))
    monkeypatch.setattr(Family, "from_masks", classmethod(
        counted("from_masks", Family.__dict__["from_masks"].__func__)))
    monkeypatch.setattr(FamilyTuple, "canonical_key",
                        counted("canonical_key",
                                FamilyTuple.__dict__["canonical_key"]))
    out = tmp_path / "w.json"
    assert run("construct", "product", "--n", "6", "--k", "3",
               "--out", str(out)) == 0
    assert run("verify", str(out)) == 0
    assert set(calls) == {"parse_witness", "check_witness", "witness_payload",
                          "write_witness", "is_cross_sperner", "from_masks",
                          "canonical_key"}


# search


def test_search_exact_proves_and_writes(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run("search", "product", "--n", "4", "--k", "3", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "value=9" in text and "status=proved" in text
    assert run("verify", str(out)) == 0
    payload = load_witness(str(out))
    assert payload["provenance"]["search"]["optimal"] is True
    assert payload["measures"]["product"] == 9


def test_search_provenance_records_the_budgets(tmp_path):
    # a heuristic search records its budgets and chain count beside the
    # seed and mode; an exact search without budgets records none of them
    out = tmp_path / "h.json"
    assert run("search", "pi", "--n", "4", "--k", "3", "--mode", "heuristic",
               "--seed", "3", "--threads", "2", "--budget-nodes", "50",
               "--budget-secs", "5", "--out", str(out)) == 0
    payload = load_witness(str(out))
    assert payload["provenance"]["seed"] == 3
    search = payload["provenance"]["search"]
    assert search["mode"] == "heuristic"
    assert (search["budget_nodes"], search["budget_secs"], search["threads"]) == (50, 5.0, 2)
    out = tmp_path / "e.json"
    assert run("search", "pi", "--n", "4", "--k", "3", "--out", str(out)) == 0
    search = load_witness(str(out))["provenance"]["search"]
    assert search["mode"] == "exact"
    assert not {"budget_nodes", "budget_secs", "threads"} & set(search)


def test_search_heuristic_start_meeting_target_takes_no_step(capsys):
    # each chain's start already has 64 = pi(5, 2), so no chain steps
    assert run("search", "pi", "--n", "5", "--k", "2", "--mode", "heuristic",
               "--seed", "1", "--target", "64") == 0
    text = capsys.readouterr().out
    assert "value=64 status=target-met nodes=0 " in text


def test_search_out_dash_prints_witness_after_status(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("search", "sigma", "--n", "3", "--k", "2", "--out", "-") == 0
    status, _, text = capsys.readouterr().out.partition("\n")
    assert "status=proved" in status
    payload = parse_witness(text)
    assert check_witness(payload) == []
    assert payload["provenance"]["search"]["optimal"] is True
    assert "wrote" not in text
    assert list(tmp_path.iterdir()) == []


def test_search_exact_budget_exhausted(capsys):
    assert run("search", "pi", "--n", "5", "--k", "2", "--budget-nodes", "100") == 3
    assert "status=stopped" in capsys.readouterr().out


def test_search_exact_infeasible_is_proved_zero(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run("search", "product", "--n", "2", "--k", "3", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "value=0" in text and "status=proved" in text
    assert "no witness" in text
    assert not out.exists()


def test_search_heuristic_exit_codes(capsys):
    base = ["search", "product", "--n", "4", "--k", "2", "--mode", "heuristic",
            "--budget-nodes", "400", "--seed", "1"]
    assert run(*base) == 0
    assert "status=heuristic" in capsys.readouterr().out
    assert run(*base, "--target", "16") == 0
    assert "status=target-met" in capsys.readouterr().out
    assert run(*base, "--target", "999") == 3
    assert "status=stopped" in capsys.readouterr().out


def test_search_heuristic_starts_from_any_construction(capsys):
    # no tagged-antichain sum tuple exists at (6, 6), but a prefix partition does
    assert run("search", "sigma", "--n", "6", "--k", "6", "--mode", "heuristic",
               "--threads", "1", "--budget-nodes", "500") == 0
    value = re.search(r"value=(\d+)", capsys.readouterr().out)
    assert int(value.group(1)) >= 24
    assert run("search", "pi", "--n", "2", "--k", "3", "--mode", "heuristic") == 2
    assert "no feasible starting tuple" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("budget", [
    ("--budget-nodes", "0"),
    ("--budget-nodes", "-5"),
    ("--budget-secs", "-1"),
    ("--budget-secs", "nan"),
])
def test_search_rejects_bad_budgets(capsys, mode, budget):
    assert run("search", "pi", "--n", "4", "--k", "2", "--mode", mode,
               "--threads", "1", *budget) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("target", ["0", "-5"])
def test_search_rejects_target_below_one(capsys, mode, target):
    # to the kernels a target of 0 means none and a negative one is met
    # at once, so neither is a real target
    assert run("search", "pi", "--n", "4", "--k", "3", "--mode", mode,
               f"--target={target}") == 2
    assert "target must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode,threads,message", [
    pytest.param(mode, threads, message, id=mode + suffix)
    for threads, message, suffix in [("0", "threads must be at least 1", ""),
                                     ("257", "threads must be at most 256", "-257")]
    for mode in ["exact", "heuristic"]
])
def test_search_rejects_zero_threads(capsys, monkeypatch, mode, threads, message):
    started = []
    monkeypatch.setattr(threading.Thread, "start", started.append)
    assert run("search", "pi", "--n", "5", "--k", "3", "--mode", mode,
               "--threads", threads) == 2
    assert message in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_search_rejects_width_below_two(capsys, mode):
    assert run("search", "pi", "--n", "4", "--k", "1", "--mode", mode) == 2
    assert capsys.readouterr().err == "error: searches need k >= 2\n"


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_search_zero_seconds_is_a_valid_budget(capsys, mode):
    # exact (4, 2) finishes before its first deadline check, at node 4096
    assert run("search", "pi", "--n", "4", "--k", "2", "--mode", mode,
               "--threads", "1", "--budget-secs", "0") == 0
    out = capsys.readouterr().out
    assert "status=" + ("proved" if mode == "exact" else "heuristic") in out


def test_search_sum_measure(capsys):
    assert run("search", "sigma", "--n", "4", "--k", "2") == 0
    assert "value=10" in capsys.readouterr().out


def test_search_measure_aliases(capsys):
    assert run("search", "pi", "--n", "3", "--k", "2") == 0
    assert "measure=product value=4" in capsys.readouterr().out
    assert run("search", "sum", "--n", "3", "--k", "2") == 0
    assert "measure=sum value=4" in capsys.readouterr().out


def test_search_proves_at_six(capsys):
    # the largest exact ground; pure proofs there take up to a minute
    pytest.importorskip("sperner.search._kernels", reason="compiled backend not built",
                        exc_type=ImportError)
    assert run("search", "pi", "--n", "6", "--k", "3") == 0
    assert "value=810 status=proved" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_search_exact_gate_above_six(capsys, monkeypatch, backend):
    # 2**7 - 2 proper masks overflow the kernels' one-word pin row
    from sperner.search import engine

    if backend == "compiled":
        kernels = pytest.importorskip(
            "sperner.search._kernels", reason="compiled backend not built",
            exc_type=ImportError,
        )
    else:
        kernels = None
    monkeypatch.setattr(engine, "_kernels", kernels)
    assert run("search", "sigma", "--n", "7", "--k", "2") == 2
    assert "exact search supports n <= 6" in capsys.readouterr().err


def test_search_unknown_measure():
    assert run("search", "area", "--n", "3", "--k", "2") == 2


# table


def test_table_matches_engine(capsys):
    assert run("table", "comp", "--n", "2..3") == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4 + 8
    for n in (2, 3):
        table = min_comparability_table(n)
        for row in (r for r in rows if int(r["n"]) == n):
            ref = table.row(int(row["m"]))
            assert int(row["c_exact"]) == ref.c_exact
            assert int(row["lower_bound"]) == ref.lower_bound
            assert row["equality"] == ("true" if ref.equality else "false")
            masks = [int(x) for x in row["witness_masks"].split()]
            assert masks == list(ref.witness.masks())


def test_table_writes_file(tmp_path):
    out = tmp_path / "t.csv"
    assert run("table", "comp", "--n", "4", "--out", str(out)) == 0
    assert out.read_text().startswith("n,m,c_exact")


def test_table_bad_range():
    assert run("table", "comp", "--n", "5..2") == 2
    assert run("table", "comp", "--n", "x") == 2


def test_table_too_large_ground(capsys):
    assert run("table", "comp", "--n", "6") == 2


@pytest.mark.parametrize("flags", [
    ["--k", "2"], ["--m", "3"], ["--ell", "2"], ["--format", "text"],
])
def test_table_comp_refuses_bounds_flags(capsys, flags):
    assert run("table", "comp", "--n", "2", *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table comp" in captured.err


def test_table_json_format(capsys):
    assert run("table", "comp", "--n", "3", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 8
    ref = min_comparability_table(3)
    for row in rows:
        r = ref.row(row["m"])
        assert row["c_exact"] == r.c_exact
        assert row["equality"] is r.equality
        assert row["witness_masks"] == list(r.witness.masks())


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,name", [
    (["table", "comp", "--n", "2"], "table_comp_n2"),
    (["bounds", "--n", "8", "--k", "2"], "bounds_n8_k2"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_output_bytes(capsys, argv, name, fmt):
    assert run(*argv, "--format", fmt) == 0
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_table_comp_n2_5_bytes(capsys, monkeypatch, backend):
    # the whole table, witnesses included, as frozen before the scan was
    # reduced to one upset per S_n orbit
    from sperner.search import engine

    if backend == "compiled":
        kernels = pytest.importorskip(
            "sperner.search._kernels", reason="compiled backend not built",
            exc_type=ImportError,
        )
    else:
        kernels = None
    monkeypatch.setattr(engine, "_kernels", kernels)
    expected = (GOLDEN / "table_comp_n2_5.csv").read_bytes().decode("utf-8")
    assert run("table", "comp", "--n", "2..5") == 0
    assert capsys.readouterr().out == expected


def test_table_bounds_kind_matches_bounds_command(capsys):
    assert run("table", "bounds", "--n", "8..9", "--k", "2..3") == 0
    via_table = capsys.readouterr().out
    assert run("bounds", "--n", "8..9", "--k", "2..3") == 0
    assert via_table == capsys.readouterr().out


def test_table_bounds_kind_requires_width():
    assert run("table", "bounds", "--n", "8") == 2


# bounds


def test_bounds_text_single(capsys):
    assert run("bounds", "--n", "6", "--k", "2") == 0
    text = capsys.readouterr().out
    assert text.startswith("bounds at n=6 k=2")
    assert "pair-product-upper" in text
    assert "[n/a]" in text  # comp-lower et al are flagged


def test_bounds_csv_grid(capsys):
    assert run("bounds", "--n", "8..9", "--k", "2..3") == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4 * len(BoundId)
    assert {r["bound_id"] for r in rows} == {b.value for b in BoundId}


def test_bounds_grid_refuses_text(capsys):
    assert run("bounds", "--n", "8..9", "--k", "2", "--format", "text") == 2


def test_bounds_m_and_ell_overrides(capsys):
    assert run("bounds", "--n", "9", "--k", "3", "--m", "20", "--ell", "3") == 0
    text = capsys.readouterr().out
    comp = next(l for l in text.splitlines() if "comp-lower" in l)
    anti = next(l for l in text.splitlines() if "antichain-comp" in l)
    assert "[n/a]" not in comp
    assert "70" in anti
    # the tagged antichain's k - 1 singletons do not fit beside a tail of 3
    assert run("bounds", "--n", "5", "--k", "5", "--ell", "3") == 0
    anti = next(l for l in capsys.readouterr().out.splitlines() if "antichain-comp" in l)
    assert anti.endswith("[n/a] tagged antichain needs k - 1 <= n - ell free elements")


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "8", "--k", "2", "--m", "-1"],
    ["table", "bounds", "--n", "8", "--k", "2", "--m", "-3"],
])
def test_bounds_negative_m_is_not_applicable(capsys, argv):
    assert run(*argv) == 0
    comp = next(l for l in capsys.readouterr().out.splitlines() if "comp-lower" in l)
    assert comp.split(maxsplit=2)[1:] == ["0", "[n/a] needs a family size 1 <= m <= 2^8"]


@pytest.mark.parametrize("n,k", [(8, 51), (8, 70), (20, 49), (20, 85)])
@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_bounds_renders_at_any_width(capsys, n, k, fmt):
    # an exact value past str()'s digit limit, and a float bound past the
    # float range, both render
    assert run("bounds", "--n", str(n), "--k", str(k), "--format", fmt) == 0
    out = capsys.readouterr().out
    assert ("inf" in out) == (k == 85)


def test_threads_help_states_default_and_cap(capsys):
    from sperner.search.engine import _MAX_CHAINS, resolve_threads

    assert run("search", "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"1..{_MAX_CHAINS} (default {resolve_threads(None)})" in text
    assert "every chain runs at once" in text


def test_bounds_rejects_width_one():
    assert run("bounds", "--n", "6", "--k", "1") == 2


def test_bounds_domain_error(capsys):
    assert run("bounds", "--n", "25", "--k", "2") == 2


def test_bounds_json_format(capsys):
    assert run("bounds", "--n", "8", "--k", "2", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["bound_id"] for r in rows} == {b.value for b in BoundId}
    by_id = {r["bound_id"]: r for r in rows}
    assert by_id["pair-sum-upper"]["value"] == "226"
    assert by_id["pair-sum-upper"]["applicable"] is True


# one parser per process: main() parses with the parser built at import


@pytest.mark.parametrize("argv", [
    ("table", "comp", "--n", "2..3"),
    ("construct", "product", "--n", "5", "--k", "2"),
    ("bounds", "--n", "6", "--k", "3"),
])
def test_same_argv_twice_prints_same_bytes(capsys, argv):
    assert run(*argv) == 0
    first = capsys.readouterr()
    assert run(*argv) == 0
    assert capsys.readouterr() == first


def test_usage_error_leaves_next_call_alone(capsys):
    assert run("search", "pi", "--n", "x", "--k", "2") == 2
    assert "sperner search" in capsys.readouterr().err
    assert run("search", "pi", "--n", "4", "--k", "2") == 0
    captured = capsys.readouterr()
    assert "value=16 status=proved" in captured.out and captured.err == ""


def test_option_does_not_carry_over(capsys):
    assert run("search", "pi", "--n", "4", "--k", "2", "--budget-nodes", "5") == 3
    assert "status=stopped" in capsys.readouterr().out
    assert run("search", "pi", "--n", "4", "--k", "2") == 0
    assert "status=proved" in capsys.readouterr().out


def test_main_does_not_build_a_parser(monkeypatch, capsys):
    from sperner import cli

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert run("search", "pi", "--n", "4", "--k", "2") == 0
    assert "status=proved" in capsys.readouterr().out
    assert run("bounds", "--n", "6", "--k", "1") == 2


# console entry point


def test_console_script_help():
    exe = shutil.which("sperner")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "construct" in proc.stdout and "bounds" in proc.stdout
