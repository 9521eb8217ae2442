import io
import json
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import klcf
from klcf import cli, lce as lce_module, route
from klcf.cli import (RunConfig, bench, generate_instance, load_inputs, main,
                      run, select_algorithm)
from klcf.core import MatchSpan, klcf_oracle, verify_match
from klcf.lce import build_lce, lcf0
from klcf.route import ALGORITHMS, solve
from klcf.strided import klcf_strided


@pytest.fixture
def pair(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("abba\n")
    b.write_text("aaba\n")
    return str(a), str(b)


def test_load_plain_strips_one_newline(pair):
    text = load_inputs(*pair)
    assert text.n1 == text.n2 == 4
    assert text.sigma == 2


def test_load_plain_binary(tmp_path):
    p1 = tmp_path / "x"
    p2 = tmp_path / "y"
    p1.write_bytes(bytes([0, 7, 7, 200, 3]))
    p2.write_bytes(bytes([7, 45]))
    text = load_inputs(str(p1), str(p2))
    assert text.sigma == 5 and text.n1 == 5
    # the label map restores original byte values from dense symbols
    assert [int(text.alphabet[v]) for v in text.s1] == [0, 7, 7, 200, 3]
    assert [int(text.alphabet[v]) for v in text.s2] == [7, 45]


def test_load_fasta(tmp_path):
    p1 = tmp_path / "a.fa"
    p2 = tmp_path / "b.fa"
    p1.write_text(">x\nAB\nBA\n")
    p2.write_text(">y comment\nABBA\n>second\nCCC\n")
    text = load_inputs(str(p1), str(p2), "fasta")
    assert text.n1 == 4 and text.n2 == 4
    assert text.s1.tolist() == text.s2.tolist()


def test_load_fasta_errors(tmp_path):
    empty = tmp_path / "e.fa"
    empty.write_text(">only header\n")
    other = tmp_path / "o.fa"
    other.write_text(">x\nAC\n")
    with pytest.raises(ValueError):
        load_inputs(str(empty), str(other), "fasta")
    notfasta = tmp_path / "n.fa"
    notfasta.write_text("AC\n")
    with pytest.raises(ValueError):
        load_inputs(str(notfasta), str(other), "fasta")


def test_auto_routes_to_strided(tmp_path, capsys):
    # the case the paper's neighborhood guard used to send to neighborhood
    assert select_algorithm(RunConfig(k=1), 10 ** 6, 10 ** 6, 4, 2, 1) == "strided"
    assert select_algorithm(RunConfig(k=0), 100, 100, 4, 5, 0) == "strided"
    text = generate_instance("random", 256, 20, 1, seed=0)
    files = [str(tmp_path / "a"), str(tmp_path / "b")]
    for path, side in zip(files, (text.s1, text.s2)):
        cli._write_sequence(path, side, text.alphabet, text.sigma)
    payloads = {}
    for algo in ("auto", "neighborhood"):
        assert run(RunConfig(k=1, algo=algo, output_format="json"), *files) == 0
        payloads[algo] = json.loads(capsys.readouterr().out)
    auto, nb = payloads["auto"], payloads["neighborhood"]
    assert auto["algo"] == "strided"
    for key in ("length", "pos1", "pos2", "mismatches"):
        assert auto[key] == nb[key]


def test_run_text_output(pair, capsys):
    assert run(RunConfig(k=1), *pair) == 0
    out = capsys.readouterr().out
    assert "length=4" in out and "pos1=1" in out and "pos2=1" in out
    assert "mismatches=[1]" in out and "ell0=2" in out


def test_run_json_output(pair, capsys):
    assert run(RunConfig(k=1, output_format="json", algo="tabulation"), *pair) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["length", "pos1", "pos2", "mismatches", "ell0",
                             "algo", "time_ms"]
    assert payload["length"] == 4
    assert payload["pos1"] == 1 and payload["pos2"] == 1
    assert payload["mismatches"] == [1]
    assert payload["algo"] == "tabulation"


def test_run_all_algorithms_agree(pair, capsys):
    lengths = set()
    for algo in ("naive", "neighborhood", "seeds", "strided", "tabulation", "auto"):
        assert run(RunConfig(k=1, algo=algo, output_format="json"), *pair) == 0
        lengths.add(json.loads(capsys.readouterr().out)["length"])
    assert lengths == {4}


def test_run_k0_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_text("abcde\n")
    b.write_text("abcde\n")
    assert run(RunConfig(k=0), str(a), str(b)) == 0
    assert "length=5" in capsys.readouterr().out


def test_run_resource_error_exit_code(tmp_path, capsys):
    rng = random.Random(3)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_bytes(bytes(rng.randrange(2) + 97 for _ in range(300)))
    b.write_bytes(bytes(rng.randrange(2) + 97 for _ in range(300)))
    cfg = RunConfig(k=6, algo="neighborhood", mem_budget_words=1 << 8)
    assert run(cfg, str(a), str(b)) == 2
    err = capsys.readouterr().err
    assert "--algo strided" in err and "--mem-budget" in err


def test_main_usage_error_exit_64(pair, capsys):
    for argv in (["--k", "-1", *pair],
                 ["--k", "1", "--block-bits", "99", *pair],
                 ["--nonsense"],
                 ["bench", "--n-list", "8", "--sigma-list", "2",
                  "--k-list", "0", "--algos", "bogus"],
                 ["bench", "--n-list", "8", "--sigma-list", "2", "--k-list=-1"],
                 ["bench", "--n-list=-1", "--sigma-list", "2", "--k-list", "0"],
                 ["bench", "--n-list", "8", "--sigma-list", "0", "--k-list", "0"],
                 ["bench", "--n-list", "8", "--sigma-list", "2", "--k-list", "0",
                  "--repeats", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


def test_threads_flag_is_a_usage_error(pair, capsys):
    # removed flags stay usage errors
    for flag in (["--threads", "2"], ["--block-bits", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["--k", "1", *flag, *pair])
        assert exc.value.code == 64


@pytest.mark.parametrize("argv", [["--pieces", "2"], ["--mem-budget", "0"],
                                  ["--mem-budget", "-5"]])
def test_neighborhood_flags_usage_errors(pair, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--k", "1", "--algo", "neighborhood", *argv, *pair])
    assert exc.value.code == 64


def test_main_solve_smoke(pair, capsys):
    assert main(["--k", "1", "--algo", "strided", *pair]) == 0
    assert "length=4" in capsys.readouterr().out


def test_generate_instance_planted_guarantee():
    for seed in range(6):
        text = generate_instance("planted", 100, 4, 2, 30, seed=seed)
        assert klcf_oracle(text, 2).length >= 30


def test_generate_instance_edge_cases():
    text = generate_instance("random", 0, 3, 0)
    assert text.n1 == text.n2 == 0
    text = generate_instance("random", 50, 1, 0, seed=1)
    assert klcf_oracle(text, 0).length == 50
    with pytest.raises(ValueError):
        generate_instance("planted", 10, 4, 5, 3)   # k > L
    with pytest.raises(ValueError):
        generate_instance("planted", 10, 1, 1, 5)   # mismatches need sigma >= 2
    with pytest.raises(ValueError):
        generate_instance("bogus", 10, 4, 0)


def test_generate_similar():
    text = generate_instance("similar", 5000, 4, 0, seed=3)
    changed = int((text.s1 != text.s2).sum())
    assert text.n1 == text.n2 == 5000 and 20 <= changed <= 80  # 1 % of 5000
    again = generate_instance("similar", 5000, 4, 0, seed=3)
    assert again.s2.tolist() == text.s2.tolist()
    with pytest.raises(ValueError):
        generate_instance("similar", 10, 1, 0)  # a substitution needs sigma >= 2


def test_gen_similar_subcommand(tmp_path):
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    assert main(["gen", "--kind", "similar", "--n", "2000", "--sigma", "4",
                 "--seed", "3", "--out1", str(out1), "--out2", str(out2)]) == 0
    text = load_inputs(str(out1), str(out2))
    assert text.n1 == text.n2 == 2000
    assert 0 < int((text.s1 != text.s2).sum()) <= 40


def test_generate_deterministic():
    a = generate_instance("random", 64, 4, 0, seed=9)
    b = generate_instance("random", 64, 4, 0, seed=9)
    assert a.s1.tolist() == b.s1.tolist() and a.s2.tolist() == b.s2.tolist()


def test_gen_subcommand_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "g1.txt"
    out2 = tmp_path / "g2.txt"
    assert main(["gen", "--kind", "planted", "--n", "80", "--sigma", "4",
                 "--k", "1", "--len", "20", "--seed", "5",
                 "--out1", str(out1), "--out2", str(out2)]) == 0
    text = load_inputs(str(out1), str(out2))
    assert text.n1 == text.n2 == 80
    assert klcf_oracle(text, 1).length >= 20


def test_gen_byte_alphabet_roundtrip(tmp_path):
    # sigma > 26 writes raw bytes; this instance's s2 ends in byte 10, which
    # the reader would strip as a newline were the file not ended with one
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(["gen", "--kind", "random", "--n", "50", "--sigma", "64",
                 "--k", "1", "--seed", "5",
                 "--out1", str(out1), "--out2", str(out2)]) == 0
    want = generate_instance("random", 50, 64, 1, seed=5)
    text = load_inputs(str(out1), str(out2))
    assert np.array_equal(text.s1, want.s1) and np.array_equal(text.s2, want.s2)


def test_bench_tsv_shape():
    buf = io.StringIO()
    bench([24], [4], [1], ["naive", "strided", "tabulation"], repeats=2,
          seed=3, out=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split("\t") == ["n", "sigma", "k", "algo", "ell0", "ellk",
                                    "time_ms", "work", "agree"]
    rows = [ln.split("\t") for ln in lines[1:]]
    assert len(rows) == 6  # 3 algorithms x 2 repeats
    lengths = {r[5] for r in rows}
    assert len(lengths) == 1
    assert all(r[8] == "1" for r in rows)
    # repeats of the same cell share the instance, so ell0 agrees too
    assert len({r[4] for r in rows}) == 1


def test_bench_agree_compares_witnesses(monkeypatch):
    """Equal lengths with a different witness do not agree."""
    def shifted(text, k, algo, lce):
        sol = solve(text, k, algo, lce)
        if algo == "strided":
            span = sol.span
            sol = sol._replace(span=MatchSpan(span.length, span.i1 + 1, span.i2))
        return sol

    monkeypatch.setattr(cli, "solve", shifted)
    buf = io.StringIO()
    bench([24], [4], [1], ["naive", "strided"], seed=3, out=buf)
    rows = [ln.split("\t") for ln in buf.getvalue().strip().splitlines()[1:]]
    assert len({r[5] for r in rows}) == 1
    assert [r[8] for r in rows] == ["0", "0"]


def test_bench_empty_ranges():
    buf = io.StringIO()
    bench([], [4], [1], ["naive"], out=buf)
    assert buf.getvalue().strip().splitlines() == [
        "n\tsigma\tk\talgo\tell0\tellk\ttime_ms\twork\tagree"]


def test_bench_subcommand(capsys):
    assert main(["bench", "--n-list", "16", "--sigma-list", "2",
                 "--k-list", "0,1", "--algos", "naive,strided"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4


def test_run_determinism_modulo_timing(pair, capsys):
    outs = []
    for _ in range(2):
        assert run(RunConfig(k=2, algo="auto", output_format="json"), *pair) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("time_ms")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_witness_verifies_for_every_algorithm(tmp_path):
    rng = random.Random(17)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.write_bytes(bytes(rng.choice(b"acgt") for _ in range(97)))
    b.write_bytes(bytes(rng.choice(b"acgt") for _ in range(113)))
    text = load_inputs(str(a), str(b))
    lce = build_lce(text)
    want = klcf_oracle(text, 3).length
    for algo in ("naive", "neighborhood", "seeds", "strided", "tabulation"):
        sol = solve(text, 3, algo, lce=lce)
        assert sol.algo == algo and sol.ell0 == lcf0(lce)[0]
        assert sol.span.length == want
        assert verify_match(text, sol.span, 3)


def test_solve_resolves_auto_and_builds_its_own_index():
    text = generate_instance("random", 200, 4, 2, seed=5)
    sol = solve(text, 2)
    assert sol.algo == "strided" and sol == solve(text, 2, "strided")
    assert sol.span.length == klcf_oracle(text, 2).length
    with pytest.raises(ValueError):
        solve(text, 2, "bogus")


# each solver's own counters in Stats; seeds' and strided's include the
# purchase of seeds or the scan
OWN_COUNTERS = {
    "naive": {"scan_cells"},
    "neighborhood": {"keywords_generated", "probes"},
    "seeds": {"scan_cells", "seed_pairs", "seed_cells"},
    "strided": {"cells_visited", "pass_strides", "scan_cells", "seed_pairs",
                "seed_cells"},
    "tabulation": {"lut_queries", "max_diag_queries", "word_ops", "diagonals"},
}


def test_solve_fills_only_its_solvers_counters():
    text = generate_instance("random", 200, 4, 2, seed=5)
    lce = build_lce(text)
    for algo, own in OWN_COUNTERS.items():
        st = solve(text, 2, algo, lce=lce).stats
        filled = {f.name for f in fields(st) if getattr(st, f.name)}
        assert filled and filled <= own, (algo, filled)
        # the per-solver work formulas that Stats.work replaced
        cells = st.cells_visited + st.scan_cells + st.seed_cells
        old = {"naive": text.n1 * text.n2, "neighborhood": st.keywords_generated,
               "seeds": cells, "strided": cells, "tabulation": st.lut_queries}
        assert st.work == old[algo], algo


def test_the_names_the_bench_reads_resolve():
    """bench/run.py and bench/trace_run.py reach these names of klcf."""
    for record, names in ((klcf.ScanStats, ("cells_visited", "passes",
                                            "pass_strides")),
                          (klcf.tabulation.TabulationStats,
                           ("lut_queries", "word_ops", "diagonals"))):
        assert all(hasattr(record(), name) for name in names), names
    for fn in (klcf.scan_pass, klcf.lce_forward, klcf.lce_backward,
               klcf.tabulation.pack, klcf.build_l1, klcf.build_l2,
               cli.RunConfig, cli.select_algorithm, cli.format_result,
               cli.load_inputs):
        assert callable(fn)
    assert klcf.tabulation.DEFAULT_BLOCK_BITS == 8


def _count_lcf0(monkeypatch):
    calls = []
    body = lce_module._lcf0

    def counted(idx):
        calls.append(idx)
        return body(idx)

    monkeypatch.setattr(lce_module, "_lcf0", counted)
    return calls


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_one_run_computes_ell0_once(algo, pair, monkeypatch, capsys):
    calls = _count_lcf0(monkeypatch)
    assert run(RunConfig(k=2, algo=algo), *pair) == 0
    assert "length=4" in capsys.readouterr().out
    assert len(calls) == 1


def test_a_solver_reads_the_ell0_already_found(monkeypatch):
    text = generate_instance("random", 300, 4, 2, seed=1)
    lce = build_lce(text)
    calls = _count_lcf0(monkeypatch)
    ell0 = lcf0(lce)
    assert klcf_strided(text, lce, 2).length >= ell0[0]
    assert lcf0(lce) == ell0 and len(calls) == 1


def test_a_span_that_fails_verification_exits_1(pair, monkeypatch, capsys):
    """A tabulation span with its mismatch list dropped still has the
    optimum's length and witness, which ``agree`` alone would accept."""
    tabulation = route.klcf_tabulation

    def unlisted(text, k, stats=None):
        span = tabulation(text, k, stats=stats)
        return MatchSpan(span.length, span.i1, span.i2)

    monkeypatch.setattr(route, "klcf_tabulation", unlisted)
    assert main(["bench", "--n-list", "64", "--sigma-list", "4", "--k-list", "2",
                 "--algos", "naive,tabulation"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["n\tsigma\tk\talgo\tell0\tellk\ttime_ms\twork\tagree"]
    assert err.startswith("internal error: tabulation ") and err.count("\n") == 1
    assert run(RunConfig(k=1, algo="tabulation"), *pair) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: tabulation ")
    assert err.count("\n") == 1


def test_import_klcf_leaves_the_cli_unloaded(pair):
    env = {**os.environ, "PYTHONPATH": str(Path(klcf.__file__).parents[1])}
    probe = "import sys, klcf; print('klcf.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    # so running the CLI module imports it once, without a RuntimeWarning
    res = subprocess.run([sys.executable, "-m", "klcf.cli", "--k", "1", *pair],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == ""
    assert "length=4" in res.stdout


def test_import_cli_leaves_concurrent_futures_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(klcf.__file__).parents[1])}
    probe = "import sys, klcf.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("case", ["missing file", "header-only fasta"])
def test_bad_input_file_exits_64_without_traceback(tmp_path, case):
    env = {**os.environ, "PYTHONPATH": str(Path(klcf.__file__).parents[1])}
    other = tmp_path / "o.fa"
    other.write_text(">x\nAC\n")
    if case == "missing file":
        argv = [str(tmp_path / "nothere.txt"), str(other)]
    else:
        empty = tmp_path / "e.fa"
        empty.write_text(">only header\n")
        argv = ["--format", "fasta", str(empty), str(other)]
    res = subprocess.run([sys.executable, "-m", "klcf.cli", "--k", "1", *argv],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 64
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr
