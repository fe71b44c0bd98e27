import csv
import subprocess
import sys

import numpy as np
import pytest

from waveletforest.bench import gen_text_patterns
from waveletforest.cli import main
from waveletforest.fmindex import FmIndex
from waveletforest.textgen import gen_bytes, gen_query_positions, reinterpret
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(gen_bytes(77, 4096).raw)
    return str(path)


def test_gen_writes_expected_bytes(tmp_path):
    out = tmp_path / "gen.bin"
    assert main(["gen", "--seed", "12", "--bytes", "10000",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == gen_bytes(12, 10000).raw
    # Re-running reproduces the identical file.
    assert main(["gen", "--seed", "12", "--bytes", "10000",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == gen_bytes(12, 10000).raw


def test_gen_zero_and_negative(tmp_path, capsys):
    out = tmp_path / "zero.bin"
    assert main(["gen", "--seed", "1", "--bytes", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == b""
    assert main(["gen", "--seed", "1", "--bytes", "-5", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_build_tree_roundtrip(tmp_path, data_file):
    out = tmp_path / "t.wt"
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "tree", "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert blob[:4] == b"WFWT"
    loaded = WaveletTree.from_bytes(blob)
    raw = open(data_file, "rb").read()
    direct = WaveletTree.build(reinterpret(raw, 8).symbols, 8)
    assert loaded.to_bytes() == direct.to_bytes()
    assert loaded.access(100) == direct.access(100)


def test_build_forest_block_conversion(tmp_path, data_file):
    out = tmp_path / "f.wf"
    assert main(["build", "--input", data_file, "--alphabet-bits", "2",
                 "--structure", "forest", "--block-bytes", "256",
                 "--out", str(out)]) == 0
    wf = WaveletForest.from_bytes(out.read_bytes())
    # 256 bytes * 8 bits / 2 bits per symbol.
    assert wf.block_len == 1024
    assert len(wf) == 4 * 4096


def test_build_prints_the_query_table_bytes(tmp_path, data_file, capsys):
    out = tmp_path / "f.wf"
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "forest", "--block-bytes", "32",
                 "--out", str(out)]) == 0
    wf = WaveletForest.from_bytes(out.read_bytes())
    assert (f"query tables {wf.index_bytes()} bytes in memory"
            in capsys.readouterr().out)


def test_build_flag_validation(tmp_path, data_file, capsys):
    out = str(tmp_path / "x.bin")
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "forest", "--out", out]) == 1
    assert "block-bytes" in capsys.readouterr().err
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "tree", "--block-bytes", "100",
                 "--out", out]) == 1
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "forest", "--block-bytes", "0",
                 "--out", out]) == 1
    with pytest.raises(SystemExit):
        main(["build", "--input", data_file, "--alphabet-bits", "5",
              "--structure", "tree", "--out", out])


def test_missing_input_file(tmp_path, capsys):
    assert main(["build", "--input", str(tmp_path / "nope.bin"),
                 "--alphabet-bits", "8", "--structure", "tree",
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_tree_and_forest_same_checksums(tmp_path, data_file):
    tfile, ffile = str(tmp_path / "t.wt"), str(tmp_path / "f.wf")
    csv_path = str(tmp_path / "bench.csv")
    main(["build", "--input", data_file, "--alphabet-bits", "8",
          "--structure", "tree", "--out", tfile])
    main(["build", "--input", data_file, "--alphabet-bits", "8",
          "--structure", "forest", "--block-bytes", "1000", "--out", ffile])
    for f in (tfile, ffile):
        assert main(["bench", "--structure-file", f, "--queries", "300",
                     "--seed", "5", "--repeats", "2", "--csv", csv_path]) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 4
    assert {r["structure"] for r in rows} == {"tree", "forest"}
    assert len({r["checksum"] for r in rows}) == 1
    assert {r["repeat"] for r in rows} == {"1", "2"}
    assert all(r["query_kind"] == "access" for r in rows)
    assert all(int(r["n_symbols"]) == 4096 for r in rows)
    # Forest block_bytes derived from the stored block length.
    f_rows = [r for r in rows if r["structure"] == "forest"]
    assert all(int(r["block_bytes"]) == 1000 for r in f_rows)


def test_bench_rank_kind(tmp_path, data_file):
    tfile = str(tmp_path / "t.wt")
    csv_path = str(tmp_path / "rank.csv")
    main(["build", "--input", data_file, "--alphabet-bits", "4",
          "--structure", "tree", "--out", tfile])
    assert main(["bench", "--structure-file", tfile, "--query-kind", "rank",
                 "--queries", "200", "--csv", csv_path]) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 3  # default repeats
    assert all(r["query_kind"] == "rank" for r in rows)
    assert len({r["checksum"] for r in rows}) == 1
    assert int(rows[0]["checksum"]) > 0


def test_bench_zero_queries(tmp_path, data_file):
    tfile = str(tmp_path / "t.wt")
    csv_path = str(tmp_path / "zero.csv")
    main(["build", "--input", data_file, "--alphabet-bits", "8",
          "--structure", "tree", "--out", tfile])
    assert main(["bench", "--structure-file", tfile, "--queries", "0",
                 "--repeats", "2", "--csv", csv_path]) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 2
    assert all(r["queries"] == "0" and r["checksum"] == "0" for r in rows)
    assert all(float(r["ns_per_query"]) == 0.0 for r in rows)


def test_bench_count_on_fm_file(tmp_path, data_file):
    raw = open(data_file, "rb").read()[:1500]
    fm = FmIndex.build(reinterpret(raw, 8).symbols, 8, backend="forest",
                       block_len=300)
    fm_file = tmp_path / "x.fm"
    fm_file.write_bytes(fm.to_bytes())
    csv_path = str(tmp_path / "count.csv")
    assert main(["bench", "--structure-file", str(fm_file),
                 "--query-kind", "count", "--queries", "50",
                 "--pattern-len", "2", "--repeats", "1",
                 "--csv", csv_path]) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 1
    assert rows[0]["structure"] == "forest"
    assert rows[0]["alphabet_bits"] == "8"
    assert rows[0]["query_kind"] == "count"
    assert int(rows[0]["n_symbols"]) == 1500


@pytest.mark.parametrize("structure", ["fm-tree", "fm-forest"])
def test_build_fm_index_and_bench_count(tmp_path, data_file, structure):
    fm_file = str(tmp_path / "x.fm")
    block = ["--block-bytes", "500"] if structure == "fm-forest" else []
    assert main(["build", "--input", data_file, "--alphabet-bits", "4",
                 "--structure", structure, *block, "--out", fm_file]) == 0
    fm = FmIndex.from_bytes(open(fm_file, "rb").read())
    assert fm.n == 2 * 4096 and fm.alphabet_bits == 4
    assert fm.backend_kind == structure[3:]
    if structure == "fm-forest":
        assert fm.backend.block_len == 1000  # 500 bytes of 4-bit symbols
    csv_path = str(tmp_path / "count.csv")
    assert main(["bench", "--structure-file", fm_file,
                 "--query-kind", "count", "--queries", "50",
                 "--pattern-len", "3", "--repeats", "1",
                 "--csv", csv_path]) == 0
    (row,) = read_rows(csv_path)
    assert row["query_kind"] == "count" and row["structure"] == structure[3:]
    # Patterns are cut from the text, so each counts at least once.
    assert int(row["checksum"]) >= 50


def test_build_fm_forest_requires_block_bytes(tmp_path, data_file, capsys):
    out = str(tmp_path / "x.fm")
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "fm-forest", "--out", out]) == 1
    assert "block-bytes" in capsys.readouterr().err
    assert main(["build", "--input", data_file, "--alphabet-bits", "8",
                 "--structure", "fm-tree", "--block-bytes", "100",
                 "--out", out]) == 1


def test_bench_count_patterns_occur_in_the_text(tmp_path, data_file):
    raw = open(data_file, "rb").read()[:1600]
    fm = FmIndex.build(reinterpret(raw, 8).symbols, 8)
    fm_file = tmp_path / "x.fm"
    fm_file.write_bytes(fm.to_bytes())
    csv_path = str(tmp_path / "count.csv")
    assert main(["bench", "--structure-file", str(fm_file),
                 "--query-kind", "count", "--queries", "50",
                 "--pattern-len", "2", "--repeats", "1",
                 "--csv", csv_path]) == 0
    # Every pattern is cut from the text, so each counts at least once.
    assert int(read_rows(csv_path)[0]["checksum"]) >= 50


@pytest.mark.parametrize("backend", ["tree", "forest"])
def test_text_patterns_follow_a_direct_lf_walk(data_file, backend):
    raw = open(data_file, "rb").read()[:1200]
    fm = FmIndex.build(reinterpret(raw, 4).symbols, 4, backend, 64)
    want = []
    for row in gen_query_positions(11, 40, fm.n + 1):
        pattern, r = [], row - 1
        while len(pattern) < 5:
            if fm.bwt_symbol(r) == fm.sentinel:
                row = row % (fm.n + 1) + 1
                pattern, r = [], row - 1
            else:
                pattern.append(fm.bwt_symbol(r))
                r = fm.lf_step(r)
        want.append(pattern[::-1])
    assert gen_text_patterns(fm, 11, 40, 5) == want


def test_bench_kind_structure_mismatch(tmp_path, data_file, capsys):
    tfile = str(tmp_path / "t.wt")
    main(["build", "--input", data_file, "--alphabet-bits", "8",
          "--structure", "tree", "--out", tfile])
    assert main(["bench", "--structure-file", tfile, "--query-kind", "count",
                 "--csv", str(tmp_path / "c.csv")]) == 1
    assert "FM-index" in capsys.readouterr().err
    fm = FmIndex.build(np.arange(8, dtype=np.uint8), 8)
    fm_file = tmp_path / "y.fm"
    fm_file.write_bytes(fm.to_bytes())
    assert main(["bench", "--structure-file", str(fm_file),
                 "--csv", str(tmp_path / "c2.csv")]) == 1


def test_bench_locality_csv(tmp_path, data_file):
    ffile = str(tmp_path / "f.wf")
    main(["build", "--input", data_file, "--alphabet-bits", "8",
          "--structure", "forest", "--block-bytes", "500", "--out", ffile])
    loc_path = str(tmp_path / "loc.csv")
    assert main(["bench", "--structure-file", ffile, "--queries", "100",
                 "--repeats", "1", "--csv", str(tmp_path / "b.csv"),
                 "--locality-csv", loc_path]) == 0
    rows = read_rows(loc_path)
    assert [int(r["granularity"]) for r in rows] == [64, 4096]
    assert all(int(r["queries"]) == 100 for r in rows)
    assert all(float(r["mean_distinct_regions"]) >= 1 for r in rows)
    # Explicit granularity list replaces the defaults.
    loc2 = str(tmp_path / "loc2.csv")
    assert main(["bench", "--structure-file", ffile, "--queries", "20",
                 "--repeats", "1", "--csv", str(tmp_path / "b2.csv"),
                 "--locality-csv", loc2, "--granularity", "128"]) == 0
    rows2 = read_rows(loc2)
    assert [int(r["granularity"]) for r in rows2] == [128]


def test_corrupt_structure_file(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\0" * 100)
    assert main(["bench", "--structure-file", str(bad),
                 "--csv", str(tmp_path / "c.csv")]) == 1
    assert "unrecognized" in capsys.readouterr().err


def test_sweep_grid(tmp_path, data_file):
    csv_path = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--input", data_file,
                 "--alphabet-bits-list", "2,8",
                 "--block-bytes-list", "64,256",
                 "--queries", "50", "--repeats", "2",
                 "--seed", "3", "--csv", csv_path]) == 0
    rows = read_rows(csv_path)
    # Per alphabet: (1 tree + 2 forests) x 2 repeats.
    assert len(rows) == 2 * 3 * 2
    for bits in ("2", "8"):
        sub = [r for r in rows if r["alphabet_bits"] == bits]
        assert {r["block_bytes"] for r in sub} == {"0", "64", "256"}
        assert len({r["checksum"] for r in sub}) == 1
        trees = [r for r in sub if r["structure"] == "tree"]
        assert all(r["block_bytes"] == "0" for r in trees)
    # Symbol counts: 4096 bytes at 2 and 8 bits.
    by_bits = {r["alphabet_bits"]: int(r["n_symbols"]) for r in rows}
    assert by_bits == {"2": 16384, "8": 4096}


def test_sweep_empty_block_list_is_tree_only(tmp_path, data_file):
    csv_path = str(tmp_path / "sweep2.csv")
    assert main(["sweep", "--input", data_file,
                 "--alphabet-bits-list", "8", "--block-bytes-list", "",
                 "--queries", "10", "--repeats", "1",
                 "--csv", csv_path]) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 1
    assert rows[0]["structure"] == "tree"


def test_sweep_rank_kind_and_locality(tmp_path, data_file):
    csv_path = str(tmp_path / "sweep3.csv")
    loc_path = str(tmp_path / "sweep3loc.csv")
    assert main(["sweep", "--input", data_file,
                 "--alphabet-bits-list", "4", "--block-bytes-list", "128",
                 "--query-kind", "rank", "--queries", "40", "--repeats", "1",
                 "--csv", csv_path, "--locality-csv", loc_path]) == 0
    rows = read_rows(csv_path)
    assert len(rows) == 2
    assert all(r["query_kind"] == "rank" for r in rows)
    assert len({r["checksum"] for r in rows}) == 1
    loc = read_rows(loc_path)
    # 2 structures x 2 default granularities.
    assert len(loc) == 4


def test_sweep_validates_alphabet(tmp_path, data_file, capsys):
    assert main(["sweep", "--input", data_file,
                 "--alphabet-bits-list", "8,6",
                 "--csv", str(tmp_path / "x.csv")]) == 1
    assert "alphabet" in capsys.readouterr().err
    assert main(["sweep", "--input", data_file,
                 "--alphabet-bits-list", "",
                 "--csv", str(tmp_path / "x.csv")]) == 1


def test_console_module_entrypoint(tmp_path):
    out = tmp_path / "m.bin"
    proc = subprocess.run(
        [sys.executable, "-m", "waveletforest", "gen", "--seed", "4",
         "--bytes", "64", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_bytes() == gen_bytes(4, 64).raw
    proc = subprocess.run(
        [sys.executable, "-m", "waveletforest", "gen", "--bytes", "-1",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "waveletforest", "nope"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
