from __future__ import annotations

import dataclasses
import errno
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

import procrec.cli as cli
import procrec.coding as coding_mod
import procrec.predict as predict_mod
from procrec.cli import main
from procrec.predict import json_label

import synth
from oracles import reference_load_price_csv, reference_returns_outputs

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def small_csv(tmp_path):
    return synth.write_price_csv(tmp_path / "demo.csv", synth.crypto_like_prices(401, seed=5))


# --- returns -----------------------------------------------------------------


def test_returns_writes_all_outputs(tmp_path, small_csv, capsys):
    out = tmp_path / "out"
    code = main(["returns", "--input", str(small_csv), "--out", str(out)])
    assert code == 0
    returns_lines = (out / "demo_returns.csv").read_text().strip().splitlines()
    assert returns_lines[0] == "timestamp,log_return"
    assert len(returns_lines) == 1 + 400
    values = [line.split(",")[1] for line in returns_lines[1:]]
    assert values == [repr(float(v)) for v in values]  # plain numbers, not np.float64(...)
    stats = json.loads((out / "demo_stats.json").read_text())
    assert stats["count"] == 400
    phase_lines = (out / "demo_phase_space.csv").read_text().strip().splitlines()
    assert len(phase_lines) == 1 + 399
    assert "400 returns" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["returns", "census"])
def test_every_command_runs_each_input(command, tmp_path, small_csv, capsys):
    # --input repeats for every command: both labels get their files and their lines, in input order
    out = tmp_path / "out"
    argv = [command, "--input", str(small_csv), "--input", f"copy={small_csv}", "--out", str(out)]
    assert main(argv + (["--kmax", "3"] if command == "census" else [])) == 0
    suffixes = ("returns.csv", "phase_space.csv") if command == "returns" else ("census.csv",)
    for suffix in suffixes:
        assert (out / f"demo_{suffix}").read_bytes() == (out / f"copy_{suffix}").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    if command == "returns":
        instruments = [json.loads((out / f"{label}_stats.json").read_text())["instrument"] for label in ("demo", "copy")]
        assert instruments == [line.split(":")[0] for line in lines] == ["demo", "copy"]
    else:  # each census line names its input, so the two inputs' lines differ only in their labels
        labels, census = zip(*(line.split(": ", 1) for line in lines))
        assert labels == ("demo",) * 3 + ("copy",) * 3
        assert census[:3] == census[3:] and [line.split()[0] for line in census[:3]] == ["k=1", "k=2", "k=3"]


def test_returns_phase_space_pairs_consecutive_returns(tmp_path, small_csv):
    out = tmp_path / "out"
    assert main(["returns", "--input", str(small_csv), "--out", str(out)]) == 0
    values = [float(line.split(",")[1]) for line in (out / "demo_returns.csv").read_text().splitlines()[1:]]
    raw = (out / "demo_phase_space.csv").read_bytes()
    assert raw.startswith(b"r_t,r_t_plus_1\r\n") and raw.endswith(b"\r\n")
    lines = raw.decode().splitlines()
    pairs = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(pairs) == len(values) - 1 == 399
    assert pairs == list(zip(values[:-1], values[1:]))


def test_returns_phase_space_of_constant_prices_on_diagonal(tmp_path):
    src = synth.write_price_csv(tmp_path / "flat.csv", [250.0] * 7)
    out = tmp_path / "out"
    assert main(["returns", "--input", str(src), "--out", str(out)]) == 0
    lines = (out / "flat_phase_space.csv").read_text().splitlines()
    assert lines == ["r_t,r_t_plus_1"] + ["0.0,0.0"] * 5


def test_returns_stats_name_the_first_and_last_price_stamp(tmp_path, small_csv):
    out = tmp_path / "out"
    assert main(["returns", "--input", str(small_csv), "--out", str(out)]) == 0
    stats = json.loads((out / "demo_stats.json").read_text())
    assert stats["first_timestamp"] == synth.START.isoformat()
    assert stats["last_timestamp"] == (synth.START + timedelta(hours=400)).isoformat()


def _odd_stamps(n: int) -> list[str]:
    """``n`` distinct stamps, three forms in turn: ISO seconds of year 999 with microseconds (zero
    for the first), epoch seconds around 1970 in quarters, and whole ISO hours of 2022."""
    forms = (
        lambda i: f"0999-12-31T23:59:{i // 3:02d}.{i:06d}Z",
        lambda i: repr(-2.5 + 0.25 * i),
        lambda i: f"2022-05-20T{i // 3:02d}:00:00+00:00",
    )
    return [forms[i % 3](i) for i in range(n)]


@pytest.mark.parametrize("n_returns", [3, 4, 5, 7, 8, 9, 12])
def test_returns_slices_match_the_row_oracle(tmp_path, monkeypatch, n_returns):
    # slices of 4 rows: return counts at a multiple of the slice, one below and one above, so
    # the phase space's pairs cross each slice boundary
    monkeypatch.setattr(coding_mod, "_SLICE", 4)
    prices = synth.crypto_like_prices(n_returns + 1, seed=n_returns)
    src = tmp_path / "odd.csv"
    rows = [f"{stamp},{float(p)!r}" for stamp, p in zip(_odd_stamps(len(prices)), prices)]
    src.write_text("\n".join(["timestamp,price", *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["returns", "--input", str(src), "--out", str(out)]) == 0
    status, us, loaded, _ = reference_load_price_csv(src)
    assert status == "ok" and any(u % 10**6 for u in us) and min(us) < 0
    for suffix, text in reference_returns_outputs("odd", us, loaded).items():
        assert (out / f"odd_{suffix}").read_bytes() == text.encode("utf-8"), suffix


def test_returns_memory_is_bounded_by_slices(tmp_path, monkeypatch):
    # 200,000 returns in slices of 4096: each file is formatted and written a slice at a time, so
    # what the writes allocate above the loaded series is bounded by the slice, not by the text of
    # a whole file
    monkeypatch.setattr(coding_mod, "_SLICE", 4096)
    n = 200_000
    prices = synth.crypto_like_prices(n + 1, seed=3)
    src = tmp_path / "big.csv"
    rows = map("{},{!r}".format, range(1_600_000_000, 1_600_000_000 + 3600 * (n + 1), 3600), prices.tolist())
    src.write_text("\n".join(["timestamp,price", *rows]) + "\n", encoding="utf-8")
    bound = 400 * coding_mod._SLICE
    make_out_dir = cli._make_out_dir

    def trace_from_here(out):  # the series is loaded and its stats taken; the writes follow
        make_out_dir(out)
        tracemalloc.start()

    monkeypatch.setattr(cli, "_make_out_dir", trace_from_here)
    try:
        assert main(["returns", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"
    written = tmp_path / "out" / "big_returns.csv"
    assert written.stat().st_size > 5 * bound
    assert len(written.read_text().splitlines()) == 1 + n


def test_returns_missing_file(tmp_path, capsys):
    code = main(["returns", "--input", str(tmp_path / "no.csv"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_returns_lenient_skips_bad_row(tmp_path, caplog):
    good = synth.crypto_like_prices(101, seed=2)
    path = synth.write_price_csv(tmp_path / "x.csv", good)
    lines = path.read_text().splitlines()
    lines.insert(50, "not-a-date,abc")
    path.write_text("\n".join(lines) + "\n")

    code = main(["returns", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2  # strict mode aborts

    with caplog.at_level("WARNING", logger="procrec.ingest"):
        code = main(["returns", "--input", str(path), "--out", str(tmp_path / "o"), "--lenient"])
    assert code == 0
    assert any("skipped" in r.message for r in caplog.records)
    returns_lines = (tmp_path / "o" / "x_returns.csv").read_text().strip().splitlines()
    assert len(returns_lines) == 1 + 100


def test_returns_custom_columns(tmp_path):
    src = synth.write_price_csv(tmp_path / "y.csv", synth.crypto_like_prices(10, seed=1))
    body = src.read_text().replace("timestamp,price", "time,close")
    src.write_text(body)
    code = main(
        ["returns", "--input", str(src), "--out", str(tmp_path / "o"),
         "--timestamp-col", "time", "--price-col", "close"]
    )
    assert code == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["returns"])  # --input is required
    assert exc.value.code == 2


# --- census --------------------------------------------------------------------


def test_census_writes_expected_rows(tmp_path, small_csv, capsys):
    out = tmp_path / "out"
    code = main(["census", "--input", str(small_csv), "--scheme", "five", "--kmax", "6", "--out", str(out)])
    assert code == 0
    lines = (out / "demo_census.csv").read_text().strip().splitlines()
    assert lines[0] == "k,distinct,max_possible,total_windows"
    assert len(lines) == 1 + 6
    ks = [int(row.split(",")[0]) for row in lines[1:]]
    assert ks == [1, 2, 3, 4, 5, 6]
    assert "k=6" in capsys.readouterr().out


@pytest.mark.parametrize("command, stage", [("predict", "run_experiment"), ("census", "encode_series")])
def test_prices_are_gone_before_the_next_stage(tmp_path, small_csv, monkeypatch, command, stage):
    # the returns are all that coding and the experiment read; no name may keep the PriceSeries
    import procrec.cli as cli

    loaded, checked = [], []
    load, run = cli.load_price_csv, getattr(cli, stage)

    def load_and_watch(*args, **kwargs):
        series = load(*args, **kwargs)
        loaded.append(weakref.ref(series))
        return series

    def run_and_check(*args, **kwargs):
        checked.append(loaded[0]() is None)
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "load_price_csv", load_and_watch)
    monkeypatch.setattr(cli, stage, run_and_check)
    argv = [command, "--input", str(small_csv), "--out", str(tmp_path / "out"), "--kmax", "3"]
    assert main(argv + (["--runs", "2"] if command == "predict" else [])) == 0
    assert checked == [True]


def test_returns_lets_the_prices_go_before_the_first_file(tmp_path, small_csv, monkeypatch):
    # after the logs the writers read only the stamps, a view that holds neither the series nor its prices
    import procrec.cli as cli

    loaded, alive = [], []
    load, write = cli.load_price_csv, cli.write_text_atomic

    def load_and_watch(*args, **kwargs):
        series = load(*args, **kwargs)
        loaded.extend((weakref.ref(series), weakref.ref(series.prices)))
        return series

    def write_and_check(path, text):
        alive.append([ref() is not None for ref in loaded])
        write(path, text)

    monkeypatch.setattr(cli, "load_price_csv", load_and_watch)
    monkeypatch.setattr(cli, "write_text_atomic", write_and_check)
    assert main(["returns", "--input", str(small_csv), "--out", str(tmp_path / "out")]) == 0
    assert alive == [[False, False]] * 3


def test_census_kmax_too_large(tmp_path, small_csv, capsys):
    # 0 is below order 1, 40 too large to pack, 1000 longer than the series
    for kmax in ("0", "40", "1000"):
        code = main(["census", "--input", str(small_csv), "--kmax", kmax, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_census_kmax_is_checked_before_the_input_loads(tmp_path, capsys):
    # constant prices cannot be coded; the option error comes first, as a usage error
    flat = tmp_path / "flat.csv"
    flat.write_text("\n".join(["timestamp,price"] + [f"2022-05-20T{h:02d}:00:00+00:00,100.0" for h in range(10)]) + "\n")
    out = tmp_path / "out"
    for scheme, symbols in (("five", 5), ("three", 3)):
        assert main(["census", "--input", str(flat), "--scheme", scheme, "--kmax", "40", "--out", str(out)]) == 2
        assert _one_error_line(capsys) == f"error: order 40 too large to pack over {symbols} symbols\n"
    assert not out.exists()


def test_census_dump_symbols(tmp_path, small_csv):
    out = tmp_path / "out"
    code = main(["census", "--input", str(small_csv), "--kmax", "3", "--out", str(out), "--dump-symbols"])
    assert code == 0
    symbols = (out / "demo_symbols.csv").read_text().strip().splitlines()
    assert symbols[0] == "symbol"
    assert len(symbols) == 1 + 400
    sidecar = json.loads((out / "demo_coding.json").read_text())
    assert sidecar["scheme"] == "five"
    assert len(sidecar["cut_points"]) == 4


# --- predict ---------------------------------------------------------------------


def test_predict_single_instrument(tmp_path, small_csv, capsys):
    out = tmp_path / "out"
    code = main(
        ["predict", "--input", str(small_csv), "--out", str(out),
         "--runs", "3", "--kmax", "4", "--seed", "11"]
    )
    assert code == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["master_seed"] == 11
    assert [r["k"] for r in report["results"]] == [1, 2, 3, 4]
    # the plot rows and the stdout table are the report's numbers: the plot's read back exactly
    plot = (out / "demo_plot.csv").read_text().strip().splitlines()
    assert plot == ["k,e_k,eRand_k", *(f"{r['k']},{r['e_mean']!r},{r['e_rand_mean']!r}" for r in report["results"])]
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[:2] == ["instrument=demo scheme=five runs=3 seed=11 metric=abs", "  k    e_k               eRand_k"]
    assert [line.split() for line in stdout[2:]] == [
        [str(r["k"]), f"{r['e_mean']:.4f}", "+/-", f"{r['e_std']:.4f}", f"{r['e_rand_mean']:.4f}", "+/-",
         f"{r['e_rand_std']:.4f}"]
        for r in report["results"]
    ]


def test_predict_report_matches_golden_schema(tmp_path, small_csv):
    golden = json.loads((DATA_DIR / "report.schema.json").read_text())
    out = tmp_path / "out"
    main(["predict", "--input", str(small_csv), "--out", str(out), "--runs", "2", "--kmax", "3"])
    report = json.loads((out / "demo_report.json").read_text())
    assert report["schema_version"] == golden["schema_version"]
    assert list(report.keys()) == golden["top_level"]
    assert list(report["config"].keys()) == golden["config"]
    assert list(report["series"].keys()) == golden["series"]
    assert list(report["coding"].keys()) == golden["coding"]
    for entry in report["results"]:
        assert list(entry.keys()) == golden["result_entry"]


def test_predict_every_config_flag_reaches_the_report(tmp_path, small_csv):
    # each flag of a config field at a value other than its default, through to the report
    out = tmp_path / "out"
    flags = ["--scheme", "three", "--kmin", "2", "--kmax", "5", "--runs", "3", "--seed", "7",
             "--metric", "signed", "--baseline", "marginal", "--mode", "argmax", "--stats-on", "train"]
    assert main(["predict", "--input", str(small_csv), "--out", str(out), *flags]) == 0
    report = json.loads((out / "demo_report.json").read_text())
    want = [("scheme", "three"), ("k_min", 2), ("k_max", 5), ("runs", 3), ("metric", "signed"),
            ("baseline", "marginal"), ("mode", "argmax"), ("stats_on", "train"), ("master_seed", 7)]
    assert list(report["config"].items()) == want
    assert report["master_seed"] == 7
    defaults = dataclasses.asdict(predict_mod.ExperimentConfig())
    assert all(value != defaults[field] for field, value in want)
    assert [r["k"] for r in report["results"]] == [2, 3, 4, 5]


def test_predict_three_instruments(tmp_path):
    paths = [
        synth.write_price_csv(tmp_path / f"c{i}.csv", synth.crypto_like_prices(301, seed=40 + i))
        for i in range(3)
    ]
    out = tmp_path / "out"
    argv = ["predict", "--out", str(out), "--runs", "2", "--kmax", "3"]
    for p in paths:
        argv += ["--input", str(p)]
    assert main(argv) == 0
    for i in range(3):
        assert (out / f"c{i}_report.json").exists()
        assert (out / f"c{i}_plot.csv").exists()


def test_predict_repeat_runs_are_byte_identical(tmp_path, small_csv):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["predict", "--input", str(small_csv), "--runs", "1", "--seed", "42", "--kmax", "4"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "demo_report.json").read_bytes() == (out_b / "demo_report.json").read_bytes()
    assert (out_a / "demo_plot.csv").read_bytes() == (out_b / "demo_plot.csv").read_bytes()


def test_predict_report_is_the_same_alone_first_or_last(tmp_path):
    # acceptance criterion 6 apart from --jobs: each input's report has the same bytes whether it
    # runs alone or among other inputs, first, in the middle or last
    paths = [
        synth.write_price_csv(tmp_path / f"i{j}.csv", synth.crypto_like_prices(301, seed=70 + j)) for j in range(3)
    ]

    def reports(name, inputs):
        out = tmp_path / name
        argv = ["predict", "--runs", "3", "--kmax", "3", "--seed", "7", "--out", str(out)]
        assert main(argv + [arg for path in inputs for arg in ("--input", str(path))]) == 0
        return {path.stem: (out / f"{path.stem}_report.json").read_bytes() for path in inputs}

    alone = {path.stem: reports(f"alone-{path.stem}", [path])[path.stem] for path in paths}
    assert len(set(alone.values())) == 3
    assert reports("forward", paths) == reports("backward", paths[::-1]) == alone


def test_predict_partial_failure_keeps_going(tmp_path, small_csv, capsys):
    out = tmp_path / "out"
    code = main(
        ["predict", "--input", str(small_csv), "--input", str(tmp_path / "ghost.csv"),
         "--out", str(out), "--runs", "1", "--kmax", "2"]
    )
    assert code == 2
    assert (out / "demo_report.json").exists()
    captured = capsys.readouterr()
    assert "ghost" in captured.err
    assert "instrument=demo" in captured.out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_predict_frees_each_report_before_the_next_instrument(tmp_path, small_csv, monkeypatch, jobs):
    # a finished report holds its tables and coded series; no name may keep it while the next one runs
    import procrec.cli as cli

    reports, dead = [], []
    run = cli.run_experiment

    def run_and_watch(*args, **kwargs):
        gc.collect()
        dead.append([ref() is None for ref in reports])
        report = run(*args, **kwargs)
        reports.append(weakref.ref(report))
        return report

    monkeypatch.setattr(cli, "run_experiment", run_and_watch)
    argv = ["predict", "--input", f"a={small_csv}", "--input", f"b={small_csv}", "--out", str(tmp_path / "out")]
    assert main([*argv, "--jobs", jobs, "--runs", "2", "--kmax", "3"]) == 0
    assert dead == [[], [True]]


def test_predict_stderr_comes_one_instrument_at_a_time(tmp_path, small_csv):
    # the first input's error line comes before the second input's ingest warning
    lines = small_csv.read_text().splitlines()
    lines.insert(50, "not-a-date,abc")
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("\n".join(lines) + "\n")
    argv = ["predict", "--input", str(tmp_path / "ghost.csv"), "--input", str(bad_row), "--lenient",
            "--out", str(tmp_path / "out"), "--runs", "1", "--kmax", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "procrec.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert [line.split(" ", 1)[0] for line in err] == ["error:", "WARNING"], err
    assert "ghost" in err[0] and "skipped" in err[1]


def test_predict_labeled_inputs(tmp_path, small_csv):
    out = tmp_path / "out"
    code = main(
        ["predict", "--input", f"BTC={small_csv}", "--out", str(out), "--runs", "1", "--kmax", "2"]
    )
    assert code == 0
    assert (out / "BTC_report.json").exists()


def test_predict_env_seed_fallback(tmp_path, small_csv, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("PROCREC_SEED", "777")
    main(["predict", "--input", str(small_csv), "--out", str(out), "--runs", "1", "--kmax", "2"])
    report = json.loads((out / "demo_report.json").read_text())
    assert report["master_seed"] == 777


def test_predict_flag_seed_beats_env(tmp_path, small_csv, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("PROCREC_SEED", "777")
    main(["predict", "--input", str(small_csv), "--out", str(out), "--runs", "1", "--kmax", "2", "--seed", "5"])
    report = json.loads((out / "demo_report.json").read_text())
    assert report["master_seed"] == 5


def test_predict_three_symbol_scheme(tmp_path, small_csv):
    out = tmp_path / "out"
    code = main(
        ["predict", "--input", str(small_csv), "--out", str(out),
         "--runs", "1", "--kmax", "2", "--scheme", "three"]
    )
    assert code == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert report["coding"]["symbols"] == [-1, 0, 1]
    assert len(report["coding"]["cut_points"]) == 2


def test_predict_dump_flags(tmp_path, small_csv):
    out = tmp_path / "out"
    code = main(
        ["predict", "--input", str(small_csv), "--out", str(out),
         "--runs", "1", "--kmax", "2", "--dump-symbols", "--dump-tables"]
    )
    assert code == 0
    assert (out / "demo_symbols.csv").exists()
    coding = json.loads((out / "demo_report.json").read_text())["coding"]
    assert (out / "demo_coding.json").read_text() == json.dumps(coding, indent=2) + "\n"  # the report's record
    tables = json.loads((out / "demo_tables.json").read_text())
    assert tables["k_max"] == 2
    assert tables["n_train"] == 200


@pytest.mark.parametrize("failing", ["write", "replace", "tables"])
def test_failed_write_keeps_old_report(tmp_path, small_csv, monkeypatch, capsys, failing):
    # "tables": the report and plot writes succeed, the --dump-tables write fails
    out = tmp_path / "out"
    argv = ["predict", "--input", str(small_csv), "--out", str(out), "--runs", "1", "--kmax", "2",
            "--dump-tables"]
    assert main(argv + ["--seed", "1"]) == 0
    old = {name: (out / name).read_bytes() for name in ("demo_report.json", "demo_tables.json")}
    real_open = Path.open

    class FullDisk:
        """An output file that takes half of the first text it is given, then finds the disk full."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def half_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if mode != "w" or (failing == "tables" and not path.name.startswith("demo_tables.json")):
            return fh
        return FullDisk(fh)

    def no_replace(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    if failing == "replace":
        monkeypatch.setattr(os, "replace", no_replace)
    else:
        monkeypatch.setattr(Path, "open", half_open)
    capsys.readouterr()
    assert main(argv + ["--seed", "2"]) == 1
    assert _one_error_line(capsys).startswith("error: demo: ")
    kept = ["demo_tables.json"] if failing == "tables" else sorted(old)
    for name in kept:
        assert (out / name).read_bytes() == old[name], name
    if failing == "tables":
        assert (out / "demo_report.json").read_bytes() != old["demo_report.json"]  # seed 2 was written
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("env_seed", ["abc", "-5", "99999999999999999999999"])
def test_predict_bad_env_seed_exits_2(tmp_path, small_csv, monkeypatch, capsys, env_seed):
    out = tmp_path / "out"
    monkeypatch.setenv("PROCREC_SEED", env_seed)
    code = main(["predict", "--input", str(small_csv), "--out", str(out), *SUBCOMMAND_ARGS["predict"]])
    assert code == 2
    assert "PROCREC_SEED" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["census", "predict", "returns"])
def test_error_names_label_once(tmp_path, capsys, command):
    header_only = tmp_path / "h.csv"
    header_only.write_text("timestamp,price\n")
    empty = tmp_path / "e.csv"
    empty.write_text("")
    for path, want in (
        (header_only, "error: h: need at least 2 price points, got 0\n"),
        (empty, "error: e: line 1: empty file, expected a header row\n"),
    ):
        code = main([command, "--input", str(path), "--out", str(tmp_path / "o"), *SUBCOMMAND_ARGS[command]])
        assert code == 2
        assert _one_error_line(capsys) == want


def test_predict_degenerate_series_exits_1(tmp_path, capsys):
    # constant prices: zero returns everywhere, no thresholds can be formed
    path = tmp_path / "flat.csv"
    lines = ["timestamp,price"] + [
        f"2022-05-20T{h:02d}:00:00+00:00,100.0" for h in range(10)
    ]
    path.write_text("\n".join(lines) + "\n")
    code = main(["predict", "--input", str(path), "--out", str(tmp_path / "o"), "--runs", "1", "--kmax", "2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_predict_invalid_k_range(tmp_path, small_csv, capsys):
    code = main(
        ["predict", "--input", str(small_csv), "--out", str(tmp_path),
         "--kmin", "4", "--kmax", "2"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


# --- exit-code contract ------------------------------------------------------------

SUBCOMMAND_ARGS = {
    "returns": [],
    "census": ["--kmax", "2"],
    "predict": ["--runs", "1", "--kmax", "2"],
}


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
@pytest.mark.parametrize("defect", ["undecodable", "oversized_field"])
def test_unreadable_csv_exits_2_with_line_number(tmp_path, small_csv, capsys, command, defect):
    lines = small_csv.read_bytes().splitlines()
    ts = lines[5].split(b",")[0]
    lines[5] = ts + (b",1\xff02" if defect == "undecodable" else b"," + b"9" * 200_000)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for lenient in ([], ["--lenient"]) if defect == "oversized_field" else ([],):
        argv = [command, "--input", str(path), "--out", str(tmp_path / "o"), *lenient]
        assert main(argv + SUBCOMMAND_ARGS[command]) == 2
        assert "line 6" in _one_error_line(capsys)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_predict_jobs_below_one_exits_2(tmp_path, small_csv, capsys, jobs):
    out = tmp_path / "out"
    code = main(["predict", "--input", str(small_csv), "--out", str(out), "--jobs", jobs,
                 *SUBCOMMAND_ARGS["predict"]])
    assert code == 2
    _one_error_line(capsys)
    assert not out.exists()


def test_predict_duplicate_labels_exit_2(tmp_path, small_csv, capsys):
    other = tmp_path / "b" / "demo.csv"
    other.parent.mkdir()
    other.write_bytes(small_csv.read_bytes())
    out = tmp_path / "out"
    for inputs in ([str(small_csv), str(other)], [f"X={small_csv}", f"X={other}"]):
        argv = ["predict", "--out", str(out), *SUBCOMMAND_ARGS["predict"]]
        for item in inputs:
            argv += ["--input", item]
        assert main(argv) == 2
        _one_error_line(capsys)
        assert not out.exists()


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
@pytest.mark.parametrize("label", ["../../evil", "a/b", "..", "ABSOLUTE"])
def test_label_outside_out_dir_exits_2(tmp_path, small_csv, capsys, command, label):
    # every escape the label could make stays under tmp_path, where it is seen
    out = tmp_path / "deep" / "er" / "out"
    if label == "ABSOLUTE":
        label = str(tmp_path / "abs")
    argv = [command, "--input", f"{label}={small_csv}", "--out", str(out), *SUBCOMMAND_ARGS[command]]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    _one_error_line(capsys)
    assert sorted(tmp_path.rglob("*")) == before


def _tree(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
@pytest.mark.parametrize("defect", ["out_is_file", "out_under_file", "input_is_dir"])
def test_unusable_path_exits_2(tmp_path, small_csv, capsys, command, defect):
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    source, out = str(small_csv), tmp_path / "out"
    if defect == "out_is_file":
        out = blocker
    elif defect == "out_under_file":
        out = blocker / "out"
    else:
        (tmp_path / "dir.csv").mkdir()
        source = str(tmp_path / "dir.csv")
    before = _tree(tmp_path)
    assert main([command, "--input", source, "--out", str(out), *SUBCOMMAND_ARGS[command]]) == 2
    _one_error_line(capsys)
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_predict_unmakeable_out_one_error_line(tmp_path, small_csv, capsys, jobs):
    # every instrument fails on the same --out; the command says so once
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    argv = ["predict", "--input", f"a={small_csv}", "--input", f"b={small_csv}", "--out", str(blocker / "out")]
    before = _tree(tmp_path)
    assert main([*argv, "--jobs", jobs, *SUBCOMMAND_ARGS["predict"]]) == 2
    assert "--out: " in _one_error_line(capsys)
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["census", "returns"])
def test_failed_write_exits_1(tmp_path, small_csv, monkeypatch, capsys, command):
    real_open = Path.open

    def no_space(path, mode="r", *args, **kwargs):
        if mode == "w":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", no_space)
    out = tmp_path / "out"
    assert main([command, "--input", str(small_csv), "--out", str(out), *SUBCOMMAND_ARGS[command]]) == 1
    assert "No space left on device" in _one_error_line(capsys)
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
@pytest.mark.parametrize("price_col", ["timestamp", "close"])
def test_bad_columns_exit_2_before_out(tmp_path, small_csv, capsys, command, price_col):
    # "timestamp" names the stamp column twice, which the option check rejects; "close" is not in the header
    out = tmp_path / "out"
    argv = [command, "--input", str(small_csv), "--out", str(out), "--price-col", price_col]
    assert main(argv + SUBCOMMAND_ARGS[command]) == 2
    err = _one_error_line(capsys)
    assert ("both 'timestamp'" in err) == (price_col == "timestamp")
    assert not out.exists()


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def latin1_csv(tmp_path, small_csv):
    """``small_csv``'s bytes under the file name ``x\\xff.csv``, which is not UTF-8."""
    path = tmp_path / os.fsdecode(b"x\xff.csv")
    try:
        path.write_bytes(small_csv.read_bytes())
    except (OSError, UnicodeError):
        pytest.skip("this file system takes only UTF-8 file names")
    return path


def _run_cli(argv, stdout_errors):
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": f"utf-8:{stdout_errors}"}
    return subprocess.run([sys.executable, "-m", "procrec.cli", *map(str, argv)], env=env, capture_output=True)


def test_predict_label_not_utf8(tmp_path, latin1_csv):
    # the label "x\udcff" seeds its streams from the file name's bytes and names its outputs
    out = tmp_path / "out"
    done = _run_cli(["predict", "--input", latin1_csv, "--out", out, *SUBCOMMAND_ARGS["predict"]], "surrogateescape")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"instrument=x\xff ")
    report = (out / os.fsdecode(b"x\xff_report.json")).read_bytes().decode("utf-8", "strict")  # valid Unicode
    assert json.loads(report)["instrument"] == "x\\xff"


def test_returns_label_not_utf8(tmp_path, latin1_csv):
    # the stats name the label in valid Unicode, as the report does: its stray byte written as \xff
    out = tmp_path / "out"
    done = _run_cli(["returns", "--input", latin1_csv, "--out", out], "surrogateescape")
    assert done.returncode == 0, done.stderr
    text = (out / os.fsdecode(b"x\xff_stats.json")).read_bytes().decode("utf-8", "strict")
    assert json.loads(text)["instrument"] == "x\\xff"


def test_json_label_keeps_utf8_labels():
    for label in ("btc", "ethx-2022", "\u00e9t\u00e9", "\u6bd4\u7279\u5e01"):
        assert json_label(label) == label
    assert json_label("x\udcff") == "x\\xff"


def test_returns_unprintable_label_one_error_line(tmp_path, latin1_csv):
    # a stdout that cannot print the label fails this input like any other error: one line, no traceback
    done = _run_cli(["returns", "--input", latin1_csv, "--out", tmp_path / "out"], "strict")
    assert done.returncode == 1
    err = done.stderr.decode("utf-8")
    assert err.startswith("error: x\\udcff: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
