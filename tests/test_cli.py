"""Command-line surface: output shapes, exit codes, cache behavior."""

import json
from pathlib import Path

import pytest

from adlv.cli import main
from adlv.elements import elements_of_length, parse_element
from adlv.hecke import ClassPolyEngine, ClassPolyTable, class_polynomials
from adlv.roots import build_root_datum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_a1(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A1", "--max-length", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("rep\t")
    reps = [line.split("\t")[0] for line in lines[1:]]
    assert reps == ["t[0]", "t[1]*s1", "t[-1]", "t[-2]"]
    assert all(line.split("\t")[4] == "yes" for line in lines[1:])


def test_classify_a2_basic(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A2", "--max-length", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "A1", "--max-length", "0", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert [row["rep"] for row in data["classes"]] == ["t[0]", "t[1]*s1"]


def test_invalid_type_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--type", "Z9", "--max-length", "0")
    assert code == 2
    assert "type" in err


def test_invalid_delta_exits_2(capsys):
    code, _, err = run(
        capsys, "classify", "--type", "C2", "--delta", "2,1", "--max-length", "0"
    )
    assert code == 2
    assert "Cartan" in err


def test_dim_fixtures(capsys):
    code, out, _ = run(capsys, "dim", "--type", "A1", "--w", "w[0 1 0]", "--b", "unit")
    assert code == 0
    assert "dim: 2" in out
    code, out, _ = run(capsys, "dim", "--type", "A1", "--w", "w[0 1 0]", "--b", "t[2]")
    assert code == 0
    assert "dim: 1" in out
    code, out, _ = run(capsys, "dim", "--type", "A1", "--w", "w[1]", "--b", "unit")
    assert code == 0
    assert "dim: 1" in out


def test_dim_json(capsys):
    code, out, _ = run(
        capsys,
        "dim", "--type", "A1", "--w", "w[0 1 0]", "--b", "unit",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2 and data["virtual_dim"] == 2
    assert data["schema_version"] == 1
    assert data["classes"][0]["rep"] == "t[0]*s1"


def test_dim_emit_trace(capsys):
    code, out, _ = run(
        capsys,
        "dim", "--type", "A1", "--w", "t[-2]*s1", "--b", "unit", "--emit-trace",
    )
    assert code == 0
    steps = [line for line in out.splitlines() if line.startswith("STEP ")]
    assert steps and all("dl=" in line for line in steps)


def test_dim_strict_reduced(capsys):
    code, _, err = run(
        capsys,
        "dim", "--type", "A1", "--w", "w[1 1 1]", "--b", "unit", "--strict-reduced",
    )
    assert code == 2 and "length" in err


def test_dim_tau_literal(capsys):
    code, out, _ = run(capsys, "dim", "--type", "A2", "--w", "tau^1", "--b", "tau^1")
    assert code == 0
    assert "dim: 0" in out


def test_sweep_ghkr(capsys):
    code, out, _ = run(
        capsys, "sweep", "--type", "A1", "--max-length", "6", "--check", "ghkr"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "# violations: 0"


def test_sweep_path_independence(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--type", "A1", "--max-length", "6",
        "--check", "path-independence", "--trials", "3",
    )
    assert code == 0
    assert "# violations: 0" in out


def test_sweep_empty_range(capsys):
    # a bound of 0 with only length-0 elements still exits cleanly
    code, out, _ = run(
        capsys, "sweep", "--type", "A1", "--max-length", "0", "--check", "ghkr"
    )
    assert code == 0


def test_determinism(capsys):
    args = ("dim", "--type", "A2", "--w", "w[0 1 2]", "--b", "unit",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "tables.jsonl"
    args = (
        "dim", "--type", "A1", "--w", "w[0 1 0]", "--b", "unit",
        "--format", "json", "--cache", str(cache),
    )
    _, cold, _ = run(capsys, *args)
    text = cache.read_text().splitlines()
    header = json.loads(text[0])
    assert header["type"] == "A1" and "library_version" in header
    records = [json.loads(line) for line in text[1:]]
    assert any(r["element"] == "t[4]*s1" for r in records)
    size_after_first = len(text)
    _, warm, _ = run(capsys, *args)
    assert warm == cold
    # warm run appends nothing new
    assert len(cache.read_text().splitlines()) == size_after_first


def test_cache_header_mismatch_ignored(tmp_path, capsys):
    cache = tmp_path / "tables.jsonl"
    cache.write_text('{"format_version": 999}\n{"element": "t[4]*s1", "table": {}}\n')
    code, out, _ = run(
        capsys,
        "dim", "--type", "A1", "--w", "w[0 1 0]", "--b", "unit",
        "--format", "json", "--cache", str(cache),
    )
    assert code == 0
    assert json.loads(out)["dim"] == 2  # stale record was not trusted


def test_cache_malformed_record_skipped(tmp_path, capsys):
    args = ("dim", "--type", "A2", "--w", "s1", "--b", "unit")
    _, cold, _ = run(capsys, *args)
    cache = tmp_path / "tables.jsonl"
    run(capsys, *args, "--cache", str(cache))
    header = cache.read_text().splitlines()[0]
    cache.write_text(header + '\n{"element": "t[0,0]"}\n')
    code, out, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0
    assert out == cold


@pytest.mark.parametrize(
    "record",
    [
        '{"element": "t[0]", "table": {"t[0]": 5}}',
        '{"element": "garbage!!", "table": {}}',
        '{"element": "t[0]", "table": {"t[0]": {"xi_coeffs": ["x"]}}}',
        "[" * 100000 + "]" * 100000,
    ],
    ids=["table-value", "literal", "coefficient", "deep-json"],
)
def test_cache_record_that_does_not_parse_is_skipped(tmp_path, capsys, record):
    args = ("dim", "--type", "A1", "--w", "w[0]", "--b", "unit")
    _, cold, _ = run(capsys, *args)
    cache = tmp_path / "tables.jsonl"
    run(capsys, *args, "--cache", str(cache))
    header = cache.read_text().splitlines()[0]
    cache.write_text(header + "\n" + record + "\n")
    code, out, err = run(capsys, *args, "--cache", str(cache))
    assert (code, out, err) == (0, cold, "")


def test_cache_record_with_a_non_canonical_literal_is_not_stored_again(tmp_path, capsys):
    # "s1" and "t[0,0]*s1" name the same element; the record written by hand
    # as "s1" must count as that element's record
    args = ("dim", "--type", "A2", "--w", "s1", "--b", "unit")
    _, cold, _ = run(capsys, *args)
    cache = tmp_path / "tables.jsonl"
    run(capsys, *args, "--cache", str(cache))
    lines = cache.read_text().splitlines()
    assert [json.loads(line)["element"] for line in lines[1:]] == ["t[0,0]*s1"]
    cache.write_text("\n".join(lines).replace('"element": "t[0,0]*s1"', '"element": "s1"') + "\n")
    before = cache.read_bytes()
    for _ in range(2):
        code, out, _ = run(capsys, *args, "--cache", str(cache))
        assert (code, out) == (0, cold)
        assert cache.read_bytes() == before


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("ADLV_CACHE", str(cache))
    code, _, _ = run(capsys, "dim", "--type", "A1", "--w", "w[0]", "--b", "unit")
    assert code == 0
    assert cache.exists()


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "dim", "--type", "A2", "--w", "w[0 1 2 0 1 2 0 1]", "--b", "unit",
        "--budget", "3",
    )
    assert code == 5
    assert "budget" in err


def test_budget_is_per_search(capsys):
    args = ("sweep", "--type", "A2", "--max-length", "8", "--check", "ghkr")
    _, full, _ = run(capsys, *args)
    code, out, _ = run(capsys, *args, "--budget", "300")
    assert code == 0
    assert out == full


def test_usage_error(capsys):
    assert main(["dim", "--type", "A1"]) == 2  # missing required arguments


def test_path_independence_obeys_budget(capsys):
    args = ("sweep", "--type", "A2", "--max-length", "6",
            "--check", "path-independence")
    code, _, err = run(capsys, *args, "--budget", "1")
    assert code == 5
    assert "budget exhausted" in err
    _, full, _ = run(capsys, *args)
    code, out, _ = run(capsys, *args, "--budget", "300")
    assert code == 0
    assert out == full


def test_cache_kept_when_budget_runs_out(tmp_path, capsys):
    args = ("sweep", "--type", "A2", "--max-length", "8", "--check", "ghkr")
    cache = tmp_path / "tables.jsonl"
    code, _, err = run(capsys, *args, "--budget", "2", "--cache", str(cache))
    assert code == 5 and "budget exhausted" in err
    lines = cache.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "A2"
    records = [json.loads(line) for line in lines[1:]]
    assert records
    a2 = build_root_datum("A2")
    engine = ClassPolyEngine(a2)
    for record in records:
        elt = parse_element(a2, record["element"])
        assert class_polynomials(elt, engine=engine).jsonable() == record
    _, cold, _ = run(capsys, *args)
    code, warm, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0
    assert warm == cold


def test_cache_of_another_type_is_left_intact(tmp_path, capsys):
    cache = tmp_path / "tables.jsonl"
    code, _, _ = run(capsys, "dim", "--type", "A1", "--w", "w[0 1 0]", "--b", "unit",
                     "--cache", str(cache))
    assert code == 0
    before = cache.read_bytes()
    lines = before.decode().splitlines()
    assert json.loads(lines[0])["type"] == "A1" and len(lines) > 1
    args = ("dim", "--type", "A2", "--w", "s1", "--b", "unit")
    _, cold, _ = run(capsys, *args)
    code, out, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0 and out == cold
    assert cache.read_bytes() == before


def test_cache_flag_wins_over_env_var(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "env-cache.jsonl"
    flag_cache = tmp_path / "flag-cache.jsonl"
    monkeypatch.setenv("ADLV_CACHE", str(env_cache))
    code, _, _ = run(capsys, "dim", "--type", "A1", "--w", "w[0]", "--b", "unit",
                     "--cache", str(flag_cache))
    assert code == 0
    assert flag_cache.exists() and not env_cache.exists()


def test_closed_stdout_ends_quietly_with_exit_0():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # about 220 kB of rows, more than a pipe and both stdio buffers hold, so
    # the run is still writing when the reader goes away
    b_list = ";".join(["unit"] * 40)
    proc = subprocess.Popen(
        [sys.executable, "-m", "adlv.cli", "sweep", "--type", "A2",
         "--max-length", "6", "--check", "ghkr", "--b", b_list],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"element\tb\tdim\tvirtual\tstatus\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "BrokenPipe" not in err, err


def test_closed_stdout_keeps_the_finished_tables(tmp_path, capsys):
    import os
    import subprocess
    import sys

    from adlv.cli import TableCache
    from adlv.elements import DiagramAut

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cache = tmp_path / "tables.jsonl"
    # about 220 kB of rows, so the reader is gone before the run has written
    # them all; the first row follows the first finished table
    args = ["sweep", "--type", "A2", "--max-length", "6", "--check", "ghkr",
            "--b", ";".join(["unit"] * 40)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "adlv.cli", *args, "--cache", str(cache)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"element\tb\tdim\tvirtual\tstatus\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert cache.exists(), "the finished tables were not saved"
    lines = cache.read_text().splitlines()
    a2 = build_root_datum("A2")
    assert json.loads(lines[0]) == TableCache(None, a2, DiagramAut.identity(a2)).header
    assert len(lines) > 1
    code, cached, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0
    _, uncached, _ = run(capsys, *args)
    assert cached == uncached


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--type", "C2", "--check", "upper"), "sweep-C2-upper-6.tsv"),
        (("--type", "C2", "--check", "mazur"), "sweep-C2-mazur-6.tsv"),
        (("--type", "A2", "--check", "closed-form"), "sweep-A2-closed-form-6.tsv"),
    ],
    ids=["upper", "mazur", "closed-form"],
)
def test_sweep_check_output_is_pinned(capsys, argv, golden):
    code, out, err = run(capsys, "sweep", "--max-length", "6", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("unit", ["unit", "1", "e"])
def test_sweep_mazur_with_the_unit_b(capsys, unit):
    args = ("sweep", "--type", "C2", "--max-length", "6", "--check", "mazur")
    code, out, err = run(capsys, *args, "--b", unit)
    assert (code, err) == (0, "")
    _, literal, _ = run(capsys, *args, "--b", "t[0,0]")
    rows = [line.split("\t") for line in out.splitlines()]
    literal_rows = [line.split("\t") for line in literal.splitlines()]
    assert len(rows) > 3 and {row[1] for row in rows[1:-2]} == {"unit"}
    assert [row[:1] + row[2:] for row in rows] == [row[:1] + row[2:] for row in literal_rows]


def test_cache_save_keeps_the_lines_it_skipped(tmp_path, capsys):
    args = ("dim", "--type", "A1", "--w", "w[0]", "--b", "unit")
    cache = tmp_path / "tables.jsonl"
    run(capsys, *args, "--cache", str(cache))
    lines = cache.read_text().splitlines()
    assert len(lines) > 1
    kept = [lines[0], "garbage!!", '{"element": "t[0]", "table": {"t[0]": 5}}']
    cache.write_text("\n".join(kept) + "\n")
    code, _, _ = run(capsys, *args, "--cache", str(cache))
    assert code == 0
    assert cache.read_text().splitlines() == kept + lines[1:]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--type", "A1", "--max-length", "0", "--cache", "tables.jsonl"),
        ("classify", "--type", "A1", "--max-length", "0", "--seed", "1"),
        ("classify", "--type", "A1", "--max-length", "0", "--budget", "5"),
        ("dim", "--type", "A1", "--w", "w[0]", "--b", "unit", "--seed", "1"),
        ("sweep", "--type", "A1", "--max-length", "0", "--format", "json"),
    ],
    ids=["classify-cache", "classify-seed", "classify-budget", "dim-seed", "sweep-format"],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--type", "A2", "--delta", "2,1", "--max-length", "6", "--check", "closed-form"),
         "sweep-A2-twisted-closed-form-6.tsv"),
        (("--type", "A2", "--max-length", "4", "--check", "closed-form", "--b", "t[1,0]"),
         "sweep-A2-closed-form-4-non-basic.tsv"),
        (("--type", "A2", "--max-length", "4", "--check", "mazur", "--b", "unit;t[1,0]"),
         "sweep-A2-mazur-4-unit-and-non-basic.tsv"),
    ],
    ids=["closed-form-twisted", "closed-form-non-basic", "mazur-non-basic"],
)
def test_sweep_skips_rows_where_the_statement_does_not_apply(capsys, argv, golden):
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert "VIOLATION" not in out and "\tskip\n" in out


def test_sweep_mazur_keeps_the_unit_rows_beside_a_non_basic_b(capsys):
    args = ("sweep", "--type", "A2", "--max-length", "4", "--check", "mazur")
    _, unit, _ = run(capsys, *args, "--b", "unit")
    _, both, _ = run(capsys, *args, "--b", "unit;t[1,0]")
    unit_rows = unit.splitlines()[1:-2]
    assert unit_rows and [row for row in both.splitlines() if "\tunit\t" in row] == unit_rows


def test_dim_of_an_element_deeper_than_the_recursion_limit(capsys):
    # length 2099: a descent recursion this deep overflows Python's stack
    code, out, err = run(capsys, "dim", "--type", "A1", "--w", "t[2100]*s1", "--b", "unit")
    assert (code, err) == (0, "")
    assert "dim: 1050\n" in out


def test_cache_save_after_a_torn_last_line_keeps_every_new_record(tmp_path, capsys):
    from adlv.cli import TableCache
    from adlv.elements import DiagramAut

    a2 = build_root_datum("A2")
    delta = DiagramAut.identity(a2)
    cache = tmp_path / "tables.jsonl"
    run(capsys, "dim", "--type", "A2", "--w", "s1", "--b", "unit", "--cache", str(cache))
    with open(cache, "a") as fh:
        fh.write('{"element": "t[0,0]*s2", "tab')  # a writer that crashed
    engine = ClassPolyEngine(a2, delta)
    store = TableCache(str(cache), a2, delta)
    store.preload(engine)
    new = [parse_element(a2, lit) for lit in ("s1*s2", "s2*s1", "w[0 1]")]
    for x in new:
        engine.table(x)
    store.save(engine)
    assert TableCache(str(cache), a2, delta).loaded == engine.memo
    assert all(x in engine.memo for x in new)


def test_cache_header_written_by_another_run_since_the_read_is_left_intact(tmp_path):
    # two runs of different types start on one missing file: the one that
    # saves second finds the other's header and appends nothing
    from adlv.cli import TableCache
    from adlv.elements import DiagramAut

    cache = tmp_path / "tables.jsonl"
    runs = []
    for label in ("A2", "A3"):
        datum = build_root_datum(label)
        delta = DiagramAut.identity(datum)
        engine = ClassPolyEngine(datum, delta)
        engine.table(parse_element(datum, "s1*s2"))
        runs.append((TableCache(str(cache), datum, delta), engine))
    runs[0][0].save(runs[0][1])
    before = cache.read_bytes()
    runs[1][0].save(runs[1][1])
    assert cache.read_bytes() == before


def test_concurrent_cache_writers_leave_whole_lines_and_one_header(tmp_path):
    import fcntl
    import os
    import subprocess
    import sys
    import time

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cache = tmp_path / "tables.jsonl"
    fd = os.open(cache, os.O_RDWR | os.O_CREAT)
    try:
        # while the file is locked, both writers reach their save and wait
        fcntl.flock(fd, fcntl.LOCK_EX)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "adlv.cli", "sweep", "--type", "A2",
                 "--max-length", str(n), "--check", "ghkr", "--cache", str(cache)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                env=env,
            )
            for n in (5, 6)
        ]
        time.sleep(0.5)
        assert cache.read_bytes() == b""
    finally:
        os.close(fd)
    for proc in procs:
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 0, err
    text = cache.read_text()
    assert text.endswith("\n")
    lines = [json.loads(line) for line in text.splitlines()]
    headers = [line for line in lines if "schema_version" in line]
    assert headers == [lines[0]]
    records = [ClassPolyTable.from_jsonable(line) for line in lines[1:]]
    a2 = build_root_datum("A2")
    assert {parse_element(a2, r.element) for r in records} == {
        w for n in range(7) for w in elements_of_length(a2, n)
    }


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("dim", "--type", "A1xA1", "--w", "s1*s2", "--b", "unit"), "dim-A1xA1-unit.txt"),
        (("sweep", "--type", "A1xA1", "--max-length", "2", "--check", "closed-form"),
         "sweep-A1xA1-closed-form-2.tsv"),
        (("sweep", "--type", "A1xA1", "--delta", "2,1", "--max-length", "2",
          "--check", "upper"), "sweep-A1xA1-twisted-upper-2.tsv"),
    ],
    ids=["dim", "closed-form", "upper-twisted"],
)
def test_reducible_type_runs_without_a_defect(capsys, argv, golden):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert "virtual_dim" not in out and "VIOLATION" not in out


def test_reducible_type_ghkr_sweep_skips_every_row(capsys):
    code, out, err = run(capsys, "sweep", "--type", "A1xA1", "--max-length", "2")
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:-2]
    assert rows and all(row.endswith("\t-\tskip") for row in rows)
    assert out.endswith(f"# skipped: {len(rows)}\n# violations: 0\n")


def test_reducible_type_dim_with_an_explicit_defect(capsys):
    args = ("dim", "--type", "A1xA1", "--w", "s1*s2", "--b", "unit")
    code, out, _ = run(capsys, *args, "--defect", "0")
    assert code == 0
    assert out == (GOLDEN / "dim-A1xA1-unit.txt").read_text(encoding="utf-8") + "virtual_dim: 2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--type", "A2", "--max-length", "2", "--check", "path-independence",
          "--trials", "1"), "argument --trials: must be at least 2, got 1"),
        (("dim", "--type", "A1", "--w", "w[0]", "--b", "unit", "--budget", "-1"),
         "argument --budget: must be at least 0, got -1"),
        (("sweep", "--type", "A2", "--max-length", "2", "--budget", "-5"),
         "argument --budget: must be at least 0, got -5"),
    ],
    ids=["trials", "dim-budget", "sweep-budget"],
)
def test_out_of_range_counts_are_usage_errors_before_any_output(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err
