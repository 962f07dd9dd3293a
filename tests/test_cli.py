import json
import subprocess
import sys

import pytest

DEMO = """field 101
vars x, y
ideal I = "x^2", "x*y", "y^2"
ideal J = "x"
"""

TWISTED = """field 2
vars a, b, c, d
relations "a*c - b^2", "a*d - b*c", "b*d - c^2"
ideal P = "b", "c"
"""

NONEQUIDIM = """field 101
vars x, y, z
relations "x*y", "x*z"
ideal I = "y"
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.ring"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture()
def twisted_file(tmp_path):
    path = tmp_path / "tc.ring"
    path.write_text(TWISTED)
    return str(path)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "soclelab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )


def strip_elapsed(text):
    lines = []
    for line in text.strip().split("\n"):
        if line.startswith("#") or "," not in line:
            lines.append(line)
            continue
        cells = line.split(",")
        lines.append(",".join(cells[:-1]))
    return "\n".join(lines)


def test_gb_subcommand(demo_file):
    out = run_cli("gb", demo_file, "--ideal", "I")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "index,degree,polynomial"
    assert len(lines) == 4


def test_gb_keeps_an_exponent_past_any_fixed_field_width(tmp_path):
    # 10^20 needs 67 bits: the engine's exponent fields are sized from the
    # input, so the basis comes back exact.
    path = tmp_path / "huge.ring"
    path.write_text('field 101\nvars x, y\nideal I = "x^100000000000000000000*y", "y^2"\n')
    out = run_cli("gb", str(path), "--ideal", "I")
    assert out.returncode == 0
    assert out.stdout.strip().split("\n") == [
        "index,degree,polynomial",
        "0,2,y^2",
        "1,100000000000000000001,x^100000000000000000000*y",
    ]


def test_resolve_subcommand(twisted_file):
    out = run_cli("resolve", twisted_file)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "step,degree,betti"
    rows = {tuple(l.split(",")[:2]): l.split(",")[2] for l in out.stdout.splitlines()[1:]}
    assert rows[("1", "2")] == "3"
    assert rows[("2", "3")] == "2"


def test_socle_subcommand_json(twisted_file):
    out = run_cli("socle", twisted_file, "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == "socle-lab/1"
    top = [r for r in payload["rows"] if r["j"] == "2"][0]
    assert top["lc_end"] == "-1"
    assert top["socle_beg"] == "-1"


def test_socle_oracle_refuses_a_wrong_end_degree(demo_file, monkeypatch, capsys):
    # socle --oracle runs the spot check of scan-powers, which looks just
    # past the end degree: an end degree one too low is refused.
    from soclelab import cli, localcoh

    true_end = localcoh.lc_end
    monkeypatch.setattr(localcoh, "lc_end", lambda j, module: true_end(j, module) - 1)
    monkeypatch.setattr(cli, "lc_end", localcoh.lc_end, raising=False)
    assert cli.main(["socle", demo_file, "--ideal", "I", "--oracle"]) == 2
    assert "oracle disagrees" in capsys.readouterr().err


def test_scan_oracle_refuses_a_class_on_a_vanishing_row(demo_file, monkeypatch, capsys):
    # H^0 of S/(x) vanishes; an oracle class in degree 0 exits with code 2.
    from soclelab import cli
    from test_scans import _oracle_nonzero_at_h0

    argv = ["scan-powers", demo_file, "--ideal", "J", "--t-max", "1", "--oracle"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _oracle_nonzero_at_h0(monkeypatch)
    assert cli.main(argv) == 2
    assert "oracle disagrees with duality route at j=0" in capsys.readouterr().err


def test_socle_oracle_proves_the_vanishing_row(demo_file, capsys):
    # H^0 of S/(x) vanishes: socle --oracle proves it as scan-powers does.
    from soclelab import cli

    assert cli.main(["socle", demo_file, "--ideal", "J", "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "j,lc_end,socle_beg,oracle_checked",
        "0,-inf,inf,true",
        "1,-1,-1,true",
    ]


def test_socle_oracle_refuses_a_class_on_the_vanishing_row(demo_file, monkeypatch, capsys):
    from soclelab import cli
    from test_scans import _oracle_nonzero_at_h0

    _oracle_nonzero_at_h0(monkeypatch)
    assert cli.main(["socle", demo_file, "--ideal", "J", "--oracle"]) == 2
    assert "oracle disagrees with duality route at j=0" in capsys.readouterr().err


def test_canonical_subcommand(twisted_file):
    out = run_cli("canonical", twisted_file)
    assert out.returncode == 0
    assert "a_invariant,-1" in out.stdout
    assert "endomorphism_check,true" in out.stdout


def test_scan_powers_csv_shape(demo_file):
    out = run_cli("scan-powers", demo_file, "--ideal", "I", "--t-max", "3")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "t,j,lc_end,socle_beg,oracle_checked,elapsed_ms"
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 4
    assert any(l.startswith("# measured") for l in lines)
    assert "proved" not in out.stdout


def test_scan_powers_determinism(demo_file):
    a = run_cli("scan-powers", demo_file, "--ideal", "I", "--t-max", "4")
    b = run_cli("scan-powers", demo_file, "--ideal", "I", "--t-max", "4")
    assert a.returncode == b.returncode == 0
    assert strip_elapsed(a.stdout) == strip_elapsed(b.stdout)


def test_scan_powers_svg_and_out(demo_file, tmp_path):
    report = tmp_path / "rows.csv"
    chart = tmp_path / "chart.svg"
    out = run_cli(
        "scan-powers", demo_file, "--ideal", "I", "--t-max", "2",
        "--out", str(report), "--svg", str(chart),
    )
    assert out.returncode == 0
    assert report.read_text().startswith("t,j,")
    assert chart.read_text().startswith("<svg")


def test_scan_frobenius_json(twisted_file):
    out = run_cli("scan-frobenius", twisted_file, "--e-max", "2", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["kind"] == "gauge"
    assert [r["identity_holds"] for r in payload["rows"]] == ["true", "true"]
    assert payload["summary"]["consistent"] is True
    assert "prove" not in out.stdout


def test_criterion_subcommand(demo_file):
    out = run_cli("criterion", demo_file, "--ideal", "J", "--t-max", "2")
    assert out.returncode == 0
    assert "pass" in out.stdout
    assert "FAIL" not in out.stdout


def test_lemma37_subcommand(demo_file):
    out = run_cli("lemma37", demo_file, "--ideal", "J", "--t-max", "2")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "t,socle_beg_quotient,socle_beg_ideal,difference,elapsed_ms"


def test_lemma37_refusal_exit_code_2(tmp_path):
    path = tmp_path / "bad.ring"
    path.write_text(NONEQUIDIM)
    out = run_cli("lemma37", str(path), "--ideal", "I", "--t-max", "2")
    assert out.returncode == 2
    assert "refused" in out.stderr


def test_parse_error_exit_code_1(tmp_path):
    path = tmp_path / "broken.ring"
    path.write_text('field 6\nvars x\nideal I = "x"\n')
    out = run_cli("gb", str(path), "--ideal", "I")
    assert out.returncode == 1
    assert "error" in out.stderr


def test_missing_file_exit_code_1():
    out = run_cli("gb", "/nonexistent/file.ring", "--ideal", "I")
    assert out.returncode == 1


def test_usage_error_exit_code_1(demo_file):
    out = run_cli("definitely-not-a-command", demo_file)
    assert out.returncode == 1


def test_fedder_subcommand(twisted_file):
    out = run_cli("fedder", twisted_file, "--e-max", "2")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "e,q,mu,degrees"
    assert lines[1] == "1,2,3,4;4;4"
    assert lines[2] == "2,4,1,10"


@pytest.mark.parametrize("e_max", ["0", "-1"])
def test_fedder_rejects_e_max_below_one(twisted_file, e_max):
    out = run_cli("fedder", twisted_file, "--e-max", e_max)
    assert out.returncode == 1
    assert "e_max must be >= 1" in out.stderr
    assert out.stdout == ""


def test_gauge_subcommand(twisted_file):
    out = run_cli("gauge", twisted_file, "--e-max", "2")
    assert out.returncode == 0
    assert "consistent with gauge-boundedness" in out.stdout
    assert "proved" not in out.stdout


JSON_ARGS = {
    "gb": ("demo", "--ideal", "I"),
    "resolve": ("tc",),
    "socle": ("tc",),
    "canonical": ("tc",),
    "fedder": ("tc", "--e-max", "1"),
    "gauge": ("tc", "--e-max", "1"),
    "scan-powers": ("demo", "--ideal", "I", "--t-max", "2"),
    "scan-frobenius": ("tc", "--e-max", "1"),
    "criterion": ("demo", "--ideal", "J", "--t-max", "2"),
    "lemma37": ("demo", "--ideal", "J", "--t-max", "2"),
}


def test_json_args_cover_every_subcommand():
    from soclelab.cli import _COMMANDS

    assert set(JSON_ARGS) == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(JSON_ARGS))
def test_every_subcommand_writes_versioned_json(command, demo_file, twisted_file, capsys):
    from soclelab.cli import main
    from soclelab.report import SCHEMA

    source, *rest = JSON_ARGS[command]
    path = demo_file if source == "demo" else twisted_file
    assert main([command, path, *rest, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == SCHEMA


def test_one_parser_serves_every_call_in_a_process(demo_file, twisted_file, capsys):
    # main() builds its parser once per process.  Calls with other
    # subcommands, options left out after being given, and usage errors in
    # between must parse and print exactly as with a fresh parser.
    from soclelab import cli

    calls = [
        ["gb", demo_file, "--ideal", "I", "--format", "json"],
        ["scan-powers", demo_file, "--ideal", "J", "--t-max", "2", "--oracle"],
        ["socle", demo_file, "--ideal", "I", "--oracle"],
        ["resolve", demo_file, "--ideal", "I", "--bogus"],
        ["socle", demo_file, "--ideal", "I"],
        ["scan-powers", demo_file, "--ideal", "J"],
        ["fedder", twisted_file, "--e-max", "2", "--format", "json"],
        ["resolve", demo_file, "--ideal", "I"],
        ["gb", demo_file, "--ideal", "J"],
    ]

    def run(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = cli.main(argv)
            captured = capsys.readouterr()
            out.append((code, strip_elapsed(captured.out), captured.err))
        return out

    cli._parser.cache_clear()
    shared = run(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert shared == run(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    for argv in calls[:3] + calls[4:]:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ("gb", "demo", "--ideal", "I"),
    ("resolve", "tc", "--format", "json"),
    ("canonical", "tc"),
    ("canonical", "tc", "--format", "json"),
])
def test_out_writes_exactly_what_stdout_prints(argv, demo_file, twisted_file, tmp_path, capsys):
    from soclelab.cli import main

    command, source, *rest = argv
    argv = [command, demo_file if source == "demo" else twisted_file, *rest]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    report = tmp_path / "report.txt"
    assert main([*argv, "--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert report.read_text(encoding="utf-8") == printed


def _assert_chart(path, finite_js):
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert text.count("<polyline") == len(finite_js)


def test_scan_powers_svg_draws_one_line_per_finite_index(twisted_file, tmp_path, capsys):
    from soclelab.cli import main
    from soclelab.inputfile import parse_input_file
    from soclelab.poly import NEG_INF, POS_INF
    from soclelab.scans import scan_powers

    chart = tmp_path / "chart.svg"
    assert main(["scan-powers", twisted_file, "--ideal", "P", "--t-max", "3",
                 "--svg", str(chart)]) == 0
    ring, ideals = parse_input_file(twisted_file)
    rows, _ = scan_powers(ring, ideals["P"], 3)
    finite_js = {r.j for r in rows if r.socle_beg not in (POS_INF, NEG_INF)}
    assert finite_js == {0, 1}
    _assert_chart(chart, finite_js)


def test_scan_frobenius_svg_draws_the_canonical_socle_line(twisted_file, tmp_path, capsys):
    from soclelab.cli import main

    chart = tmp_path / "chart.svg"
    assert main(["scan-frobenius", twisted_file, "--e-max", "2", "--svg", str(chart)]) == 0
    payload = capsys.readouterr().out
    assert payload.startswith("e,")
    _assert_chart(chart, {0})
    assert "socle_beg(omega^[q]) / e against e" in chart.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gb", "{demo}"], "needs --ideal NAME"),
        (["gb", "{demo}", "--ideal", "NOPE"], "no ideal named 'NOPE'"),
        (["fedder", "{twisted}", "--e-max", "0"], "e_max must be >= 1"),
        (["criterion", "{demo}", "--ideal", "J", "--t-max", "1", "--trunc", "-3"],
         "truncation must be >= 0"),
    ],
)
def test_in_process_errors_exit_1(demo_file, twisted_file, capsys, argv, message):
    from soclelab.cli import main

    argv = [a.format(demo=demo_file, twisted=twisted_file) for a in argv]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert message in out.err
