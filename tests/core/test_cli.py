import pytest

from repro.cases import CASE_ALIASES
from repro.cli import main, make_parser
from repro.obs import read_json_trace


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "tc1" in out and "schur1" in out and "linux-cluster" in out

    def test_solve_tc1(self, capsys):
        rc = main(["solve", "--case", "tc1", "--size", "17", "--precond",
                   "schur1", "--nparts", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "max error" in out

    def test_solve_returns_nonzero_on_failure(self, capsys):
        # elasticity with Block 1 and a tiny budget: honest nonzero exit
        rc = main(["solve", "--case", "tc6", "--size", "15", "--precond",
                   "block1", "--maxiter", "10"])
        assert rc == 1
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_sweep_renders_table(self, capsys):
        rc = main(["sweep", "--case", "tc1", "--size", "17",
                   "--preconds", "block1,schur1", "--p", "2,4", "--maxiter", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "#itr" in out and "Schur 1" in out

    def test_unknown_case_exits(self):
        with pytest.raises(SystemExit):
            main(["solve", "--case", "tc9"])

    def test_more_parts_than_grid_points_exits_cleanly(self):
        with pytest.raises(SystemExit, match="nparts=20 .* 9 vertices"):
            main(["solve", "--case", "tc1", "--size", "3", "--nparts", "20"])

    def test_bad_p_list_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--case", "tc1", "--p", "2,x"])

    def test_box_scheme(self, capsys):
        rc = main(["solve", "--case", "tc1", "--size", "17", "--scheme", "box",
                   "--precond", "block2", "--nparts", "4"])
        assert rc == 0

    def test_machine_selection(self, capsys):
        rc = main(["solve", "--case", "tc1", "--size", "17",
                   "--machine", "origin3800", "--nparts", "2"])
        assert rc == 0
        assert "origin3800" in capsys.readouterr().out

    def test_parser_help_structure(self):
        parser = make_parser()
        assert parser.prog == "repro"


class TestTraceCommand:
    def test_trace_prints_breakdown_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        rc = main(["trace", "poisson2d", "--precond", "schur1", "--nparts", "4",
                   "--size", "17", "--out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        # per-phase breakdown table with setup/solve/exchange/inner-Schur rows
        for phase in ("precond.setup", "krylov.solve", "comm.exchange",
                      "schur.solve", "TOTAL"):
            assert phase in out
        assert "ledger conservation: OK" in out

        doc = read_json_trace(out_path)
        assert doc["meta"]["case"] == "tc1"
        assert doc["meta"]["precond"] == "schur1"
        assert doc["meta"]["nparts"] == 4
        names = {s["name"] for s in doc["spans"]}
        assert {"solve_case", "precond.setup", "krylov.solve"} <= names

    def test_trace_csv_export(self, tmp_path, capsys):
        json_path, csv_path = tmp_path / "t.json", tmp_path / "t.csv"
        rc = main(["trace", "tc1", "--size", "13", "--precond", "block2",
                   "--nparts", "2", "--out", str(json_path),
                   "--csv", str(csv_path)])
        assert rc == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("id,parent,depth,name")
        assert "crit_flops" in header

    def test_trace_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["trace", "poisson2d", "--size", "13", "--precond", "block1",
                   "--nparts", "2", "--maxiter", "300"])
        assert rc == 0
        assert (tmp_path / "trace_poisson2d_block1_p2.json").exists()

    def test_case_aliases_resolve(self, capsys):
        assert CASE_ALIASES["poisson2d"] == "tc1"
        rc = main(["solve", "--case", "poisson2d", "--size", "17",
                   "--nparts", "2"])
        assert rc == 0

    def test_unknown_alias_exits(self):
        with pytest.raises(SystemExit):
            main(["trace", "poissonXd"])
