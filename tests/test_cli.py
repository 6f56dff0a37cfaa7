from __future__ import annotations

import pytest

from zsflow import cli, flows, graphs, solver
from zsflow.cli import main
from zsflow.errors import FactorSearchError, FlowNonexistentError
from zsflow.flows import parse_flow, verify_flow
from zsflow.graphs import complete, cubic_no_pm, cycle, parse_edge_list, petersen, random_regular, write_edge_list
from zsflow.solver import DEFAULT_BUDGET


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(write_edge_list(g))
    return str(path)


def strip_timing(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("wall_time_s:"))


class TestConstruct:
    def test_k8_report(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete(8))
        assert main(["construct", path]) == 0
        out = capsys.readouterr().out
        assert "command: construct" in out
        assert "r: 7" in out
        assert "k: 5" in out
        assert "verified: pass" in out

    def test_c5_unsupported_degree(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(5))
        assert main(["construct", path]) == 3

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 0\n1 2\n")
        assert main(["construct", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_irregular_input(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        assert main(["construct", str(path)]) == 2

    def test_flow_out_roundtrips_through_verify(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete(8))
        fpath = str(tmp_path / "flow.txt")
        assert main(["construct", gpath, "--flow-out", fpath, "--out", str(tmp_path / "r.txt")]) == 0
        assert main(["verify", gpath, fpath]) == 0
        assert "outcome: pass" in capsys.readouterr().out

    def test_report_flow_lines_are_the_flow_file_body(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete(8))
        fpath, rpath = tmp_path / "flow.txt", tmp_path / "r.txt"
        assert main(["construct", gpath, "--flow-out", str(fpath), "--out", str(rpath)]) == 0
        report = rpath.read_text().splitlines()
        body = fpath.read_text().splitlines()[1:]
        assert len(body) == complete(8).m
        assert report[report.index("flow:") + 1 :] == body

    def test_undecided_budget(self, tmp_path, capsys):
        path = write_graph(tmp_path, cubic_no_pm())
        assert main(["construct", path, "--budget", "2"]) == 4

    def test_negative_budget_flag_usage_error(self, tmp_path, capsys):
        # K5 is 4-regular, so construct never reaches the solver's own check
        path = write_graph(tmp_path, complete(5))
        assert main(["construct", path, "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert "budget" in captured.err and not captured.out

    def test_factor_search_error_exit_5(self, tmp_path, capsys, monkeypatch):
        def give_up(g, budget=None):
            raise FactorSearchError("regular-component factor not found")

        monkeypatch.setattr(cli, "construct", give_up)
        path = write_graph(tmp_path, complete(8))
        assert main(["construct", path]) == 5
        assert "not found" in capsys.readouterr().err

    def test_flow_nonexistent_error_exit_5(self, tmp_path, capsys, monkeypatch):
        def refute(g, budget=None):
            raise FlowNonexistentError("exhaustive search found no zero-sum 5-flow")

        monkeypatch.setattr(cli, "construct", refute)
        path = write_graph(tmp_path, complete(8))
        assert main(["construct", path]) == 5
        assert "error: exhaustive search" in capsys.readouterr().err

    def test_internal_check_failure_exits_5(self, tmp_path, capsys, monkeypatch):
        # one value of K5's weighting negated fails the post-check of construct
        real = flows._weighting

        def flip(*args):
            out = real(*args)
            out[0] = -out[0]
            return out

        monkeypatch.setattr(flows, "_weighting", flip)
        path = write_graph(tmp_path, complete(5))
        assert main(["construct", path]) == 5
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: internal: returned flow failed verification: vertex 0")
        assert captured.out == ""

    @pytest.mark.parametrize("value", [0, 7], ids=["zero", "too_large"])
    def test_internal_value_fault_exits_5(self, tmp_path, capsys, monkeypatch, value):
        # a zero or out-of-range value from the construction is its fault, not the input's
        real = flows._weighting

        def spoil(*args):
            out = real(*args)
            out[0] = value
            return out

        monkeypatch.setattr(flows, "_weighting", spoil)
        path = write_graph(tmp_path, random_regular(20, 4, 1))
        assert main(["construct", path]) == 5
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: internal: returned flow failed verification: ")
        assert captured.out == ""

    def test_internal_index_error_exits_5(self, tmp_path, capsys, monkeypatch):
        # no parser or generator raises IndexError, so one from the library is its own fault
        def overrun(g, budget=None):
            return [][0]

        monkeypatch.setattr(cli, "construct", overrun)
        path = write_graph(tmp_path, complete(8))
        assert main(["construct", path]) == 5
        captured = capsys.readouterr()
        assert captured.err == "error: list index out of range\n" and captured.out == ""

    def test_search_nonexistent_exits_5(self, tmp_path, capsys, monkeypatch):
        # K6 with construct's matching and 2-factor queries finding nothing
        # reaches the r = 5 search, which here refutes a 5-flow
        monkeypatch.setattr(flows, "max_matching", lambda g: frozenset())
        monkeypatch.setattr(flows, "find_exact_factor", lambda g, target: None)
        monkeypatch.setattr(solver, "solve", lambda g, k, budget: solver.SearchOutcome("nonexistent", None, 7, budget))
        path = write_graph(tmp_path, complete(6))
        assert main(["construct", path]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestVerify:
    def test_all_ones_fails_at_vertex_zero(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("2 4 4\n0 0 1 1\n1 1 2 1\n2 2 3 1\n3 3 0 1\n")
        assert main(["verify", gpath, str(fpath)]) == 1
        out = capsys.readouterr().out
        assert "outcome: fail" in out
        assert "violation: vertex 0 sum 2" in out

    def test_zero_value_fails(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("2 4 4\n0 0 1 1\n1 1 2 0\n2 2 3 1\n3 3 0 -1\n")
        assert main(["verify", gpath, str(fpath)]) == 1
        assert "zero value at edge 1" in capsys.readouterr().out

    def test_edge_count_mismatch(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("2 4 3\n0 0 1 1\n1 1 2 -1\n2 2 3 1\n")
        assert main(["verify", gpath, str(fpath)]) == 2
        assert "edge-count mismatch" in capsys.readouterr().err

    def test_vertex_count_mismatch(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("2 5 4\n0 0 1 1\n1 1 2 -1\n2 2 3 1\n3 3 0 -1\n")
        assert main(["verify", gpath, str(fpath)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: vertex-count mismatch: graph has 4, flow file says 5\n"
        assert not captured.out

    @pytest.mark.parametrize("header", ["3 3 -1", "3 -1 3"])
    def test_negative_header_size_usage_error(self, tmp_path, capsys, header):
        gpath = write_graph(tmp_path, cycle(3))
        fpath = tmp_path / "flow.txt"
        fpath.write_text(header + "\n")
        assert main(["verify", gpath, str(fpath)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "negative" in err

    def test_endpoint_mismatch(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("2 4 4\n0 0 2 1\n1 1 2 -1\n2 2 3 1\n3 3 0 -1\n")
        assert main(["verify", gpath, str(fpath)]) == 2

    def test_reordered_and_swapped_body_passes(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete(5))
        fpath = tmp_path / "flow.txt"
        assert main(["construct", gpath, "--flow-out", str(fpath), "--out", str(tmp_path / "r.txt")]) == 0
        head, *body = fpath.read_text().splitlines()
        rows = [line.split() for line in reversed(body)]
        for row in rows[::2]:
            row[1], row[2] = row[2], row[1]
        fpath.write_text("\n".join([head, *map(" ".join, rows)]) + "\n")
        assert main(["verify", gpath, str(fpath)]) == 0
        assert "outcome: pass" in capsys.readouterr().out

    def test_k_override(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("5 4 4\n0 0 1 1\n1 1 2 -1\n2 2 3 1\n3 3 0 -1\n")
        assert main(["verify", gpath, str(fpath), "--k", "2"]) == 0
        assert "k: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("header_k, override", [("5", "1"), ("5", "-3"), ("1", None)])
    def test_bound_below_two_is_input_error(self, tmp_path, capsys, header_k, override):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text(f"{header_k} 4 4\n0 0 1 1\n1 1 2 -1\n2 2 3 1\n3 3 0 -1\n")
        argv = ["verify", gpath, str(fpath)] + (["--k", override] if override else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"need k >= 2, got {override or header_k}" in captured.err


class TestOversizedHeader:
    # n >= 2**61: Python refuses the n-slot degree list, or a generator's
    # vertex list, before allocating it
    @pytest.mark.parametrize("n", [2**62, 10**20])
    @pytest.mark.parametrize("command", ["construct", "verify", "generate", "cycle", "complete", "circulant"])
    def test_usage_error(self, tmp_path, capsys, n, command):
        gpath = tmp_path / "g.txt"
        gpath.write_text(f"{n} 0\n")
        fpath = tmp_path / "flow.txt"
        fpath.write_text(f"2 {n} 0\n")
        argv = {
            "construct": ["construct", str(gpath)],
            "verify": ["verify", str(gpath), str(fpath)],
            "generate": ["generate", "random-regular", str(n), "3"],
            "cycle": ["generate", "cycle", str(n)],
            "complete": ["generate", "complete", str(n)],
            "circulant": ["generate", "circulant", str(n), "1,2"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: vertex count {n} is too large to hold\n"
        assert not captured.out


class TestReentry:
    """Several main() calls in one process share nothing but the parser."""

    def test_flow_out_does_not_carry_over(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete(5))
        fpath = tmp_path / "flow.txt"
        assert main(["construct", gpath, "--flow-out", str(fpath)]) == 0
        fpath.unlink()
        assert main(["construct", gpath]) == 0
        assert not fpath.exists()

    def test_k_override_does_not_carry_over(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = tmp_path / "flow.txt"
        fpath.write_text("5 4 4\n0 0 1 1\n1 1 2 -1\n2 2 3 1\n3 3 0 -1\n")
        assert main(["verify", gpath, str(fpath), "--k", "2"]) == 0
        assert "k: 2" in capsys.readouterr().out
        assert main(["verify", gpath, str(fpath)]) == 0
        assert "k: 5" in capsys.readouterr().out


class TestSolve:
    def test_no_matching_cubic_nonexistent(self, tmp_path, capsys):
        path = write_graph(tmp_path, cubic_no_pm())
        assert main(["solve", path, "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "outcome: nonexistent" in out
        assert "nodes:" in out

    def test_found_writes_verified_flow(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, cycle(4))
        fpath = str(tmp_path / "flow.txt")
        assert main(["solve", gpath, "--k", "2", "--flow-out", fpath]) == 0
        out = capsys.readouterr().out
        assert "outcome: found" in out and "verified: pass" in out
        doc = parse_flow(open(fpath).read())
        assert verify_flow(cycle(4), doc.values, k=2).ok

    def test_budget_flag(self, tmp_path, capsys):
        path = write_graph(tmp_path, cubic_no_pm())
        assert main(["solve", path, "--k", "5", "--budget", "2"]) == 4
        out = capsys.readouterr().out
        assert "budget: 2" in out and "outcome: undecided" in out

    def test_budget_defaults_whatever_the_environment(self, tmp_path, capsys, monkeypatch):
        # the flag is the only way to set a budget
        monkeypatch.setenv("ZSFLOW_BUDGET", "2")
        path = write_graph(tmp_path, cubic_no_pm())
        assert main(["solve", path, "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert f"budget: {DEFAULT_BUDGET}" in out and "outcome: found" in out

    def test_negative_budget_flag_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, cubic_no_pm())
        assert main(["solve", path, "--k", "5", "--budget", "-1"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_out_of_memory_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        def exhaust(g, k, budget):
            raise MemoryError

        monkeypatch.setattr(cli, "solve", exhaust)
        path = write_graph(tmp_path, complete(8))
        assert main(["solve", path, "--k", "1000000000"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory")


class TestFlowNumber:
    def test_petersen(self, tmp_path, capsys):
        path = write_graph(tmp_path, petersen())
        assert main(["flownumber", path, "--kmax", "6"]) == 0
        out = capsys.readouterr().out
        assert "flow_number: 3" in out

    def test_budget_exhausted_is_undecided(self, tmp_path, capsys):
        path = write_graph(tmp_path, petersen())
        assert main(["flownumber", path, "--kmax", "6", "--budget", "3"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "outcome: undecided" in lines and "flow_number: -" in lines

    def test_triangle_has_none(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(3))
        assert main(["flownumber", path, "--kmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "outcome: nonexistent" in out and "flow_number: -" in out


class TestGenerate:
    def test_circulant(self, capsys):
        assert main(["generate", "circulant", "10", "1,2,3,5"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.n == 10 and g.degrees() == tuple([7] * 10)

    def test_circulant_without_vertices_is_input_error(self, capsys):
        assert main(["generate", "circulant", "0", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "circulant needs at least 1 vertex, got 0" in captured.err

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["cycle"], "generate cycle N"),
            (["random-regular", "12"], "generate random-regular N R"),
            (["cycle", "5", "9"], "generate cycle N"),
            (["petersen", "3"], "generate petersen"),
            (["cubic-no-pm", "1", "2"], "generate cubic-no-pm"),
        ],
    )
    def test_wrong_parameter_count_is_input_error(self, capsys, argv, usage):
        assert main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: expected '{usage}', got {len(argv) - 1} parameter(s)" in captured.err

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "moebius", "8"])
        assert exc.value.code == 2

    def test_random_regular_seeded(self, capsys):
        assert main(["generate", "random-regular", "12", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "random-regular", "12", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_random_regular_give_up_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_RANDOM_REGULAR_RESTARTS", 0)
        assert main(["generate", "random-regular", "12", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: random_regular(n=12, r=3) gave up after 0 restarts\n"

    def test_generate_feeds_construct(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "cubic-no-pm", "--out", out]) == 0
        assert main(["solve", out, "--k", "4"]) == 0
        assert "outcome: nonexistent" in capsys.readouterr().out


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete(8))
        assert main(["construct", path]) == 0
        first = capsys.readouterr().out
        assert main(["construct", path]) == 0
        second = capsys.readouterr().out
        assert strip_timing(first) == strip_timing(second)


class TestGraph6Input:
    def test_construct_from_graph6(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert main(["construct", str(path), "--format", "graph6"]) == 0
        assert "r: 3" in capsys.readouterr().out
