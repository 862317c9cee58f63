import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from nszcap import capacities as cap
from nszcap import cli
from nszcap import graphspace as gs
from nszcap import sdpsolver
from nszcap import theoremsuite as ts
from nszcap.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    channel_to_document,
    document_to_channel,
    main,
    parse_builtin_arg,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDocuments:
    @pytest.mark.parametrize("make", [
        lambda: gs.example4_channel(0.75),
        lambda: gs.amplitude_damping_channel(0.3),
        lambda: gs.prop11_channel(),
    ])
    def test_kraus_round_trip(self, make):
        ch = make()
        doc = channel_to_document(ch)
        back = document_to_channel(json.loads(json.dumps(doc)))
        assert back.d_in == ch.d_in and back.d_out == ch.d_out
        for E, F in zip(ch.kraus, back.kraus):
            assert np.abs(E - F).max() <= 1e-15

    def test_cq_round_trip(self):
        C = gs.cq_from_states(gs.example4_states(0.75))
        doc = channel_to_document(C)
        back = document_to_channel(json.loads(json.dumps(doc)))
        for P, Q in zip(C.projections, back.projections):
            assert np.abs(P - Q).max() <= 1e-12

    def test_missing_field_named(self):
        from nszcap.matrixcore import ValidationError
        with pytest.raises(ValidationError, match="kraus"):
            document_to_channel({"type": "kraus", "d_in": 2, "d_out": 2})

    def test_graph_is_not_a_document(self):
        from nszcap.matrixcore import ValidationError
        with pytest.raises(ValidationError, match="cannot serialize object of type NCGraph"):
            channel_to_document(gs.delta(2))

    def test_unknown_type(self):
        from nszcap.matrixcore import ValidationError
        with pytest.raises(ValidationError, match="unknown type"):
            document_to_channel({"type": "banana"})

    def test_builtin_arg_parsing(self):
        ch = parse_builtin_arg("example4:alpha_sq=0.9")
        assert isinstance(ch, gs.KrausChannel)
        with pytest.raises(Exception):
            parse_builtin_arg("no-such-channel")


class TestCompute:
    def test_builtin_example4(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--builtin",
                               "example4:alpha_sq=0.75", "--quantity", "upsilon-hat")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(4 / 3, abs=1e-6)
        assert doc["status"] == "optimal"

    def test_superdense_bound(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--builtin",
                               "amplitude-damping:r=0.75",
                               "--quantity", "superdense-bound")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(10 / 9, abs=1e-9)

    def test_prop11_packing(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--builtin", "prop11",
                               "--quantity", "aram")
        assert code == EXIT_OK
        assert json.loads(out)["value"] <= 1.17511

    def test_channel_file(self, capsys, tmp_path):
        doc = channel_to_document(gs.example4_channel(0.75))
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "compute", "--channel", str(path),
                               "--quantity", "upsilon")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)

    def test_cq_document_quantities(self, capsys, tmp_path):
        doc = channel_to_document(gs.cq_from_states(gs.example4_states(0.75)))
        path = tmp_path / "cq.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "compute", "--channel", str(path),
                               "--quantity", "aram-cq")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(4 / 3, abs=1e-6)

    @pytest.mark.parametrize("quantity", ["upsilon-cq", "upsilon"])
    def test_cq_document_with_zero_output_is_input_error(self, capsys, tmp_path, quantity):
        doc = channel_to_document(gs.CqGraph([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        doc["outputs"][1] = [[[0.0, 0.0]] * 2] * 2
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "compute", "--channel", str(path),
                                 "--quantity", quantity)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "empty support" in err

    def test_bad_cq_document_names_both_readings(self, capsys, tmp_path):
        # diag(0.9, 0) is neither a density matrix nor a projection
        path = tmp_path / "cq.json"
        path.write_text(json.dumps({"type": "cq", "outputs": [[[[0.9, 0], [0, 0]],
                                                              [[0, 0], [0, 0]]]]}))
        code, out, err = run_cli(capsys, "compute", "--channel", str(path),
                                 "--quantity", "upsilon-cq")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "trace 0.900000000, expected 1" in err and "not a projector" in err

    def test_cq_quantity_on_kraus_input_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--builtin", "prop11",
                               "--quantity", "upsilon-cq")
        assert code == EXIT_INPUT
        assert "cq" in err

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "kraus", "d_in": 2}))
        code, _, err = run_cli(capsys, "compute", "--channel", str(path),
                               "--quantity", "upsilon")
        assert code == EXIT_INPUT
        assert "d_out" in err or "kraus" in err

    def test_nan_kraus_document(self, capsys, tmp_path):
        doc = channel_to_document(gs.amplitude_damping_channel(0.5))
        doc["kraus"][0][1][1] = ["nan", 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "compute", "--channel", str(path),
                                 "--quantity", "upsilon")
        assert code == EXIT_INPUT
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("source, field", [
        (("--builtin", "delta:l=abc"), "'l'"),
        (("--builtin", "delta:l=2.5"), "'l'"),
        (("--builtin", "example4:alpha_sq=x"), "'alpha_sq'"),
        ({"type": "kraus", "d_in": "two", "d_out": 2,
          "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "'d_in'"),
        ({"type": "kraus", "d_in": 2, "d_out": 2, "kraus": 5}, "'kraus'"),
        ({"type": "cq", "outputs": 5}, "'outputs'"),
        ({"type": "builtin", "name": "delta", "params": [2]}, "'params'"),
        # JSON booleans are not numbers
        ({"type": "builtin", "name": "delta", "params": {"l": True}}, "'l'"),
        ({"type": "kraus", "d_in": True, "d_out": 2, "kraus": [[[[1, 0]], [[0, 0]]]]}, "'d_in'"),
        ({"type": "kraus", "d_in": 2, "d_out": 2,
          "kraus": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}, "not trace preserving"),
        ({"d_in": 2, "d_out": 2, "kraus": []}, "'type'"),
        ({"type": "cq"}, "'outputs'"),
        ({"type": "builtin", "params": {"l": 2}}, "'name'"),
        (("--builtin", "delta"), "missing parameter 'l'"),
        (("--builtin", "example4:alpha_sq"), "'alpha_sq' is not key=val"),
        ({"type": "kraus", "d_in": 1, "d_out": 1, "kraus": [[[["one", 0]]]]},
         "kraus[0]: not a numeric nested array"),
        ({"type": "cq", "outputs": [[[1, 0, 0]]]}, "outputs[0]: expected a matrix of [re, im] pairs"),
        ({"type": "cq", "outputs": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]]},
         "cq output 0 is not square: shape (2, 3)"),
    ])
    def test_malformed_input_names_the_field(self, capsys, tmp_path, source, field):
        if isinstance(source, dict):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(source))
            source = ("--channel", str(path))
        code, out, err = run_cli(capsys, "compute", *source, "--quantity", "upsilon")
        assert code == EXIT_INPUT
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and out == ""

    def test_linalg_error_is_solver_failure(self, capsys, monkeypatch):
        def broken(K):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setitem(cli.QUANTITIES, "upsilon", ("nc", broken))
        code, out, err = run_cli(capsys, "compute", "--builtin", "delta:l=2",
                                 "--quantity", "upsilon")
        assert code == EXIT_SOLVER
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "did not converge" in err

    def test_solver_failure_exits_2(self, capsys, monkeypatch):
        # a gap tolerance that no iterate reaches: the solve stalls and fails typed
        monkeypatch.setattr(sdpsolver, "GAP_TOL", 1e-300)
        code, out, err = run_cli(capsys, "compute", "--builtin", "delta:l=2",
                                 "--quantity", "upsilon")
        assert code == EXIT_SOLVER
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("solver failure: upsilon:") and "'numerical-failure'" in err

    @pytest.mark.parametrize("argv, named", [
        (("compute", "--builtin", "delta:l=2", "--channel", "chan.json", "--quantity", "upsilon"),
         "not both"),
        (("compute", "--channel", "missing.json", "--quantity", "upsilon"),
         "cannot read missing.json"),
        (("compute", "--channel", "bad.json", "--quantity", "upsilon"), "invalid JSON"),
        (("compute", "--builtin", "delta:l=2", "--quantity", "capacity"),
         "invalid choice: 'capacity'"),
        (("compute", "--builtin", "delta:l=2"), "--quantity"),
        (("verify", "--tolerance", "1e-5"), "unrecognized arguments: --tolerance"),
        (("compute", "--builtin", "delta:l=2", "--quantity", "upsilon", "--gap-tol", "1e-6"),
         "unrecognized arguments: --gap-tol"),
        (("verify", "--feas-tol", "0.5"), "unrecognized arguments: --feas-tol"),
    ], ids=["channel-and-builtin", "unreadable-file", "invalid-json", "unknown-quantity",
            "no-quantity", "verify-tolerance", "compute-gap-tol", "verify-feas-tol"])
    def test_invocation_error_is_input_error(self, capsys, monkeypatch, tmp_path, argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        try:
            code = main(list(argv))
        except SystemExit as exc:       # argparse's own rejections exit through the parser
            code = exc.code
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT and out == ""
        last = err.strip().splitlines()[-1]
        assert last.startswith("error:") and named in last

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--quantity", "upsilon")
        assert code == EXIT_INPUT

    def test_dimension_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("NSZCAP_MAX_DIM", "8")
        code, _, err = run_cli(capsys, "compute", "--builtin", "delta:l=3",
                               "--quantity", "upsilon")
        assert code == EXIT_INPUT
        assert "NSZCAP_MAX_DIM" in err

    def test_dimension_guard_setting_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("NSZCAP_MAX_DIM", "abc")
        code, out, err = run_cli(capsys, "compute", "--builtin", "delta:l=2",
                                 "--quantity", "upsilon")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and "NSZCAP_MAX_DIM must be an integer" in err

    @pytest.mark.parametrize("name, constructor", [
        ("identity:d=100000", "identity_channel"),
        ("depolarizing:d=100000", "depolarizing_channel"),
        ("delta:l=100000", "dephasing_channel"),
    ])
    @pytest.mark.parametrize("as_document", [False, True])
    def test_dimension_guard_before_build(self, capsys, monkeypatch, tmp_path,
                                          name, constructor, as_document):
        def unbuildable(*args):
            raise AssertionError(f"{constructor} called past the size guard")
        monkeypatch.setattr(gs, constructor, unbuildable)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "8")
        source = ("--builtin", name)
        if as_document:
            builtin, _, param = name.partition(":")
            key, _, val = param.partition("=")
            path = tmp_path / "big.json"
            path.write_text(json.dumps({"type": "builtin", "name": builtin,
                                        "params": {key: int(val)}}))
            source = ("--channel", str(path))
        code, out, err = run_cli(capsys, "compute", *source, "--quantity", "upsilon")
        assert code == EXIT_INPUT
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "exceeds the limit 8" in err

    @pytest.mark.parametrize("quantity", ["upsilon", "aram", "superdense-bound",
                                          "upsilon-cq", "upsilon-hat-cq", "aram-cq"])
    @pytest.mark.parametrize("kind", ["kraus", "cq"])
    def test_document_size_guard_before_graph(self, capsys, monkeypatch, tmp_path,
                                              kind, quantity):
        # Choi dimension 5 * 5 = 25 for the Kraus document and 9 * 2 = 18 for the
        # cq document: both past the limit, so no graph may be built
        if kind == "kraus":
            channel = gs.identity_channel(5)
        else:
            channel = gs.cq_from_states([np.outer(v, v) for v in
                                         (np.array([np.cos(t), np.sin(t)])
                                          for t in np.linspace(0, 3, 9))])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(channel_to_document(channel)))

        def unbuildable(*args):
            raise AssertionError("embedded graph built past the size guard")
        for constructor in ("ncgraph_from_channel", "ncgraph_from_cq"):
            monkeypatch.setattr(gs, constructor, unbuildable)
        monkeypatch.setenv("NSZCAP_MAX_DIM", "16")
        code, out, err = run_cli(capsys, "compute", "--channel", str(path),
                                 "--quantity", quantity)
        assert code == EXIT_INPUT
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "exceeds the limit 16" in err

    def test_witness_emission(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--builtin",
                               "example4:alpha_sq=0.75",
                               "--quantity", "upsilon-hat", "--witness")
        doc = json.loads(out)
        S = doc["witness"]["S_A"]
        assert isinstance(S[0][0], list) and len(S[0][0]) == 2
        total = sum(S[i][i][0] for i in range(len(S)))
        assert total == pytest.approx(doc["value"], abs=1e-6)

    @pytest.mark.parametrize("quantity", ["upsilon-cq", "upsilon-hat-cq", "aram-cq"])
    def test_cq_witness_emission(self, capsys, tmp_path, quantity):
        C = gs.cq_from_states(gs.example4_states(0.75))
        path = tmp_path / "cq.json"
        path.write_text(json.dumps(channel_to_document(C)))
        code, out, _ = run_cli(capsys, "compute", "--channel", str(path),
                               "--quantity", quantity, "--witness")
        assert code == EXIT_OK
        doc = json.loads(out)
        witness = doc["witness"]
        assert "dual_witness" not in doc
        s = witness["s"]
        assert len(s) == C.num_inputs and all(isinstance(x, float) for x in s)
        assert sum(s) == pytest.approx(doc["value"], abs=1e-6)
        if quantity == "aram-cq":
            assert witness.keys() == {"s"}
            return
        R = np.array(witness["R"])
        assert R.shape == (C.num_inputs, C.d_B, C.d_B, 2)


class TestVerify:
    def test_single_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--only", "lemma2",
                                 "--seed", "42")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["num_failed"] == 0
        assert all(c["name"] == "lemma2" for c in doc["checks"])
        assert "lemma2" in err

    def test_checks_report_their_cost(self, capsys, monkeypatch):
        # the solves run in forked worker processes, so the calls are counted
        # in shared memory made before the workers fork
        calls = multiprocessing.Value("i", 0)
        solve = cap.solve

        def counted(*args):
            with calls.get_lock():
                calls.value += 1
            return solve(*args)
        monkeypatch.setattr(cap, "solve", counted)
        monkeypatch.setattr(ts, "_solver_processes", lambda n_checks: 2)
        code, out, err = run_cli(capsys, "verify", "--only", "theorem7",
                                 "--seed", "1", "--seed", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        checks = doc["checks"]
        assert doc["workers"] == 2
        assert all({"elapsed_s", "solves", "cache_hits"} <= c.keys() for c in checks)
        assert all(c["elapsed_s"] > 0.0 for c in checks)
        assert sum(c["solves"] for c in checks) == calls.value > 0
        assert "elapsed_s" not in err

    def test_worker_crash_is_solver_failure(self, capsys, monkeypatch):
        parent = os.getpid()

        def crash(K):
            assert os.getpid() != parent, "the solve ran inline"
            os._exit(1)
        monkeypatch.setattr(cap, "upsilon", crash)
        monkeypatch.setattr(ts, "_solver_processes", lambda n_checks: 2)
        code, out, err = run_cli(capsys, "verify", "--only", "theorem7",
                                 "--seed", "1", "--seed", "2")
        assert code == EXIT_SOLVER and out == ""
        assert err.startswith("solver failure: a solver process died")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        # the pool's workers and threads are all gone when verify returns
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    def test_criteria_disagreement_is_a_failed_check(self, capsys, monkeypatch):
        # at these tolerances the four theorem 9 criteria disagree on seed 2; set
        # before main, they reach the solver workers that verify forks
        monkeypatch.setattr(sdpsolver, "GAP_TOL", 0.5)
        monkeypatch.setattr(sdpsolver, "FEAS_TOL", 0.5)
        code, out, err = run_cli(capsys, "verify", "--only", "theorem9",
                                 "--seed", "1", "--seed", "2")
        assert code == EXIT_VERIFY
        checks = {c["instance"]: c for c in json.loads(out)["checks"]}
        assert not checks["random(2->2,k=3,seed=2)"]["passed"]
        assert "agree=False" in checks["random(2->2,k=3,seed=2)"]["note"]
        assert "Traceback" not in err


class TestSettings:
    @pytest.mark.parametrize("argv, named", [
        (("verify", "--only", "bogus"), "theorem7"),
        (("verify", "--only", "theorem7", "--seed", "-1"), "seed"),
    ], ids=["unknown-check", "seed-negative"])
    def test_bad_setting_is_input_error(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and named in err

    # prop11 and theorem9 build no product graph, so only run_suite's own
    # reading of the setting can reject it
    @pytest.mark.parametrize("value, only", [
        ("-3", "theorem7"), ("0", "theorem7"), ("-3", "prop11"), ("0", "prop11"),
        ("-3", "theorem9"), ("0", "theorem9"),
    ], ids=["max-dim-negative", "max-dim-zero", "prop11-max-dim-negative",
            "prop11-max-dim-zero", "theorem9-max-dim-negative", "theorem9-max-dim-zero"])
    def test_nonpositive_dimension_guard_is_input_error(self, capsys, monkeypatch, value, only):
        monkeypatch.setenv("NSZCAP_MAX_DIM", value)
        code, out, err = run_cli(capsys, "verify", "--only", only)
        assert code == EXIT_INPUT
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "NSZCAP_MAX_DIM must be an integer" in err


class TestExamples:
    def test_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "examples")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "prop11" in doc["builtins"]
        assert "alpha_sq" in doc["builtins"]["example4"]["params"]
        assert "l" in doc["builtins"]["delta"]["params"]
