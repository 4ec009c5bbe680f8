import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import portfolio_vcg
from portfolio_vcg import Offer, make_market, qp, random_market, verification
from portfolio_vcg.cli import (
    EXIT_OUTPUT,
    EXIT_SOLVER,
    main,
    market_from_dict,
    market_to_dict,
)

FIXTURE_DOC = {
    "offers": [
        {"id": "a", "bid": 1.0, "basis": "per_ad_call", "response_rate": None},
        {"id": "b", "bid": 8.0, "basis": "per_response", "response_rate": 0.1},
    ],
    "covariance": [[1.0, 0.0], [0.0, 1.0]],
    "q": 0.5,
    "pool_size": 1000,
}


QMAP_DOC = {"a_matrix": [[1.0, 0.0], [0.0, 1.0]], "b_vector": [0.0, 0.0],
            "c_vector": [1.0, 0.8], "q": 2.0, "m": 10}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, **kwargs) -> subprocess.CompletedProcess:
    """The command in a process of its own, on this checkout's package."""
    src = str(Path(portfolio_vcg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "portfolio_vcg.cli", *args],
                          env=env, timeout=120, **kwargs)


@pytest.fixture()
def fixture_file(tmp_path):
    return write_json(tmp_path / "market.json", FIXTURE_DOC)


class TestRoundTrip:
    def test_fixture_roundtrip_is_bit_exact(self):
        market = market_from_dict(FIXTURE_DOC)
        doc = market_to_dict(market)
        again = market_from_dict(json.loads(json.dumps(doc)))
        assert market_to_dict(again) == doc

    def test_random_market_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(907)
        for _ in range(10):
            market = random_market(rng)
            doc = market_to_dict(market)
            again = market_from_dict(json.loads(json.dumps(doc)))
            assert np.array_equal(again.mu, market.mu)
            assert np.array_equal(again.sigma, market.sigma)
            assert again.q == market.q
            assert again.pool_size == market.pool_size

    def test_caps_roundtrip(self):
        market = make_market(
            [Offer("a", 2.0), Offer("b", 1.0), Offer("c", 0.5)],
            np.eye(3), 0.3, 500, caps=[0.5, 0.7, 1.0])
        doc = market_to_dict(market)
        again = market_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(again.caps, market.caps)


class TestAllocateCommand:
    def test_writes_weights_summing_to_one(self, fixture_file, tmp_path,
                                           capsys):
        out = tmp_path / "result.json"
        code = main(["allocate", "--input", fixture_file,
                     "--output", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        weights = result["allocation"]["weights"]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert weights[0] == pytest.approx(0.6, abs=1e-6)
        assert weights[1] == pytest.approx(0.4, abs=1e-6)
        assert result["input_digest"].startswith("sha256:")
        assert result["diagnostics"]["kkt_residual"] <= 1e-9

    def test_asymmetric_covariance_exits_3_naming_entries(self, tmp_path,
                                                          capsys):
        doc = dict(FIXTURE_DOC, covariance=[[1.0, 0.5], [0.4, 1.0]])
        path = write_json(tmp_path / "bad.json", doc)
        code = main(["allocate", "--input", path])
        assert code == 3
        err = capsys.readouterr().err
        assert "asymmetric_covariance" in err
        assert "sigma[0][1]" in err or "sigma[1][0]" in err

    def test_caps_infeasible_without_one_offer_exits_3(self, tmp_path,
                                                       capsys):
        # allocation alone is feasible, but pricing offer "a" pins it to
        # zero and the remaining caps sum to 0.15 < 1
        doc = dict(FIXTURE_DOC,
                   offers=[{"id": "a", "bid": 1.0}, {"id": "b", "bid": 0.8},
                           {"id": "c", "bid": 0.5}],
                   covariance=np.eye(3).tolist(), caps=[0.9, 0.05, 0.1])
        path = write_json(tmp_path / "capped.json", doc)
        assert main(["allocate", "--input", path]) == 3
        err = capsys.readouterr().err
        assert "infeasible_without_offer" in err
        assert "'a'" in err

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"offers": [')
        assert main(["allocate", "--input", str(path)]) == 2

    @pytest.mark.parametrize("command, doc, message", [
        ("allocate", {"offers": []}, "missing required field"),
        ("allocate", [FIXTURE_DOC], "must be a JSON object"),
        ("allocate", dict(FIXTURE_DOC, offers={"a": 1.0}), "must be a list"),
        ("allocate", dict(FIXTURE_DOC, offers=["a"]), "must be an object"),
        ("allocate", dict(FIXTURE_DOC, offers=[{"id": "a", "bid": "x"}]),
         "bad offer entry"),
        ("allocate", dict(FIXTURE_DOC, pool_size=10.5), "must be an integer"),
        ("allocate", dict(FIXTURE_DOC, pool_size=True), "must be an integer"),
        ("allocate", dict(FIXTURE_DOC, covariance=[[1.0, "z"], [0.0, 1.0]]),
         "malformed market document"),
        ("allocate", dict(FIXTURE_DOC, caps={"a": 1.0}),
         "caps has no entry for offer 'b'"),
        ("qmap", [1.0], "must be a JSON object"),
        ("qmap", dict(QMAP_DOC, m=2.5), "must be an integer"),
        ("qmap", dict(QMAP_DOC, a_matrix=[[1.0, "y"], [0.0, 1.0]]),
         "malformed qmap document"),
    ], ids=["missing_field", "market_not_object", "offers_not_list",
            "offer_not_object", "bid_not_number", "pool_size_float",
            "pool_size_bool", "covariance_entry", "caps_missing_id",
            "qmap_not_object", "m_float", "a_matrix_entry"])
    def test_missing_field_exits_2(self, tmp_path, capsys, command, doc,
                                   message):
        path = write_json(tmp_path / "malformed.json", doc)
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("parse error: ")
        assert message in err[0]

    def test_missing_file_exits_2(self, capsys):
        assert main(["allocate", "--input", "/nonexistent/market.json"]) == 2


class TestPriceCommand:
    def test_fixture_prices(self, fixture_file, capsys):
        code = main(["price", "--input", fixture_file])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        prices = result["prices"]
        assert prices["offer_prices"][0] == pytest.approx(0.24, abs=1e-6)
        assert prices["offer_prices"][1] == pytest.approx(0.16, abs=1e-6)
        assert prices["risk_charge"] == pytest.approx(0.08, abs=1e-6)
        assert prices["publisher_revenue"] == pytest.approx(0.40, abs=1e-6)
        assert prices["per_response"][0] is None
        assert prices["per_response"][1] == pytest.approx(0.004, abs=1e-6)

    def test_eps_price_is_verify_only(self, fixture_file):
        # no command takes a tolerance: the solver's tolerance and budget
        # and the property checks' price tolerance are fixed
        for flag, value in (("--eps-price", "1e-3"), ("--kkt-tol", "1e-3"),
                            ("--max-iter", "10")):
            for argv in (["price", "--input", fixture_file],
                         ["verify", "--trials", "0"]):
                with pytest.raises(SystemExit) as exit_:
                    main(argv + [flag, value])
                assert exit_.value.code == 2, (argv[0], flag)

    def test_spent_iteration_budget_exits_4(self, tmp_path, capsys,
                                            monkeypatch):
        # the cold allocation of this market makes 3 working-set changes
        doc = {
            "offers": [{"id": k, "bid": bid}
                       for k, bid in zip("abcd", (2.6, 1.7, 5.0, 1.6))],
            "covariance": [[5.54, 0.14, 0.23, 3.24], [0.14, 0.12, 0.42, -0.1],
                           [0.23, 0.42, 3.26, -1.14], [3.24, -0.1, -1.14, 2.41]],
            "q": 2.0,
            "pool_size": 1000,
        }
        path = write_json(tmp_path / "market.json", doc)
        assert main(["price", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["iterations"] == 3
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 0)
        assert main(["price", "--input", path]) == EXIT_SOLVER == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: ")

    def test_closed_stdout_exits_6_without_traceback(self, fixture_file):
        # the reader is gone before the command writes, as when
        # ``portfolio-vcg price ... | head -c 10`` meets a large result
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_cli(["price", "--input", fixture_file],
                           stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_OUTPUT == 6
        assert b"Traceback" not in proc.stderr, proc.stderr.decode()

    def test_unwritable_output_exits_6(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "missing" / "prices.json"
        assert main(["price", "--input", fixture_file, "--output", str(out)]) \
            == EXIT_OUTPUT == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: cannot write ")
        assert captured.err.count("\n") == 1 and not out.exists()

    def test_risk_neutral_prices(self, tmp_path, capsys):
        doc = {
            "offers": [{"id": "a", "bid": 2.0}, {"id": "b", "bid": 1.0}],
            "covariance": [[1.0, 0.0], [0.0, 1.0]],
            "q": 0.0,
            "pool_size": 100,
        }
        path = write_json(tmp_path / "linear.json", doc)
        code = main(["price", "--input", path])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["prices"]["offer_prices"] == [1.0, 0.0]
        assert result["prices"]["risk_charge"] == 0.0

    def test_single_offer_exits_3(self, tmp_path, capsys):
        doc = {
            "offers": [{"id": "a", "bid": 2.0}],
            "covariance": [[1.0]],
            "q": 0.5,
            "pool_size": 100,
        }
        path = write_json(tmp_path / "single.json", doc)
        code = main(["price", "--input", path])
        assert code == 3
        assert "too_few_offers" in capsys.readouterr().err

    def test_deterministic_output(self, fixture_file, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["price", "--input", fixture_file, "--output",
                     str(first)]) == 0
        assert main(["price", "--input", fixture_file, "--output",
                     str(second)]) == 0
        assert first.read_text() == second.read_text()


class TestQmapCommand:
    def test_max_form_matches_portfolio_prices(self, tmp_path, capsys):
        doc = {
            "a_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "b_vector": [0.0, 0.0],
            "c_vector": [1.0, 0.8],
            "q": 0.5,
            "m": 1,
            "form": "max",
        }
        path = write_json(tmp_path / "qmap.json", doc)
        code = main(["qmap", "--input", path])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["allocation"]["weights"][0] == pytest.approx(0.6, abs=1e-6)
        assert result["prices"]["offer_prices"][0] == pytest.approx(0.24,
                                                                    abs=1e-6)
        assert result["prices"]["offer_prices"][1] == pytest.approx(0.16,
                                                                    abs=1e-6)
        assert result["prices"]["risk_charge"] is None

    def test_linear_pool_award(self, tmp_path, capsys):
        doc = {
            "a_matrix": [[0.0, 0.0], [0.0, 0.0]],
            "b_vector": [0.0, 0.0],
            "c_vector": [2.0, 1.0],
            "q": 1.0,
            "m": 100,
            "form": "max",
        }
        path = write_json(tmp_path / "qmap.json", doc)
        code = main(["qmap", "--input", path])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["allocation"]["call_counts"] == [100, 0]

    def test_min_form_with_zero_risk_exits_3(self, tmp_path, capsys):
        doc = {
            "a_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "b_vector": [0.0, 0.0],
            "c_vector": [1.0, 0.8],
            "q": 0.0,
            "m": 1,
            "form": "min",
        }
        path = write_json(tmp_path / "qmap.json", doc)
        code = main(["qmap", "--input", path])
        assert code == 3
        assert "max form" in capsys.readouterr().err

    def test_min_form_transforms_before_solving(self, tmp_path, capsys):
        doc = {
            "a_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "b_vector": [0.0, 0.0],
            "c_vector": [1.0, 0.8],
            "q": 2.0,
            "m": 1,
            "form": "min",
        }
        path = write_json(tmp_path / "qmap.json", doc)
        code = main(["qmap", "--input", path])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["risk_weight"] == pytest.approx(0.5)

    @pytest.mark.parametrize("field, value, name", [
        ("a_matrix", [[1.0, 0.0, 0.0], [0.0, float("inf"), 0.0], [0.0, 0.0, 1.0]],
         "A"),
        ("b_vector", [0.0, 0.0, float("nan")], "b_vector"),
        ("c_vector", [1.0, float("nan"), 3.0], "c_vector")])
    def test_non_finite_data_exits_3(self, tmp_path, capsys, field, value, name):
        doc = {"a_matrix": np.eye(3).tolist(), "b_vector": [0.0, 0.0, 0.0],
               "c_vector": [1.0, 2.0, 3.0], "q": 0.1, "m": 100, field: value}
        path = write_json(tmp_path / "qmap.json", doc)
        assert main(["qmap", "--input", path]) == 3
        assert f"non_finite_data: {name} entries must be finite" in \
            capsys.readouterr().err

    def test_column_c_vector_exits_3(self, tmp_path, capsys):
        doc = {"a_matrix": np.eye(3).tolist(), "c_vector": [[1.0], [2.0], [3.0]],
               "q": 0.1, "m": 100}
        path = write_json(tmp_path / "qmap.json", doc)
        assert main(["qmap", "--input", path]) == 3
        assert "dimension_mismatch: c_vector must be a vector, got shape (3, 1)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("b_vector", [None, [0.0]])
    def test_scalar_c_vector_exits_3(self, tmp_path, capsys, b_vector):
        doc = {"a_matrix": [[1.0]], "c_vector": 5, "q": 0.1, "m": 100}
        if b_vector is not None:
            doc["b_vector"] = b_vector
        path = write_json(tmp_path / "qmap.json", doc)
        assert main(["qmap", "--input", path]) == 3
        assert "dimension_mismatch: c_vector must be a vector, got a scalar" in \
            capsys.readouterr().err

    def test_bad_form_exits_2(self, tmp_path, capsys):
        doc = {"a_matrix": [[1.0]], "c_vector": [1.0], "q": 1.0, "m": 1,
               "form": "sideways"}
        path = write_json(tmp_path / "qmap.json", doc)
        assert main(["qmap", "--input", path]) == 2


class TestExtremeData:
    """Finite data at the edge of the float range gets a documented exit
    code and no traceback."""

    @pytest.mark.parametrize("command, doc", [
        ("price", dict(FIXTURE_DOC, q=1e308)),
        ("qmap", dict(QMAP_DOC, q=1e308)),
        ("qmap", dict(QMAP_DOC, q=1e308, b_vector=[1.0, 0.5])),
        # the max form's risk weight 1 / q is 1e308
        ("qmap", dict(QMAP_DOC, q=1e-308, form="min"))])
    def test_overflowing_objective_scale_exits_3(self, tmp_path, capsys,
                                                 command, doc):
        path = write_json(tmp_path / "doc.json", doc)
        assert main([command, "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: problem data too large")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, doc", [
        ("price", dict(FIXTURE_DOC, pool_size=10**30)),
        ("allocate", dict(FIXTURE_DOC, pool_size=2**53 + 1)),
        ("qmap", dict(QMAP_DOC, m=10**30))])
    def test_pool_beyond_float_counting_exits_3(self, tmp_path, capsys,
                                                command, doc):
        # such pools used to exit 0 with call counts of -2**63 + 1
        path = write_json(tmp_path / "doc.json", doc)
        assert main([command, "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: invalid_pool_size")
        assert captured.err.count("\n") == 1

    def test_tied_bids_at_the_float_limit_price_without_traceback(self, tmp_path,
                                                                   capsys, recwarn):
        doc = dict(FIXTURE_DOC, offers=[{"id": "a", "bid": 1e308},
                                        {"id": "b", "bid": 1e308}])
        assert main(["price", "--input", write_json(tmp_path / "tie.json", doc)]) == 0
        # the lower index wins the tie and pays the other's bid
        prices = json.loads(capsys.readouterr().out)["prices"]
        assert prices["offer_prices"] == [1e308, 0.0]
        assert not recwarn.list

    def test_capped_bids_at_the_float_limit_price_without_warning(self, tmp_path,
                                                                  capsys, recwarn):
        # at this scale a start step of the gradient over the Lipschitz bound,
        # and a mean of the unscaled gradient in the degeneracy test, overflow
        doc = dict(FIXTURE_DOC, caps=[0.5, 0.5, 0.5],
                   covariance=np.eye(3).tolist(),
                   offers=[{"id": "a", "bid": 1e308}, {"id": "b", "bid": 0.9e308},
                           {"id": "c", "bid": 0.8e308}])
        assert main(["price", "--input", write_json(tmp_path / "caps.json", doc)]) == 0
        result = json.loads(capsys.readouterr().out)
        # without a, b and c fill the caps; without b, a and c: each of a and
        # b displaces half of c's 0.8e308
        np.testing.assert_allclose(result["prices"]["offer_prices"],
                                   [4e307, 4e307, 0.0], rtol=1e-12)
        assert result["prices"]["publisher_revenue"] == pytest.approx(8e307, rel=1e-12)
        assert result["diagnostics"]["degenerate"] is False
        assert not recwarn.list


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--property", "second_price", "--trials", "25",
                     "--seed", "7", "--output", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["reports"][0]["violations"] == 0
        assert result["reports"][0]["trials"] == 25

    def test_zero_trials_vacuous_pass(self, capsys):
        code = main(["verify", "--trials", "0", "--property", "all"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert all(rep["trials"] == 0 for rep in result["reports"])

    def test_impossible_tolerance_exits_5(self, capsys, monkeypatch):
        # a negative tolerance makes every finite margin a violation, which
        # exercises the failure exit path deterministically
        monkeypatch.setattr(verification, "EPS_PRICE", -1.0)
        code = main(["verify", "--property", "ir", "--trials", "3",
                     "--seed", "7"])
        assert code == 5
        result = json.loads(capsys.readouterr().out)
        assert result["reports"][0]["violations"] > 0
        assert result["reports"][0]["counterexamples"]

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--trials", "-4")])
    def test_out_of_range_flag_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--property", "ir", "--trials", "3", flag, value])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

    def test_verify_is_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--property", "ir", "--trials", "10", "--seed", "3",
              "--output", str(first)])
        main(["verify", "--property", "ir", "--trials", "10", "--seed", "3",
              "--output", str(second)])
        assert first.read_text() == second.read_text()


class TestImportCost:
    def test_package_import_leaves_the_cli_unloaded(self):
        # a fresh process pays for every module ``import portfolio_vcg``
        # loads: the library needs neither the cli layer nor its argparse
        # and hashlib
        src = str(Path(portfolio_vcg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, portfolio_vcg; print(' '.join("
             "m for m in ('portfolio_vcg.cli', 'argparse', 'hashlib') "
             "if m in sys.modules))"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
