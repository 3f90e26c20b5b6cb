import os
from dataclasses import replace

import numpy as np
import pytest

from portalloc.backtest import CompareConfig
from portalloc.cli import RunConfig, main
from portalloc.market_data import PriceFrame, load_price_csv, write_price_csv
from portalloc.policy import NetworkArch
from portalloc.trainer import TrainConfig


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def synth_args(outdir, steps=420, seed=3,
               regimes="0.004,-0.001|0.01,0.01|0.0|120;-0.001,0.004|0.01,0.01|0.0|120"):
    return ["synth", "--outdir", str(outdir), "--synth-steps", str(steps),
            "--seed", str(seed), "--regimes", regimes]


def test_synth_writes_prices_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(synth_args(out)) == 0
    frame = load_price_csv(str(out / "prices.csv"))
    assert frame.prices.shape == (421, 2)
    manifest = (out / "manifest.txt").read_text()
    assert "command = synth" in manifest
    assert "seed = 3" in manifest
    assert "version.portalloc" in manifest


def test_synth_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(synth_args(a)) == 0
    assert main(synth_args(b)) == 0
    assert read(a / "prices.csv") == read(b / "prices.csv")


def test_ingest_round_trip(tmp_path):
    src = tmp_path / "src"
    main(synth_args(src))
    out = tmp_path / "ingested"
    assert main(["ingest", "--prices", str(src / "prices.csv"), "--outdir", str(out)]) == 0
    assert read(out / "prices.csv") == read(src / "prices.csv")


def test_ingest_missing_file_exits_2(tmp_path, capsys):
    code = main(["ingest", "--prices", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


class TestAllocate:
    def prices(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        return str(src / "prices.csv")

    def test_minvariance_dispatch(self, tmp_path, capsys):
        out = tmp_path / "alloc"
        code = main(["allocate", "--prices", self.prices(tmp_path), "--method",
                     "minvariance", "--outdir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "method = minvariance" in stdout
        lines = (out / "weights.csv").read_text().strip().splitlines()
        assert lines[0] == "asset,weight"
        weights = np.array([float(l.split(",")[1]) for l in lines[1:]])
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-8)

    def test_unknown_method_lists_valid(self, tmp_path, capsys):
        code = main(["allocate", "--prices", self.prices(tmp_path), "--method",
                     "unknown", "--outdir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "minvariance" in err and "riskparity" in err

    def test_markowitz_without_r_min(self, tmp_path, capsys):
        code = main(["allocate", "--prices", self.prices(tmp_path), "--method",
                     "markowitz", "--outdir", str(tmp_path / "o")])
        assert code == 1
        assert "--r-min" in capsys.readouterr().err

    def test_missing_method(self, tmp_path, capsys):
        code = main(["allocate", "--prices", self.prices(tmp_path),
                     "--outdir", str(tmp_path / "o")])
        assert code == 1

    def test_infeasible_target_exits_2(self, tmp_path, capsys):
        code = main(["allocate", "--prices", self.prices(tmp_path), "--method",
                     "markowitz", "--r-min", "5.0", "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err

    def test_degenerate_risk_exits_3(self, tmp_path, capsys):
        # perfectly anticorrelated pair makes the diversification ratio blow up
        rows = ["date,UP,DOWN"]
        up, down = 100.0, 100.0
        day = np.datetime64("2020-01-06")
        for i in range(40):
            step = 0.01 if i % 2 == 0 else -0.0099
            up *= 1 + step
            down *= 1 - step
            while not np.is_busday(day):
                day += 1
            rows.append(f"{day},{up!r},{down!r}")
            day += 1
        path = tmp_path / "anti.csv"
        path.write_text("\n".join(rows) + "\n")
        code = main(["allocate", "--prices", str(path), "--method",
                     "maxdiversification", "--outdir", str(tmp_path / "o")])
        assert code == 3
        assert "degenerate risk" in capsys.readouterr().err


FAST = ["--lags", "0,1,2", "--vol-window", "5", "--max-iterations", "3",
        "--test-span", "120", "--horizons", "", "--asset-conv", "5:2,10:2"]


def train_args(prices, outdir, train_end):
    return (["train", "--prices", prices, "--outdir", str(outdir),
             "--initial-train-end", train_end] + FAST)


class TestTrainCommand:
    def test_checkpoints_and_logs(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        train_end = str(frame.dates[280])
        out = tmp_path / "trained"
        assert main(train_args(str(src / "prices.csv"), out, train_end)) == 0
        files = sorted(os.listdir(out))
        assert "checkpoint_w00.txt" in files and "train_log_w00.csv" in files
        log = (out / "train_log_w00.csv").read_text().strip().splitlines()
        assert log[0] == "iteration,objective,best_objective,gradient_norm"
        assert len(log) == 4  # header + 3 iterations

    def test_rerun_byte_identical(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        train_end = str(frame.dates[280])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(str(src / "prices.csv"), a, train_end)) == 0
        assert main(train_args(str(src / "prices.csv"), b, train_end)) == 0
        for name in ("checkpoint_w00.txt", "train_log_w00.csv"):
            assert read(a / name) == read(b / name)

    def test_missing_price_file(self, tmp_path, capsys):
        code = main(["train", "--prices", str(tmp_path / "nope.csv"),
                     "--outdir", str(tmp_path / "o")] + FAST)
        assert code == 2

    @pytest.mark.parametrize("setting", [
        "--max-leverage=nan", "--max-leverage=inf", "--l2-coeff=nan",
        "--learning-rate=nan", "--noise-std=nan", "--noise-std=inf",
    ])
    def test_non_finite_settings_exit_2(self, tmp_path, capsys, setting):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        capsys.readouterr()
        argv = train_args(str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280]))
        assert main(argv + [setting]) == 2
        assert setting[2:].split("=")[0].replace("-", "_") in capsys.readouterr().err


class TestCompareCommand:
    def setup_data(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        return str(src / "prices.csv"), str(frame.dates[280])

    def compare_args(self, prices, outdir, train_end, models="equalweight,minvariance,riskparity"):
        return (["compare", "--prices", prices, "--outdir", str(outdir),
                 "--initial-train-end", train_end, "--models", models] + FAST)

    def test_three_model_table(self, tmp_path, capsys):
        prices, train_end = self.setup_data(tmp_path)
        out = tmp_path / "cmp"
        assert main(self.compare_args(prices, out, train_end)) == 0
        table = (out / "metrics.csv").read_text().strip().splitlines()
        assert table[0] == "model,horizon,annualized_return,sortino,sharpe,max_dd"
        assert len(table) == 4  # three models, full horizon only
        for name in ("metrics.txt", "curves.csv", "weights_equalweight.csv",
                     "manifest.txt"):
            assert (out / name).exists()

    def test_empty_models_usage_error(self, tmp_path, capsys):
        prices, train_end = self.setup_data(tmp_path)
        code = main(["compare", "--prices", prices, "--outdir", str(tmp_path / "o"),
                     "--initial-train-end", train_end, "--models", ""] + FAST)
        assert code == 1

    def test_model_listed_twice_exits_2_naming_it(self, tmp_path, capsys):
        prices, train_end = self.setup_data(tmp_path)
        capsys.readouterr()
        out = tmp_path / "cmp"
        models = "riskparity,riskparity,equalweight"
        assert main(self.compare_args(prices, out, train_end, models)) == 2
        assert "model 'riskparity' is listed more than once" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_rerun_byte_identical_with_drl(self, tmp_path):
        prices, train_end = self.setup_data(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        args_a = self.compare_args(prices, a, train_end, models="equalweight,drl")
        args_b = self.compare_args(prices, b, train_end, models="equalweight,drl")
        assert main(args_a) == 0
        assert main(args_b) == 0
        for name in ("metrics.csv", "curves.csv", "weights_drl.csv", "metrics.txt"):
            assert read(a / name) == read(b / name), name

    def test_checkpoints_reused(self, tmp_path):
        # a compare pointed at saved checkpoints must match inline training
        prices, train_end = self.setup_data(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--prices", prices, "--outdir", str(ckpt),
                     "--initial-train-end", train_end] + FAST) == 0
        inline, reused = tmp_path / "inline", tmp_path / "reused"
        assert main(self.compare_args(prices, inline, train_end, models="drl")) == 0
        args = self.compare_args(prices, reused, train_end, models="drl")
        assert main(args + ["--checkpoints", str(ckpt)]) == 0
        assert read(inline / "curves.csv") == read(reused / "curves.csv")

    def test_nan_checkpoint_exits_2(self, tmp_path, capsys):
        prices, train_end = self.setup_data(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--prices", prices, "--outdir", str(ckpt),
                     "--initial-train-end", train_end] + FAST) == 0
        path = ckpt / "checkpoint_w00.txt"
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("tensor weights_head_w "))
        values = lines[at + 1].split()
        lines[at + 1] = " ".join(["nan"] + values[1:])
        path.write_text("\n".join(lines) + "\n")
        args = self.compare_args(prices, tmp_path / "o", train_end, models="drl")
        capsys.readouterr()
        assert main(args + ["--checkpoints", str(ckpt)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        prices, train_end = self.setup_data(tmp_path)
        args = self.compare_args(prices, tmp_path / "o", train_end, models="drl")
        code = main(args + ["--checkpoints", str(tmp_path / "empty")])
        assert code == 2
        assert "missing checkpoint" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        prices, train_end = self.setup_data(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--prices", prices, "--outdir", str(ckpt),
                     "--initial-train-end", train_end] + FAST) == 0
        for name in os.listdir(ckpt):
            if name.startswith("checkpoint_"):
                lines = (ckpt / name).read_text().splitlines()
                assert lines[-1] == "end"
                (ckpt / name).write_text("\n".join(lines[:-1]) + "\n")
        args = self.compare_args(prices, tmp_path / "o", train_end, models="drl")
        assert main(args + ["--checkpoints", str(ckpt)]) == 2
        assert "no end line" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda text: b"\xff" + text[1:],
        lambda text: text.replace(b'"assets":2', b'"assets":2.5'),
        lambda text: text.replace(b'"assets":2', b'"assets":"2"'),
        lambda text: text.replace(b'"lags":3', b'"lags":1e400'),
        lambda text: text.replace(b'"hidden":[]', b'"hidden":[1e400]'),
        # must be rejected from the stored shapes, not by allocating 21.8 TiB
        lambda text: text.replace(b'"assets":2', b'"assets":99999999999'),
        # both load as the stored shapes if the header's values are truncated
        lambda text: text.replace(b'"asset_conv":[[5,2]', b'"asset_conv":[[5.5,2]'),
        lambda text: text.replace(b"tensor asset_conv0_w 3 ", b"tensor asset_conv0_w 9 "),
    ], ids=["not-utf8", "float-dim", "string-dim", "infinite-dim", "infinite-hidden",
            "huge-dim", "fractional-filter", "short-shape"])
    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys, corrupt):
        prices, train_end = self.setup_data(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--prices", prices, "--outdir", str(ckpt),
                     "--initial-train-end", train_end] + FAST) == 0
        path = ckpt / "checkpoint_w00.txt"
        text = path.read_bytes()
        path.write_bytes(corrupt(text))
        assert path.read_bytes() != text
        args = self.compare_args(prices, tmp_path / "o", train_end, models="drl")
        capsys.readouterr()
        assert main(args + ["--checkpoints", str(ckpt)]) == 2
        assert "checkpoint_w00.txt" in capsys.readouterr().err

    def test_svg_output(self, tmp_path):
        prices, train_end = self.setup_data(tmp_path)
        out = tmp_path / "svg"
        args = self.compare_args(prices, out, train_end, models="equalweight") + ["--svg"]
        assert main(args) == 0
        svg = (out / "curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert (out / "weights_equalweight.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("command", ["compare", "backtest"])
    @pytest.mark.parametrize("method, flag", [("markowitz", "--r-min"),
                                              ("maxreturn", "--sigma-max")])
    def test_missing_constraint_level_exits_1_before_any_model_runs(
            self, tmp_path, capsys, monkeypatch, command, method, flag):
        """compare and backtest reject a missing level as allocate does, before
        any replay: equal weight, listed first in the compare, never runs."""
        from portalloc import backtest

        replays = []
        monkeypatch.setattr(backtest, "run_strategy", lambda *args, **kwargs: replays.append(args))
        prices, train_end = self.setup_data(tmp_path)
        models = f"equalweight,{method}" if command == "compare" else method
        argv = [command] + self.compare_args(prices, tmp_path / "o", train_end, models)[1:]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: missing {flag} (required by method '{method}')\n")
        assert replays == []

    def test_horizon_beyond_the_test_region_exits_2_before_training(self, tmp_path, capsys,
                                                                    monkeypatch):
        """The stitched curve covers the 140 test steps from row 280 to 420: a
        140-step horizon passes and a 141-step one fails before drl trains."""
        from portalloc import trainer

        trained, train = [], trainer.train

        def counted(*args):
            trained.append(args)
            return train(*args)

        monkeypatch.setattr(trainer, "train", counted)
        prices, train_end = self.setup_data(tmp_path)
        argv = self.compare_args(prices, tmp_path / "o", train_end, models="drl,equalweight")
        capsys.readouterr()
        assert main(argv + ["--horizons", "all:140,over:141"]) == 2
        assert capsys.readouterr().err == (
            "data error: horizon of 141 steps exceeds available history (140 steps)\n")
        assert len(trained) == 0
        assert not (tmp_path / "o" / "metrics.csv").exists()


class TestBacktestCommand:
    def test_single_model(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        out = tmp_path / "bt"
        code = main(["backtest", "--prices", str(src / "prices.csv"), "--outdir",
                     str(out), "--initial-train-end", str(frame.dates[280]),
                     "--method", "riskparity"] + FAST)
        assert code == 0
        table = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(table) == 2


class TestPlotCommand:
    def test_plot_from_curves(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        cmp_out = tmp_path / "cmp"
        main(["compare", "--prices", str(src / "prices.csv"), "--outdir", str(cmp_out),
              "--initial-train-end", str(frame.dates[280]),
              "--models", "equalweight"] + FAST)
        out = tmp_path / "plots"
        code = main(["plot", "--curves", str(cmp_out / "curves.csv"),
                     "--weights", str(cmp_out / "weights_equalweight.csv"),
                     "--outdir", str(out)])
        assert code == 0
        assert (out / "curves.svg").exists() and (out / "weights.svg").exists()

    def test_plot_without_inputs(self, tmp_path, capsys):
        assert main(["plot", "--outdir", str(tmp_path / "o")]) == 1


class TestContextWiring:
    def test_external_context_feeds_comparison(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        lines = ["date,sentiment"]
        lines += [f"{d},{0.5 + 0.4 * np.sin(i / 7.0):.6f}"
                  for i, d in enumerate(frame.dates)]
        ctx_path = tmp_path / "context.csv"
        ctx_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cmp"
        code = main(["compare", "--prices", str(src / "prices.csv"),
                     "--context", str(ctx_path), "--outdir", str(out),
                     "--initial-train-end", str(frame.dates[280]),
                     "--models", "equalweight,drl"] + FAST)
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_misaligned_context_exits_2(self, tmp_path, capsys):
        src = tmp_path / "data"
        main(synth_args(src))
        frame = load_price_csv(str(src / "prices.csv"))
        ctx_path = tmp_path / "context.csv"
        ctx_path.write_text("date,x\n1999-01-04,1.0\n1999-01-05,2.0\n")
        code = main(["compare", "--prices", str(src / "prices.csv"),
                     "--context", str(ctx_path), "--outdir", str(tmp_path / "o"),
                     "--initial-train-end", str(frame.dates[280]),
                     "--models", "equalweight"] + FAST)
        assert code == 2
        assert "misaligned" in capsys.readouterr().err


@pytest.mark.parametrize("models", ["equalweight,minvariance", "drl,minvariance"])
@pytest.mark.parametrize("flags, message", [
    (["--vol-window", "1"], "volatility window must be >= 2, got 1"),
    (["--vol-window", "421"], "insufficient rows: need >= 421, got 420"),
    (["--context", "MISALIGNED"],
     "misaligned dates: external context does not cover the panel dates"),
    (["--context", "MISALIGNED", "--vol-window", "1"], "volatility window must be >= 2, got 1"),
    (["--context", "MALFORMED"], "malformed row in context file MALFORMED: "
                                 "non-numeric cell at (row 3, column x): 'oops'"),
    (["--vol-window", "300"], "split 0 starts testing at index 280, before the first "
                              "index with full feature history (302)"),
])
def test_feature_input_errors_do_not_depend_on_the_models(tmp_path, capsys, models, flags,
                                                          message):
    """A compare without drl reads no volatilities or context series, but
    their inputs are checked, with the same messages, all the same."""
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    files = {"MISALIGNED": "date,x\n1999-01-04,1.0\n1999-01-05,2.0\n",
             "MALFORMED": f"date,x\n{frame.dates[0]},1.0\n{frame.dates[1]},oops\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        message = message.replace(name, str(tmp_path / name))
    flags = [str(tmp_path / f) if f in files else f for f in flags]
    capsys.readouterr()
    code = main(["compare", "--prices", str(src / "prices.csv"), "--outdir", str(tmp_path / "o"),
                 "--initial-train-end", str(frame.dates[280]), "--models", models]
                + FAST + flags)
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        src = tmp_path / "data"
        main(synth_args(src))
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\nmethod = minvariance\n"
                          f"prices = {src / 'prices.csv'}\n")
        out = tmp_path / "o1"
        assert main(["allocate", "--config", str(config), "--outdir", str(out)]) == 0
        out2 = tmp_path / "o2"
        assert main(["allocate", "--config", str(config), "--method", "riskparity",
                     "--outdir", str(out2)]) == 0
        assert "method = riskparity" in (out2 / "manifest.txt").read_text()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("nonsense = 1\n")
        assert main(["synth", "--config", str(config), "--outdir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags, code, needle", [
    (["synth", "--seed", "abc"], 1, "seed"),
    (["compare", "--models", "equalweight", "--lags", "0,x"], 1, "lags"),
    (["allocate", "--method", "markowitz", "--r-min", "nope"], 1, "r_min"),
    (["compare", "--models", "equalweight", "--horizons", "2y:abc"], 1, "horizons"),
    (["plot", "--curves", "BAD_CSV"], 2, "malformed row"),
    (["allocate", "--method", "markowitz", "--r-min", "nan"], 2, "r_min"),
])
def test_malformed_values_are_typed_errors(tmp_path, capsys, flags, code, needle):
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("date,a\n2020-01-06,1.0\n2020-01-07,oops\n")
    argv = [str(bad) if f == "BAD_CSV" else f for f in flags] + ["--outdir", str(tmp_path / "o")]
    if flags[0] != "plot":
        argv += ["--prices", str(src / "prices.csv"), "--initial-train-end",
                 str(frame.dates[280]), "--test-span", "120"]
    capsys.readouterr()
    assert main(argv) == code
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("horizons, needle", [
    ("2y:504,2y:10", "label '2y' is empty or repeated"),
    (":10", "label '' is empty or repeated"),
    ("1y:20,:5,", "label '' is empty or repeated"),
])
def test_repeated_or_empty_horizon_label_exits_1_naming_it(tmp_path, capsys, horizons, needle):
    src = tmp_path / "data"
    main(synth_args(src, steps=600))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    code = main(["compare", "--prices", str(src / "prices.csv"), "--outdir", str(tmp_path / "o"),
                 "--initial-train-end", str(frame.dates[280]), "--models", "equalweight"]
                + FAST + ["--horizons", horizons])
    assert code == 1
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("setting", [
    "--cost-rate=-0.001", "--trad-leverage=-1", "--trad-leverage=inf",
    "--ew-leverage=-0.5", "--ew-leverage=nan", "--rebalance=0", "--horizons=2y:-5",
])
def test_bad_compare_settings_exit_2(tmp_path, capsys, setting):
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    code = main(["compare", "--prices", str(src / "prices.csv"), "--outdir", str(tmp_path / "o"),
                 "--initial-train-end", str(frame.dates[280]), "--models", "equalweight"]
                + FAST + [setting])
    assert code == 2
    key = setting[2:].split("=")[0].replace("-", "_")
    assert key in capsys.readouterr().err


def test_ruined_model_padded_at_zero(tmp_path):
    src, out = tmp_path / "data", tmp_path / "o"
    assert main(["synth", "--outdir", str(src), "--synth-steps", "600", "--seed", "1"]) == 0
    frame = load_price_csv(str(src / "prices.csv"))
    code = main(["compare", "--prices", str(src / "prices.csv"), "--outdir", str(out),
                 "--models", "minvariance,equalweight", "--trad-leverage", "400",
                 "--test-span", "60", "--horizons", "",
                 "--initial-train-end", str(frame.dates[300])])
    assert code == 0
    for name in ("metrics.csv", "metrics.txt", "curves.csv", "weights_minvariance.csv",
                 "weights_equalweight.csv", "manifest.txt"):
        assert (out / name).exists(), name
    rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
    values = [float(r[1]) for r in rows]
    ruin = values.index(0.0)
    assert 0 < ruin < 60 and all(v == 0.0 for v in values[ruin:])
    assert all(float(r[2]) > 0 for r in rows)
    assert "nan" not in (out / "metrics.csv").read_text()


def test_negative_est_window_exits_2(tmp_path, capsys):
    # a negative window would slice rows[-window:]: every row but the first few
    src = tmp_path / "data"
    main(synth_args(src))
    prices = str(src / "prices.csv")
    frame = load_price_csv(prices)
    capsys.readouterr()
    assert main(["allocate", "--prices", prices, "--method", "minvariance",
                 "--est-window=-5", "--outdir", str(tmp_path / "a")]) == 2
    assert "window" in capsys.readouterr().err
    out = tmp_path / "c"
    assert main(["compare", "--prices", prices, "--outdir", str(out), "--models", "drl",
                 "--initial-train-end", str(frame.dates[280]), "--est-window=-5"] + FAST) == 2
    assert "est_window" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_zero_est_window_means_full_history(tmp_path):
    src = tmp_path / "data"
    main(synth_args(src))
    prices = str(src / "prices.csv")
    weights = []
    for flags in ([], ["--est-window", "0"]):
        out = tmp_path / f"a{len(flags)}"
        assert main(["allocate", "--prices", prices, "--method", "minvariance",
                     "--outdir", str(out)] + flags) == 0
        weights.append(read(out / "weights.csv"))
    assert weights[0] == weights[1]


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("hidden", ["0", "-4", "8,0"])
def test_hidden_sizes_below_one_exit_2(tmp_path, capsys, command, hidden):
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = train_args(str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280]))
    argv[0] = command
    if command == "compare":
        argv += ["--models", "drl"]
    assert main(argv + [f"--hidden={hidden}"]) == 2
    assert "hidden sizes must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "compare"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = {"synth": synth_args(tmp_path / "o"),
            "train": train_args(str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280])),
            "compare": train_args(str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280]))
            + ["--models", "drl"]}[command]
    argv[0] = command
    assert main(argv + ["--seed=-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting, key", [
    ("synth", "--synth-steps=99999999999999999999", "synth_steps"),
    ("compare", "--asset-conv=99999999999999999999:3", "asset_conv"),
    ("compare", "--context-conv=3:3,99999999999999999999:1", "context_conv"),
    ("train", "--hidden=4,99999999999999999999", "hidden"),
])
def test_size_beyond_numpy_maximum_dimension_exits_2_naming_the_key(tmp_path, capsys, command,
                                                                    setting, key):
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = synth_args(tmp_path / "o") if command == "synth" else train_args(
        str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280]))
    argv[0] = command
    if command == "compare":
        argv += ["--models", "drl"]
    assert main(argv + [setting]) == 2
    assert (f"bad value for {key}: 99999999999999999999 exceeds numpy's maximum dimension"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train", "compare", "backtest"])
@pytest.mark.parametrize("setting, message", [
    ("--asset-conv=5", "bad value for asset_conv: '5' is not filters:kernel"),
    ("--context-conv=5:3:2", "bad value for context_conv: '5:3:2' is not filters:kernel"),
], ids=["asset-conv", "context-conv"])
def test_malformed_conv_spec_exits_1_naming_the_key(tmp_path, capsys, command, setting, message):
    # compare and backtest build the network spec even when no model uses it
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = train_args(str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280]))
    argv[0] = command
    argv += {"train": [], "compare": ["--models", "minvariance,equalweight"],
             "backtest": ["--method", "minvariance"]}[command]
    assert main(argv + [setting]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, setting, named", [
    ("synth", "--synth-steps=9223372036854775807", "bad value for synth_steps x synth_assets"),
    ("compare", "--asset-conv=9223372036854775807:3", "tensor asset_conv0_w"),
    ("compare", "--context-conv=3:3,9223372036854775807:1", "tensor ctx_conv1_w"),
    ("train", "--hidden=4,9223372036854775807", "tensor hidden1_w"),
], ids=["synth-steps", "asset-conv", "context-conv", "hidden"])
def test_array_beyond_numpy_maximum_size_exits_2_naming_it(tmp_path, capsys, command, setting,
                                                          named):
    # each size fits an array axis, but no float64 array that large can exist,
    # so numpy refuses it before allocating anything
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = synth_args(tmp_path / "o") if command == "synth" else train_args(
        str(src / "prices.csv"), tmp_path / "o", str(frame.dates[280]))
    argv[0] = command
    if command == "compare":
        argv += ["--models", "drl"]
    assert main(argv + [setting]) == 2
    err = capsys.readouterr().err
    assert named in err and "exceeds numpy's maximum array size" in err


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("train_end", ["notadate", "2001-02-30", ""])
def test_initial_train_end_not_a_date_exits_1(tmp_path, capsys, command, train_end):
    src = tmp_path / "data"
    main(synth_args(src))
    capsys.readouterr()
    argv = train_args(str(src / "prices.csv"), tmp_path / "o", train_end)
    argv[0] = command
    if command == "compare":
        argv += ["--models", "equalweight"]
    assert main(argv) == 1
    assert f"initial_train_end: {train_end!r} is not a date" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("regimes, bad", [
    ("nan,0.0|0.01,0.01|0.3|250", 0),
    ("0.0,0.0|inf,0.01|0.3|250", 0),
    ("0.0,0.0|0.01,0.01|0.3|250;0.0,-inf|0.01,0.01|0.3|250", 1),
    ("0.0,0.0|0.01,0.01|0.3|250;0.0,0.0|0.01,nan|0.3|250", 1),
])
def test_non_finite_regimes_exit_2(tmp_path, capsys, regimes, bad):
    assert main(synth_args(tmp_path / "o", regimes=regimes)) == 2
    assert f"regime {bad}: means and volatilities must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "synth", "allocate", "train", "backtest",
                                     "compare", "plot"])
def test_every_subcommand_takes_every_config_flag(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--config", "--prices", "--initial-train-end", "--hidden", "--weights"):
        assert flag in text
    assert main(["frobnicate"]) == 1
    assert ("invalid choice: 'frobnicate' (choose from 'ingest', 'synth', 'allocate', "
            "'train', 'backtest', 'compare', 'plot')") in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, setting, code", [
    (1, "--cost-rate=1e308", 0),      # entering costs -inf: ruin on the first step
    (1, "--trad-leverage=1e308", 3),  # the value overflows to +inf
    (2, "--trad-leverage=1e308", 0),  # ruin after step returns whose squares overflow
])
def test_replay_overflow_exits_by_contract(tmp_path, capsys, seed, setting, code):
    src, out = tmp_path / "data", tmp_path / "o"
    assert main(["synth", "--outdir", str(src), "--synth-steps", "600", "--seed", str(seed)]) == 0
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = train_args(str(src / "prices.csv"), out, str(frame.dates[300]))
    argv[0] = "compare"
    assert main(argv + ["--models", "drl,minvariance", setting]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert "numeric failure: replay produced a NaN step return or an overflowing value" in err
        return
    rows = (out / "curves.csv").read_text().splitlines()[1:]
    values = [float(row.split(",")[2]) for row in rows]
    assert values[-1] == 0.0 and all(np.isfinite(values))
    if setting.startswith("--cost-rate"):
        assert values[0] == 1.0 and set(values[1:]) == {0.0}
    metrics = (out / "metrics.csv").read_text()
    assert "nan" not in metrics and "inf" not in metrics


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("settings, needle", [
    (["--noise-std=1e308"], "non-finite episode reward at iteration 1"),
    (["--learning-rate=1e308"], "non-finite episode reward at iteration 2"),
    (["--noise-std=1e200"], "non-finite gradient at iteration 1"),
    (["--learning-rate=1e308", "--l2-coeff=1000"], "parameter update overflowed at iteration 1"),
    # no update has run yet, so the message names the settings, not the learning rate
    (["--max-leverage=1e308"], "non-finite episode reward at iteration 1; lower noise_std or "
                               "max_leverage or shorten the window"),
])
def test_huge_training_settings_exit_3(tmp_path, capsys, settings, needle):
    src, out = tmp_path / "data", tmp_path / "o"
    assert main(["synth", "--outdir", str(src), "--synth-steps", "600", "--seed", "1"]) == 0
    frame = load_price_csv(str(src / "prices.csv"))
    capsys.readouterr()
    argv = train_args(str(src / "prices.csv"), out, str(frame.dates[300]))
    argv[0] = "compare"
    assert main(argv + ["--models", "drl,minvariance"] + settings) == 3
    assert f"numeric failure: {needle}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["allocate", "compare"])
def test_sigma_max_whose_square_overflows_is_an_infinite_cap(tmp_path, command):
    src = tmp_path / "data"
    main(synth_args(src))
    frame = load_price_csv(str(src / "prices.csv"))
    outputs = []
    for level in ("inf", "1e160"):
        out = tmp_path / level
        argv = [command, "--prices", str(src / "prices.csv"), "--outdir", str(out),
                f"--sigma-max={level}"]
        if command == "allocate":
            argv += ["--method", "maxreturn"]
        else:
            argv += ["--models", "maxreturn", "--initial-train-end", str(frame.dates[280])] + FAST
        assert main(argv) == 0
        outputs.append(read(out / ("weights.csv" if command == "allocate"
                                   else "weights_maxreturn.csv")))
    assert outputs[0] == outputs[1]


def overflow_panel(path):
    """Three assets over 400 dates, every price finite and positive; asset A
    sits near 1e-300 through row 201 and near 1e300 after it, so that one
    price ratio overflows."""
    rng = np.random.default_rng(5)
    prices = 100.0 * np.cumprod(1.0 + 0.01 * rng.standard_normal((400, 3)), axis=0)
    prices[:202, 0] = 1e-300 * (1.0 + 0.01 * rng.random(202))
    prices[202:, 0] = 1e300 * (1.0 + 0.01 * rng.random(198))
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(400))
    write_price_csv(PriceFrame(dates, ("A", "B", "C"), prices), str(path))
    return dates


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["compare", "--models", "minvariance"],
                                     ["compare", "--models", "equalweight"], ["train"]])
def test_overflowing_price_step_exits_2_naming_it(tmp_path, capsys, command):
    """Once a raw RuntimeWarning, then 'covariance matrix is not symmetric',
    'observation contains non-finite cells' or, for equalweight, exit 0."""
    dates = overflow_panel(tmp_path / "prices.csv")
    code = main(command + ["--prices", str(tmp_path / "prices.csv"), "--outdir",
                           str(tmp_path / "o"), "--initial-train-end", str(dates[280])] + FAST)
    assert code == 2
    assert f"return of asset A on {dates[202]} is infinite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, cells, chart", [
    ("--weights", ("1e308,1e308", "1e308,1e308"), "allocation"),  # the stack overflows
    ("--curves", ("1e306,1.0", "-1e306,1.0"), "equity curves"),  # the scale overflows
])
def test_plot_whose_scale_overflows_exits_2_naming_the_chart(tmp_path, capsys, flag, cells,
                                                            chart):
    """Once an SVG with nan or -inf points, exit 0 and RuntimeWarnings."""
    path = tmp_path / "in.csv"
    path.write_text("date,a,b\n2020-01-06," + cells[0] + "\n2020-01-07," + cells[1] + "\n")
    assert main(["plot", flag, str(path), "--outdir", str(tmp_path / "o")]) == 2
    assert f"data error: {chart} chart" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.svg"))


def failing_split_panel(path, kind):
    """Three assets over 421 dates. "flat": every mean falls below zero over
    rows 291..330, and asset A is flat over rows 331..370, so that with a
    20-row window a zero return floor is infeasible from decision 300 and A
    degenerate from decision 350. "singular": asset B repeats A's returns over
    rows 331..370, so that the window ending at 350 has a singular covariance.
    "overflow": A's prices before row 351 are scaled by 1e-250, so that its
    return of about 1e250 at row 350 overflows the variance of the window
    ending at 350, while every window's means stay above a zero floor."""
    rng = np.random.default_rng(11)
    if kind == "flat":
        returns = 0.002 + 0.001 * rng.standard_normal((420, 3))
        returns[291:331] = -0.01 + 0.001 * rng.standard_normal((40, 3))
        returns[331:371, 0] = 0.0
    elif kind == "overflow":
        returns = 0.002 + 0.001 * rng.standard_normal((420, 3))
    else:
        returns = 0.01 * rng.standard_normal((420, 3))
        returns[331:371, 1] = returns[331:371, 0]
    prices = 100.0 * np.cumprod(np.vstack([np.ones(3), 1.0 + returns]), axis=0)
    if kind == "overflow":
        prices[:351, 0] *= 1e-250
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(421))
    write_price_csv(PriceFrame(dates, ("A", "B", "C"), prices), str(path))
    return dates


OVERFLOWING_MOMENTS = "asset A: mean or variance not finite"


def failing_compare(tmp_path, kind, models, test_span):
    """Exit code of a compare on failing_split_panel(kind) with a 20-row
    window, a zero floor and a rebalance every 10 steps from decision 280."""
    dates = failing_split_panel(tmp_path / "prices.csv", kind)
    return main(["compare", "--prices", str(tmp_path / "prices.csv"), "--outdir",
                 str(tmp_path / "o"), "--models", models, "--initial-train-end",
                 str(dates[280]), "--est-window", "20", "--rebalance", "10", "--r-min=0.0",
                 "--lags", "0,1,2", "--vol-window", "5", "--test-span", str(test_span),
                 "--horizons", ""])


@pytest.mark.parametrize("kind, models, message", [
    # decision 300's floor fails before decision 350's estimate
    ("flat", "markowitz", "infeasible return target: r_min=0.0 exceeds max mean -0.00320892"),
    # risk parity, the first model, needs no floor: it reaches decision 350
    ("flat", "riskparity,markowitz", "degenerate asset A: zero variance, correlation undefined"),
    ("singular", "riskparity",
     "singular covariance matrix: risk parity needs a positive-definite one"),
    # once numpy warnings, then a solver's "Singular matrix" or non-finite weights
    pytest.param("overflow", "minvariance,markowitz,riskparity", OVERFLOWING_MOMENTS,
                 marks=pytest.mark.filterwarnings("error")),
])
def test_a_split_fails_at_its_first_failing_date(tmp_path, capsys, kind, models, message):
    """A split's rebalance dates are estimated and solved as one stack, yet
    the error reported is that of the first date to fail, in date order."""
    code = failing_compare(tmp_path, kind, models, 120)
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_compare_reports_the_first_listed_models_error(tmp_path, capsys):
    """Models run one after another over every split: risk parity, listed
    first, fails on split 1 before markowitz's floor fails on split 0."""
    assert failing_compare(tmp_path, "flat", "riskparity,markowitz", 40) == 2
    assert capsys.readouterr().err == (
        "data error: degenerate asset A: zero variance, correlation undefined\n")


def convex_panel(path):
    """Four correlated assets over 400 returns, written as prices to path;
    returns the price dates and --r-min and --sigma-max flags that the window
    of all rows up to every decision from row 279 on can meet."""
    rng = np.random.default_rng(29)
    returns = (np.linspace(-0.0004, 0.0012, 4) + 0.01 * rng.standard_normal((400, 4))
               + 0.006 * rng.standard_normal((400, 1)))
    prices = 100.0 * np.cumprod(np.vstack([np.ones(4), 1.0 + returns]), axis=0)
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(401))
    write_price_csv(PriceFrame(dates, ("A", "B", "C", "D"), prices), str(path))
    windows = [returns[:t + 1] for t in range(279, 400)]
    r_min = min(float(0.5 * (w.mean(axis=0).max() + w.mean())) for w in windows)
    sigma_max = max(float(np.sqrt(np.cov(w, rowvar=False).sum())) / 4 for w in windows)
    return dates, [f"--r-min={r_min!r}", f"--sigma-max={sigma_max!r}"]


def convex_compare(tmp_path, models, outdir, rebalance):
    dates, levels = convex_panel(tmp_path / "prices.csv")
    return main(["compare", "--prices", str(tmp_path / "prices.csv"), "--outdir", str(outdir),
                 "--models", ",".join(models), "--initial-train-end", str(dates[280]),
                 "--test-span", "40", "--rebalance", str(rebalance), "--lags", "0,1,2",
                 "--vol-window", "5", "--horizons", ""] + levels)


def test_one_estimate_call_per_split(tmp_path, monkeypatch):
    """A compare estimates each split's rebalance dates in one call, never
    one date at a time, when no date fails."""
    from portalloc import risk_models

    calls = []
    estimate = risk_models.estimate_stats

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return estimate(*args, **kwargs)

    monkeypatch.setattr(risk_models, "estimate_stats", counted)
    assert convex_compare(tmp_path, ["riskparity", "minvariance", "markowitz"],
                          tmp_path / "o", 10) == 0
    assert len(calls) == 3  # three splits of 40 test steps
    for args, kwargs in calls:
        assert len(args) == 2 and kwargs.keys() == {"ends"}
    assert [kwargs["ends"][0] for _, kwargs in calls] == [280, 320, 360]


def test_weights_do_not_depend_on_the_other_convex_models(tmp_path):
    """The convex models share each split's estimates and minimum-variance
    solves, yet each model's weights are the same bytes whichever models run
    beside it, and in whichever order."""
    convex = ("markowitz", "maxreturn", "minvariance", "maxdiversification",
              "maxdecorrelation", "riskparity")
    runs = [convex, convex[::-1], ("maxreturn", "markowitz"), ("markowitz", "riskparity"),
            ("maxdecorrelation", "minvariance", "maxdiversification")]
    weights = {}
    for i, models in enumerate(runs):
        assert convex_compare(tmp_path, models, tmp_path / f"o{i}", 7) == 0
        for model in models:
            weights.setdefault(model, set()).add(read(tmp_path / f"o{i}" / f"weights_{model}.csv"))
    assert weights.keys() == set(convex)
    assert all(len(files) == 1 for files in weights.values())


@pytest.mark.parametrize("flat, window, message", [
    (True, [], "degenerate asset FLAT: zero variance, correlation undefined"),
    (False, ["--est-window", "3"], "insufficient rows for estimation: need >= 4, got 3"),
    (False, ["--est-window", "1"], "insufficient rows for estimation: need >= 4, got 1"),
])
def test_allocate_reports_a_failing_estimate(tmp_path, capsys, flat, window, message):
    rng = np.random.default_rng(13)
    prices = 100.0 * np.cumprod(1.0 + 0.01 * rng.standard_normal((60, 3)), axis=0)
    if flat:
        prices[:, 1] = 100.0
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(60))
    write_price_csv(PriceFrame(dates, ("A", "FLAT", "C"), prices), str(tmp_path / "prices.csv"))
    code = main(["allocate", "--prices", str(tmp_path / "prices.csv"), "--method", "minvariance",
                 "--outdir", str(tmp_path / "o")] + window)
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_allocate_reports_overflowing_moments(tmp_path, capsys):
    """Once numpy warnings and 'weights contain non-finite entries'."""
    rng = np.random.default_rng(13)
    prices = 100.0 * np.cumprod(1.0 + 0.01 * rng.standard_normal((300, 3)), axis=0)
    prices[:150, 0] *= 1e-250
    dates = np.busday_offset(np.datetime64("2000-01-03"), np.arange(300))
    write_price_csv(PriceFrame(dates, ("A", "B", "C"), prices), str(tmp_path / "prices.csv"))
    code = main(["allocate", "--prices", str(tmp_path / "prices.csv"), "--method", "minvariance",
                 "--outdir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {OVERFLOWING_MOMENTS}\n"


def test_cli_defaults_are_the_library_defaults():
    """RunConfig restates each library default as a flag default. Only the
    horizons differ, on purpose: the CLI reports trailing 2- and 5-year
    horizons, while a library comparison reports none unless asked."""
    cfg = RunConfig()
    assert cfg.train_cfg() == TrainConfig()
    assert cfg.arch() == NetworkArch()
    assert replace(cfg, horizons="").compare_cfg() == CompareConfig()
    assert cfg.compare_cfg().horizons == {"2y": 504, "5y": 1260}
