"""End-to-end CLI runs through main(argv)."""

import csv
import json
from dataclasses import fields

import click
import pytest

from trispec.cli import MAX_BINS, MAX_POSITIONS, MAX_WINDOW, cli, main
from trispec.harness import (
    HIST_SCHEMA,
    SWEEP_SCHEMA,
    TRACE_SCHEMA,
    ExperimentConfig,
    load_corpus,
    read_trace_csv,
    reference_corpus_path,
)
from trispec.models import NGramSpec, save_oracle, train_ngram

FAST = ("-O", "max_new_tokens=4", "-O", "num_prompts=2")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["train"]) == 2  # --out is required
    capsys.readouterr()


def test_run_writes_report_and_trace(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path), "-O", "method=target_only", *FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "report.json" in out and "trace.csv" in out

    data = json.loads((tmp_path / "report.json").read_text())
    assert data["run_id"] == "target_only-T0-seed0"
    assert data["report"]["N"] == 8
    assert data["config"]["method"] == "target_only"

    records = read_trace_csv(tmp_path / "trace.csv")
    assert len(records) == 8
    assert (tmp_path / "trace.csv").read_text().startswith(TRACE_SCHEMA)


def test_run_id_with_a_comma_reads_back(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path), "-O", "run_id=a,b", *FAST]) == 0
    capsys.readouterr()
    records = read_trace_csv(tmp_path / "trace.csv")
    assert len(records) > 0 and all(r.run_id == "a,b" for r in records)


def test_run_rejects_bad_overrides(capsys):
    assert main(["run", "-O", "beam_width=4"]) == 2
    assert main(["run", "-O", "no_equals_sign"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def _margin_on_raw_boundaries(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("margin_on_raw = false\n", encoding="utf-8")
    return {
        "override": ["run", "--out", str(tmp_path), "-O", "margin_on_raw=true", *FAST],
        "config": ["run", "--out", str(tmp_path), "--config", str(config), *FAST],
        "sweep": ["sweep", "--out", str(tmp_path / "sweep.csv"),
                  "--grid", "margin_on_raw=true,false", *FAST],
    }


@pytest.mark.parametrize("boundary", ["override", "config", "sweep"])
def test_unknown_config_keys_are_refused_at_every_input(boundary, tmp_path, capsys):
    """``margin_on_raw`` acted only at temperatures no run admits, and is
    gone: an override, a config file and a sweep axis all refuse it."""
    assert main(_margin_on_raw_boundaries(tmp_path)[boundary]) == 2
    assert "error: unknown config key 'margin_on_raw'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "override",
    ["relax_alpha=2", "relax_threshold=-0.5", "relax_k=0", "relax_alpha=nan"],
)
@pytest.mark.parametrize("method", ["trispec", "relax"])
def test_run_rejects_out_of_range_relax_knobs(override, method, capsys):
    assert main(["run", "-O", f"method={method}", "-O", override]) == 2
    err = capsys.readouterr().err
    assert f"error: {override.split('=')[0]}" in err


_FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


@pytest.mark.parametrize(
    "override",
    [f"{name}={('nan', 'inf', '-inf')[i % 3]}" for i, name in enumerate(_FLOAT_FIELDS)],
)
def test_run_rejects_non_finite_floats(override, tmp_path, capsys):
    """NaN fails every range check written as ``x < 0``, and an infinite cost
    makes ``L`` NaN; each float field must refuse both before a run starts."""
    assert main(["run", "--out", str(tmp_path), "-O", override]) == 2
    assert f"error: {override.split('=')[0]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_config_file_is_honored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = sd\nmax_new_tokens = 4\nnum_prompts = 2\nseed = 3\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["run_id"] == "sd-T0-seed3"
    assert data["config"]["seed"] == 3
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_train_then_run_from_saved_models(tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--out", str(models)]) == 0
    for name in ("drafter.json", "proxy.json", "target.json"):
        assert (models / name).exists()

    outdir = tmp_path / "out"
    rc = main(["run", "--out", str(outdir), "-O", f"model_dir={models}", *FAST])
    assert rc == 0
    capsys.readouterr()
    data = json.loads((outdir / "report.json").read_text())
    assert data["report"]["N"] >= 8


@pytest.mark.parametrize("family", ["ngram", "perturbed"])
def test_a_family_saved_by_train_loads_and_decodes_as_trained(tmp_path, capsys, family):
    """``train`` writes each n-gram as training it alone would, and a run on
    the saved files reports what a run that trains does."""
    models = tmp_path / "models"
    assert main(["train", "-O", f"family={family}", "--out", str(models)]) == 0
    cfg = ExperimentConfig(family=family)
    tokens, vocab = load_corpus(reference_corpus_path(), "char")
    train = tokens[: int(len(tokens) * cfg.train_fraction)]
    roles = ("drafter", "proxy", "target") if family == "ngram" else ("drafter", "target")
    for role, order in zip(roles, cfg.orders if family == "ngram" else cfg.orders[::2]):
        save_oracle(train_ngram(train, NGramSpec(order, cfg.alpha), vocab), tmp_path / "alone.json")
        assert (models / f"{role}.json").read_bytes() == (tmp_path / "alone.json").read_bytes()
    reports = []
    for extra in ((), ("-O", f"model_dir={models}")):
        out = tmp_path / f"out{len(extra)}"
        assert main(["run", "--out", str(out), "-O", f"family={family}", *extra, *FAST]) == 0
        reports.append(json.loads((out / "report.json").read_text())["report"])
    capsys.readouterr()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("override, message", [
    ("orders=3,3,5", "error: loaded drafter does not match orders: the config gives 3, the model has 2"),
    ("alpha=0.5", "error: loaded drafter does not match alpha: the config gives 0.5, the model has 0.1"),
    ("family=perturbed",
     "error: loaded proxy is of kind 'ngram', but family=perturbed needs kind 'mixture'"),
])
def test_run_refuses_models_of_another_shape_than_the_config(tmp_path, capsys, override, message):
    """``report.json`` records the config's family keys, so a run on saved
    models that those keys do not describe would report a family it did not
    decode with."""
    models = tmp_path / "models"
    assert main(["train", "--out", str(models)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "-O", f"model_dir={models}", "-O", override, *FAST]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_run_refuses_models_trained_on_another_corpus(tmp_path, capsys):
    lines = reference_corpus_path().read_text(encoding="utf-8").split("\n")
    flipped = tmp_path / "reversed.txt"
    flipped.write_text("\n".join(reversed(lines)), encoding="utf-8")
    models = tmp_path / "models"
    assert main(["train", "-O", f"corpus={flipped}", "--out", str(models)]) == 0
    capsys.readouterr()
    # same characters, so the vocabulary agrees; the training split does not
    assert main(["run", "--out", str(tmp_path / "out"), "-O", f"model_dir={models}", *FAST]) == 2
    assert "error: loaded drafter was not trained on" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "text",
    ['{"format": "something-else"}', "{", '{"format": "trispec-model", "version": 1, "model": {}}', "[]"],
)
def test_run_refuses_unreadable_model_files(tmp_path, capsys, text):
    for role in ("drafter", "proxy", "target"):
        (tmp_path / f"{role}.json").write_text(text)
    assert main(["run", "--out", str(tmp_path / "out"), "-O", f"model_dir={tmp_path}", *FAST]) == 2
    assert "error: cannot load the drafter from" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [-1, 29])  # the bundled corpus has 29 symbols
def test_run_refuses_a_model_with_counts_outside_the_vocabulary(tmp_path, capsys, bad):
    models = tmp_path / "models"
    assert main(["train", "--out", str(models)]) == 0
    target = models / "target.json"
    doc = json.loads(target.read_text())
    doc["model"]["counts"]["1"][""][str(bad)] = 5  # unigram mass on an id no token has
    target.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--out", str(tmp_path / "out"), "-O", f"model_dir={models}", *FAST]) == 2
    err = capsys.readouterr().err
    assert "error: cannot load the target from" in err and "outside the vocabulary" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_sweep_cli_writes_one_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--grid", "lambda=0.0,1.01", "--out", str(out), *FAST])
    assert rc == 0
    assert "swept 2 points" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_SCHEMA
    assert lines[1].startswith("lambda,")
    assert len(lines) == 2 + 2


def test_sweep_refuses_orders_axis(capsys):
    assert main(["sweep", "--grid", "orders=2,3"]) == 2
    assert "orders cannot be swept" in capsys.readouterr().err


def test_sweep_refuses_a_repeated_grid_key(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "seed=1", "--grid", "seed=2", "--out", str(out), *FAST]) == 2
    assert "error: --grid: config key 'seed' is given twice; give it once" in capsys.readouterr().err
    # an alias and its key name one config key too
    argv = ["sweep", "--grid", "lambda=0.5", "--grid", "lam=1.01", "--out", str(out), *FAST]
    assert main(argv) == 2
    assert ("error: --grid: config key 'lam' is given twice as 'lambda' and 'lam'; give it once"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "override"])
def test_a_key_given_twice_in_one_source_exits_2(source, tmp_path, capsys):
    """A config file, and the ``-O`` options, may each set a key once,
    under either spelling of an alias; an ``-O`` may still override a key
    the file sets."""
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    twice = {("k=4", "k=8"): "config key 'k' is given twice;",
             ("lambda=0.3", "lam=0.9"): "config key 'lam' is given twice as 'lambda' and 'lam';"}
    for settings, message in twice.items():
        if source == "config":
            config.write_text("# two settings\n" + "\n".join(settings) + "\n")
            argv, where = ["--config", str(config)], f"{config}:3"
        else:
            argv, where = [arg for s in settings for arg in ("-O", s)], "override"
        assert main(["run", *argv, "--out", str(out), *FAST]) == 2
        assert f"error: {where}: {message}" in capsys.readouterr().err
        assert not out.exists()
    config.write_text("k=4\nlambda=0.3\n")
    argv = ["run", "--config", str(config), "-O", "k=8", "-O", "lam=0.9", "--out", str(out)]
    assert main([*argv, *FAST]) == 0
    capsys.readouterr()
    settings = json.loads((out / "report.json").read_text())["config"]
    assert (settings["k"], settings["lambda"]) == (8, 0.9)


def test_sweep_csv_writes_a_grid_key_that_is_a_metric_column_once(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "seed=1,2", "--grid", "method=sd", "--out", str(out),
                 *FAST]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8", newline="") as fh:
        assert fh.readline() == SWEEP_SCHEMA + "\n"
        header, *body = csv.reader(fh)
    assert header[:3] == ["seed", "method", "temperature"]
    assert len(header) == len(set(header))
    assert [row[:2] for row in body] == [["1", "sd"], ["2", "sd"]]


def _hist_params(*argv):
    """The ``hist`` options as click parses them, without running ``hist``."""
    return cli.commands["hist"].make_context("hist", list(argv)).params


@pytest.mark.parametrize("option, value", [
    ("--bins", "0"), ("--bins", "-3"), ("--positions", "0"), ("--window", "0"),
    ("--window", "-2"), ("--bins", str(MAX_BINS + 1)),
    ("--positions", str(MAX_POSITIONS + 1)), ("--window", str(MAX_WINDOW + 1)),
])
def test_hist_refuses_option_values_out_of_range(option, value, tmp_path, capsys):
    with pytest.raises(click.BadParameter):
        _hist_params(option, value)
    out = tmp_path / "hist.dat"
    assert main(["hist", "--out", str(out), option, value]) == 2
    assert "Invalid value for" in capsys.readouterr().err
    assert not out.exists()


def test_hist_takes_option_values_up_to_their_bounds():
    params = _hist_params("--bins", str(MAX_BINS), "--positions", str(MAX_POSITIONS),
                          "--window", str(MAX_WINDOW))
    assert (params["bins"], params["positions"], params["window"]) == (
        MAX_BINS, MAX_POSITIONS, MAX_WINDOW)
    assert _hist_params("--bins", "1", "--positions", "1", "--window", "1")["bins"] == 1


def test_run_refuses_a_config_file_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"method = trispec\n# caf\xe9\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), *FAST]) == 2
    assert f"error: config file {config} is not UTF-8 at byte 22" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hist_cli_dumps_normalized_masses(tmp_path, capsys):
    out = tmp_path / "margins.dat"
    rc = main(["hist", "--out", str(out), "--positions", "50", "--bins", "10"])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == HIST_SCHEMA
    assert lines[1] == "# bin_mid match_mass mismatch_mass"
    rows = [tuple(float(v) for v in line.split()) for line in lines[2:]]
    assert len(rows) == 10
    total = sum(m + mm for _, m, mm in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_verify_selected_check(capsys):
    assert main(["verify", "lossless"]) == 0
    assert "[PASS] lossless" in capsys.readouterr().out
    assert main(["verify", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_run_refuses_costs_that_overflow_the_ledger(tmp_path, capsys):
    """Finite costs can still make ``L`` infinite; that is a config error,
    not a failed identity check."""
    assert main(["run", "--out", str(tmp_path), "-O", "c_t=1e308", *FAST]) == 2
    assert "error: the cost constants overflow the latency ledger" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


ZERO_LATENCY = "error: the cost constants give the run zero latency (L = 0), so its speedup is undefined"


@pytest.mark.parametrize("costs", [
    ("-O", "lambda=0", "-O", "c_d=0", "-O", "c_p=0"),  # proxy-only rounds: the target's cost goes unread
    ("-O", "c_d=0", "-O", "c_p=0", "-O", "c_t=0"),
], ids=["unread-target-cost", "all-zero"])
def test_run_refuses_costs_that_give_the_run_zero_latency(costs, tmp_path, capsys):
    """Its speedup would divide by ``L = 0``; that is a config error, not a traceback."""
    assert main(["run", "--out", str(tmp_path), *costs, *FAST]) == 2
    err = capsys.readouterr().err
    assert ZERO_LATENCY in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_sweep_refuses_costs_that_give_a_point_zero_latency(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--grid", "lambda=0.0,0.5", "-O", "c_d=0", "-O", "c_p=0", "-O", "c_t=0",
            "--out", str(out), *FAST]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert ZERO_LATENCY in err and "Traceback" not in err
    assert not out.exists()


def test_run_refuses_a_corpus_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes(b"plain ascii line\ncaf\xe9 au lait\n" * 50)
    assert main(["run", "--out", str(tmp_path / "out"), "-O", f"corpus={corpus}", *FAST]) == 2
    err = capsys.readouterr().err
    assert f"error: corpus file {corpus} is not UTF-8 at byte 20" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_refuses_a_corpus_of_one_distinct_character(tmp_path, capsys):
    corpus = tmp_path / "a.txt"
    corpus.write_text("a" * 4000, encoding="utf-8")
    assert main(["run", "--out", str(tmp_path / "out"), "-O", f"corpus={corpus}", *FAST]) == 2
    err = capsys.readouterr().err
    assert f"error: corpus file {corpus} holds one distinct character" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_takes_seeds_below_2_to_the_64_only(tmp_path, capsys):
    sampled = ("-O", "temperature=1", *FAST)
    assert main(["run", "--out", str(tmp_path / "a"), "-O", f"seed={2**64 + 5}", *sampled]) == 2
    assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert main(["run", "--out", str(tmp_path / "b"), "-O", f"seed={2**64 - 1}", *sampled]) == 0
    capsys.readouterr()
    assert read_trace_csv(tmp_path / "b" / "trace.csv")
