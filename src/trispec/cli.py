"""Command-line front end.

Five subcommands: ``train`` persists an oracle family, ``run`` decodes and
writes report.json plus trace.csv, ``sweep`` runs a config grid into one
CSV, ``hist`` dumps the proxy-vs-target margin histogram, and ``verify``
runs the built-in check suites. Exit codes: 0 success, 1 a verification
check failed, 2 configuration or input errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .harness import (
    HIST_SCHEMA,
    ConfigError,
    EmptyCorpusError,
    build_family,
    config_items,
    load_config,
    margin_eval_contexts,
    run_experiment,
    sweep as run_sweep,
    write_report_json,
    write_sweep_csv,
    write_trace_csv,
)
from .metrics import lemma_check, margin_histogram
from .models import CorpusTooShortError, save_oracle
from .suites import verify_suite

__all__ = ["cli", "main"]

# Upper bounds of the ``hist`` options: far above any useful value (an
# oracle reads a few tokens of context), and small enough that the
# contexts and bins of any values in range fit in memory together.
MAX_POSITIONS = 100_000
MAX_BINS = 10_000
MAX_WINDOW = 64


def _overrides(pairs: tuple[str, ...]) -> dict[str, str]:
    return config_items((pair, "override") for pair in pairs)


def _config_options(f):
    f = click.option(
        "--config",
        "config_path",
        type=click.Path(exists=True, dir_okay=False),
        default=None,
        help="Flat key=value config file.",
    )(f)
    f = click.option(
        "-O",
        "--set",
        "sets",
        multiple=True,
        metavar="KEY=VALUE",
        help="Override a config key (repeatable).",
    )(f)
    return f


@click.group()
def cli() -> None:
    """Ternary speculative decoding experiments at desk scale."""


@cli.command()
@_config_options
@click.option("--out", required=True, type=click.Path(file_okay=False), help="Model directory.")
def train(config_path: str | None, sets: tuple[str, ...], out: str) -> None:
    """Train the drafter/proxy/target family and save it as JSON."""
    cfg = load_config(config_path, _overrides(sets))
    family = build_family(cfg)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_oracle(family.drafter, out_dir / "drafter.json")
    save_oracle(family.proxy, out_dir / "proxy.json")
    save_oracle(family.target, out_dir / "target.json")
    click.echo(f"saved drafter.json, proxy.json, target.json to {out_dir}")


@cli.command()
@_config_options
@click.option("--out", default=".", type=click.Path(file_okay=False), help="Output directory.")
def run(config_path: str | None, sets: tuple[str, ...], out: str) -> None:
    """Decode with the configured method; write report.json and trace.csv."""
    cfg = load_config(config_path, _overrides(sets))
    result = run_experiment(cfg)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(result, out_dir / "report.json")
    write_trace_csv(result.records, out_dir / "trace.csv")
    report = result.report
    click.echo(f"run {result.run_id}: {report.N} tokens in {report.rounds} rounds")
    click.echo(
        f"  tau_mean {report.tau_mean:.3f}  tokens/round {report.tokens_per_round:.3f}"
        f"  r_t {report.r_t:.4f}"
    )
    click.echo(
        f"  L {report.L:.1f}  speedup {report.speedup:.3f}"
        f"  decomposition residual {lemma_check(report):.2e}"
    )
    if report.continuation_ppl is not None:
        click.echo(f"  continuation ppl {report.continuation_ppl:.3f}")
    click.echo(f"wrote {out_dir / 'report.json'} and {out_dir / 'trace.csv'}")


@cli.command(name="sweep")
@_config_options
@click.option(
    "--grid",
    "grid_specs",
    multiple=True,
    required=True,
    metavar="KEY=V1,V2,...",
    help="Grid axis (repeatable); the cartesian product is swept.",
)
@click.option("--out", default="sweep.csv", type=click.Path(dir_okay=False))
def sweep_cmd(
    config_path: str | None, sets: tuple[str, ...], grid_specs: tuple[str, ...], out: str
) -> None:
    """Run every grid point off one base config into a single CSV."""
    cfg = load_config(config_path, _overrides(sets))
    axes = config_items((spec, "--grid") for spec in grid_specs)
    if "orders" in axes:
        raise ConfigError("orders cannot be swept from the command line")
    grid = {key: [v.strip() for v in vals.split(",") if v.strip()] for key, vals in axes.items()}
    columns, rows = run_sweep(cfg, grid)
    write_sweep_csv(columns, rows, out)
    click.echo(f"swept {len(rows)} points into {out}")


@cli.command()
@_config_options
@click.option("--out", default="hist.dat", type=click.Path(dir_okay=False))
@click.option("--positions", default=2000, show_default=True, type=click.IntRange(1, MAX_POSITIONS),
              help="Corpus contexts to score.")
@click.option("--bins", default=20, show_default=True, type=click.IntRange(1, MAX_BINS))
@click.option("--window", default=8, show_default=True, type=click.IntRange(1, MAX_WINDOW),
              help="Context width in tokens.")
def hist(
    config_path: str | None,
    sets: tuple[str, ...],
    out: str,
    positions: int,
    bins: int,
    window: int,
) -> None:
    """Histogram proxy top-2 margins, split by proxy/target argmax agreement."""
    cfg = load_config(config_path, _overrides(sets))
    family = build_family(cfg)
    contexts = margin_eval_contexts(family.train_tokens, positions, window)
    histogram = margin_histogram(family.proxy, family.target, contexts, bins)
    lines = [HIST_SCHEMA, "# bin_mid match_mass mismatch_mass"]
    for mid, match, mismatch in histogram.to_rows():
        lines.append(f"{mid:.10g} {match:.10g} {mismatch:.10g}")
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"scored {len(contexts)} contexts into {bins} bins: {out}")


@cli.command()
@click.argument("checks", nargs=-1)
def verify(checks: tuple[str, ...]) -> int:
    """Run the built-in check suites (all when no names are given)."""
    results = verify_suite(list(checks) or None)
    failed = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        click.echo(f"[{status}] {result.name}: {result.detail}")
        failed += 0 if result.ok else 1
    if failed:
        click.echo(f"{failed} of {len(results)} checks failed", err=True)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        click.echo("aborted", err=True)
        return 2
    except (ConfigError, EmptyCorpusError, CorpusTooShortError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
