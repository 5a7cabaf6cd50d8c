"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 arithmetic overflow (reserved; the
arbitrary-precision core cannot overflow), 3 resource budget exceeded,
4 no representation found (decompose only).
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from ._version import __version__
from .binom import SEQUENCES
from .cache import ResultCache
from .errors import NoRepresentationError, ResourceBudgetError
from .experiments import run_experiment, summary_line
from .records import (
    CSV_FIELDS,
    EXPERIMENT_KINDS,
    SurveyRecord,
    _atomic_write_text,
    dump_records_csv,
    dump_records_json,
    encode_value,
)
from .represent import (
    Representation,
    SearchMode,
    decompose_k2,
    decompose_k3,
    greedy_chain,
    minimal_representation,
)

CACHE_ENV_VAR = "BINSUM_CACHE_DIR"
# options survey takes for every kind: how to run and where to write
_SURVEY_KNOBS = ("out", "fmt", "cache_dir", "threads", "memory_budget")


def _output_options(f):
    f = click.option(
        "--threads",
        type=int,
        default=None,
        help="Threads for the dense energy fold (default: all cores), at most "
        "one per 100,000 cells of its result. Never changes results.",
    )(f)
    f = click.option(
        "--cache-dir",
        type=click.Path(path_type=Path),
        default=None,
        envvar=CACHE_ENV_VAR,
        help=f"Record cache directory (or set {CACHE_ENV_VAR}).",
    )(f)
    f = click.option(
        "--out",
        type=click.Path(path_type=Path),
        default=None,
        help="Write the record(s) to this file.",
    )(f)
    f = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Export format for --out.",
    )(f)
    return f


def _mode_option(f):
    return click.option(
        "--mode",
        type=click.Choice(["repeats", "distinct"]),
        default="repeats",
        show_default=True,
        help="Whether summands may repeat.",
    )(f)


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        return os.cpu_count() or 1
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    return threads


def _export(records: list[SurveyRecord], fmt: str, out: Path | None) -> None:
    if out is None:
        return
    if fmt == "csv":
        dump_records_csv(records, out)
    else:
        dump_records_json(records, out)
    click.echo(f"wrote {out}")


def _run_and_report(kind: str, options: dict) -> SurveyRecord:
    """Run one kind with its parameters taken from the click options of the
    same names, echo its summary line and export it to --out if given."""
    params = {name: options.get(name) for name in CSV_FIELDS[kind][0]}
    cache_dir = options["cache_dir"]
    try:
        record, hit = run_experiment(
            kind,
            params,
            threads=_resolve_threads(options["threads"]),
            memory_budget=options.get("memory_budget"),
            cache=None if cache_dir is None else ResultCache(cache_dir),
        )
    except (ValueError, TypeError) as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(summary_line(record) + (" [cached]" if hit else ""))
    _export([record], options["fmt"], options["out"])
    return record


@click.group()
@click.version_option(__version__)
def cli() -> None:
    """Sums of binomial coefficients C(n, k): decompositions,
    minimal-summand surveys, and additive-energy diagnostics."""


@cli.command()
@click.option("--k", type=int, required=True, help="Order of the sequence.")
@click.option("--n", "target", type=int, required=True, help="Integer to decompose.")
@click.option(
    "--algorithm",
    type=click.Choice(["greedy", "exact", "telescoping"]),
    default="greedy",
    show_default=True,
    help="greedy: constructive route; exact: fewest terms up to --h-max; "
    "telescoping: the order-3 constructive route explicitly.",
)
@click.option("--h-max", type=int, default=8, show_default=True,
              help="Term budget for --algorithm exact.")
@_mode_option
@_output_options
def decompose(k, target, algorithm, h_max, mode, fmt, out, cache_dir, threads):
    """Write N as a sum of values C(n, k)."""
    if k < 1:
        raise click.UsageError("--k must be >= 1")
    if target < 1:
        raise click.UsageError("--n must be >= 1")
    search_mode = SearchMode(mode)
    distinct_word = "distinct " if search_mode is SearchMode.DISTINCT else ""

    if algorithm == "telescoping" and k != 3:
        raise click.UsageError("--algorithm telescoping requires --k 3")

    if algorithm == "exact":
        rep = minimal_representation(target, k, h_max, search_mode)
        cap_text = f"{h_max} {distinct_word}terms"
    elif k == 1:
        rep = Representation(target, 1, (target,))
        cap_text = "1 term"
    elif k == 2:
        rep = decompose_k2(target, search_mode)
        cap_text = f"3 {distinct_word}terms"
    elif k == 3:
        if search_mode is SearchMode.DISTINCT:
            rep = minimal_representation(target, 3, 7, search_mode)
        else:
            rep = decompose_k3(target)
        cap_text = f"7 {distinct_word}terms"
    else:
        if search_mode is SearchMode.DISTINCT:
            raise click.UsageError(
                "distinct-mode greedy is only defined for k in {1, 2, 3}; "
                "use --algorithm exact"
            )
        chain = greedy_chain(target, k)
        assert chain is not None  # no cap, so the chain always finishes
        rep = Representation(target, k, tuple(chain))
        cap_text = "unbounded terms"

    if rep is None:
        raise NoRepresentationError(
            f"no representation of {target} with <= {cap_text} (k={k})"
        )
    click.echo(f"{target} = " + " + ".join(str(v) for v in rep.values))
    click.echo(f"indices (n, descending): {list(rep.indices)}")
    if out is not None:
        payload = {
            "k": k,
            "n": target,
            "algorithm": algorithm,
            "mode": mode,
            "indices": list(rep.indices),
            "values": list(rep.values),
            "terms": len(rep),
            "distinct": rep.distinct,
        }
        if fmt == "csv":
            import csv
            import io

            from .records import _cell

            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(list(payload))
            writer.writerow([_cell(encode_value(value)) for value in payload.values()])
            _atomic_write_text(out, buffer.getvalue())
        else:
            import json

            _atomic_write_text(
                out, json.dumps(encode_value(payload), indent=2, sort_keys=True) + "\n"
            )
        click.echo(f"wrote {out}")


@cli.command("min-rep")
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True, help="Target integer.")
@click.option("--h-max", type=int, default=8, show_default=True)
@_mode_option
@_output_options
def min_rep(**options):
    """Fewest summands for one target, or report that h-max is exceeded."""
    _run_and_report("min-rep", options)


@cli.command()
@click.option("--kind", type=click.Choice(EXPERIMENT_KINDS), required=True)
@click.option("--k", type=int, required=True)
@click.option("--h", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--h-max", type=int, default=None)
@click.option("--n-min", type=int, default=None)
@click.option("--max", "n_max", type=int, default=None, help="Survey range end.")
@click.option("--cap", type=int, default=None, help="Survey table term cap.")
@click.option("--max-witnesses", type=int, default=None)
@click.option("--index-bound", type=int, default=None)
@click.option("--x", "bounds", type=int, multiple=True,
              help="Value bound; repeat for exponent fits.")
@click.option("--convention", type=click.Choice(["value", "index"]), default=None)
@click.option("--c", type=str, default=None,
              help="Per-term budget fraction, e.g. 1/2.")
@click.option("--sequence", type=click.Choice(list(SEQUENCES)), default=None)
@click.option("--top", type=int, default=None, help="Report the top-T multiplicities.")
@click.option("--r-max", type=int, default=None)
@click.option("--memory-budget", type=int, default=None,
              help="Abort (exit 3) if the working set would exceed this many bytes.")
@_mode_option
@_output_options
@click.pass_context
def survey(ctx, kind, **options):
    """Run any experiment kind and export its record.

    Takes the kind's parameters and the output and execution options only;
    --x repeats only for exponent fits.
    """
    accepted = {"kind", *CSV_FIELDS[kind][0], *_SURVEY_KNOBS}
    if "x" in accepted:
        if len(options["bounds"]) > 1:
            raise click.UsageError(f"--kind {kind} takes a single --x")
        accepted.add("bounds")
        options["x"] = options["bounds"][0] if options["bounds"] else None
    foreign = [
        param.opts[0]
        for param in ctx.command.params
        if param.name not in accepted
        and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE
    ]
    if foreign:
        raise click.UsageError(f"--kind {kind} takes no {', '.join(foreign)}")
    _run_and_report(kind, options)


@cli.command()
@click.option("--k", type=int, required=True)
@click.option("--h", type=int, required=True)
@click.option("--index-bound", type=int, default=None)
@click.option("--x", type=int, default=None)
@click.option("--convention", type=click.Choice(["value", "index"]), default=None)
@click.option("--c", type=str, default=None,
              help="Run the restricted (per-term capped) variant; needs --x.")
@click.option("--sequence", type=click.Choice(list(SEQUENCES)), default="binomial",
              show_default=True)
@click.option("--top", type=int, default=0, show_default=True)
@_output_options
def energy(**options):
    """Multiplicity statistics for h-fold sums."""
    if options["c"] is None:
        _run_and_report("energy", options)
    elif options["x"] is None:
        raise click.UsageError("--c needs --x (the sum budget)")
    else:
        _run_and_report("restricted-sums", options)


@cli.command()
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--r-max", type=int, required=True)
@click.option("--memory-budget", type=int, default=None,
              help="Abort (exit 3) if the working set would exceed this many bytes.")
@_mode_option
@_output_options
def coverage(mode, **options):
    """Largest R <= r-max where [R/2, R] misses a two-triangular sum.

    Both admission modes are computed and recorded; --mode picks which one
    the summary highlights.
    """
    record = _run_and_report("coverage-threshold", options)
    key = "repeats_threshold" if mode == "repeats" else "distinct_threshold"
    click.echo(f"{mode} threshold: {record.results[key]}")


@cli.command()
@click.option("--k", type=int, required=True)
@click.option("--h", type=int, required=True)
@click.option("--x", "bounds", type=int, multiple=True, required=True,
              help="Value bounds; give at least three.")
@click.option("--sequence", type=click.Choice(list(SEQUENCES)), default="binomial",
              show_default=True)
@_output_options
def fit(**options):
    """Fit the growth exponent of the h-fold energy across value bounds."""
    _run_and_report("exponent-fit", options)


@cli.command()
@click.option("--k", type=int, required=True)
@click.option("--x", "bounds", type=int, multiple=True, required=True,
              help="Value bound; may repeat for a multi-row table.")
@_output_options
def table(bounds, **options):
    """Counts of sequence values up to X and their ratio to leading order."""
    records = [_run_and_report("asymptotic-ratio", dict(options, x=x, out=None))
               for x in bounds]
    _export(records, options["fmt"], options["out"])


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:  # usage errors included
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except NoRepresentationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except ResourceBudgetError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except OverflowError as exc:
        click.echo(f"error: arithmetic overflow: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
