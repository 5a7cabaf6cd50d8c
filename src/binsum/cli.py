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

from ._version import __version__
from .binom import SEQUENCES
from .cache import ResultCache
from .energy import CONVENTIONS
from .errors import NoRepresentationError, ResourceBudgetError
from .experiments import (KINDS, MissingParameterError, normalize_parameters,
                          run_experiment, summary_line)
from .records import (
    CSV_FIELDS,
    EXPERIMENT_KINDS,
    SurveyRecord,
    dump_payload,
    dump_records_csv,
    dump_records_json,
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

# Every option once: parameter name -> (flag, click attributes). Experiment
# parameters declare no default: an absent option reads None (or () where it
# repeats), so the normalizers in experiments.py fill every default, for
# both front doors alike. --x repeats; _run_and_report hands it to a kind as
# its bounds or as its single x.
_OPTIONS: dict[str, tuple[str, dict]] = {
    "k": ("--k", dict(type=int, help="Order of the sequence.")),
    "h": ("--h", dict(type=int, help="Summands per sum.")),
    "n": ("--n", dict(type=int, help="Target integer.")),
    "h_max": ("--h-max", dict(type=int, help="Term budget of the exact search.")),
    "n_min": ("--n-min", dict(type=int, help="Survey range start.")),
    "n_max": ("--max", dict(type=int, help="Survey range end.")),
    "cap": ("--cap", dict(type=int, help="Survey table term cap.")),
    "max_witnesses": ("--max-witnesses", dict(type=int)),
    "index_bound": ("--index-bound", dict(type=int)),
    "x": ("--x", dict(type=int, multiple=True,
                      help="Value bound; repeat for a fit or a multi-row table.")),
    "convention": ("--convention", dict(type=click.Choice(CONVENTIONS))),
    "c": ("--c", dict(type=str, help="Per-term budget fraction, e.g. 1/2 "
                                     "(energy: runs the restricted variant; needs --x).")),
    "sequence": ("--sequence", dict(type=click.Choice(list(SEQUENCES)))),
    "top": ("--top", dict(type=int, help="Report the top-T multiplicities.")),
    "r_max": ("--r-max", dict(type=int)),
    "memory_budget": ("--memory-budget", dict(
        type=int, help="Abort (exit 3) if the working set would exceed this many bytes.")),
    "mode": ("--mode", dict(type=click.Choice([m.value for m in SearchMode]),
                            help="Whether summands may repeat.")),
    "out": ("--out", dict(type=click.Path(path_type=Path),
                          help="Write the record(s) to this file.")),
    "fmt": ("--format", dict(type=click.Choice(["json", "csv"]), default="json",
                             show_default=True, help="Export format for --out.")),
    "cache_dir": ("--cache-dir", dict(type=click.Path(path_type=Path), envvar=CACHE_ENV_VAR,
                                      help=f"Record cache directory (or set {CACHE_ENV_VAR}).")),
    "threads": ("--threads", dict(
        type=int, help="Threads for the dense energy fold (default: all cores), at most "
        "one per 100,000 cells of its result. Never changes results.")),
}
# options every command takes: where to write and how to run
_KNOBS = ("out", "fmt", "cache_dir", "threads")


def _options(*names: str):
    """Attach the named options, then the _KNOBS ones."""

    def attach(f):
        for name in reversed((*names, *_KNOBS)):
            flag, attrs = _OPTIONS[name]
            f = click.option(flag, name, **attrs)(f)
        return f

    return attach


def _usage_error(exc: Exception, command: str | None = None) -> click.UsageError:
    """exc as a usage error; a missing parameter is named with its option."""
    if isinstance(exc, MissingParameterError):
        flag = _OPTIONS["x" if exc.name == "bounds" else exc.name][0]
        return click.UsageError(f"{command or exc.kind} requires parameter "
                                f"{exc.name!r} ({flag})")
    return click.UsageError(str(exc))


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


def _run_and_report(kind: str, options: dict, command: str) -> SurveyRecord:
    """Run one kind with its parameters taken from the click options of the
    same names, echo its summary line and export it to --out if given.

    The given options are admitted first: --x becomes the kind's bounds or
    its single x, and an option the kind does not take is refused, in
    messages that name command; only budgeted kinds take --memory-budget.
    """
    names = CSV_FIELDS[kind][0]
    knobs = (*_KNOBS, "memory_budget") if KINDS[kind].budgeted else _KNOBS
    # an absent option reads None, or () where it repeats
    given = {name: value for name, value in options.items() if value not in (None, ())}
    if "bounds" in names and "x" in given:
        given["bounds"] = given.pop("x")
    elif "x" in names and "x" in given:
        if len(given["x"]) > 1:
            raise click.UsageError(f"{command} takes a single --x")
        given["x"] = given["x"][0]
    foreign = [_OPTIONS[name][0] for name in given if name not in (*names, *knobs)]
    if foreign:
        raise click.UsageError(f"{command} takes no {', '.join(foreign)}")
    params = {name: given[name] for name in names if name in given}
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
        raise _usage_error(exc) from exc
    click.echo(summary_line(record) + (" [cached]" if hit else ""))
    _export([record], options["fmt"], options["out"])
    return record


@click.group()
@click.version_option(__version__)
def cli() -> None:
    """Sums of binomial coefficients C(n, k): decompositions,
    minimal-summand surveys, and additive-energy diagnostics."""


@cli.command()
@_options("k", "n", "h_max", "mode")
@click.option(
    "--algorithm",
    type=click.Choice(["greedy", "exact"]),
    default="greedy",
    show_default=True,
    help="greedy: constructive route; exact: fewest terms up to --h-max.",
)
def decompose(algorithm, fmt, out, cache_dir, threads, **options):
    """Write N as a sum of values C(n, k)."""
    try:
        # the parameters of the exact search, checked as min-rep checks them
        params = normalize_parameters("min-rep", options)
    except ValueError as exc:
        raise _usage_error(exc, "decompose") from exc
    k, target, h_max, mode = (params[name] for name in ("k", "n", "h_max", "mode"))
    search_mode = SearchMode(mode)
    distinct_word = "distinct " if search_mode is SearchMode.DISTINCT else ""

    if algorithm == "exact":
        rep = minimal_representation(target, k, h_max, search_mode)
        cap_text = f"{h_max} {distinct_word}terms"
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
        if search_mode is SearchMode.DISTINCT and k > 1:
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
        dump_payload({
            "k": k,
            "n": target,
            "algorithm": algorithm,
            "mode": mode,
            "indices": list(rep.indices),
            "values": list(rep.values),
            "terms": len(rep),
            "distinct": rep.distinct,
        }, out, fmt)
        click.echo(f"wrote {out}")


@cli.command("min-rep")
@_options("k", "n", "h_max", "mode")
def min_rep(**options):
    """Fewest summands for one target, or report that h-max is exceeded."""
    _run_and_report("min-rep", options, "min-rep")


@cli.command()
@click.option("--kind", type=click.Choice(EXPERIMENT_KINDS), required=True)
@_options(*(name for name in _OPTIONS if name not in _KNOBS))
def survey(kind, **options):
    """Run any experiment kind and export its record.

    Takes the kind's parameters and the output and execution options only;
    --x repeats only for exponent fits.
    """
    _run_and_report(kind, options, f"--kind {kind}")


@cli.command()
@_options("k", "h", "index_bound", "x", "convention", "c", "sequence", "top")
def energy(**options):
    """Multiplicity statistics for h-fold sums."""
    if options["c"] is None:
        _run_and_report("energy", options, "energy")
    else:
        _run_and_report("restricted-sums", options, "energy --c")


@cli.command()
@_options("k", "r_max", "memory_budget", "mode")
def coverage(mode, **options):
    """Largest R <= r-max where [R/2, R] misses a two-triangular sum.

    Both admission modes are computed and recorded; --mode picks which one
    the summary highlights.
    """
    record = _run_and_report("coverage-threshold", options, "coverage")
    shown = "distinct" if mode == "distinct" else "repeats"
    click.echo(f"{shown} threshold: {record.results[shown + '_threshold']}")


@cli.command()
@_options("k", "h", "x", "sequence")
def fit(**options):
    """Fit the growth exponent of the h-fold energy across value bounds."""
    _run_and_report("exponent-fit", options, "fit")


@cli.command()
@_options("k", "x")
def table(x, **options):
    """Counts of sequence values up to X and their ratio to leading order."""
    # one row per --x; none at all still runs once, so the missing x is reported
    records = [_run_and_report("asymptotic-ratio", dict(options, x=xs, out=None), "table")
               for xs in [(value,) for value in x] or [()]]
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
