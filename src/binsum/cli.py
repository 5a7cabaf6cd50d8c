"""Sums of binomial coefficients C(n, k): decompositions, minimal-summand
surveys, and additive-energy diagnostics.

Exit codes: 0 success, 1 usage error or an unusable --out or --cache-dir path,
2 arithmetic overflow (reserved; the arbitrary-precision core cannot overflow),
3 resource budget exceeded, 4 no representation found (decompose only).
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

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


class _UsageError(Exception):
    """A command line that cannot run as given: exit 1."""


class _Parser(argparse.ArgumentParser):
    """No -h, no abbreviated flags, and _UsageError where argparse would exit 2."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise _UsageError(message)


# Every option once, in help order: parameter name -> (flag, argparse attributes).
# The normalizers in experiments.py fill every default but --format's and --algorithm's.
_OPTIONS: dict[str, tuple[str, dict]] = {
    "kind": ("--kind", dict(choices=EXPERIMENT_KINDS, required=True)),
    "k": ("--k", dict(type=int, help="Order of the sequence.")),
    "h": ("--h", dict(type=int, help="Summands per sum.")),
    "n": ("--n", dict(type=int, help="Target integer.")),
    "h_max": ("--h-max", dict(type=int, help="Term budget of the exact search.")),
    "n_min": ("--n-min", dict(type=int, help="Survey range start.")),
    "n_max": ("--max", dict(type=int, help="Survey range end.")),
    "cap": ("--cap", dict(type=int, help="Survey table term cap.")),
    "max_witnesses": ("--max-witnesses", dict(type=int)),
    "index_bound": ("--index-bound", dict(type=int)),
    "x": ("--x", dict(type=int, action="append",
                      help="Value bound; repeat for a fit or a multi-row table.")),
    "convention": ("--convention", dict(choices=CONVENTIONS)),
    "c": ("--c", dict(help="Per-term budget fraction, e.g. 1/2 "
                           "(energy: runs the restricted variant; needs --x).")),
    "sequence": ("--sequence", dict(choices=list(SEQUENCES))),
    "top": ("--top", dict(type=int, help="Report the top-T multiplicities.")),
    "r_max": ("--r-max", dict(type=int)),
    "memory_budget": ("--memory-budget", dict(
        type=int, help="Abort (exit 3) if the working set would exceed this many bytes.")),
    "mode": ("--mode", dict(choices=[m.value for m in SearchMode],
                            help="Whether summands may repeat.")),
    "algorithm": ("--algorithm", dict(choices=["greedy", "exact"], default="greedy", help=(
        "greedy (default): constructive route; exact: fewest terms up to --h-max."))),
    "out": ("--out", dict(type=Path, help="Write the record(s) to this file.")),
    "fmt": ("--format", dict(choices=["json", "csv"], default="json",
                             help="Export format for --out (default: json).")),
    "cache_dir": ("--cache-dir", dict(type=Path, help="Record cache directory "
                                      f"(default: ${CACHE_ENV_VAR} if set and non-empty).")),
    "threads": ("--threads", dict(
        type=int, help="Threads for the dense energy fold (default: all cores), at most "
        "one per 100,000 cells of its result. Never changes results.")),
}
# options every command takes: where to write and how to run
_KNOBS = ("out", "fmt", "cache_dir", "threads")
# the option that carries a parameter of another name: an exponent fit's bounds are its --x
_CARRIERS = {"bounds": "x"}


def _options_of(kinds: Sequence[str]) -> set[str]:
    """The options that carry the kinds' parameters, and the knobs they read."""
    return {*_KNOBS, *(_CARRIERS.get(n, n) for kind in kinds for n in CSV_FIELDS[kind][0]),
            *["memory_budget"] * any(KINDS[kind].budgeted for kind in kinds)}


def _usage_error(exc: Exception, command: str | None = None) -> _UsageError:
    """exc as a usage error; a missing parameter is named with its option."""
    if isinstance(exc, MissingParameterError):
        flag = _OPTIONS[_CARRIERS.get(exc.name, exc.name)][0]
        return _UsageError(f"{command or exc.kind} requires parameter {exc.name!r} ({flag})")
    return _UsageError(str(exc))


def _check_out(out: Path) -> None:
    """Refuse an --out path that cannot be written before anything runs: a
    directory, or a path below a file (missing directories are created)."""
    if out.is_dir():
        raise _UsageError(f"--out {out} is a directory")
    parent = next(path for path in out.parents if path.exists())
    if not parent.is_dir():
        raise _UsageError(f"--out {out}: {parent} is not a directory")


def _export(records: list[SurveyRecord], fmt: str, out: Path | None) -> None:
    if out is None:
        return
    if fmt == "csv":
        dump_records_csv(records, out)
    else:
        dump_records_json(records, out)
    print(f"wrote {out}")


def _run_and_report(kind: str, options: dict, command: str) -> SurveyRecord:
    """Run one kind with its parameters taken from the options that carry
    them, print its summary line and export it to --out if given. A kind
    with one x takes one --x, and the options the kind does not take are
    refused, in messages that name command."""
    params = {name: options[option] for name in CSV_FIELDS[kind][0]
              if (option := _CARRIERS.get(name, name)) in options}
    if "x" in params:
        if len(params["x"]) > 1:
            raise _UsageError(f"{command} takes a single --x")
        params["x"] = params["x"][0]
    taken = _options_of([kind])
    foreign = [_OPTIONS[name][0] for name in options if name not in taken]
    if foreign:
        raise _UsageError(f"{command} takes no {', '.join(foreign)}")
    threads = options["threads"] if "threads" in options else os.cpu_count() or 1
    cache_dir = options.get("cache_dir") or os.environ.get(CACHE_ENV_VAR)
    try:
        record, hit = run_experiment(
            kind,
            params,
            threads=threads,
            memory_budget=options.get("memory_budget"),
            cache=ResultCache(cache_dir) if cache_dir else None,
        )
    except (ValueError, TypeError) as exc:
        raise _usage_error(exc) from exc
    print(summary_line(record) + (" [cached]" if hit else ""))
    _export([record], options["fmt"], options.get("out"))
    return record


def decompose(algorithm: str, fmt: str, out: Path | None = None, cache_dir=None,
              threads=None, **options) -> None:
    """Write N as a sum of values C(n, k)."""
    if algorithm == "greedy" and "h_max" in options:
        raise _UsageError("decompose --algorithm greedy takes no --h-max")
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
            raise _UsageError(
                "distinct-mode greedy is only defined for k in {1, 2, 3}; "
                "use --algorithm exact"
            )
        rep = Representation(target, k, tuple(greedy_chain(target, k)))
        cap_text = "unbounded terms"

    if rep is None:
        raise NoRepresentationError(
            f"no representation of {target} with <= {cap_text} (k={k})"
        )
    print(f"{target} = " + " + ".join(str(v) for v in rep.values))
    print(f"indices (n, descending): {list(rep.indices)}")
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
        print(f"wrote {out}")


def survey(kind: str, **options) -> None:
    """Run any experiment kind and export its record.

    Takes the kind's parameters and the output and execution options only;
    --x repeats only for exponent fits.
    """
    _run_and_report(kind, options, f"--kind {kind}")


def energy(**options) -> None:
    """Multiplicity statistics for h-fold sums."""
    if "c" in options:
        _run_and_report("restricted-sums", options, "energy --c")
    else:
        _run_and_report("energy", options, "energy")


def table(out: Path | None = None, x: Sequence[int] = (), **options) -> None:
    """Counts of sequence values up to X and their ratio to leading order."""
    # one row per --x; none at all still runs once, so the missing x is reported
    records = [_run_and_report("asymptotic-ratio", row, "table")
               for row in [dict(options, x=[value]) for value in x] or [options]]
    _export(records, options["fmt"], out)


# command -> (handler, the kinds whose parameters it takes as options, its own
# options); a command with a help line for a handler runs its one kind as given
_COMMANDS: dict[str, tuple[Callable[..., None] | str, Sequence[str], tuple[str, ...]]] = {
    "decompose": (decompose, ["min-rep"], ("algorithm",)),
    "min-rep": ("Fewest summands for one target, or report that h-max is exceeded.",
                ["min-rep"], ()),
    "survey": (survey, EXPERIMENT_KINDS, ("kind",)),
    "energy": (energy, ["energy", "restricted-sums"], ()),
    "coverage": ("Largest R <= r-max where [R/2, R] misses a two-triangular sum, per mode.",
                 ["coverage-threshold"], ()),
    "fit": ("Fit the growth exponent of the h-fold energy across value bounds.",
            ["exponent-fit"], ()),
    "table": (table, ["asymptotic-ratio"], ()),
}


def _build_parser() -> argparse.ArgumentParser:
    """One parser for every command; a handler receives only the options given."""
    parser = _Parser(prog="binsum", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for command, (run, kinds, own) in _COMMANDS.items():
        doc = run if isinstance(run, str) else run.__doc__
        sub = commands.add_parser(command, help=doc.split("\n")[0], description=doc,
                                  argument_default=argparse.SUPPRESS)
        taken = {*own, *_options_of(kinds)}
        for name, (flag, attrs) in _OPTIONS.items():
            if name in taken:
                sub.add_argument(flag, dest=name, **attrs)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        options = vars(_PARSER.parse_args(argv))
        if "out" in options:
            _check_out(options["out"])
        if options.get("threads", 1) < 1:
            raise _UsageError("--threads must be >= 1")
        command = options.pop("command")
        run, kinds, _ = _COMMANDS[command]
        if isinstance(run, str):
            _run_and_report(kinds[0], options, command)
        else:
            run(**options)
    except SystemExit:  # only --help and --version exit the parser
        return 0
    except (_UsageError, OSError) as exc:  # OSError: an --out or --cache-dir path
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except NoRepresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
