"""Command-line front end over one evaluation API.

Subcommands: limits | device | link | network | trend. Each is a pure
``report_<kind>`` function returning a :class:`Report` in memory: the JSON
report, the CSV tables (one ``radar.csv`` per run, with the item as a column)
and the console table. Only :func:`main` prints and writes: it reads the
flags, loads the ``--config`` with one ``load_<kind>_config`` call (see
:mod:`clearfom.validation`), prints the table and writes the selected
artifacts. Each subcommand imports only the model and loader it runs; this
module loads none. Every artifact is written atomically after the whole
evaluation succeeds, so a failing run leaves no partial output.

Exit codes: 0 success, 1 validation error, 2 infeasible model, 3 I/O error.
Errors print one machine-parsable line on stderr. Usage errors (an unknown
subcommand, a missing or malformed flag) and valid inputs whose magnitudes
overflow or underflow the model's floating-point arithmetic are validation
errors too.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import ClearError, ConfigurationError, DomainError, InfeasibleLinkError
from .ioutil import IoError, write_csv, write_json
from .metric import Level, clear_value, default_floors, radar_area, radar_scores, radar_vertices

__all__ = ["Report", "report_limits", "report_device", "report_link", "report_network",
           "report_trend", "main"]

OUT_DIR_ENV = "CLEARFOM_OUT"
ALL_FORMATS = ("table", "csv", "json", "radar_csv")
RADAR_CSV = "radar.csv"  # the one artifact that --format radar_csv selects

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


# Report keys of the five CLEAR factors at each level, in Axes order; JSON
# entries and CSV rows both take their factor columns from these.
_FACTOR_KEYS = {
    Level.DEVICE: ("capability_hz", "critical_length_m", "energy_j_per_bit", "footprint_m2",
                   "unit_cost_usd"),
    Level.LINK: ("capacity_bps", "latency_s", "energy_j_per_bit", "area_m2", "cost_usd"),
    Level.NETWORK: ("capacity_bps_per_node", "latency_clks", "energy_j_per_bit", "area_m2",
                    "cost_usd"),
}

# Columns of network_summary.csv and of the network command's table.
_NETWORK_SUMMARY_COLUMNS = ("case", "technology", "clear", "capacity_gbps", "latency_clks",
                            "energy_pj_per_bit", "area_mm2", "cost_usd")

# Report keys of the five physical limits at each level, in Axes order.
_LIMIT_KEYS = {
    Level.DEVICE: ("max_rate_hz", "min_length_m", "min_energy_j_per_bit", "min_area_m2",
                   "min_unit_cost_usd"),
    Level.LINK: ("max_capacity_bps", "min_latency_s", "min_energy_j_per_bit", "min_area_m2",
                 "min_cost_usd"),
}


class Report(NamedTuple):
    """One evaluation, in memory: what ``main`` prints and writes for a subcommand."""

    json: tuple  # (relpath, document)
    csv: list  # (relpath, header, rows) per table; a row list may back several paths
    table: tuple  # (title or None, headers, rows) of the console table


def _print_table(title, headers, rows):
    def cell(value):
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    if title is not None:
        print(title)
    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in text_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _write(report: Report, out_dir: Path, formats) -> list[str]:
    """Write the selected artifacts of ``report``; return their paths, CSVs first."""
    # Only the JSON report can fail to render (strict JSON has no NaN or inf), and a
    # CSV cell always renders: writing the report first, a refused one leaves no file.
    reports = [report.json] if "json" in formats else []
    for relpath, document in reports:
        write_json(out_dir / relpath, document)
    # A row list under several paths is rendered once, for all of them.
    written, tables = [], {}  # (header, id of the row list) -> (rows, paths)
    for relpath, header, rows in report.csv:
        if ("radar_csv" if relpath == RADAR_CSV else "csv") in formats:
            tables.setdefault((header, id(rows)), (rows, []))[1].append(out_dir / relpath)
            written.append(relpath)
    for (header, _), (rows, paths) in tables.items():
        write_csv(paths, header, rows)
    return written + [relpath for relpath, _ in reports]


def report_limits(temperature: float, link_length: float, group_index: float) -> Report:
    """The five physical limits of the device and link levels."""
    from .limits import make_limit_set

    reports = {}
    for level, keys in _LIMIT_KEYS.items():
        limits = make_limit_set(temperature, link_length=link_length,
                                group_index=group_index, level=level)
        reports[level.value] = dict(zip(keys, limits))
    rows = [(level, key, value) for level, report in reports.items()
            for key, value in report.items()]
    document = {
        "kind": "limits_report",
        "temperature_k": temperature,
        "tof_link_length_m": link_length,
        "tof_group_index": group_index,
        "levels": reports,
    }
    title = (f"physical limits at {temperature:g} K (time of flight over {link_length:g} m, "
             f"group index {group_index:g})")
    header = ("level", "quantity", "value")
    return Report(("limits.json", document), [("limits.csv", header, rows)],
                  (title, header, rows))


def report_device(config) -> Report:
    """Device CLEAR and radar scores of a loaded device config."""
    from .device import device_clear, radar_normalize
    from .limits import make_limit_set

    limits = make_limit_set(temperature=config.temperature_k)
    devices = sorted(config.devices, key=lambda s: s.name)
    values = []  # every device's CLEAR is checked before any sets the shared floors
    for spec in devices:
        try:
            values.append(device_clear(spec))
        except DomainError as exc:
            raise DomainError(f"device '{spec.name}': {exc}") from exc
    floors = default_floors([value.factors for value in values])

    table_rows = []
    report_devices = []
    radar_rows = []
    for spec, value in zip(devices, values):
        scores = radar_normalize(spec, limits, floors)
        area = radar_area(scores)
        violations = spec.limit_violations(limits)
        table_rows.append((spec.name, spec.technology.value, value.value, area))
        report_devices.append({
            "name": spec.name,
            "technology": spec.technology.value,
            "clear": value.value,
            "factors": dict(zip(_FACTOR_KEYS[Level.DEVICE], value.factors)),
            "radar": scores._asdict(),
            "radar_area": area,
            "limit_violations": violations,
        })
        radar_rows.extend((spec.name, *vertex) for vertex in radar_vertices(scores))
    return Report(
        ("device_report.json", {
            "kind": "device_report",
            "temperature_k": config.temperature_k,
            "devices": report_devices,
        }),
        [(RADAR_CSV, ("name", "axis", "score", "x", "y"), radar_rows),
         ("device_clear.csv",
          ("name", "technology", "clear", *_FACTOR_KEYS[Level.DEVICE], "radar_area"),
          [(d["name"], d["technology"], d["clear"], *d["factors"].values(), d["radar_area"])
           for d in report_devices])],
        (None, ("device", "technology", "clear", "radar_area"), table_rows))


def report_link(config, eval_year: float | None = None) -> Report:
    """Link CLEAR over the lengths of a loaded link config, costed in ``eval_year``."""
    from .limits import make_limit_set
    from .link import link_factors

    report_links = {spec.name: [] for spec in config.links}
    radar_rows = {spec.name: [] for spec in config.links}
    table_rows = []
    for length in config.lengths_m:
        limits = make_limit_set(temperature=config.temperature_k, link_length=length,
                                level=Level.LINK)
        at_length = [(spec, link_factors(spec.at_length(length), eval_year))
                     for spec in config.links]
        values = []  # every link's factors are checked before any sets the shared floors
        for spec, factors in at_length:
            try:
                values.append(clear_value(factors, Level.LINK))
            except DomainError as exc:
                raise DomainError(f"link '{spec.name}' at {length:g} m: {exc}") from exc
        floors = default_floors([factors for _, factors in at_length])
        for (spec, factors), value in zip(at_length, values):
            scores = radar_scores(factors, limits, floors)
            report_links[spec.name].append({
                "length_m": length,
                **dict(zip(_FACTOR_KEYS[Level.LINK], factors)),
                "clear": value.value,
                "radar": scores._asdict(),
            })
            table_rows.append((spec.name, length, factors.capability, value.value))
            radar_rows[spec.name].extend(
                (spec.name, length, *vertex) for vertex in radar_vertices(scores))
    by_name = sorted(config.links, key=lambda s: s.name)
    return Report(
        ("link_report.json", {
            "kind": "link_report",
            "temperature_k": config.temperature_k,
            "eval_year": eval_year,
            "lengths_m": list(config.lengths_m),
            "links": [{"name": spec.name, "technology": spec.technology.value,
                       "sweep": report_links[spec.name]}
                      for spec in by_name],
        }),
        [(RADAR_CSV, ("name", "length_m", "axis", "score", "x", "y"),
          [row for spec in by_name for row in radar_rows[spec.name]]),
         ("link_sweep.csv",
          ("link", "length_m", "capacity_bps", "latency_s", "energy_j", "area_m2",
           "cost_usd", "clear"),
          [(spec.name, e["length_m"], *(e[key] for key in _FACTOR_KEYS[Level.LINK]), e["clear"])
           for spec in by_name for e in report_links[spec.name]])],
        (None, ("link", "length_m", "capacity_bps", "clear"), table_rows))


def report_network(config, eval_year: float | None = None, seed: int | None = None) -> Report:
    """NoC CLEAR of each case of a loaded network config; ``seed`` feeds a hotspot pick."""
    from .network import case_activities, find_crossover, flit_sweep, generate_traffic
    from .validation import link_activity_csv

    mesh = next(iter(config.cases.values()))
    traffic = generate_traffic(config.traffic_pattern, config.traffic_params, mesh, seed)
    activities = case_activities(config.cases, traffic)
    # Each (flit size, case) once: the summary is the sweep's column at noc.flit_bits.
    flit_bits, sizes = config.noc.flit_bits, config.flit_sizes or ()
    sweep = flit_sweep(config.cases, activities, config.noc, (flit_bits, *sizes), eval_year)

    csv_files = []
    summary_rows = []
    report_cases = []
    shared_rows = {}  # cases with one activity and equal utilizations share one row list
    for label, topology in config.cases.items():
        activity = activities[label]
        clear = sweep[flit_bits][label]
        factors = clear.factors
        technology = topology.technology.value
        utilization = tuple(activity.utilization(topology, config.noc).values())
        key = (id(activity), utilization)
        if key not in shared_rows:  # link_activity gives loads in (from, to) order
            shared_rows[key] = [(f"{a}->{b}", load, share) for ((a, b), load), share
                                in zip(activity.loads.items(), utilization)]
        csv_files.append((link_activity_csv(label),
                          ("link_id", "load_bps", "utilization"), shared_rows[key]))
        summary_rows.append((label, technology, clear.value,
                             factors.capability / 1e9,
                             factors.latency,
                             factors.energy / 1e-12,
                             factors.amount / 1e-6,
                             factors.resistance))
        report_cases.append({
            "label": label,
            "technology": technology,
            "clear": clear.value,
            **dict(zip(_FACTOR_KEYS[Level.NETWORK], factors)),
        })
    csv_files.append(("network_summary.csv", _NETWORK_SUMMARY_COLUMNS, summary_rows))

    sweep_report = None
    if config.flit_sizes:
        baseline = next(iter(config.cases))
        table = {label: [sweep[flit][label].value for flit in sizes] for label in config.cases}
        rows = [(flit, label, table[label][i]) for i, flit in enumerate(sizes) for label in table]
        csv_files.append(("flit_sweep.csv", ("flit_bits", "case", "clear"), rows))
        sweep_report = {
            "baseline": baseline,
            "rows": [{"flit_bits": flit, "case": label, "clear": clear}
                     for flit, label, clear in rows],
            "crossover_flit_bits": {
                label: find_crossover(sizes, series, table[baseline])
                for label, series in table.items() if label != baseline},
        }
    return Report(
        ("network_report.json", {
            "kind": "network_report",
            "seed": seed,
            "eval_year": eval_year,
            "mesh": {"rows": mesh.rows, "cols": mesh.cols, "spacing_m": mesh.spacing_m},
            "cases": report_cases,
            "flit_sweep": sweep_report,
        }),
        csv_files,
        (None, _NETWORK_SUMMARY_COLUMNS, summary_rows))


def report_trend(config) -> Report:
    """System CLEAR of each record of a loaded trend config, and its growth fit."""
    from .trend import classify_vs_trend, efficiency_point, fit_growth, system_clear

    records = sorted(config.records, key=lambda r: (r.year, r.name))
    observations = []
    for record in records:
        try:
            observations.append((record.year, system_clear(record).value))
        except DomainError as exc:
            raise DomainError(f"{config.records_csv}: record '{record.name}' "
                              f"(year {record.year:g}): {exc}") from exc
    try:  # years or a growth rate outside the fit's floating-point range
        fit = fit_growth(observations)
    except DomainError as exc:
        raise DomainError(f"{config.records_csv}: {exc}") from exc
    point_rows = []
    report_points = []
    for record, (year, clear) in zip(records, observations):
        point = efficiency_point(record)
        position = classify_vs_trend(year, clear, fit, config.band_db).value
        point_rows.append((record.name, year, clear, position))
        report_points.append({
            "name": record.name,
            "year": year,
            "class": record.system_class.value,
            "clear": clear,
            "computational_efficiency": point.computational_efficiency,
            "energy_efficiency_bits_per_j": point.energy_efficiency,
            "landauer_fraction": point.landauer_fraction,
            "position": position,
        })
    title = (f"growth: x{fit.annual_factor:.3g}/year "
             f"(doubling every {fit.doubling_months:.3g} months, "
             f"r^2 = {fit.r_squared if fit.r_squared is not None else 'undefined'})")
    return Report(
        ("trend_report.json", {
            "kind": "trend_report",
            "band_db": config.band_db,
            "fit": {
                "annual_factor": fit.annual_factor,
                # A flat series fits an infinite doubling time; JSON has no inf.
                "doubling_months": (fit.doubling_months if math.isfinite(fit.doubling_months)
                                    else None),
                "r_squared": fit.r_squared,
                "intercept": fit.intercept,
            },
            "points": report_points,
        }),
        [("trend_points.csv", ("name", "year", "clear", "position"), point_rows)],
        (title, ("system", "year", "clear", "position"), point_rows))


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as validation errors instead of exiting with 2."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _formats(text: str) -> tuple[str, ...]:
    formats = tuple(part.strip() for part in text.split(",") if part.strip())
    if not formats:
        raise argparse.ArgumentTypeError("at least one output format is required")
    for name in formats:
        if name not in ALL_FORMATS:
            raise argparse.ArgumentTypeError(f"unknown output format '{name}'")
    return formats


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clearfom",
        description="Multi-hierarchy CLEAR figure-of-merit toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("limits", "device", "link", "network", "trend"):
        cmd = sub.add_parser(name)
        if name != "limits":
            cmd.add_argument("--config", required=True, help="JSON config document")
        cmd.add_argument("--out", default=os.environ.get(OUT_DIR_ENV, "."),
                         help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        cmd.add_argument("--format", type=_formats, default=ALL_FORMATS,
                         help="comma list from: " + ", ".join(ALL_FORMATS))
        if name == "network":
            cmd.add_argument("--seed", type=int,
                             help="seed of a hotspot pick without hotspot_nodes, its only reader")
        if name in ("link", "network"):
            cmd.add_argument("--eval-year", type=float,
                             help="evaluation year for economic cost scaling")
        if name == "limits":
            cmd.add_argument("--temperature", type=float, default=300.0,
                             help="temperature in K for physical limits")
            cmd.add_argument("--link-length", type=float, default=1e-4,
                             help="length in m for the time-of-flight ceiling")
            cmd.add_argument("--group-index", type=float, default=3.0,
                             help="group index for the time-of-flight ceiling")
    return parser


def _check_args(args: argparse.Namespace):
    if (getattr(args, "seed", None) or 0) < 0:  # --seed is on 'network' only
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    for flag in ("--eval-year", "--temperature", "--link-length", "--group-index"):
        value = getattr(args, flag[2:].replace("-", "_"), None)  # not on this command, or unset
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{flag} must be a finite number, got {value}")


def _fail(code: int, kind: str, message: str) -> int:
    line = " ".join(str(message).split())
    print(f'clearfom: error code={code} kind={kind} msg="{line}"', file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_args(args)
        if args.command == "limits":
            report = report_limits(args.temperature, args.link_length, args.group_index)
        else:  # the loader is looked up when called, so a wrapper set on the module is used
            from . import validation
            config = getattr(validation, f"load_{args.command}_config")(args.config)
            flags = {name: getattr(args, name) for name in ("eval_year", "seed") if name in args}
            report = globals()[f"report_{args.command}"](config, **flags)
        if "table" in args.format:
            _print_table(*report.table)
        for relpath in _write(report, Path(args.out), args.format):
            print(f"wrote {Path(args.out) / relpath}")
        return EXIT_OK
    except InfeasibleLinkError as exc:
        detail = str(exc)
        if exc.failing_span is not None:
            span = exc.failing_span
            detail += (f" (span {span.index}: {span.length_m:g} m, "
                       f"loss {span.loss_db:g} dB, budget {span.budget_db:g} dB)")
        return _fail(EXIT_INFEASIBLE, "infeasible", detail)
    except IoError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    except ClearError as exc:
        return _fail(EXIT_VALIDATION, "validation", str(exc))
    except ArithmeticError as exc:
        return _fail(EXIT_VALIDATION, "validation",
                     f"inputs are outside the model's numeric range: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
