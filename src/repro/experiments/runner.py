"""The ``repro-campaign`` command-line interface (also ``python -m repro``).

Runs the measurement campaign for one or more applications, regenerates the
paper's tables and figures and writes everything (datasets, CSV series, an
ASCII report) to an output directory::

    repro-campaign --scale benchmark --output results/
    repro-campaign --scale paper --apps minife minimd miniqmc --output results-full/

Registered scenarios (machine × noise × application × schedule recipes from
:mod:`repro.scenarios`) are first-class::

    python -m repro --list-scenarios
    python -m repro --scenario manzano-default --scale smoke --output results/
    python -m repro --machine cloudvm --schedule dynamic --apps minife

``--analyses`` switches to the streaming analysis engine: the campaign's
shards are folded through the named registered passes (see
``--list-analyses``) without ever materialising the merged dataset, and the
pass products land in ``analyses_<app>.json``::

    python -m repro --analyses percentiles laggards reclaimable normality
    python -m repro --list-analyses --porcelain

Applications are sampled one after another.  With ``--max-workers N``
(N > 1) the run opens one worker pool of N processes, and every pooled
step of every application submits to it.  In memory, each campaign is
analysed in this process, where its samples live, and released once its
analyses and its exemplar histograms (Figures 5/7/9) are done, so the run
holds one campaign at a time plus every application's products.  Out of
core on a pool, each published store's analyses and exemplar run as one
pool task while the next application samples; the products are collected
in application order, so the outputs are the serial run's.

``--out-of-core`` runs the whole pipeline against the spillable shard store
(:mod:`repro.io.shard_store`): shards flush to disk as they are produced,
the analyses keep re-readable handles on the stored samples instead of the
samples, and the figure generators stream memory-mapped views, with outputs
byte-identical to the in-memory run.  The samples stay on disk; the exact
analyses keep a few numbers per process-iteration group (about 1 B per
sample: the laggard and reclaimable statistics; the application-level
normality row is selected in bounded memory) and hold one open file per
store group until they finalize.  Each store group folds as one block, so
the fold's working set is about 5x one store group (``--spill-mb``): at
25 M samples the default ``--spill-mb 256`` peaks at 1266 MB, against
131 MB at ``--spill-mb 8``::

    python -m repro --scale paper --trials 60 --out-of-core --spill-mb 64

``cache`` manages the shared cache tier (``--stats`` / ``--prune``)::

    python -m repro cache --cache-dir results/cache --stats
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    REPORT_ANALYSES,
    AnalysisResults,
    analysis_title,
    available_analyses,
)
from repro.apps import APPLICATIONS
from repro.commands import positive_int, run_subcommand
from repro.experiments import executor
from repro.experiments.backends import available_backends
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignResult, CampaignSession
from repro.experiments.figures import (
    FigureData,
    figure3_histogram,
    figure5_minife_classes,
    figure7_minimd_classes,
    figure9_miniqmc_histogram,
    percentile_figure,
)
from repro.experiments.tables import (
    minimd_phase_table,
    section4_metrics_table,
    section41_normality_table,
    table1,
)
from repro.openmp.schedule import schedule_from_name
# every run's noise model draws from the noise-source registry; the machine
# registry and the scenario catalog load only on the flags that read them
from repro.scenarios.sources import available_noise_profiles, available_noise_sources
from repro.viz.ascii import ascii_histogram, ascii_percentile_plot, ascii_table
from repro.viz.export import export_histogram_csv, export_percentiles_csv, export_rows_csv

SCALES = {
    "smoke": CampaignConfig.smoke,
    "benchmark": CampaignConfig.benchmark_scale,
    "paper": CampaignConfig.paper_scale,
}


def _positive_float(value: str) -> float:
    number = float(value)
    if not (number > 0 and math.isfinite(number)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value}")
    return number


def _schedule_clause(value: str) -> str:
    """Check an OpenMP schedule clause at parse time; keep the text."""
    try:
        schedule_from_name(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"invalid schedule clause {value!r}: {error}"
        ) from None
    return value


def _application(value: str) -> str:
    try:
        APPLICATIONS.lookup(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Reproduce the thread-timing measurement campaign of "
        "'Measuring Thread Timing to Assess the Feasibility of Early-bird "
        "Message Delivery' (ICPP 2023).",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        type=_application,
        default=None,
        help="applications to run (default: all three proxies)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="benchmark",
        help="campaign size preset (default: benchmark)",
    )
    parser.add_argument(
        "--trials", type=positive_int, default=None, help="override trial count"
    )
    parser.add_argument(
        "--processes", type=positive_int, default=None, help="override process count"
    )
    parser.add_argument(
        "--iterations", type=positive_int, default=None, help="override iteration count"
    )
    parser.add_argument(
        "--threads", type=positive_int, default=None, help="override thread count"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the campaign seed")
    parser.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        # None (not "campaign") so a scenario's own backend pin is only
        # overridden when the flag is passed explicitly
        default=None,
        help="execution backend from the registry (default: the scenario's "
        "backend if one is pinned, else campaign)",
    )
    parser.add_argument(
        "--max-workers",
        type=positive_int,
        default=1,
        help="worker processes of the run's one pool (default: 1 = serial, "
        "no pool; results are bit-identical at any worker count); "
        "--out-of-core runs analyse each application on the pool while the "
        "next one samples, in-memory runs analyse in the parent",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache campaign datasets here, keyed by a config hash",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="cache-tier size budget in MiB; least-recently-used entries "
        "are evicted over budget (default: $REPRO_CACHE_MAX_BYTES)",
    )
    parser.add_argument(
        "--out-of-core",
        action="store_true",
        help="spill campaign shards to an on-disk store as they are "
        "produced and stream every analysis/figure from it (samples on "
        "disk; the analyses keep ~1 B per sample plus a fold working set of "
        "~5x one store group, see --spill-mb; outputs identical to the "
        "in-memory run)",
    )
    parser.add_argument(
        "--spill-mb",
        type=_positive_float,
        default=256.0,
        metavar="MB",
        help="with --out-of-core: in-memory shard buffer bound before a "
        "group spills to disk (default: 256); the analyses fold one group at "
        "a time, with a working set of ~5x the group (at 25 M samples: "
        "1266 MB peak at 256, 131 MB at 8)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run a registered scenario (machine x noise x app x schedule); "
        "see --list-scenarios",
    )
    parser.add_argument(
        "--machine",
        default=None,
        metavar="NAME",
        help="registered machine preset for non-scenario runs "
        "(default: the paper's manzano)",
    )
    parser.add_argument(
        "--schedule",
        type=_schedule_clause,
        default=None,
        metavar="CLAUSE",
        help="OpenMP schedule clause override ('static', 'dynamic,4', 'guided')",
    )
    parser.add_argument(
        "--analyses",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run the campaign through the streaming analysis engine: fold "
        "shards through these registered passes (see --list-analyses) "
        "without materialising the merged dataset, writing "
        "analyses_<app>.json; 'all' selects every registered pass",
    )
    parser.add_argument(
        "--list-analyses",
        action="store_true",
        help="print the registered analysis passes and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered scenario catalog and exit",
    )
    parser.add_argument(
        "--list-machines",
        action="store_true",
        help="print the registered machine presets and exit",
    )
    parser.add_argument(
        "--list-noise-sources",
        action="store_true",
        help="print the registered noise sources and profiles and exit",
    )
    parser.add_argument(
        "--porcelain",
        action="store_true",
        help="with --list-*: print bare names only, one per line (for scripts "
        "and the CI matrix)",
    )
    parser.add_argument(
        "--no-noise", action="store_true", help="disable the OS-noise model (ablation)"
    )
    parser.add_argument(
        "--output", type=Path, default=Path("results"), help="output directory"
    )
    parser.add_argument(
        "--save-datasets", action="store_true", help="also write the raw .npz datasets"
    )
    return parser


def _configure(args: argparse.Namespace, application: str) -> CampaignConfig:
    if args.scenario is not None:
        from repro.scenarios.scenario import get_scenario

        # the scenario fixes machine/noise/app/schedule; CLI flags still
        # override campaign dimensions, seed, backend and worker count
        config = get_scenario(args.scenario).campaign_config(
            args.scale,
            trials=args.trials,
            processes=args.processes,
            iterations=args.iterations,
            threads=args.threads,
            seed=args.seed,
            backend=args.backend,
            max_workers=args.max_workers,
        )
    else:
        config = SCALES[args.scale](application=application)
        config = config.scaled(
            trials=args.trials,
            processes=args.processes,
            iterations=args.iterations,
            threads=args.threads,
        )
        machine = config.machine
        if args.machine is not None:
            from repro.scenarios.machines import get_machine

            machine = get_machine(args.machine)
        # replace() (rather than attribute assignment) re-runs __post_init__,
        # so CLI overrides go through the same validation as constructed
        # configs
        config = replace(
            config,
            seed=args.seed if args.seed is not None else config.seed,
            backend=args.backend if args.backend is not None else config.backend,
            max_workers=args.max_workers,
            machine=machine,
            schedule=args.schedule if args.schedule is not None else config.schedule,
        )
    if args.no_noise:
        config.machine = config.machine.without_noise()
    return config


def _print_catalogs(args: argparse.Namespace) -> None:
    from repro.scenarios.machines import available_machines, get_machine
    from repro.scenarios.scenario import available_scenarios, get_scenario

    if args.list_analyses:
        for name in available_analyses():
            if args.porcelain:
                print(name)
            else:
                print(f"{name:14s} {analysis_title(name)}")
    if args.list_scenarios:
        for name in available_scenarios():
            if args.porcelain:
                print(name)
            else:
                row = get_scenario(name).describe()
                print(
                    f"{row['name']:24s} machine={row['machine']:10s} "
                    f"app={row['application']:8s} noise={row['noise']:18s} "
                    f"schedule={row['schedule']:14s} "
                    f"backend={row['backend']:18s} {row['description']}"
                )
    if args.list_machines:
        for name in available_machines():
            if args.porcelain:
                print(name)
            else:
                machine = get_machine(name)
                print(
                    f"{name:10s} {machine.n_nodes} node(s) x "
                    f"{machine.sockets_per_node} socket(s) x "
                    f"{machine.cores_per_socket} cores @ "
                    f"{machine.frequency_ghz:.2f} GHz, {machine.memory_gb:.0f} GB"
                )
    if args.list_noise_sources:
        for name in available_noise_sources():
            print(name)
        if not args.porcelain:
            print("profiles: " + ", ".join(available_noise_profiles()))


def _product_payload(product) -> object:
    """JSON-friendly view of one analysis-pass product."""
    from repro.analysis import product_payload

    return product_payload(product)


def _run_streaming_analyses(
    args: argparse.Namespace, applications: Sequence[str], output: Path, pool
) -> int:
    """``--analyses`` mode: stream shards through passes, no merged dataset."""
    analyses = (
        "all" if args.analyses == ["all"] else list(args.analyses)
    )
    report_lines: List[str] = []
    for application in applications:
        config = _configure(args, application)
        started = time.perf_counter()
        session = CampaignSession(config, cache_dir=args.cache_dir, pool=pool)
        results = session.analyze(application, analyses=analyses)
        elapsed = time.perf_counter() - started
        print(
            f"[repro-campaign] analysed {application} via streaming passes "
            f"[{', '.join(sorted(results))}] in {elapsed:.1f} s "
            f"({config.max_workers} worker(s))",
            flush=True,
        )
        payload = {name: _product_payload(results[name]) for name in sorted(results)}
        path = output / f"analyses_{application}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        if all(name in results for name in REPORT_ANALYSES):
            report = results.report(include_earlybird="earlybird" in results)
            report_lines.append("\n" + report.summary())
    if report_lines:
        report = "\n".join(report_lines)
        (output / "report.txt").write_text(report)
        print(report)
    print(f"\n[repro-campaign] wrote streaming analysis products to {output}/")
    return 0


#: the exemplar-histogram figure of each application (Figures 5/7/9)
_EXEMPLAR_FIGURES = {
    "minife": figure5_minife_classes,
    "minimd": figure7_minimd_classes,
    "miniqmc": figure9_miniqmc_histogram,
}


def _analyse(
    session: CampaignSession, application: str, result: CampaignResult
) -> Tuple[AnalysisResults, Optional[FigureData]]:
    """One application's analysis products (through the session's
    analysis-product cache) and its exemplar figure (Figures 5/7/9), binned
    from the campaign's samples.

    Also the pool task of an out-of-core run: the session and its
    store-backed result travel pickled, the worker reopens the published
    store by path (its checksums are not verified again) and the products
    and figure come back.
    """
    products = session.analyze(application, analyses="all")
    generator = _EXEMPLAR_FIGURES.get(application)
    exemplar = generator(products, shards=result) if generator else None
    return products, exemplar


def _run_application(
    args: argparse.Namespace, application: str, output: Path, pool
) -> Callable[[], Tuple[AnalysisResults, Optional[FigureData]]]:
    """Run one application's campaign and start its analysis.

    Returns a callable that waits for the analysis products and exemplar
    figure and prints the application's timing line.  On a ``pool``, an
    out-of-core campaign's analysis is a pool task that runs while the
    caller samples the next application; otherwise it runs here.  Either
    way this process releases the campaign on return, so no campaign
    outlives its analysis.
    """
    config = _configure(args, application)
    started = time.perf_counter()
    workers = f", {config.max_workers} workers" if config.max_workers > 1 else ""
    scenario = f" [scenario {config.scenario}]" if config.scenario else ""
    print(
        f"[repro-campaign] running {application}{scenario}: "
        f"{config.trials} trials x "
        f"{config.processes} processes x {config.iterations} iterations x "
        f"{config.threads} threads on {config.machine.name} "
        f"({config.backend} backend{workers})",
        flush=True,
    )
    cache_max_bytes = (
        int(args.cache_max_mb * 2**20) if args.cache_max_mb is not None else None
    )
    session = CampaignSession(
        config, cache_dir=args.cache_dir, cache_max_bytes=cache_max_bytes, pool=pool
    )
    if args.out_of_core:
        # shards spill to the store as they arrive; analyses and figures
        # read them back off the store
        result = session.run(
            store=True,
            spill_threshold_bytes=max(1, int(args.spill_mb * 2**20)),
        )
    else:
        result = session.run()
    origin = " (cached)" if result.from_cache else ""

    def finished(analysis):
        elapsed = time.perf_counter() - started
        print(
            f"[repro-campaign]   {config.samples_per_application} samples "
            f"in {elapsed:.1f} s{origin}",
            flush=True,
        )
        return analysis

    if pool is not None and args.out_of_core:
        future = pool.submit(_analyse, session, application, result)
        if session.cache_tier.max_bytes is not None:
            # under a cache budget the next application's store could
            # evict this one mid-read: finish reading it first
            future.result()
        return lambda: finished(future.result())
    analysis = finished(_analyse(session, application, result))
    if args.save_datasets:
        from repro.io.dataset_io import save_dataset

        save_dataset(result.dataset, output / f"dataset_{application}.npz")
    return lambda: analysis


def _write_figures(
    sources: Dict[str, AnalysisResults],
    output: Path,
    report_lines: List[str],
    exemplars: Dict[str, FigureData],
) -> None:
    """Regenerate the figures from the analysis results.

    The exemplar histograms of Figures 5/7/9 (``exemplars``) were binned
    from each campaign's samples before the campaign was released.
    """
    figure_dir = output / "figures"
    for name, source in sources.items():
        fig3 = figure3_histogram(source)
        export_histogram_csv(fig3["histogram"], figure_dir / f"figure3_{name}.csv")
        series_fig = percentile_figure(source, "percentiles")
        export_percentiles_csv(series_fig["series"], figure_dir / f"percentiles_{name}.csv")
        report_lines.append(f"\n--- {name}: application-level histogram (Figure 3) ---")
        report_lines.append(ascii_histogram(fig3["histogram"], max_rows=25))
        report_lines.append(f"\n--- {name}: percentile plot (Figures 4/6/8) ---")
        report_lines.append(ascii_percentile_plot(series_fig["series"]))
        report = source.report(include_earlybird="earlybird" in source)
        report_lines.append("\n" + report.summary())
    if "minife" in exemplars:
        fig5 = exemplars["minife"]
        for label in ("no_laggard", "laggard"):
            hist = fig5[f"{label}_histogram"]
            if hist is not None:
                export_histogram_csv(hist, figure_dir / f"figure5_{label}.csv")
    if "minimd" in exemplars:
        fig7 = exemplars["minimd"]
        for label in ("initial", "no_laggard", "laggard"):
            hist = fig7.payload.get(f"{label}_histogram")
            if hist is not None:
                export_histogram_csv(hist, figure_dir / f"figure7_{label}.csv")
    if "miniqmc" in exemplars:
        export_histogram_csv(
            exemplars["miniqmc"]["histogram"], figure_dir / "figure9_miniqmc.csv"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-campaign`` console script."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    code = run_subcommand(arguments)
    if code is not None:
        return code
    parser = build_parser()
    args = parser.parse_args(arguments)
    if (
        args.list_scenarios
        or args.list_machines
        or args.list_noise_sources
        or args.list_analyses
    ):
        _print_catalogs(args)
        return 0
    if args.scenario is not None:
        # a scenario fixes machine, schedule and application — overriding
        # them silently would mislabel the resulting dataset
        for flag in ("machine", "schedule", "apps"):
            if getattr(args, flag) is not None:
                parser.error(
                    f"--{flag} conflicts with --scenario (the scenario fixes "
                    "machine, schedule and application)"
                )
        from repro.scenarios.scenario import get_scenario

        applications = [get_scenario(args.scenario).application]
    else:
        applications = args.apps or ["minife", "minimd", "miniqmc"]
    output: Path = args.output
    output.mkdir(parents=True, exist_ok=True)
    if args.out_of_core:
        if args.save_datasets:
            parser.error(
                "--save-datasets conflicts with --out-of-core (materialising "
                "the merged dataset defeats the bounded-RAM contract)"
            )
        if args.cache_dir is None:
            # the spilled stores need a home; keep them with the results
            args.cache_dir = output / "cache"
    if args.analyses is not None and args.save_datasets:
        # the streaming engine never materialises the datasets the flag
        # would save — reject instead of silently dropping it
        parser.error(
            "--save-datasets conflicts with --analyses (the streaming "
            "engine never materialises the merged datasets)"
        )
    # one pool for the whole run: every pooled step of every application
    # submits to it, and it is shut down on every exit path
    pool = executor.make_pool("process", args.max_workers) if args.max_workers > 1 else None
    try:
        if args.analyses is not None:
            return _run_streaming_analyses(args, applications, output, pool)
        return _run_campaigns(args, applications, output, pool)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _run_campaigns(
    args: argparse.Namespace, applications: Sequence[str], output: Path, pool
) -> int:
    """The default route: campaigns, analyses, tables, figures, report."""
    # the default path streams: every table/figure below reads the
    # analysis products plus each campaign's binned exemplar histograms, and
    # a merged dataset is only materialised when --save-datasets asks for
    # one
    products: Dict[str, AnalysisResults] = {}
    exemplars: Dict[str, FigureData] = {}
    report_lines: List[str] = []
    # every application is sampled first and the analyses are collected in
    # application order, so a pool task's analysis overlaps the sampling of
    # the applications after it
    collectors = [
        _run_application(args, application, output, pool)
        for application in applications
    ]
    for application, collect in zip(applications, collectors):
        products[application], exemplar = collect()
        if exemplar is not None:
            exemplars[application] = exemplar

    # tables
    table_rows = table1(products)
    export_rows_csv(table_rows, output / "table1.csv")
    metric_rows = section4_metrics_table(products)
    export_rows_csv(metric_rows, output / "section4_metrics.csv")
    report_lines.append("=== Table 1: process-iteration normality pass rates ===")
    report_lines.append(ascii_table(table_rows))
    report_lines.append("\n=== Section 4.2 scalar metrics (paper vs measured) ===")
    report_lines.append(ascii_table(metric_rows))
    normality_rows = section41_normality_table(products)
    export_rows_csv(normality_rows, output / "section41_normality.csv")
    report_lines.append("\n=== Section 4.1 coarse-level normality ===")
    report_lines.append(ascii_table(normality_rows))
    if "minimd" in products:
        phase_rows = minimd_phase_table(products["minimd"])
        export_rows_csv(phase_rows, output / "minimd_phases.csv")
        report_lines.append("\n=== MiniMD two-phase IQR comparison ===")
        report_lines.append(ascii_table(phase_rows))

    # figures
    _write_figures(products, output, report_lines, exemplars)

    report = "\n".join(report_lines)
    (output / "report.txt").write_text(report)
    print(report)
    print(f"\n[repro-campaign] wrote tables, figures and report to {output}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
