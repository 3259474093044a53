"""Command-line front end for experiments.

Commands cover the full workflow: fold preparation, single-fold
training, checkpoint evaluation, cross-validation, ablation variants,
and diagnostic sweeps.  Every run writes a manifest.json that captures
the resolved configuration, dataset checksum, seed, and output paths,
which is enough to rerun the command.

A run uses one BLAS thread, the configuration every check and the
benchmark measure, unless the caller's environment sets one of
``THREAD_VARIABLES``; heavy imports happen inside the dispatch path so
that the pin precedes the numpy import.
"""

import argparse
import hashlib
import json
import os
import sys
from itertools import product
from pathlib import Path

from . import __version__

ABLATION_VARIANTS = {
    "full": {},
    "w/o-cm": {"complement.enabled": "false"},
    "w/o-g": {"noise.mode": "none"},
    "w/o-f": {"gamma": "0"},
    "w/-rand": {"noise.mode": "random"},
    "w/-un": {"noise.distribution": "uniform"},
}

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

DIAGNOSE_MODES = ("layers", "trajectory", "gamma")
DEFAULT_GAMMA_SWEEP = (1.0, 2.0, 3.0, 4.0, 5.0)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gclrec",
        description="graph contrastive recommender experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fold=False):
        sp.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
        sp.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (default: runs)")
        if fold:
            sp.add_argument("--fold", type=int, default=0, metavar="F")

    common(sub.add_parser("prepare", help="load data and report fold sizes"))
    common(sub.add_parser("train", help="train one fold"), fold=True)
    sp = sub.add_parser("evaluate", help="rank with a saved checkpoint")
    sp.add_argument("checkpoint", help="checkpoint .npz path")
    common(sp, fold=True)
    common(sub.add_parser("crossval", help="train and evaluate every fold"))
    sp = sub.add_parser("ablate", help="compare model variants")
    sp.add_argument("variants", nargs="+",
                    help="subset of: " + ", ".join(ABLATION_VARIANTS))
    common(sp)
    sp = sub.add_parser("diagnose", help="layer grid, trajectory, or gamma sweep")
    sp.add_argument("mode", choices=DIAGNOSE_MODES)
    sp.add_argument("values", nargs="*", type=float,
                    help="gamma values to sweep (gamma mode only)")
    common(sp, fold=True)
    return parser


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _format_table(header, rows):
    """Aligned plain-text rendering of a small table."""
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


class _Run:
    """One command invocation: resolved config, output dir, manifest."""

    def __init__(self, args):
        from .trainer import ConfigError, TrainConfig

        table = {}
        if args.config:
            table.update(_parse_config_file(args.config))
        for pair in args.overrides:
            if "=" not in pair:
                raise ConfigError(f"--set expects key=value, got {pair!r}")
            key, _, value = pair.partition("=")
            table[key.strip()] = value.strip()
        self.cfg = TrainConfig.from_strings(table)
        self.args = args
        self.out_dir = Path(args.out or "runs")
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigError(f"--out {self.out_dir}: not a directory "
                              f"({exc.strerror})") from exc
        self.outputs = []

    def write_text(self, name, text):
        path = self.out_dir / name
        path.write_text(text)
        self.outputs.append(str(path))
        return path

    def path_for(self, name):
        path = self.out_dir / name
        self.outputs.append(str(path))
        return path

    def load_data(self):
        from .dataset import DataError, load_interactions

        if not self.cfg.data_path:
            from .trainer import ConfigError
            raise ConfigError("data.path is required for this command")
        if not os.path.exists(self.cfg.data_path):
            raise DataError(f"dataset not found: {self.cfg.data_path}")
        return load_interactions(self.cfg.data_path)

    def folds(self, data):
        from .dataset import DataError, make_folds

        try:
            return make_folds(data, self.cfg.folds, self.cfg.seed)
        except ValueError as exc:
            raise DataError(f"{self.cfg.data_path}: {exc}") from exc

    def pick_fold(self, folds):
        from .trainer import ConfigError
        index = getattr(self.args, "fold", 0)
        if not 0 <= index < len(folds):
            raise ConfigError(f"--fold {index} outside 0..{len(folds) - 1}")
        return folds[index]

    def write_manifest(self, extra=None):
        manifest = {
            "command": self.args.command,
            "config": self.cfg.to_strings(),
            "overrides": list(self.args.overrides),
            "dataset": {
                "path": self.cfg.data_path,
                "sha256": (_sha256(self.cfg.data_path)
                           if self.cfg.data_path
                           and os.path.exists(self.cfg.data_path) else None),
            },
            "seed": self.cfg.seed,
            "version": __version__,
            "outputs": list(self.outputs),
        }
        if extra:
            manifest.update(extra)
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        print(f"manifest: {path}")


def _parse_config_file(path):
    from .dataset import DataError, text_lines
    from .trainer import ConfigError

    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    table = {}
    for lineno, line in text_lines(path):
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        table[key.strip()] = value.strip()
    return table


def _print_progress(epoch, report, metrics):
    if metrics is not None:
        print(f"  epoch {epoch}: total {report.total:.6f} "
              f"recall@20 {metrics.recall:.6f} ndcg@20 {metrics.ndcg:.6f}")


def _csv(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


def _write_table(run, stem, rows, table=None, manifest=None):
    """Write ``rows`` (header first) to <stem>.csv and ``table`` (by
    default the same rows), aligned, to <stem>.txt; print the table and
    write the manifest."""
    run.write_text(f"{stem}.csv", _csv(rows))
    table = table or rows
    text = _format_table(table[0], table[1:])
    run.write_text(f"{stem}.txt", text)
    print(text, end="")
    run.write_manifest(manifest)


def _fold_mean(per_fold, k):
    """RankingMetrics at cutoff ``k`` whose every field is the arithmetic
    mean over ``per_fold`` (best-metrics tables), summed in fold order;
    the user counts are therefore floats."""
    from .metrics import RankingMetrics

    fields = ("precision", "recall", "ndcg", "users_evaluated",
              "users_skipped")
    return RankingMetrics(k, *(sum(getattr(m[k], f) for m in per_fold)
                               / len(per_fold) for f in fields))


def _metrics_rows(per_fold, ks=(5, 10, 20)):
    """Header, fold rows, and one fold-mean row per cutoff when there is
    more than one fold; ``per_fold`` holds (fold index, metrics) pairs."""
    from .metrics import RankingMetrics

    lines = [RankingMetrics.CSV_HEADER]
    for k in ks:
        lines += [metrics[k].csv_row(index) for index, metrics in per_fold]
        if len(per_fold) > 1:
            lines.append(_fold_mean([m for _, m in per_fold], k)
                         .csv_row("mean"))
    return [line.split(",") for line in lines]


def _fit_logged(run, fold, name, header, row_of):
    """``fit`` with one CSV row per epoch, ``row_of(epoch, row, params,
    ctx)``, written to ``name`` and flushed as the epoch ends, so a run
    that fails (exit 4) keeps the epochs it finished."""
    from .trainer import fit

    with open(run.path_for(name), "w", encoding="utf-8") as fh:
        fh.write(header + "\n")

        def on_epoch(epoch, report, metrics, row, params, ctx):
            fh.write(row_of(epoch, row, params, ctx) + "\n")
            fh.flush()
            _print_progress(epoch, report, metrics)

        return fit(run.cfg, fold, on_epoch=on_epoch)


def _run_trials(run, trials, manifest=None):
    """Train every trial in order and return each one's best metrics.

    A trial is ``(label, overrides, fold)``: its config is the run's
    config with the dotted-key ``overrides`` applied.  Every config is
    built, and a repeated trial rejected, before the first fit, so a bad
    value costs no training.  The manifest, with the command's
    ``manifest`` fields, is written before the first fit, and each
    finished trial is appended to trials.csv (one row per cutoff) and
    flushed, so a sweep that fails keeps the trials it finished and the
    settings they ran with.
    """
    from .metrics import RankingMetrics
    from .trainer import ConfigError, fit

    configs = [run.cfg.copy().apply_strings(overrides)
               for _, overrides, _ in trials]
    seen = set()
    for label, _, fold in trials:
        if (label, fold.fold_index) in seen:
            raise ConfigError(f"repeated trial: {label}")
        seen.add((label, fold.fold_index))

    results = []
    with open(run.path_for("trials.csv"), "w", encoding="utf-8") as fh:
        fh.write("trial," + RankingMetrics.CSV_HEADER + "\n")
        run.write_manifest(manifest)
        for (label, _, fold), cfg in zip(trials, configs):
            result = fit(cfg, fold)
            best = result.best_metrics
            fh.writelines(f"{label},{best[k].csv_row(fold.fold_index)}\n"
                          for k in sorted(best))
            fh.flush()
            name = f"{label} fold {fold.fold_index}".strip()
            print(f"  {name}: recall@20 {best[20].recall:.6f} "
                  f"ndcg@20 {best[20].ndcg:.6f} "
                  f"({result.epochs_run} epochs)")
            results.append(best)
    return results


# ------------------------------------------------------------- commands


def cmd_prepare(run):
    from .dataset import fold_manifest

    data = run.load_data()
    folds = run.folds(data)
    summary = fold_manifest(folds, run.cfg.seed)
    summary["num_users"] = data.num_users
    summary["num_items"] = data.num_items
    summary["num_pairs"] = len(data)
    run.write_text("folds.json", json.dumps(summary, indent=2) + "\n")
    print(f"{data.num_users} users, {data.num_items} items, "
          f"{len(data)} interactions across {len(folds)} folds")
    run.write_manifest()
    return 0


def cmd_train(run):
    from .model import save_checkpoint
    from .trainer import HISTORY_CSV_HEADER

    data = run.load_data()
    fold = run.pick_fold(run.folds(data))
    print(f"training fold {fold.fold_index} "
          f"({len(fold.train)} train / {len(fold.test)} test pairs)")
    checkpoint = run.path_for("checkpoint.npz")
    result = _fit_logged(run, fold, "history.csv", HISTORY_CSV_HEADER,
                         lambda epoch, row, params, ctx: row)

    save_checkpoint(result.params, checkpoint,
                    seed=run.cfg.seed + fold.fold_index)
    run.write_text("metrics.csv", _csv(
        _metrics_rows([(fold.fold_index, result.best_metrics)])))
    best = result.best_metrics[20]
    print(f"best epoch {result.best_epoch}: recall@20 {best.recall:.6f} "
          f"ndcg@20 {best.ndcg:.6f}")
    run.write_manifest({"fold": fold.fold_index,
                        "epochs_run": result.epochs_run,
                        "best_epoch": result.best_epoch})
    return 0


def cmd_evaluate(run):
    from .dataset import DataError
    from .model import load_checkpoint
    from .trainer import ConfigError, build_context, evaluate_model

    path = run.args.checkpoint
    if not os.path.exists(path):
        raise DataError(f"checkpoint not found: {path}")
    params, seed = load_checkpoint(path)
    if (params.dim, params.hidden) != (run.cfg.d, run.cfg.h):
        raise ConfigError(
            f"config d={run.cfg.d}, h={run.cfg.h} does not match the "
            f"checkpoint's d={params.dim}, h={params.hidden}")
    data = run.load_data()
    if (params.num_users, params.num_items) != (data.num_users,
                                                data.num_items):
        raise DataError(
            f"checkpoint shape ({params.num_users} x {params.num_items}) "
            f"does not match dataset ({data.num_users} x {data.num_items})")
    fold = run.pick_fold(run.folds(data))
    ctx = build_context(fold.train, run.cfg)
    metrics = evaluate_model(params, ctx, fold.test, run.cfg)
    rows = _metrics_rows([(fold.fold_index, metrics)])
    run.write_text("metrics.csv", _csv(rows))
    print(_format_table(rows[0], rows[1:]), end="")
    run.write_manifest({"fold": fold.fold_index, "checkpoint": path,
                        "checkpoint_seed": seed})
    return 0


def cmd_crossval(run):
    folds = run.folds(run.load_data())
    print(f"cross-validation over {len(folds)} folds")
    results = _run_trials(run, [("", {}, fold) for fold in folds])
    per_fold = [(fold.fold_index, m) for fold, m in zip(folds, results)]
    _write_table(run, "crossval", _metrics_rows(per_fold))
    return 0


def cmd_ablate(run):
    from .trainer import ConfigError

    variants = run.args.variants
    for name in variants:
        if name not in ABLATION_VARIANTS:
            raise ConfigError(
                f"unknown ablation variant: {name} "
                f"(choose from {', '.join(ABLATION_VARIANTS)})")
    folds = run.folds(run.load_data())
    manifest = {"variants": list(variants)}
    results = _run_trials(run, [(name, ABLATION_VARIANTS[name], fold)
                                for name in variants for fold in folds],
                          manifest)
    per_variant = [results[i:i + len(folds)]
                   for i in range(0, len(results), len(folds))]
    rows = [["metric", *variants]]
    for k in (5, 10, 20):
        for metric in ("precision", "recall", "ndcg"):
            rows.append([f"{metric}@{k}"] +
                        [repr(getattr(_fold_mean(per_fold, k), metric))
                         for per_fold in per_variant])
    _write_table(run, "ablation", rows, manifest=manifest)
    return 0


def cmd_diagnose(run):
    from .trainer import ConfigError

    mode = run.args.mode
    if mode != "gamma" and run.args.values:
        raise ConfigError(f"diagnose {mode} takes no sweep values")
    fold = run.pick_fold(run.folds(run.load_data()))
    return {"layers": _diagnose_layers, "trajectory": _diagnose_trajectory,
            "gamma": _diagnose_gamma}[mode](run, fold)


def _diagnose_layers(run, fold):
    """NDCG@20 for every (view_a, view_b) pairing of contrastive views."""
    selectors = [str(i) for i in range(1, run.cfg.L + 1)] + ["avg"]
    pairs = list(product(selectors, selectors))
    manifest = {"mode": "layers", "fold": fold.fold_index}
    results = _run_trials(run, [
        (f"{va}/{vb}", {"cl.view_a": va, "cl.view_b": vb}, fold)
        for va, vb in pairs], manifest)
    ndcg = {pair: m[20].ndcg for pair, m in zip(pairs, results)}
    rows = [["view_a", "view_b", "ndcg20"]]
    rows += [[va, vb, repr(ndcg[va, vb])] for va, vb in pairs]
    table = [["view_a\\view_b", *selectors]]
    table += [[va] + [f"{ndcg[va, vb]:.6f}" for vb in selectors]
              for va in selectors]
    _write_table(run, "layer_grid", rows, table=table, manifest=manifest)
    return 0


def _diagnose_trajectory(run, fold):
    """Alignment/uniformity of the embedding space per training epoch."""
    from .metrics import DIAG_CSV_HEADER, alignment_uniformity
    from .trainer import eval_embeddings

    def trajectory_row(epoch, row, params, ctx):
        z_u, z_i = eval_embeddings(params, ctx, run.cfg)
        align, uniform = alignment_uniformity(z_u, z_i, ctx.train.pairs)
        return f"{epoch},{align!r},{uniform!r}"

    result = _fit_logged(run, fold, "trajectory.csv", DIAG_CSV_HEADER,
                         trajectory_row)
    print(f"{result.epochs_run} epochs tracked")
    run.write_manifest({"mode": "trajectory", "fold": fold.fold_index})
    return 0


def _diagnose_gamma(run, fold):
    """Top-20 metrics as the complement filter threshold varies."""
    values = run.args.values or list(DEFAULT_GAMMA_SWEEP)
    manifest = {"mode": "gamma", "fold": fold.fold_index, "values": values}
    results = _run_trials(run, [(f"gamma={g!r}", {"gamma": repr(g)}, fold)
                                for g in values], manifest)
    rows = [["gamma", "precision20", "recall20", "ndcg20"]]
    rows += [[repr(g), repr(m[20].precision), repr(m[20].recall),
              repr(m[20].ndcg)] for g, m in zip(values, results)]
    _write_table(run, "gamma_sweep", rows, manifest=manifest)
    return 0


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "crossval": cmd_crossval,
    "ablate": cmd_ablate,
    "diagnose": cmd_diagnose,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not any(var in os.environ for var in THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))

    # deferred so that the pin above precedes the numpy import
    from .dataset import DataError
    from .diffcore import DiffError
    from .trainer import ConfigError

    try:
        run = _Run(args)
        try:
            return COMMANDS[args.command](run)
        except MemoryError:
            cfg = run.cfg
            raise ConfigError(
                f"out of memory at d={cfg.d}, h={cfg.h}, "
                f"batch_size={cfg.batch_size}; lower one of them") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DiffError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
