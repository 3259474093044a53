"""Command-line front end for experiments.

Commands cover the full workflow: fold preparation, single-fold
training, checkpoint evaluation, cross-validation, ablation variants,
and diagnostic sweeps.  Every run writes a manifest.json that captures
the resolved configuration, dataset checksum, seed, and output paths,
which is enough to rerun the command.

Heavy imports happen inside the dispatch path so that --threads can pin
BLAS thread pools before numpy is loaded.
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
    "w/o-f": {"filter.enabled": "false"},
    "w/-rand": {"noise.mode": "random"},
    "w/-un": {"noise.distribution": "uniform", "ddl": "mmd"},
}

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
                        help="output directory (default: $GDA_REC_OUT or runs)")
        sp.add_argument("--threads", type=int, metavar="N",
                        help="pin BLAS/OpenMP thread pools")
        sp.add_argument("--seed", type=int, metavar="S",
                        help="override the config seed")
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


def _pin_threads(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


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
        if args.seed is not None:
            self.cfg.seed = args.seed
        self.args = args
        self.out_dir = Path(args.out or os.environ.get("GDA_REC_OUT", "runs"))
        self.out_dir.mkdir(parents=True, exist_ok=True)
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


def serialize_config(cfg):
    """Config file text; parsing it back yields an identical config."""
    lines = [f"{key} = {value}" for key, value in cfg.to_strings().items()]
    return "\n".join(lines) + "\n"


def _progress_printer(epoch, report, eval_log):
    if eval_log and eval_log[-1][0] == epoch:
        m = eval_log[-1][1]
        print(f"  epoch {epoch}: total {report.total:.6f} "
              f"recall@20 {m.recall:.6f} ndcg@20 {m.ndcg:.6f}")


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


def _metrics_csv(per_fold_metrics, ks=(5, 10, 20)):
    """Fold rows plus one arithmetic-mean row per cutoff."""
    from .metrics import RankingMetrics

    lines = [RankingMetrics.CSV_HEADER]
    for k in ks:
        for fold_index, metrics in per_fold_metrics:
            lines.append(metrics[k].csv_row(fold_index))
        if len(per_fold_metrics) > 1:
            cols = list(zip(*[
                (m[k].precision, m[k].recall, m[k].ndcg,
                 m[k].users_evaluated, m[k].users_skipped)
                for _, m in per_fold_metrics]))
            means = [sum(c) / len(c) for c in cols]
            lines.append(f"mean,{k},{means[0]!r},{means[1]!r},{means[2]!r},"
                         f"{means[3]!r},{means[4]!r}")
    return "\n".join(lines) + "\n"


def cmd_train(run):
    from .losses import LossReport
    from .model import save_checkpoint
    from .trainer import HISTORY_CSV_HEADER, fit

    data = run.load_data()
    fold = run.pick_fold(run.folds(data))
    print(f"training fold {fold.fold_index} "
          f"({len(fold.train)} train / {len(fold.test)} test pairs)")
    checkpoint = run.path_for("checkpoint.npz")
    # each epoch's row is written when the epoch ends, so a run that
    # diverges (exit 4) keeps the epochs it finished
    with open(run.path_for("history.csv"), "w", encoding="utf-8") as fh:
        fh.write(HISTORY_CSV_HEADER + "\n")

        def write_row(row):
            fh.write(row + "\n")
            fh.flush()

        result = fit(run.cfg, fold, progress=_progress_printer,
                     history_sink=write_row)

    save_checkpoint(result.params, checkpoint,
                    seed=run.cfg.seed + fold.fold_index)
    run.write_text("metrics.csv",
                   _metrics_csv([(fold.fold_index, result.best_metrics)]))
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
    csv_text = _metrics_csv([(fold.fold_index, metrics)])
    run.write_text("metrics.csv", csv_text)
    header, *rows = [line.split(",") for line in csv_text.strip().split("\n")]
    print(_format_table(header, rows), end="")
    run.write_manifest({"fold": fold.fold_index, "checkpoint": path,
                        "checkpoint_seed": seed})
    return 0


def _run_all_folds(cfg, folds, label=""):
    from .trainer import fit

    per_fold = []
    for fold in folds:
        result = fit(cfg, fold)
        per_fold.append((fold.fold_index, result.best_metrics))
        m = result.best_metrics[20]
        print(f"  {label}fold {fold.fold_index}: "
              f"recall@20 {m.recall:.6f} ndcg@20 {m.ndcg:.6f} "
              f"({result.epochs_run} epochs)")
    return per_fold


def cmd_crossval(run):
    data = run.load_data()
    folds = run.folds(data)
    print(f"cross-validation over {len(folds)} folds")
    per_fold = _run_all_folds(run.cfg, folds)
    csv_text = _metrics_csv(per_fold)
    run.write_text("crossval.csv", csv_text)
    header, *rows = [line.split(",") for line in csv_text.strip().split("\n")]
    table = _format_table(header, rows)
    run.write_text("crossval.txt", table)
    print(table, end="")
    run.write_manifest()
    return 0


def cmd_ablate(run):
    from .trainer import ConfigError

    for name in run.args.variants:
        if name not in ABLATION_VARIANTS:
            raise ConfigError(
                f"unknown ablation variant: {name} "
                f"(choose from {', '.join(ABLATION_VARIANTS)})")
    data = run.load_data()
    folds = run.folds(data)
    ks = (5, 10, 20)
    columns = {}
    for name in run.args.variants:
        cfg = run.cfg.copy()
        cfg.apply_strings(ABLATION_VARIANTS[name])
        print(f"variant {name}")
        per_fold = _run_all_folds(cfg, folds, label=f"{name} ")
        means = {}
        for k in ks:
            vals = [(m[k].precision, m[k].recall, m[k].ndcg)
                    for _, m in per_fold]
            means[k] = [sum(c) / len(c) for c in zip(*vals)]
        columns[name] = means

    header = ["metric"] + list(run.args.variants)
    rows = []
    for k in ks:
        for i, metric in enumerate(("precision", "recall", "ndcg")):
            rows.append([f"{metric}@{k}"] +
                        [repr(columns[name][k][i])
                         for name in run.args.variants])
    csv_text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    run.write_text("ablation.csv", csv_text)
    table = _format_table(header, rows)
    run.write_text("ablation.txt", table)
    print(table, end="")
    run.write_manifest({"variants": list(run.args.variants)})
    return 0


def cmd_diagnose(run):
    from .trainer import ConfigError

    mode = run.args.mode
    if mode != "gamma" and run.args.values:
        raise ConfigError(f"diagnose {mode} takes no sweep values")
    if mode == "layers":
        return _diagnose_layers(run)
    if mode == "trajectory":
        return _diagnose_trajectory(run)
    return _diagnose_gamma(run)


def _diagnose_layers(run):
    """NDCG@20 for every (view_a, view_b) pairing of contrastive views."""
    from .trainer import fit

    data = run.load_data()
    fold = run.pick_fold(run.folds(data))
    selectors = [str(i) for i in range(1, run.cfg.L + 1)] + ["avg"]
    grid = {}
    for va, vb in product(selectors, selectors):
        cfg = run.cfg.copy()
        cfg.cl_view_a, cfg.cl_view_b = va, vb
        cfg.validate()
        result = fit(cfg, fold)
        grid[(va, vb)] = result.best_metrics[20].ndcg
        print(f"  views ({va}, {vb}): ndcg@20 {grid[(va, vb)]:.6f}")

    lines = ["view_a,view_b,ndcg20"]
    lines += [f"{va},{vb},{grid[(va, vb)]!r}"
              for va, vb in product(selectors, selectors)]
    run.write_text("layer_grid.csv", "\n".join(lines) + "\n")
    header = ["view_a\\view_b"] + selectors
    rows = [[va] + [f"{grid[(va, vb)]:.6f}" for vb in selectors]
            for va in selectors]
    table = _format_table(header, rows)
    run.write_text("layer_grid.txt", table)
    print(table, end="")
    run.write_manifest({"mode": "layers", "fold": fold.fold_index})
    return 0


def _diagnose_trajectory(run):
    """Alignment/uniformity of the embedding space per training epoch."""
    from .metrics import DIAG_CSV_HEADER
    from .trainer import fit

    data = run.load_data()
    fold = run.pick_fold(run.folds(data))
    result = fit(run.cfg, fold, progress=_progress_printer,
                 track_geometry=True)
    run.write_text("trajectory.csv",
                   "\n".join([DIAG_CSV_HEADER] + result.geometry_rows) + "\n")
    print(f"{len(result.geometry_rows)} epochs tracked")
    run.write_manifest({"mode": "trajectory", "fold": fold.fold_index})
    return 0


def _diagnose_gamma(run):
    """Top-20 metrics as the complement filter threshold varies."""
    from .trainer import fit

    values = [float(v) for v in run.args.values] or list(DEFAULT_GAMMA_SWEEP)
    data = run.load_data()
    fold = run.pick_fold(run.folds(data))
    rows = []
    for gamma in values:
        cfg = run.cfg.copy()
        cfg.gamma = gamma
        cfg.validate()
        result = fit(cfg, fold)
        m = result.best_metrics[20]
        rows.append([repr(gamma), repr(m.precision), repr(m.recall),
                     repr(m.ndcg)])
        print(f"  gamma {gamma}: recall@20 {m.recall:.6f} "
              f"ndcg@20 {m.ndcg:.6f}")

    header = ["gamma", "precision20", "recall20", "ndcg20"]
    csv_text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    run.write_text("gamma_sweep.csv", csv_text)
    table = _format_table(header, rows)
    run.write_text("gamma_sweep.txt", table)
    print(table, end="")
    run.write_manifest({"mode": "gamma", "fold": fold.fold_index,
                        "values": values})
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
    if args.threads is not None:
        if args.threads < 1:
            print("--threads must be >= 1", file=sys.stderr)
            return 2
        _pin_threads(args.threads)

    # deferred so that thread pinning above precedes the numpy import
    from .dataset import DataError
    from .diffcore import DiffError
    from .trainer import ConfigError

    try:
        run = _Run(args)
        return COMMANDS[args.command](run)
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
