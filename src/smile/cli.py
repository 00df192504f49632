"""Command-line entry point.

Subcommands: gen-data, train, compare, sweep, gradcheck.  Finetuning is a
base-mode train run whose --source is a labeled target corpus and whose
--checkpoint is its start; a compare with one name=checkpoint pair scores
one model.  Settings resolve as defaults < config file (key=value lines) <
flags, and each sweep cell (key=value;...) overrides them for its own run.
The resolved configuration is printed, and every required setting, --out
path and compare pair is checked, before any corpus or checkpoint is read.
Exit codes are 0 for success, 1 for contract or format violations, 2 for
numerical aborts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import checks
from .binio import write_atomic
from .data import build_glyph12, load_corpus, save_corpus
from .errors import ContractError, FormatError, NumericalAbort
from .metrics import compare_report, evaluate
from .trainer import (SWEEP_GRID, TrainConfig, cell_name, load_checkpoint,
                      save_checkpoint, sweep, sweep_configs,
                      train_with_corpora)

PROG = "smile"

# flag spelling -> (dest, parser), the one settings table: config lines and
# sweep cells use the same spellings without the dashes
_OPTIONS = {
    "--mode": ("mode", str),
    "--lambda": ("lam", float),
    "--entropy-variant": ("entropy_variant", str),
    "--p-init": ("p_init", float),
    "--p-add": ("p_add", float),
    "--steps": ("steps", int),
    "--batch-source": ("batch_source", int),
    "--batch-target": ("batch_target", int),
    "--seed": ("seed", int),
    "--optimizer": ("optimizer", str),
    "--lr": ("lr", float),
    "--source": ("source", str),
    "--target": ("target", str),
    "--test": ("test", str),
    "--checkpoint": ("checkpoint", str),
    "--out": ("out", str),
    "--eval-every": ("eval_every", int),
}

_COMMAND_FLAGS = {
    "gen-data": ("--seed", "--out"),
    "train": tuple(_OPTIONS),
    "compare": ("--test", "--out"),
    "sweep": tuple(flag for flag in _OPTIONS if flag != "--mode"),
    "gradcheck": ("--seed",),
}

_DEFAULTS = {
    "gen-data": {"seed": 7, "out": None},
    "train": dataclasses.asdict(TrainConfig()),
    "compare": {"test": None, "out": None},
    "gradcheck": {"seed": 0},
}
_DEFAULTS["sweep"] = {k: v for k, v in _DEFAULTS["train"].items()
                      if k != "mode"}

_UNSET = object()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ContractError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, flags in _COMMAND_FLAGS.items():
        sub = subs.add_parser(command)
        for flag in flags:
            dest, typ = _OPTIONS[flag]
            sub.add_argument(flag, dest=dest, type=typ, default=_UNSET)
        sub.add_argument("--config", dest="config", default=_UNSET)
        if command == "compare":
            sub.add_argument("pairs", nargs="+", metavar="name=checkpoint")
        if command == "sweep":
            sub.add_argument("cells", nargs="*", metavar="key=value;...")
    return parser


def _allowed(flags) -> dict[str, tuple]:
    """key spelling (a flag without its dashes) -> (dest, parser)."""
    return {flag[2:]: _OPTIONS[flag] for flag in flags}


def _parse_settings(items: list[tuple[str, str]], allowed: dict[str, tuple]
                    ) -> dict:
    """{dest: value} of (where, "key=value") items, each value read by its
    flag's parser; `where` locates an item in any error."""
    out = {}
    for where, text in items:
        key, eq, raw = text.partition("=")
        if not eq:
            raise ContractError(f"{where}: expected key=value, got {text!r}")
        key, raw = key.strip(), raw.strip()
        if key not in allowed:
            raise ContractError(f"{where}: unknown config key {key!r}")
        dest, typ = allowed[key]
        try:
            out[dest] = typ(raw)
        except ValueError:
            raise ContractError(
                f"{where}: bad value {raw!r} for {key}") from None
    return out


def _read_config_file(path: str, allowed: dict[str, tuple]) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, ValueError) as e:   # ValueError: not UTF-8, or a NUL
        raise ContractError(f"config: cannot read {path}: {e}") from None
    items = [(f"{path}:{lineno}", line.split("#", 1)[0].strip())
             for lineno, line in enumerate(lines, start=1)]
    return _parse_settings([item for item in items if item[1]], allowed)


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < flags; rejects unknown config keys."""
    resolved = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", _UNSET)
    if config_path is not _UNSET:
        resolved.update(_read_config_file(config_path,
                                          _allowed(_COMMAND_FLAGS[command])))
    for flag in _COMMAND_FLAGS[command]:
        dest = _OPTIONS[flag][0]
        value = getattr(args, dest)
        if value is not _UNSET:
            resolved[dest] = value
    return resolved


def _print_config(command: str, resolved: dict, extra: dict | None = None):
    shown = dict(resolved)
    if extra:
        shown.update(extra)
    for key in sorted(shown):
        print(f"[config] {command}.{key} = {shown[key]}")


def _require(resolved: dict, command: str, *keys: str):
    for key in keys:
        if resolved.get(key) is None:
            flag = "--" + key.replace("_", "-")
            raise ContractError(f"{command}: {flag} is required")


def _check_out(path: str, directory: bool):
    """Refuse an --out that cannot be written before any work runs, and
    create nothing.  A directory --out is made as needed, so its nearest
    existing ancestor must be a directory; a file --out must not be one,
    and its own directory must exist."""
    probe = os.path.abspath(path)
    if directory:
        while not os.path.lexists(probe):
            probe = os.path.dirname(probe)
    elif os.path.isdir(probe):
        raise ContractError(f"cannot write output: {path} is a directory")
    else:
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ContractError(
            f"cannot write output: {path}: {probe} is not a directory")


def _run_gen_data(args) -> int:
    resolved = _resolve("gen-data", args)
    _print_config("gen-data", resolved)
    _require(resolved, "gen-data", "out")
    _check_out(resolved["out"], directory=True)
    corpora = build_glyph12(resolved["seed"])
    os.makedirs(resolved["out"], exist_ok=True)
    for name, corpus in corpora.items():
        path = os.path.join(resolved["out"], f"{name}.smcp")
        save_corpus(corpus, path)
        tag = "labeled" if corpus.labeled else "unlabeled"
        print(f"wrote {path} ({len(corpus)} images, {tag})")
    return 0


def _load_inputs(cfg: TrainConfig) -> tuple:
    """(source, target, test, start) read from cfg's paths; None for each
    path that is unset."""
    corpora = [load_corpus(path) if path else None
               for path in (cfg.source, cfg.target, cfg.test)]
    start = load_checkpoint(cfg.checkpoint) if cfg.checkpoint else None
    return (*corpora, start)


def _run_train(args) -> int:
    resolved = _resolve("train", args)
    _print_config("train", resolved)
    cfg = TrainConfig(**resolved)
    smile_inputs = ("target", "checkpoint") if cfg.mode == "smile" else ()
    _require(resolved, "train", "source", *smile_inputs)
    if cfg.out:
        _check_out(cfg.out, directory=True)
    ck, log = train_with_corpora(cfg, *_load_inputs(cfg))
    if log.eval_rows:
        last = log.eval_rows[-1]
        print(f"final: step={last[0]} source_loss={last[2]} "
              f"word_acc={last[7]}")
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        ck_path = os.path.join(cfg.out, "checkpoint.smck")
        save_checkpoint(ck, ck_path)
        print(f"wrote {ck_path}")
        metrics_path = os.path.join(cfg.out, "metrics.csv")
        write_atomic(metrics_path, log.eval_csv())
        print(f"wrote {metrics_path}")
        if log.selection_rows:
            sel_path = os.path.join(cfg.out, "selection.csv")
            write_atomic(sel_path, log.selection_csv())
            print(f"wrote {sel_path}")
    return 0


def _parse_pair(pair: str) -> tuple[str, str]:
    """(name, checkpoint path) of a compare pair; the name is a CSV cell,
    so it may hold no comma or line break."""
    name, eq, path = pair.partition("=")
    if not eq or not name or not path:
        raise ContractError(f"compare: expected name=checkpoint, got {pair!r}")
    if any(c in name for c in ",\r\n"):
        raise ContractError(f"compare: name {name!r} holds a comma or a line "
                            "break, which the CSV cannot hold")
    return name, path


def _run_compare(args) -> int:
    resolved = _resolve("compare", args)
    _print_config("compare", resolved, {"pairs": " ".join(args.pairs)})
    _require(resolved, "compare", "test")
    pairs = [_parse_pair(pair) for pair in args.pairs]
    if resolved["out"]:
        _check_out(resolved["out"], directory=False)
    corpus = load_corpus(resolved["test"])
    named = [(name, evaluate(load_checkpoint(path).restore(), corpus))
             for name, path in pairs]
    text, csv = compare_report(named)
    print(text)
    if resolved["out"]:
        write_atomic(resolved["out"], csv)
        print(f"wrote {resolved['out']}")
    return 0


def _run_sweep(args) -> int:
    resolved = _resolve("sweep", args)
    train_keys = _allowed(_OPTIONS)
    cells = [_parse_settings([(f"sweep: cell {raw!r}", text.strip())
                              for text in raw.split(";")], train_keys)
             for raw in args.cells] or list(SWEEP_GRID)
    # a setting every cell overrides is used by no run, so it is not shown
    overridden = set.intersection(*(set(cell) for cell in cells))
    _print_config("sweep",
                  {k: v for k, v in resolved.items() if k not in overridden},
                  {"cells": " ".join(cell_name(cell) for cell in cells)})
    _require(resolved, "sweep", "source", "target", "test", "checkpoint")
    out_dir = resolved.pop("out")
    cfg = TrainConfig(mode="smile", **resolved)
    sweep_configs(cells, cfg)  # refuse a bad cell before anything loads
    if out_dir:
        _check_out(out_dir, directory=True)
    text, csv = compare_report(sweep(cells, cfg, *_load_inputs(cfg)))
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "sweep.csv")
        write_atomic(path, csv)
        print(f"wrote {path}")
    return 0


def _run_gradcheck(args) -> int:
    resolved = _resolve("gradcheck", args)
    _print_config("gradcheck", resolved)
    results = checks.run_all(seed=resolved["seed"])
    failures = 0
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name}: max rel err {r.max_rel_err:.3e} "
              f"(tolerance {r.tolerance:.0e}) {status}")
        failures += 0 if r.ok else 1
    if failures:
        raise NumericalAbort(f"gradcheck: {failures} check(s) failed")
    print(f"all {len(results)} checks passed")
    return 0


_RUNNERS = {
    "gen-data": _run_gen_data,
    "train": _run_train,
    "compare": _run_compare,
    "sweep": _run_sweep,
    "gradcheck": _run_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else ""
    try:
        args = _build_parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except OSError as e:   # readers raise FormatError, so this is an output
        error = ContractError(f"cannot write output: {e}")
    except (ContractError, FormatError, NumericalAbort) as e:
        error = e
    name = type(error).__name__
    print(f"{PROG} {command}: {name}: {error}".strip(), file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
