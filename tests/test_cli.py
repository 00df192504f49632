"""Command-line behavior: flag parsing, config-file precedence, the five
subcommands end to end on tiny corpora, exit codes, and the README's flag
list."""

import dataclasses
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from smile import cli, trainer
from smile.data import (MAGIC, SOURCE, VERSION, Corpus, load_corpus,
                        save_corpus, vocab_block)
from smile.metrics import compare_report, evaluate
from smile.trainer import (EVAL_HEADER, TrainConfig, load_checkpoint,
                           save_checkpoint)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, small_source, small_target, small_test):
    """Corpora files plus a small base checkpoint, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, corpus in (("src", small_source), ("tgt", small_target),
                         ("test", small_test)):
        path = root / f"{name}.smcp"
        save_corpus(corpus, str(path))
        paths[name] = str(path)
    out = root / "base"
    code = cli.main(["train", "--source", paths["src"], "--steps", "30",
                     "--batch-source", "16", "--seed", "5",
                     "--eval-every", "30", "--out", str(out)])
    assert code == 0
    paths["base_ck"] = str(out / "checkpoint.smck")
    paths["root"] = root
    return paths


# -- parsing and configuration ------------------------------------------------

def test_unknown_flag_rejected(capsys):
    assert cli.main(["train", "--bogus", "1"]) == 1
    err = capsys.readouterr().err
    assert "smile train: ContractError:" in err


def test_unknown_command_rejected(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "ContractError" in capsys.readouterr().err
    # one model is scored by `compare` with one pair
    assert cli.main(["eval", "--test", "t.smcp"]) == 1
    assert ("smile eval: ContractError: argument command: invalid choice: "
            "'eval'") in capsys.readouterr().err


def test_no_command_rejected(capsys):
    assert cli.main([]) == 1
    assert "ContractError" in capsys.readouterr().err


def test_resolved_config_is_printed_sorted(capsys, tmp_path):
    assert cli.main(["gen-data"]) == 1  # --out missing, but config printed
    out = capsys.readouterr().out
    lines = [l for l in out.split("\n") if l.startswith("[config]")]
    assert lines == ["[config] gen-data.out = None",
                     "[config] gen-data.seed = 7"]


def test_train_defaults_are_printed_sorted(capsys):
    assert cli.main(["train"]) == 1  # --source missing, but config printed
    out = capsys.readouterr().out
    lines = [l for l in out.split("\n") if l.startswith("[config]")]
    assert lines == ["[config] train.batch_source = 32",
                     "[config] train.batch_target = 32",
                     "[config] train.checkpoint = None",
                     "[config] train.entropy_variant = shannon",
                     "[config] train.eval_every = 200",
                     "[config] train.lam = 1.0",
                     "[config] train.lr = None",
                     "[config] train.mode = base",
                     "[config] train.optimizer = adam",
                     "[config] train.out = None",
                     "[config] train.p_add = 5e-05",
                     "[config] train.p_init = 0.0",
                     "[config] train.seed = 0",
                     "[config] train.source = None",
                     "[config] train.steps = 1000",
                     "[config] train.target = None",
                     "[config] train.test = None"]


def test_lambda_flag_sets_lam(capsys):
    cli.main(["train", "--lambda", "0.5"])  # fails on missing --source
    out = capsys.readouterr().out
    assert "[config] train.lam = 0.5" in out
    assert cli.main(["train", "--lambda", "-1"]) == 1  # config validation


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\nsteps = 5\nlambda = 2.0\n"
                   "p-init = 0.25  # inline comment\n")
    code = cli.main(["train", "--config", str(cfg), "--steps", "7"])
    assert code == 1  # still no --source
    captured = capsys.readouterr()
    assert "[config] train.steps = 7" in captured.out    # flag beats file
    assert "[config] train.lam = 2.0" in captured.out    # file beats default
    assert "[config] train.p_init = 0.25" in captured.out
    assert "train: --source is required" in captured.err


def test_config_file_rejections(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cases = (("nonsense without equals",
              "expected key=value, got 'nonsense without equals'"),
             ("no_such_key = 1", "unknown config key 'no_such_key'"),
             ("steps = many", "bad value 'many' for steps"),
             ("allow-cold-smile = true", "unknown config key"))
    for body, message in cases:
        cfg.write_text("# header\n\n" + body + "\n")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"smile train: ContractError: {cfg}:3: {message}" in err
    assert cli.main(["train", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_every_train_setting_is_a_flag():
    # one settings table: flags, config lines and sweep cells all read it
    dests = {dest for dest, _ in cli._OPTIONS.values()}
    assert {f.name for f in dataclasses.fields(TrainConfig)} <= dests


def test_clip_is_not_a_setting(capsys, tmp_path):
    # gradients are clipped at the constant trainer.CLIP_NORM, so neither a
    # flag, a config line nor a sweep cell may set it
    missing = str(tmp_path / "nowhere.smcp")
    assert cli.main(["train", "--source", missing, "--clip", "5"]) == 1
    assert ("smile train: ContractError: unrecognized arguments: --clip 5"
            in capsys.readouterr().err)
    cfg = tmp_path / "clip.cfg"
    cfg.write_text("clip = 5\n")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert (f"smile train: ContractError: {cfg}:1: unknown config key 'clip'"
            in capsys.readouterr().err)
    assert cli.main(["sweep", "clip=5"]) == 1
    assert ("smile sweep: ContractError: sweep: cell 'clip=5': unknown config "
            "key 'clip'" in capsys.readouterr().err)


def test_train_rejects_invalid_mode(capsys):
    assert cli.main(["train", "--mode", "warmup"]) == 1
    assert "ContractError" in capsys.readouterr().err
    # finetuning is a base run from a checkpoint, not a mode
    assert cli.main(["train", "--mode", "finetune"]) == 1
    assert ("smile train: ContractError: mode 'finetune' not in "
            "('base', 'smile')") in capsys.readouterr().err


def test_smile_train_requires_target_and_checkpoint_before_loading(
        capsys, tmp_path):
    # the corpus paths do not exist: a FormatError would mean they loaded
    missing = str(tmp_path / "nowhere.smcp")
    args = ["train", "--mode", "smile", "--source", missing]
    assert cli.main(args) == 1
    assert ("smile train: ContractError: train: --target is required"
            in capsys.readouterr().err)
    assert cli.main(args + ["--target", missing]) == 1
    assert ("smile train: ContractError: train: --checkpoint is required"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag, value, name", [
    ("--lambda", "nan", "lambda"), ("--lambda", "inf", "lambda"),
    ("--lr", "nan", "lr"), ("--p-init", "nan", "p_init"),
    ("--p-add", "nan", "p_add"), ("--p-add", "inf", "p_add"),
    ("--seed", "-1", "seed"), ("--seed", str(2 ** 64), "seed")])
def test_train_refuses_bad_settings_before_loading(capsys, tmp_path, flag,
                                                   value, name):
    # the corpus paths do not exist: the setting must fail first
    missing = str(tmp_path / "nowhere.smcp")
    code = cli.main(["train", "--mode", "smile", "--source", missing,
                     "--target", missing, flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert "smile train: ContractError: " in err
    assert f"{name} {value} not in" in err


@pytest.mark.parametrize("command", ["gen-data", "gradcheck"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_u64_exits_one(capsys, tmp_path, command, seed):
    out = ["--out", str(tmp_path / "corpora")] if command == "gen-data" else []
    assert cli.main([command, "--seed", seed, *out]) == 1
    err = capsys.readouterr().err
    assert f"smile {command}: ContractError: " in err
    assert f"seed {seed} not in [0, 2^64)" in err
    if command == "gen-data":
        assert not (tmp_path / "corpora").exists()


# -- gen-data -----------------------------------------------------------------

def test_gen_data_writes_five_corpora(capsys, tmp_path):
    out = tmp_path / "corpora"
    assert cli.main(["gen-data", "--seed", "3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[config] gen-data.seed = 3" in stdout
    names = ("source_train", "source_val", "target_train", "target_labeled",
             "target_test")
    for name in names:
        path = out / f"{name}.smcp"
        assert path.exists()
        assert f"wrote {path}" in stdout
    train = load_corpus(str(out / "target_train.smcp"))
    assert not train.labeled
    assert "target_train.smcp (5000 images, unlabeled)" in stdout
    assert "source_val.smcp (1000 images, labeled)" in stdout


def test_gen_data_out_under_a_file_exits_one(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    code = cli.main(["gen-data", "--out", str(afile / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ContractError: cannot write output" in err
    assert str(afile / "x") in err


def test_gen_data_unknown_preset(capsys, tmp_path):
    # gen-data builds glyph12 only, so it takes no preset
    code = cli.main(["gen-data", "--preset", "glyph12",
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert ("smile gen-data: ContractError: unrecognized arguments: "
            "--preset glyph12") in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# -- train / compare ----------------------------------------------------------

def test_train_writes_artifacts(capsys, workdir):
    out = workdir["root"] / "run"
    code = cli.main(["train", "--source", workdir["src"],
                     "--test", workdir["test"], "--steps", "12",
                     "--batch-source", "8", "--eval-every", "6",
                     "--seed", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "final: step=12" in stdout
    ck = load_checkpoint(str(out / "checkpoint.smck"))
    assert ck.step == 12
    metrics = (out / "metrics.csv").read_text()
    assert metrics.startswith(EVAL_HEADER)
    assert len(metrics.strip().split("\n")) == 3
    assert not (out / "selection.csv").exists()


def test_train_smile_writes_selection_log(capsys, workdir):
    out = workdir["root"] / "smile_run"
    code = cli.main(["train", "--mode", "smile", "--source", workdir["src"],
                     "--target", workdir["tgt"], "--checkpoint",
                     workdir["base_ck"], "--p-init", "1.0", "--steps", "6",
                     "--batch-source", "8", "--batch-target", "8",
                     "--eval-every", "6", "--out", str(out)])
    assert code == 0
    sel = (out / "selection.csv").read_text()
    assert sel.startswith("step,class,n_c,k_c,mean_chosen_entropy")
    assert len(sel.strip().split("\n")) > 6  # one row per class per step


def test_train_missing_corpus_path(capsys, workdir):
    code = cli.main(["train", "--source",
                     str(workdir["root"] / "nowhere.smcp")])
    assert code == 1
    err = capsys.readouterr().err
    assert "smile train: FormatError: cannot read corpus" in err


def test_train_rejects_zero_record_corpus(capsys, workdir, vocab):
    empty = workdir["root"] / "empty.smcp"
    empty.write_bytes(MAGIC + struct.pack("<IIII", VERSION, 8, 24, 0)
                      + vocab_block(vocab))
    assert cli.main(["train", "--source", str(empty)]) == 1
    err = capsys.readouterr().err
    assert (f"smile train: FormatError: {empty}: record count 0 at offset 16"
            in err)


def test_eval_rejects_zero_width_corpus(capsys, workdir, vocab):
    flat = workdir["root"] / "flat.smcp"
    flat.write_bytes(MAGIC + struct.pack("<IIII", VERSION, 8, 0, 2)
                     + vocab_block(vocab) + bytes([SOURCE, 1, 0, SOURCE, 1, 1]))
    assert cli.main(["compare", "--test", str(flat),
                     f"one={workdir['base_ck']}"]) == 1
    err = capsys.readouterr().err
    assert (f"smile compare: FormatError: {flat}: image width 0 at offset 12"
            in err)


def test_eval_missing_checkpoint_path(capsys, workdir):
    code = cli.main(["compare", "--test", workdir["test"],
                     f"one={workdir['root'] / 'nowhere.smck'}"])
    assert code == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


def test_eval_reports_metrics(capsys, workdir, small_test):
    # one model is scored by a one-pair compare
    code = cli.main(["compare", "--test", workdir["test"],
                     f"one={workdir['base_ck']}"])
    assert code == 0
    result = evaluate(load_checkpoint(workdir["base_ck"]).restore(),
                      small_test)
    assert result.n == 48
    text, _ = compare_report([("one", result)])
    assert text in capsys.readouterr().out


def test_eval_rejects_corpus_wider_than_l_max(capsys, workdir, vocab,
                                              templates):
    from smile.data import generate_corpus
    wide = workdir["root"] / "wide.smcp"
    save_corpus(generate_corpus(vocab, templates, 4, (1, 4), seed=3),
                str(wide))
    code = cli.main(["compare", "--test", str(wide),
                     f"one={workdir['base_ck']}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "smile compare: ContractError: evaluate: images are 32 px" in err
    assert "l_max=3 (24 px)" in err


@pytest.mark.parametrize("shape", [(8, 12), (6, 16)], ids=["8x12", "6x16"])
def test_misshapen_corpus_is_refused_before_any_step(capsys, monkeypatch,
                                                     workdir, vocab, shape):
    # encode reads lines 8 px high, a multiple of 8 px wide
    def never(*args, **kwargs):
        raise AssertionError("a step ran before the corpus was checked")

    monkeypatch.setattr(trainer, "step_losses", never)
    bad = workdir["root"] / "misshapen.smcp"
    save_corpus(Corpus(vocab, np.zeros((4, *shape), dtype=np.uint8),
                       [(0,)] * 4, np.zeros(4, dtype=np.uint8)), str(bad))
    message = (f"images are {shape[0]}x{shape[1]} px; the model reads lines "
               "8 px high and a multiple of 8 px wide")
    assert cli.main(["train", "--source", workdir["src"], "--test", str(bad),
                     "--steps", "300", "--eval-every", "300"]) == 1
    assert (f"smile train: ContractError: test corpus: {message}"
            in capsys.readouterr().err)
    assert cli.main(["compare", "--test", str(bad),
                     f"one={workdir['base_ck']}"]) == 1
    assert (f"smile compare: ContractError: evaluate: {message}"
            in capsys.readouterr().err)


def test_unlabeled_test_corpus_is_refused_before_any_step(capsys,
                                                         monkeypatch, workdir):
    # train and sweep score --test, so it needs labels; both say so before
    # step 1, not at the first evaluation
    def never(*args, **kwargs):
        raise AssertionError("a step ran before the corpora were checked")

    monkeypatch.setattr(trainer, "step_losses", never)
    message = "test corpus: 160 of 160 images are unlabeled"
    assert cli.main(["train", "--source", workdir["src"], "--test",
                     workdir["tgt"], "--steps", "30", "--eval-every",
                     "20"]) == 1
    assert (f"smile train: ContractError: {message}"
            in capsys.readouterr().err)
    assert cli.main(["sweep", "--source", workdir["src"], "--target",
                     workdir["tgt"], "--test", workdir["tgt"],
                     "--checkpoint", workdir["base_ck"]]) == 1
    assert (f"smile sweep: ContractError: {message}"
            in capsys.readouterr().err)


def test_eval_requires_both_flags(capsys, workdir):
    assert cli.main(["compare", f"one={workdir['base_ck']}"]) == 1
    assert "compare: --test is required" in capsys.readouterr().err
    assert cli.main(["compare", "--test", workdir["test"]]) == 1
    assert ("the following arguments are required: name=checkpoint"
            in capsys.readouterr().err)


def test_compare_renders_table(capsys, workdir):
    out_csv = workdir["root"] / "cmp.csv"
    code = cli.main(["compare", "--test", workdir["test"],
                     "--out", str(out_csv),
                     f"one={workdir['base_ck']}",
                     f"two={workdir['base_ck']}"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "one" in stdout and "two" in stdout
    csv = out_csv.read_text()
    assert csv.splitlines()[0] == "name,word_acc,char_acc,mean_entropy,n"
    assert len(csv.strip().split("\n")) == 3


def test_compare_out_in_missing_dir_exits_one(capsys, workdir):
    out_csv = workdir["root"] / "missing" / "x.csv"
    code = cli.main(["compare", "--test", workdir["test"],
                     "--out", str(out_csv), f"one={workdir['base_ck']}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "ContractError: cannot write output" in err
    assert str(out_csv) in err
    assert not out_csv.parent.exists()


@pytest.mark.parametrize("command", ["train", "sweep", "compare"])
def test_out_under_a_file_is_refused_before_loading(capsys, tmp_path,
                                                    command):
    # the corpus paths are missing too: a FormatError would mean the
    # command loaded (and, for train and sweep, would have trained) first
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    out, missing = afile / "x", str(tmp_path / "nowhere.smcp")
    args = {"train": ["--source", missing, "--steps", "30"],
            "sweep": ["--source", missing, "--target", missing,
                      "--test", missing, "--checkpoint", missing,
                      "p-init=1.0;p-add=0.0"],
            "compare": ["--test", missing, f"one={missing}"]}[command]
    assert cli.main([command, "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert f"smile {command}: ContractError: cannot write output: {out}" in err
    assert f"{afile} is not a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_compare_out_naming_a_directory_exits_one(capsys, workdir):
    code = cli.main(["compare", "--test", workdir["test"],
                     "--out", str(workdir["root"]),
                     f"one={workdir['base_ck']}"])
    assert code == 1
    assert (f"ContractError: cannot write output: {workdir['root']} is a "
            "directory") in capsys.readouterr().err


def test_compare_rejects_malformed_pair(capsys, workdir):
    code = cli.main(["compare", "--test", workdir["test"], "justaname"])
    assert code == 1
    assert "expected name=checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["x,y", "x\ny", "x\ry"])
def test_compare_refuses_names_the_csv_cannot_hold(capsys, tmp_path, name):
    # every pair is parsed before anything loads: the paths are missing
    missing, out = tmp_path / "nowhere", tmp_path / "c.csv"
    code = cli.main(["compare", "--test", f"{missing}.smcp", "--out",
                     str(out), f"ok={missing}.smck", f"{name}={missing}.smck"])
    assert code == 1
    assert (f"smile compare: ContractError: compare: name {name!r} holds a "
            "comma or a line break") in capsys.readouterr().err
    assert not out.exists()


# -- sweep --------------------------------------------------------------------

def sweep_args(workdir, out):
    return ["sweep", "--source", workdir["src"], "--target", workdir["tgt"],
            "--test", workdir["test"], "--checkpoint", workdir["base_ck"],
            "--steps", "4", "--batch-source", "8", "--batch-target", "8",
            "--eval-every", "4", "--out", str(out)]


def test_sweep_named_cells(capsys, workdir):
    out = workdir["root"] / "sweep_out"
    code = cli.main(sweep_args(workdir, out)
                    + ["p-init=1.0;p-add=0.0", " p-add = 5e-5 ;p-init=0.0",
                       "entropy-variant=pseudo_nll;lambda=0.5"])
    assert code == 0
    stdout = capsys.readouterr().out
    names = ["p_init=1.0;p_add=0.0", "p_add=5e-05;p_init=0.0",
             "entropy_variant=pseudo_nll;lam=0.5"]
    assert f"[config] sweep.cells = {' '.join(names)}" in stdout
    csv = (out / "sweep.csv").read_text()
    assert [row.split(",")[0] for row in csv.splitlines()] == ["name", *names]


def test_default_sweep_names_the_grid(capsys, workdir):
    out = workdir["root"] / "sweep_grid"
    assert cli.main(sweep_args(workdir, out) + ["--p-init", "0.7"]) == 0
    stdout = capsys.readouterr().out
    # every grid cell sets p_init and p_add, so no run uses --p-init 0.7
    assert "sweep.p_init" not in stdout and "sweep.p_add" not in stdout
    assert "[config] sweep.lam = 1.0" in stdout
    csv = (out / "sweep.csv").read_text()
    assert [row.split(",")[0] for row in csv.splitlines()[1:]] == [
        "p_init=0.0;p_add=0.0001", "p_init=0.3;p_add=0.0001",
        "p_init=0.5;p_add=0.0001", "p_init=0.0;p_add=5e-05",
        "p_init=0.3;p_add=5e-05", "p_init=0.5;p_add=5e-05",
        "p_init=1.0;p_add=0.0"]


def test_sweep_shows_the_settings_some_cell_keeps(capsys, workdir):
    out = workdir["root"] / "sweep_variant"
    assert cli.main(sweep_args(workdir, out) + [
        "entropy-variant=pseudo_nll", "entropy-variant=shannon"]) == 0
    stdout = capsys.readouterr().out
    assert "[config] sweep.p_init = 0.0" in stdout
    assert "[config] sweep.p_add = 5e-05" in stdout
    assert "sweep.entropy_variant" not in stdout


def test_sweep_rejects_bad_cells(capsys, workdir):
    # every cell is checked before any corpus loads or any cell trains
    missing = str(workdir["root"] / "nowhere.smcp")
    args = ["sweep", "--source", missing, "--target", missing,
            "--test", missing, "--checkpoint", missing]
    cases = (
        (["0.5"], "sweep: cell '0.5': expected key=value, got '0.5'"),
        (["p-init=0.1;"], "sweep: cell 'p-init=0.1;': expected key=value, "
                          "got ''"),
        (["p_init=0.1"], "sweep: cell 'p_init=0.1': unknown config key "
                         "'p_init'"),
        (["p-init=x"], "sweep: cell 'p-init=x': bad value 'x' for p-init"),
        (["mode=base"], "sweep: cell 'mode=base' may not set mode"),
        (["p-init=0;out=x;checkpoint=y"],
         "sweep: cell 'p_init=0.0;out=x;checkpoint=y' may not set out, "
         "checkpoint"),
        (["p-add=nan"], "sweep: cell 'p_add=nan': pacing: p_add nan not in "
                        "[0, inf)"),
        (["p-init=0;p-add=1e-4", "p-init=0;p-add=nan"],
         "sweep: cell 'p_init=0.0;p_add=nan': pacing: p_add nan not in"))
    for cells, message in cases:
        assert cli.main(args + cells) == 1
        err = capsys.readouterr().err
        assert f"smile sweep: ContractError: {message}" in err


def test_sweep_requires_corpora(capsys, workdir):
    args = ["sweep", "--source", workdir["src"], "p-init=1.0"]
    assert cli.main(args) == 1
    assert "--target is required" in capsys.readouterr().err
    args += ["--target", workdir["tgt"], "--test", workdir["test"]]
    assert cli.main(args) == 1
    assert "sweep: --checkpoint is required" in capsys.readouterr().err


# -- gradcheck and exit codes -------------------------------------------------

def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    stdout = capsys.readouterr().out
    assert "[config] gradcheck.seed = 0" in stdout
    assert "all" in stdout and "checks passed" in stdout
    assert "FAIL" not in stdout


def test_numerical_abort_exits_two(capsys, workdir):
    # load_checkpoint refuses a non-finite tensor, so store a finite one
    # whose logits overflow on the first step
    ck = load_checkpoint(workdir["base_ck"])
    ck.params["out/W"] = np.full_like(ck.params["out/W"], 1e308)
    broken = workdir["root"] / "broken.smck"
    save_checkpoint(ck, str(broken))
    with np.errstate(invalid="ignore", over="ignore"):
        code = cli.main(["train", "--source", workdir["src"], "--checkpoint",
                         str(broken), "--steps", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "smile train: NumericalAbort: step 1: non-finite loss" in err
    # smile mode checks its two terms before it combines them
    with np.errstate(invalid="ignore", over="ignore"):
        code = cli.main(["train", "--mode", "smile", "--source",
                         workdir["src"], "--target", workdir["tgt"],
                         "--checkpoint", str(broken), "--p-init", "1.0",
                         "--steps", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "smile train: NumericalAbort: step 1: non-finite loss" in err


# -- documentation ------------------------------------------------------------

def test_readme_flag_list_matches_the_parser():
    # the README's Flags: paragraph names every flag and every --mode value
    text = README.read_text(encoding="utf-8")
    flags = text[text.index("\nFlags: "):]
    flags = flags[:flags.index("\n\n")]
    assert set(re.findall(r"`(--[a-z-]+)`", flags)) == {*cli._OPTIONS,
                                                        "--config"}
    modes = re.search(r"`--mode` \(([^)]*)\)", flags).group(1)
    assert tuple(modes.split("/")) == trainer.MODES
