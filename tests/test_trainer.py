"""Training loop: optimizer numerics against hand-rolled oracles, gradient
clipping, checkpoint format, reproducibility, and the mode contracts."""

import hashlib
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from smile import cli, trainer
from smile.data import (Corpus, DomainConfig, VocabSpec, generate_corpus,
                        make_templates, save_corpus, vocab_block)
from smile.errors import ContractError, FormatError, NumericalAbort
from smile.metrics import evaluate
from smile.recognizer import (D_FEAT, EMBED_DIM, ENC_HIDDEN, init_params,
                              split_gates)
from smile.tensor import Tensor
from smile.trainer import (SWEEP_GRID, Adadelta, Adam, Checkpoint,
                           MetricsLog, TrainConfig, clip_gradients,
                           load_checkpoint, make_optimizer, save_checkpoint,
                           snapshot, sweep, train_with_corpora)

from conftest import SMALL_SHIFT

QUICK = dict(steps=12, eval_every=6, batch_source=8, batch_target=8)


def quick_cfg(**kw):
    merged = {**QUICK, **kw}
    return TrainConfig(**merged)


# -- config validation --------------------------------------------------------

def test_config_validation():
    for bad in (dict(mode="warmup"), dict(mode="finetune"), dict(lam=-1.0),
                dict(entropy_variant="gini"), dict(p_init=2.0),
                dict(p_add=-1e-9), dict(steps=0), dict(batch_source=0),
                dict(batch_target=0), dict(seed=-1), dict(optimizer="sgd"),
                dict(lr=0.0), dict(eval_every=0),
                dict(seed=2 ** 64)):
        with pytest.raises(ContractError):
            TrainConfig(**bad)
    # P_t = min(p_init + p_add * t, 1) must start in [0, 1] and not shrink
    for bad, message in ((dict(p_init=-0.1), r"pacing: p_init -0.1 not in"),
                         (dict(p_init=1.1), r"pacing: p_init 1.1 not in"),
                         (dict(p_add=-1e-6), r"pacing: p_add -1e-06 not in")):
        with pytest.raises(ContractError, match=message):
            TrainConfig(**bad)
    TrainConfig()  # defaults are valid
    TrainConfig(seed=2 ** 64 - 1)


@pytest.mark.parametrize("field, name", [("lam", "lambda"), ("lr", "lr"),
                                         ("p_init", "p_init"),
                                         ("p_add", "p_add")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_refuses_non_finite_floats(field, name, value):
    # NaN fails every comparison, so each bound is written to refuse it
    with pytest.raises(ContractError, match=f"{name} {value}"):
        TrainConfig(**{field: value})


def test_sweep_grid():
    assert len(SWEEP_GRID) == 7
    assert {"p_init": 0.0, "p_add": 5e-5} in SWEEP_GRID
    assert {"p_init": 1.0, "p_add": 0.0} in SWEEP_GRID
    assert all(list(cell) == ["p_init", "p_add"] for cell in SWEEP_GRID)


# -- optimizers ---------------------------------------------------------------

def adam_oracle(w0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    w = w0.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_matches_oracle(rng):
    w0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(5)]
    p = Tensor(w0.copy(), requires_grad=True)
    opt = Adam()
    for g in grads:
        p.grad[...] = g
        opt.step({"w": p})
    assert np.allclose(p.data, adam_oracle(w0, grads), atol=1e-12)
    assert opt.t == 5


def adadelta_oracle(w0, grads, lr=1.0, rho=0.95, eps=1e-8):
    w = w0.copy()
    eg2 = np.zeros_like(w)
    edx2 = np.zeros_like(w)
    for g in grads:
        eg2 = rho * eg2 + (1 - rho) * g * g
        dx = -np.sqrt((edx2 + eps) / (eg2 + eps)) * g
        edx2 = rho * edx2 + (1 - rho) * dx * dx
        w = w + lr * dx
    return w


def test_adadelta_matches_oracle(rng):
    w0 = rng.normal(size=(4,))
    grads = [rng.normal(size=(4,)) for _ in range(6)]
    p = Tensor(w0.copy(), requires_grad=True)
    opt = Adadelta()
    for g in grads:
        p.grad[...] = g
        opt.step({"w": p})
    assert np.allclose(p.data, adadelta_oracle(w0, grads), atol=1e-12)


def test_make_optimizer_respects_lr():
    assert make_optimizer(TrainConfig(lr=None)).lr == 1e-3
    assert make_optimizer(TrainConfig(optimizer="adadelta", lr=None)).lr == 1.0
    assert make_optimizer(TrainConfig(lr=0.5)).lr == 0.5


def test_optimizer_state_round_trip(rng):
    p = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    opt = Adam()
    for _ in range(3):
        p.grad[...] = rng.normal(size=(2, 2))
        opt.step({"w": p})
    clone = Adam()
    clone.load_state(opt.state_tensors())
    assert clone.t == 3
    assert np.array_equal(clone.m["w"], opt.m["w"])
    assert np.array_equal(clone.v["w"], opt.v["w"])


# -- gradient clipping --------------------------------------------------------

def test_clip_rescales_joint_norm():
    a = Tensor(np.zeros((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    a.grad[...] = 3.0
    b.grad[...] = 4.0
    params = {"a": a, "b": b}
    norm = clip_gradients(params, max_norm=5.0)
    joint = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values()))
    assert norm > 5.0
    assert abs(joint - 5.0) < 1e-12


def test_clip_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad[...] = 0.1
    norm = clip_gradients({"a": a}, max_norm=5.0)
    assert abs(norm - math.sqrt(0.02)) < 1e-12
    assert np.allclose(a.grad, 0.1)


def test_clip_aborts_on_non_finite():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad[...] = np.nan
    with pytest.raises(NumericalAbort):
        clip_gradients({"a": a}, max_norm=5.0)


# -- checkpoint format --------------------------------------------------------

def small_checkpoint(seed=0, step=17):
    vocab = VocabSpec("ABC")
    params = {n: t.data.copy() for n, t in init_params(vocab.K, seed).items()}
    opt_state = {"opt/seed": np.array([float(seed), 0.0])}
    return Checkpoint(vocab, 2, params, opt_state, step)


def test_checkpoint_round_trip_bytes(tmp_path):
    ck = small_checkpoint()
    p1, p2 = tmp_path / "a.smck", tmp_path / "b.smck"
    save_checkpoint(ck, str(p1))
    loaded = load_checkpoint(str(p1))
    assert loaded.vocab == ck.vocab
    assert loaded.l_max == ck.l_max
    assert loaded.step == 17
    assert set(loaded.params) == set(ck.params)
    assert all(np.array_equal(loaded.params[n], ck.params[n])
               for n in ck.params)
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the file stores every GRU gate apart (enc/W_z, ...) whatever the
    # in-memory layout; these are the bytes of the per-gate format
    path = tmp_path / "ck.smck"
    save_checkpoint(small_checkpoint(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9401c910d2b02939ea3b2ee74cce8d72ecdee265a1857c407d0b92c17e3c3b99")


def write_unchecked(ck: Checkpoint, path):
    """ck in save_checkpoint's layout, written with no checks, so the
    loader can be shown files that save_checkpoint refuses to write."""
    tensors = (sorted(split_gates(ck.params).items())
               + sorted(ck.opt_state.items()))
    parts = [trainer.CK_MAGIC, struct.pack("<I", trainer.CK_VERSION),
             vocab_block(ck.vocab),
             struct.pack("<IIIIIQI", D_FEAT, ENC_HIDDEN, EMBED_DIM,
                         ck.vocab.K, ck.l_max, ck.step, len(tensors))]
    for name, arr in tensors:
        raw = name.encode("utf-8")
        parts.append(struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw,
                                 arr.ndim, *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    path.write_bytes(b"".join(parts))


def test_unchecked_writer_writes_save_checkpoints_bytes(tmp_path):
    saved, unchecked = tmp_path / "saved.smck", tmp_path / "unchecked.smck"
    save_checkpoint(small_checkpoint(), str(saved))
    write_unchecked(small_checkpoint(), unchecked)
    assert unchecked.read_bytes() == saved.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ck.smck"
    save_checkpoint(small_checkpoint(), str(path))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic"):
        load_checkpoint(str(path))


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "ck.smck"
    save_checkpoint(small_checkpoint(), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-11])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(str(path))


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "ck.smck"
    save_checkpoint(small_checkpoint(), str(path))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_missing_parameter(tmp_path):
    ck = small_checkpoint()
    del ck.params["out/b"]
    path = tmp_path / "ck.smck"
    write_unchecked(ck, path)
    with pytest.raises(FormatError, match="parameter set mismatch"):
        load_checkpoint(str(path))


def test_checkpoint_names_a_missing_gate_tensor(tmp_path):
    ck = small_checkpoint()
    stored = split_gates(ck.params)
    del stored["dec/U_r"]
    path = tmp_path / "ck.smck"
    write_unchecked(Checkpoint(ck.vocab, ck.l_max, stored, ck.opt_state,
                               ck.step), path)
    with pytest.raises(FormatError, match=r"missing \['dec/U_r'\]"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_wrong_shape(tmp_path):
    ck = small_checkpoint()
    ck.params["out/b"] = np.zeros((2, ck.vocab.K))
    path = tmp_path / "ck.smck"
    write_unchecked(ck, path)
    with pytest.raises(FormatError, match="shape"):
        load_checkpoint(str(path))


def test_checkpoint_refuses_backward_encoder_tensors(tmp_path):
    # the encoder runs one direction, so a second GRU's per-gate tensors
    # are unknown names, not a mode to infer
    ck = small_checkpoint()
    stored = split_gates(ck.params)
    stored.update({n.replace("enc/", "enc_bwd/"): a
                   for n, a in stored.items() if n.startswith("enc/")})
    path = tmp_path / "bi.smck"
    write_unchecked(Checkpoint(ck.vocab, ck.l_max, stored, ck.opt_state,
                               ck.step), path)
    with pytest.raises(FormatError, match=r"parameter set mismatch \(missing "
                       r"\[\], unexpected \['enc_bwd/U_n', 'enc_bwd/U_r'"):
        load_checkpoint(str(path))


def test_seed_encoding_round_trip(tmp_path):
    from smile.trainer import _seed_tensor, _seed_value
    for seed in (0, 1, 2 ** 31 - 1, 2 ** 40 + 12345, 2 ** 64 - 1):
        assert _seed_value({"opt/seed": _seed_tensor(seed)}) == seed


# -- training runs ------------------------------------------------------------

def test_single_step_descends_on_fixed_batch(small_source):
    from smile.losses import decoder_loss
    from smile.recognizer import Recognizer
    from smile.tensor import Tape

    rec = Recognizer.fresh(small_source.vocab, 3, seed=0)
    px = small_source.images(slice(16))
    labels = small_source.labels[:16]
    opt = Adam(1e-3)
    with Tape() as tape:
        loss = decoder_loss(rec.teacher_forced(px, labels))
        tape.backward(loss)
    before = loss.item()
    opt.step(rec.params)
    after = decoder_loss(rec.teacher_forced(px, labels)).item()
    assert after < before


def test_base_run_learns_and_logs(small_source, small_test):
    cfg = quick_cfg(mode="base", steps=300, eval_every=150, batch_source=16,
                    seed=3)
    ck, log = train_with_corpora(cfg, source=small_source, test=small_test)
    assert ck.step == 300
    assert [row[0] for row in log.eval_rows] == [150, 300]
    first, last = log.eval_rows[0], log.eval_rows[-1]
    assert last[2] < first[2]  # source loss falls
    csv = log.eval_csv()
    assert csv.startswith("step,mode,source_loss")
    assert len(csv.strip().split("\n")) == 3


def test_base_runs_are_byte_identical(tmp_path, small_source):
    cfg = quick_cfg(mode="base", seed=4)
    paths = []
    for name in ("one", "two"):
        ck, log = train_with_corpora(cfg, source=small_source)
        path = tmp_path / f"{name}.smck"
        save_checkpoint(ck, str(path))
        paths.append((path, log.eval_csv()))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1] == paths[1][1]


def test_seed_changes_the_run(small_source):
    ck_a, _ = train_with_corpora(quick_cfg(seed=5), source=small_source)
    ck_b, _ = train_with_corpora(quick_cfg(seed=6), source=small_source)
    assert any(not np.array_equal(ck_a.params[n], ck_b.params[n])
               for n in ck_a.params)


def test_resume_equals_uninterrupted(small_source, small_test):
    full_cfg = quick_cfg(mode="base", steps=30, eval_every=10, seed=7)
    full_ck, _ = train_with_corpora(full_cfg, source=small_source)

    half_cfg = quick_cfg(mode="base", steps=15, eval_every=10, seed=7)
    half_ck, _ = train_with_corpora(half_cfg, source=small_source)
    resumed_ck, _ = train_with_corpora(full_cfg, source=small_source,
                                       start=half_ck, resume=True)
    assert resumed_ck.step == full_ck.step
    assert all(np.array_equal(full_ck.params[n], resumed_ck.params[n])
               for n in full_ck.params)
    assert all(np.array_equal(full_ck.opt_state[n], resumed_ck.opt_state[n])
               for n in full_ck.opt_state)


def test_largest_seed_resumes_from_its_checkpoint_file(tmp_path,
                                                       small_source):
    # 2^64 - 1 fills both u32 halves of opt/seed
    top = 2 ** 64 - 1
    half, _ = train_with_corpora(quick_cfg(steps=4, seed=top),
                                 source=small_source)
    path = tmp_path / "top.smck"
    save_checkpoint(half, str(path))
    full, _ = train_with_corpora(quick_cfg(steps=8, seed=top),
                                 source=small_source)
    resumed, _ = train_with_corpora(quick_cfg(steps=8), source=small_source,
                                    start=load_checkpoint(str(path)),
                                    resume=True)
    assert all(np.array_equal(full.params[n], resumed.params[n])
               for n in full.params)
    assert resumed.opt_state["opt/seed"].tolist() == [2.0 ** 32 - 1] * 2


def test_resume_ignores_config_seed(small_source):
    # the stored batch seed wins so the stream continues unbroken
    half, _ = train_with_corpora(quick_cfg(steps=15, seed=7),
                                 source=small_source)
    full, _ = train_with_corpora(quick_cfg(steps=30, seed=7),
                                 source=small_source)
    resumed, _ = train_with_corpora(quick_cfg(steps=30, seed=999),
                                    source=small_source, start=half,
                                    resume=True)
    assert all(np.array_equal(full.params[n], resumed.params[n])
               for n in full.params)


def test_resume_validation(small_source):
    ck, _ = train_with_corpora(quick_cfg(steps=12, seed=8),
                               source=small_source)
    with pytest.raises(ContractError):
        train_with_corpora(quick_cfg(steps=12, seed=8), source=small_source,
                           start=ck, resume=True)  # already finished
    with pytest.raises(ContractError):
        train_with_corpora(quick_cfg(steps=20, optimizer="adadelta"),
                           source=small_source, start=ck, resume=True)
    bare = Checkpoint(ck.vocab, ck.l_max, ck.params, {}, 5)
    with pytest.raises(ContractError):
        train_with_corpora(quick_cfg(steps=20), source=small_source,
                           start=bare, resume=True)
    # optimizer state must match the parameters by name and shape
    wrong_shape = dict(ck.opt_state, **{"opt/adam/m/out/b": np.zeros((1, 1))})
    missing = {n: a for n, a in ck.opt_state.items()
               if n != "opt/adam/v/out/W"}
    stray = dict(ck.opt_state, **{"opt/adam/m/out/X": np.zeros((1, 1))})
    for state, name in ((wrong_shape, "opt/adam/m/out/b"),
                        (missing, "opt/adam/v/out/W"),
                        (stray, "opt/adam/m/out/X")):
        broken = Checkpoint(ck.vocab, ck.l_max, ck.params, state, ck.step)
        with pytest.raises(ContractError, match=name):
            train_with_corpora(quick_cfg(steps=20, seed=8),
                               source=small_source, start=broken, resume=True)
    # the run seed must be two u32 halves
    for seed in (np.zeros(3), np.array(5.0), np.array([-1.0, 0.0]),
                 np.array([np.nan, 0.0])):
        broken = Checkpoint(ck.vocab, ck.l_max, ck.params,
                            dict(ck.opt_state, **{"opt/seed": seed}), ck.step)
        with pytest.raises(ContractError, match="opt/seed"):
            train_with_corpora(quick_cfg(steps=20, seed=8),
                               source=small_source, start=broken, resume=True)


def test_resume_refuses_a_bad_adam_step_count(small_source):
    # the trainer writes t == step; a fractional t would be truncated and
    # restart the bias correction, and a negative one makes the first
    # update take the square root of a negative number
    ck, _ = train_with_corpora(quick_cfg(steps=12, seed=8),
                               source=small_source)
    assert ck.opt_state["opt/adam/t"] == ck.step == 12
    for t in (1.5, 1e300, -3.0, 13.0):
        broken = Checkpoint(ck.vocab, ck.l_max, ck.params,
                            dict(ck.opt_state, **{"opt/adam/t": np.array(t)}),
                            ck.step)
        message = f"resume: opt/adam/t {t} is not a whole number in [0, 12]"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            train_with_corpora(quick_cfg(steps=20, seed=8),
                               source=small_source, start=broken, resume=True)


def test_start_checkpoint_restarts_clock(small_source):
    ck, _ = train_with_corpora(quick_cfg(steps=12, seed=9),
                               source=small_source)
    warm, _ = train_with_corpora(quick_cfg(steps=6, seed=10),
                                 source=small_source, start=ck)
    assert warm.step == 6


def test_smile_needs_target_and_checkpoint(small_source, small_target):
    with pytest.raises(ContractError, match="target"):
        train_with_corpora(quick_cfg(mode="smile"), source=small_source)
    with pytest.raises(ContractError, match="starting checkpoint"):
        train_with_corpora(quick_cfg(mode="smile"), source=small_source,
                           target=small_target)


def test_smile_ignores_target_labels(small_source, small_target, vocab,
                                     templates):
    base, _ = train_with_corpora(quick_cfg(seed=12), source=small_source)
    labeled_target = generate_corpus(vocab, templates, 40, (1, 3), seed=44)
    ck, log = train_with_corpora(quick_cfg(mode="smile", seed=12, p_init=1.0),
                                 source=small_source, target=labeled_target,
                                 start=base)
    assert labeled_target.labeled  # caller's corpus untouched
    assert log.selection_rows     # selection ran


def test_lambda_zero_smile_equals_base(tmp_path, small_source, small_target):
    base_cfg = quick_cfg(mode="base", seed=13)
    smile_cfg = quick_cfg(mode="smile", seed=13, lam=0.0, p_init=0.5)
    ck_base, _ = train_with_corpora(base_cfg, source=small_source)
    start = snapshot(ck_base.restore(), None, 0, 0)

    ck_a, log_a = train_with_corpora(base_cfg, source=small_source,
                                     start=start)
    ck_b, log_b = train_with_corpora(smile_cfg, source=small_source,
                                     target=small_target, start=start)
    pa, pb = tmp_path / "a.smck", tmp_path / "b.smck"
    save_checkpoint(ck_a, str(pa))
    save_checkpoint(ck_b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    # the informational pass still logs selection state
    assert log_b.selection_rows and not log_a.selection_rows


def test_smile_entropy_term_changes_updates(small_source, small_target):
    base, _ = train_with_corpora(quick_cfg(seed=14), source=small_source)
    off, _ = train_with_corpora(quick_cfg(mode="smile", seed=14, lam=0.0,
                                          p_init=1.0),
                                source=small_source, target=small_target,
                                start=base)
    on, _ = train_with_corpora(quick_cfg(mode="smile", seed=14, lam=1.0,
                                         p_init=1.0),
                               source=small_source, target=small_target,
                               start=base)
    assert any(not np.array_equal(off.params[n], on.params[n])
               for n in off.params)


def test_finetune_requires_labeled_target(small_source, small_target, vocab,
                                          templates):
    # finetuning is a base run from a checkpoint on a labeled target corpus
    base, _ = train_with_corpora(quick_cfg(seed=15), source=small_source)
    with pytest.raises(ContractError, match="source corpus: 160 of 160 "
                                            "images are unlabeled"):
        train_with_corpora(quick_cfg(), source=small_target, start=base)
    labeled = generate_corpus(vocab, templates, 40, (1, 3), seed=45,
                              domain_cfg=DomainConfig(seed=90, **SMALL_SHIFT))
    ck, log = train_with_corpora(quick_cfg(seed=15), source=labeled,
                                 start=base)
    assert ck.step == QUICK["steps"]
    assert all(row[1] == "base" for row in log.eval_rows)
    assert any(not np.array_equal(ck.params[n], base.params[n])
               for n in ck.params)


def test_vocab_mismatch_rejected(small_source):
    other = VocabSpec("XY")
    params = {n: t.data.copy() for n, t in init_params(other.K, 0).items()}
    alien = Checkpoint(other, 3, params, {}, 0)
    with pytest.raises(ContractError, match="^source corpus: vocab 'ABCD' "
                                            "differs from the model's 'XY'$"):
        train_with_corpora(quick_cfg(), source=small_source, start=alien)
    # a target or test corpus is held to the model's vocab the same way
    stranger = generate_corpus(other, make_templates(other, seed=5), 20,
                               (1, 3), seed=47)
    base, _ = train_with_corpora(quick_cfg(steps=1), source=small_source)
    with pytest.raises(ContractError, match="^test corpus: vocab 'XY' "
                                            "differs from the model's 'ABCD'$"):
        train_with_corpora(quick_cfg(), source=small_source, test=stranger)
    with pytest.raises(ContractError, match="^target corpus: vocab 'XY' "
                                            "differs from the model's 'ABCD'$"):
        train_with_corpora(quick_cfg(mode="smile"), source=small_source,
                           target=stranger, start=base)


def test_every_corpus_is_checked_before_any_step(monkeypatch, small_source,
                                                 small_target):
    # an unlabeled test corpus cannot be scored: it is refused up front, not
    # at the first evaluation
    base, _ = train_with_corpora(quick_cfg(seed=19), source=small_source)

    def never(*args, **kwargs):
        raise AssertionError("a step ran before the corpora were checked")

    monkeypatch.setattr(trainer, "step_losses", never)
    message = "^test corpus: 160 of 160 images are unlabeled$"
    with pytest.raises(ContractError, match=message):
        train_with_corpora(quick_cfg(steps=300, eval_every=200),
                           source=small_source, test=small_target)
    with pytest.raises(ContractError, match=message):
        train_with_corpora(quick_cfg(mode="smile"), source=small_source,
                           target=small_target, test=small_target, start=base)


def test_smile_target_of_another_width_is_refused_before_any_step(
        monkeypatch, small_source, vocab, templates):
    # the chosen target samples decode inside the source batch, so the two
    # corpora share one width; a test corpus, decoded on its own, may be
    # narrower
    base, _ = train_with_corpora(quick_cfg(seed=21), source=small_source)
    narrow = generate_corpus(vocab, templates, 40, (1, 2), seed=46)
    _, log = train_with_corpora(quick_cfg(mode="smile", steps=1),
                                source=small_source, target=small_source,
                                test=narrow, start=base)
    assert len(log.eval_rows) == 1

    def never(*args, **kwargs):
        raise AssertionError("a step ran before the widths were checked")

    monkeypatch.setattr(trainer, "step_losses", never)
    with pytest.raises(ContractError, match="^target corpus: images are 16 "
                                            "px wide, the source's 24 px"):
        train_with_corpora(quick_cfg(mode="smile"), source=small_source,
                           target=narrow, start=base)


def test_sweep_checks_the_test_corpus_before_any_cell(monkeypatch,
                                                      small_source,
                                                      small_target):
    base, _ = train_with_corpora(quick_cfg(seed=20), source=small_source)
    cells = [{"p_init": 0.0, "p_add": 1e-4}]
    with pytest.raises(ContractError,
                       match="smile requires a starting checkpoint"):
        sweep(cells, quick_cfg(mode="smile"), small_source, small_target,
              small_target, None)

    def never(*args, **kwargs):
        raise AssertionError("a cell trained before the test corpus was "
                             "checked")

    monkeypatch.setattr(trainer, "train_with_corpora", never)
    with pytest.raises(ContractError, match="^test corpus: 160 of 160 images "
                                            "are unlabeled"):
        sweep(cells, quick_cfg(mode="smile"), small_source, small_target,
              small_target, base)


def test_source_narrower_than_a_glyph_names_its_size(vocab):
    # a fresh model reads l_max off the source width, so an 8x4 source must
    # be refused for its shape before that width becomes an l_max of 0
    narrow = Corpus(vocab, np.zeros((4, 8, 4), dtype=np.uint8), [(0,)] * 4,
                    np.zeros(4, dtype=np.uint8))
    with pytest.raises(ContractError, match=r"^source corpus: images are 8x4 "
                                            r"px; the model reads lines 8 px "
                                            r"high and a multiple of 8 px "
                                            r"wide$"):
        train_with_corpora(TrainConfig(steps=1), source=narrow)


def test_source_wider_than_a_label_names_the_corpus(vocab):
    # 2 048 px is 256 characters, one more than a label holds, so a fresh
    # model must not be sized from it
    wide = Corpus(vocab, np.zeros((2, 8, 2048), dtype=np.uint8), [(0,)] * 2,
                  np.zeros(2, dtype=np.uint8))
    with pytest.raises(ContractError, match=r"^source corpus: images are "
                                            r"2048 px wide \(256 characters"
                                            r"\), more than the 255 a label "
                                            r"can hold$"):
        train_with_corpora(TrainConfig(steps=1), source=wide)


def test_label_longer_than_l_max_names_the_corpus(vocab, templates):
    # 16 px lines size a fresh model to l_max 2, so a 3-character label is
    # refused before the first step, in the source or the test corpus
    fits = generate_corpus(vocab, templates, 40, (1, 2), seed=46)
    labels = fits.labels[:5] + [(3, 0, 1)] + fits.labels[6:]
    long = Corpus(vocab, fits.codes, labels, fits.domain)
    for corpora, name in (({"source": long}, "source"),
                          ({"source": fits, "test": long}, "test")):
        with pytest.raises(ContractError, match=f"^{name} corpus: record 5's "
                                                r"label has 3 characters, the "
                                                r"model decodes at most "
                                                r"l_max=2$"):
            train_with_corpora(TrainConfig(steps=1), **corpora)


def test_corpus_wider_than_l_max_rejected(small_source, small_target,
                                          small_test, vocab, templates):
    # the small corpora are 24 px wide: three characters
    params = {n: t.data.copy() for n, t in init_params(vocab.K, 0).items()}
    narrow = Checkpoint(vocab, 2, params, {}, 0)
    fits = generate_corpus(vocab, templates, 40, (1, 2), seed=46)
    with pytest.raises(ContractError, match="source corpus: images are 24 px"):
        train_with_corpora(quick_cfg(), source=small_source, start=narrow)
    with pytest.raises(ContractError, match="test corpus: images are 24 px"):
        train_with_corpora(quick_cfg(), source=fits, test=small_test,
                           start=narrow)
    with pytest.raises(ContractError, match="target corpus: images are 24 px"):
        train_with_corpora(quick_cfg(mode="smile"), source=fits,
                           target=small_target, start=narrow)


def test_non_finite_start_aborts(small_source):
    ck, _ = train_with_corpora(quick_cfg(seed=16), source=small_source)
    ck.params["proj/W"] = np.full_like(ck.params["proj/W"], np.nan)
    with pytest.raises(NumericalAbort, match="step 1"):
        train_with_corpora(quick_cfg(seed=16), source=small_source, start=ck)


def test_non_finite_smile_start_aborts(small_source, small_target):
    # the terms are checked before smile_loss, which would call a
    # non-finite term a contract breach
    ck, _ = train_with_corpora(quick_cfg(seed=16), source=small_source)
    ck.params["proj/W"] = np.full_like(ck.params["proj/W"], np.nan)
    with pytest.raises(NumericalAbort, match="step 1: non-finite loss nan"):
        train_with_corpora(quick_cfg(mode="smile", seed=16, p_init=1.0),
                           source=small_source, target=small_target,
                           start=ck)


def test_metrics_log_guards_step_order():
    log = MetricsLog()
    log.log_eval(5, "base", 1.0, None, None, None, None, None)
    with pytest.raises(ContractError):
        log.log_eval(5, "base", 0.9, None, None, None, None, None)
    assert log.eval_csv().strip().split("\n")[1] == "5,base,1.0,,,,,,,"


def test_train_by_paths(capsys, tmp_path, small_source, small_test):
    # `smile train` loads its files and runs train_with_corpora on them
    src = tmp_path / "src.smcp"
    tst = tmp_path / "tst.smcp"
    save_corpus(small_source, str(src))
    save_corpus(small_test, str(tst))
    out = tmp_path / "run"
    assert cli.main(["train", "--source", str(src), "--test", str(tst),
                     "--seed", "17", "--steps", "12", "--eval-every", "6",
                     "--batch-source", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = quick_cfg(mode="base", seed=17)
    ck, log = train_with_corpora(cfg, small_source, test=small_test)
    save_checkpoint(ck, str(tmp_path / "in_memory.smck"))
    assert ((out / "checkpoint.smck").read_bytes()
            == (tmp_path / "in_memory.smck").read_bytes())
    assert (out / "metrics.csv").read_text() == log.eval_csv()


def test_sweep_runs_each_cell(small_source, small_target, small_test):
    base, _ = train_with_corpora(quick_cfg(seed=18), source=small_source)
    cfg = quick_cfg(mode="smile", seed=18)
    cells = [{"p_init": 0.0, "p_add": 5e-5}, {"p_init": 1.0, "p_add": 0.0},
             {"entropy_variant": "pseudo_nll", "lam": 0.5}]
    rows = sweep(cells, cfg, small_source, small_target, small_test, base)
    assert [name for name, _ in rows] == [
        "p_init=0.0;p_add=5e-05", "p_init=1.0;p_add=0.0",
        "entropy_variant=pseudo_nll;lam=0.5"]
    for cell, (_, result) in zip(cells, rows):
        ck, _ = train_with_corpora(replace(cfg, **cell), small_source,
                                   small_target, small_test, start=base)
        assert result == evaluate(ck.restore(), small_test)
        assert result.n == len(small_test)
    with pytest.raises(ContractError):
        sweep([], cfg, small_source, small_target, small_test, base)


def test_sweep_checks_every_cell_before_training(monkeypatch, small_source,
                                                 small_target, small_test):
    def never(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr(trainer, "train_with_corpora", never)
    good = {"p_init": 0.0, "p_add": 1e-4}
    with pytest.raises(ContractError, match="p_add nan"):
        sweep([good, {"p_init": 0.0, "p_add": math.nan}],
              quick_cfg(mode="smile"), small_source, small_target,
              small_test, None)
    # a cell varies train settings, never the mode, files or start
    for key, value in (("mode", "base"), ("out", "runs"),
                       ("source", "s.smcp"), ("target", "t.smcp"),
                       ("test", "x.smcp"), ("checkpoint", "c.smck")):
        with pytest.raises(ContractError,
                           match=f"sweep: cell '{key}={value}' may not set "
                                 f"{key}$"):
            sweep([good, {key: value}], quick_cfg(mode="smile"),
                  small_source, small_target, small_test, None)
