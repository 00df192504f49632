"""Training regimes, optimizers, checkpoint format, and the pacing sweep.

Three modes share one loop: "base" minimizes the decoder loss on labeled
source batches; "smile" adds the paced mean entropy of confident target
predictions on top of that; "finetune" is the decoder loss on a labeled
target corpus starting from a loaded checkpoint.

Batch composition is stateless: the indices for step s come from fresh
generators keyed [seed, stream, s], so a resumed run draws exactly the
batches the uninterrupted run would have drawn.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .binio import Reader
from .data import Corpus, VocabSpec, load_corpus, read_vocab_block, vocab_block
from .errors import ContractError, FormatError, NumericalAbort
from .losses import VARIANTS, decoder_loss, smile_loss
from .metrics import EvalResult, evaluate
from .recognizer import ArchSpec, Recognizer, init_params
from .self_paced import (PacingSchedule, SelectionResult, build_pool, select,
                         selected_entropy_loss)
from .tensor import Tape, Tensor

MODES = ("base", "smile", "finetune")
OPTIMIZERS = ("adam", "adadelta")

CK_MAGIC = b"SMCK"
CK_VERSION = 1

# built-in sensitivity grid; the last cell disables self-paced selection
SWEEP_GRID = ((0.0, 1e-4), (0.3, 1e-4), (0.5, 1e-4),
              (0.0, 5e-5), (0.3, 5e-5), (0.5, 5e-5), (1.0, 0.0))


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "base"
    lam: float = 1.0
    entropy_variant: str = "shannon"
    p_init: float = 0.0
    p_add: float = 5e-5
    steps: int = 1000
    batch_source: int = 32
    batch_target: int = 32
    seed: int = 0
    optimizer: str = "adam"
    lr: float | None = None
    clip: float = 5.0
    eval_every: int = 200
    source: str | None = None
    target: str | None = None
    test: str | None = None
    checkpoint: str | None = None
    out: str | None = None
    allow_cold_smile: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"mode {self.mode!r} not in {MODES}")
        if self.lam < 0:
            raise ContractError(f"lambda {self.lam} < 0")
        if self.entropy_variant not in VARIANTS:
            raise ContractError(
                f"entropy variant {self.entropy_variant!r} not in {VARIANTS}")
        PacingSchedule(self.p_init, self.p_add)
        if self.steps < 1:
            raise ContractError(f"steps {self.steps} < 1")
        if self.batch_source < 1 or self.batch_target < 1:
            raise ContractError("batch sizes must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed {self.seed} < 0")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"optimizer {self.optimizer!r} not in {OPTIMIZERS}")
        if self.lr is not None and self.lr <= 0:
            raise ContractError(f"lr {self.lr} <= 0")
        if self.clip <= 0:
            raise ContractError(f"clip {self.clip} <= 0")
        if self.eval_every < 1:
            raise ContractError(f"eval_every {self.eval_every} < 1")


# ---------------------------------------------------------------------------
# optimizers

class Adam:
    name = "adam"
    slots = ("m", "v")      # one state tensor per slot and parameter
    scalars = ("t",)
    default_lr = 1e-3
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float | None = None):
        self.lr = self.default_lr if lr is None else lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor]):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name in sorted(params):
            p = params[name]
            g = p.grad
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {f"opt/adam/m/{n}": a for n, a in self.m.items()}
        out.update({f"opt/adam/v/{n}": a for n, a in self.v.items()})
        out["opt/adam/t"] = np.array(float(self.t))
        return out

    def load_state(self, tensors: dict[str, np.ndarray]):
        self.t = int(tensors["opt/adam/t"])
        for name, arr in tensors.items():
            if name.startswith("opt/adam/m/"):
                self.m[name[len("opt/adam/m/"):]] = arr.copy()
            elif name.startswith("opt/adam/v/"):
                self.v[name[len("opt/adam/v/"):]] = arr.copy()


class Adadelta:
    name = "adadelta"
    slots = ("eg2", "edx2")
    scalars = ()
    default_lr = 1.0
    rho, eps = 0.95, 1e-8

    def __init__(self, lr: float | None = None):
        self.lr = self.default_lr if lr is None else lr
        self.eg2: dict[str, np.ndarray] = {}
        self.edx2: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor]):
        for name in sorted(params):
            p = params[name]
            g = p.grad
            eg2 = self.eg2.setdefault(name, np.zeros_like(p.data))
            edx2 = self.edx2.setdefault(name, np.zeros_like(p.data))
            eg2 *= self.rho
            eg2 += (1.0 - self.rho) * g * g
            dx = -np.sqrt((edx2 + self.eps) / (eg2 + self.eps)) * g
            edx2 *= self.rho
            edx2 += (1.0 - self.rho) * dx * dx
            p.data += self.lr * dx

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {f"opt/adadelta/eg2/{n}": a for n, a in self.eg2.items()}
        out.update({f"opt/adadelta/edx2/{n}": a for n, a in self.edx2.items()})
        return out

    def load_state(self, tensors: dict[str, np.ndarray]):
        for name, arr in tensors.items():
            if name.startswith("opt/adadelta/eg2/"):
                self.eg2[name[len("opt/adadelta/eg2/"):]] = arr.copy()
            elif name.startswith("opt/adadelta/edx2/"):
                self.edx2[name[len("opt/adadelta/edx2/"):]] = arr.copy()


def make_optimizer(cfg: TrainConfig):
    return Adam(cfg.lr) if cfg.optimizer == "adam" else Adadelta(cfg.lr)


def _check_opt_state(opt, opt_state: dict[str, np.ndarray],
                     params: dict[str, Tensor]):
    """Resume needs each of opt's state tensors, shaped like its parameter,
    and no state for a parameter the model does not have."""
    prefix = f"opt/{opt.name}/"
    expected = {f"{prefix}{k}": () for k in opt.scalars}
    expected.update({f"{prefix}{slot}/{n}": p.shape
                     for slot in opt.slots for n, p in params.items()})
    for name, shape in expected.items():
        if name not in opt_state:
            raise ContractError(f"resume: checkpoint lacks {name}")
        if opt_state[name].shape != shape:
            raise ContractError(
                f"resume: {name} has shape {opt_state[name].shape}, "
                f"expected {shape}")
    for name in opt_state:
        if name.startswith(prefix) and name not in expected:
            raise ContractError(f"resume: {name} matches no parameter")


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most max_norm."""
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NumericalAbort(f"clip_gradients: gradient norm is {norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for name in sorted(params):
            params[name].grad *= scale
    return norm


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    vocab: VocabSpec
    arch: ArchSpec
    params: dict[str, np.ndarray]
    opt_state: dict[str, np.ndarray]
    step: int

    def restore(self) -> Recognizer:
        tensors = {n: Tensor(a.copy(), requires_grad=True)
                   for n, a in self.params.items()}
        return Recognizer(self.vocab, self.arch, tensors)


def _seed_tensor(seed: int) -> np.ndarray:
    return np.array([float(seed & 0xFFFFFFFF), float(seed >> 32)])


def _seed_value(opt_state: dict[str, np.ndarray]) -> int:
    lo, hi = opt_state["opt/seed"]
    return int(lo) | (int(hi) << 32)


def snapshot(rec: Recognizer, opt, step: int, seed: int) -> Checkpoint:
    opt_state = opt.state_tensors() if opt is not None else {}
    opt_state["opt/seed"] = _seed_tensor(seed)
    return Checkpoint(rec.vocab, rec.arch,
                      {n: t.data.copy() for n, t in rec.params.items()},
                      opt_state, step)


def save_checkpoint(ck: Checkpoint, path: str):
    parts = [CK_MAGIC, struct.pack("<I", CK_VERSION), vocab_block(ck.vocab),
             struct.pack("<IIIII", ck.arch.d_feat, ck.arch.enc_hidden,
                         ck.arch.embed_dim, ck.arch.K, ck.arch.l_max),
             struct.pack("<Q", ck.step)]
    names = sorted(ck.params) + sorted(ck.opt_state)
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        arr = ck.params.get(name)
        if arr is None:
            arr = ck.opt_state[name]
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            r = Reader(f.read(), path)
    except OSError as e:
        raise FormatError(f"cannot read checkpoint {path}: {e}") from None
    magic = r.take(4, "magic")
    if magic != CK_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    version = r.u32("version")
    if version != CK_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    vocab = read_vocab_block(r)
    d_feat = r.u32("d_feat")
    enc_hidden = r.u32("hidden size")
    embed_dim = r.u32("embed size")
    k = r.u32("class count")
    l_max = r.u32("max length")
    if k != vocab.K:
        raise FormatError(f"{path}: arch K={k} disagrees with vocab K={vocab.K}")
    step = r.u64("step counter")
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u16(f"tensor {i} name length")
        name = r.take(name_len, f"tensor {i} name").decode("utf-8")
        rank = r.u8(f"{name} rank")
        dims = tuple(r.u32(f"{name} dim {d}") for d in range(rank))
        n_vals = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = r.take(8 * n_vals, f"{name} values")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name}")
        tensors[name] = arr
    r.expect_end()
    params = {n: a for n, a in tensors.items() if not n.startswith("opt/")}
    opt_state = {n: a for n, a in tensors.items() if n.startswith("opt/")}
    arch = ArchSpec(K=k, l_max=l_max, d_feat=d_feat, enc_hidden=enc_hidden,
                    embed_dim=embed_dim,
                    bidirectional="enc_bwd/W_z" in params)
    expected = {n: t.shape for n, t in init_params(arch, 0).items()}
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise FormatError(f"{path}: parameter set mismatch "
                          f"(missing {missing}, unexpected {extra})")
    for n, shape in expected.items():
        if params[n].shape != shape:
            raise FormatError(f"{path}: tensor {n} has shape "
                              f"{params[n].shape}, expected {shape}")
    return Checkpoint(vocab, arch, params, opt_state, step)


# ---------------------------------------------------------------------------
# metrics log

EVAL_HEADER = ("step,mode,source_loss,entropy_loss,portion,selected,pool,"
               "word_acc,char_acc,mean_entropy")
SELECTION_HEADER = "step,class,n_c,k_c,mean_chosen_entropy"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class MetricsLog:
    eval_rows: list[tuple] = field(default_factory=list)
    selection_rows: list[tuple] = field(default_factory=list)

    def log_eval(self, step: int, mode: str, source_loss: float,
                 entropy_loss: float | None, portion: float | None,
                 selected: int | None, pool: int | None,
                 result: EvalResult | None):
        if self.eval_rows and step <= self.eval_rows[-1][0]:
            raise ContractError(f"metrics log: step {step} not increasing")
        word = result.word_acc if result else None
        char = result.char_acc if result else None
        ent = result.mean_entropy if result else None
        self.eval_rows.append((step, mode, source_loss, entropy_loss,
                               portion, selected, pool, word, char, ent))

    def log_selection(self, step: int, sel: SelectionResult):
        for s in sel.stats:
            mean = None if math.isnan(s.mean_chosen) else s.mean_chosen
            self.selection_rows.append((step, s.pseudo_class, s.pool_size,
                                        s.quota, mean))

    def eval_csv(self) -> str:
        lines = [EVAL_HEADER]
        lines += [",".join(_fmt(v) for v in row) for row in self.eval_rows]
        return "\n".join(lines) + "\n"

    def selection_csv(self) -> str:
        lines = [SELECTION_HEADER]
        lines += [",".join(_fmt(v) for v in row) for row in self.selection_rows]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the loop

def _draw(seed: int, stream: int, step: int, n: int, batch: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, step])
    return rng.integers(0, n, batch)


def _target_side(rec: Recognizer, cfg: TrainConfig, seed: int, step: int,
                 target_px: np.ndarray, schedule: PacingSchedule):
    """Greedy-decode a target batch, build the pool, select.  Runs on the
    active tape when called inside one."""
    idx = _draw(seed, 2, step, len(target_px), cfg.batch_target)
    outs = rec.greedy(target_px[idx])
    pool = build_pool(outs, cfg.entropy_variant)
    sel = select(pool, schedule, step + 1)
    return pool, sel


def train_with_corpora(cfg: TrainConfig, source: Corpus | None = None,
                       target: Corpus | None = None,
                       test: Corpus | None = None,
                       start: Checkpoint | None = None,
                       resume: bool = False) -> tuple[Checkpoint, MetricsLog]:
    """Run cfg against in-memory corpora.

    start=None trains from fresh parameters; start given initializes
    parameters only (fresh optimizer, step 0); resume=True additionally
    restores optimizer state, step counter, and batch seed, continuing to
    cfg.steps total steps.
    """
    if cfg.mode == "finetune":
        if start is None:
            raise ContractError("finetune requires a starting checkpoint")
        if target is None or not target.labeled:
            raise ContractError("finetune requires a labeled target corpus")
        labeled = target
    else:
        if source is None:
            raise ContractError(f"{cfg.mode} requires a source corpus")
        if not source.labeled:
            raise ContractError("source corpus must be fully labeled")
        labeled = source
    if cfg.mode == "smile":
        if target is None:
            raise ContractError("smile requires a target corpus")
        if start is None and not resume and not cfg.allow_cold_smile:
            raise ContractError(
                "smile starts from a base checkpoint; set allow_cold_smile "
                "to train from scratch anyway")
        target = target.without_labels()

    if start is not None:
        if start.vocab != labeled.vocab:
            raise ContractError("checkpoint vocab differs from corpus vocab")
        rec = start.restore()
    else:
        l_max = labeled.images[0].pixels.shape[1] // 8
        rec = Recognizer.fresh(labeled.vocab, l_max, cfg.seed)
    if test is not None and test.vocab != labeled.vocab:
        raise ContractError("test corpus vocab differs from training vocab")
    if cfg.mode == "smile" and target.vocab != labeled.vocab:
        raise ContractError("target corpus vocab differs from source vocab")

    opt = make_optimizer(cfg)
    start_step = 0
    seed = cfg.seed
    if resume:
        if start is None:
            raise ContractError("resume requires a checkpoint")
        if "opt/seed" not in start.opt_state:
            raise ContractError("checkpoint carries no optimizer state to resume")
        _check_opt_state(opt, start.opt_state, rec.params)
        opt.load_state(start.opt_state)
        start_step = start.step
        seed = _seed_value(start.opt_state)
    if start_step >= cfg.steps:
        raise ContractError(
            f"resume step {start_step} is not below total steps {cfg.steps}")

    schedule = PacingSchedule(cfg.p_init, cfg.p_add)
    labeled_px = labeled.pixel_array()
    labeled_labels = labeled.labels()
    target_px = target.pixel_array() if (
        cfg.mode == "smile" and target is not None) else None
    log = MetricsLog()

    for step in range(start_step, cfg.steps):
        for p in rec.params.values():
            p.zero_grad()
        idx = _draw(seed, 1, step, len(labeled_px), cfg.batch_source)
        batch_px = labeled_px[idx]
        batch_labels = [labeled_labels[i] for i in idx]
        sel = None
        pool = None
        ent_val = None
        with Tape() as tape:
            outs = rec.teacher_forced(batch_px, batch_labels)
            l_dec = decoder_loss(outs, batch_labels)
            total = l_dec
            if cfg.mode == "smile" and cfg.lam > 0:
                pool, sel = _target_side(rec, cfg, seed, step, target_px,
                                         schedule)
                l_ent = selected_entropy_loss(pool, sel)
                if l_ent is not None:
                    ent_val = l_ent.item()
                    total = smile_loss(l_dec, l_ent, cfg.lam)
            dec_val = l_dec.item()
            total_val = total.item()
            if not math.isfinite(total_val):
                raise NumericalAbort(
                    f"step {step + 1}: non-finite loss {total_val} "
                    f"(decoder {dec_val}, entropy {ent_val})")
            tape.backward(total)
        if cfg.mode == "smile" and cfg.lam == 0:
            # informational only; off the tape so the update equals base mode
            pool, sel = _target_side(rec, cfg, seed, step, target_px, schedule)
        clip_gradients(rec.params, cfg.clip)
        opt.step(rec.params)
        if sel is not None:
            log.log_selection(step + 1, sel)
        if (step + 1) % cfg.eval_every == 0 or step + 1 == cfg.steps:
            result = evaluate(rec, test) if test is not None else None
            log.log_eval(step + 1, cfg.mode, dec_val, ent_val,
                         sel.portion if sel else None,
                         len(sel.chosen) if sel else None,
                         len(pool) if pool else None, result)
    return snapshot(rec, opt, cfg.steps, seed), log


def train(cfg: TrainConfig) -> tuple[Checkpoint, MetricsLog]:
    """Path-based entry: load corpora and checkpoint per cfg, then run."""
    source = load_corpus(cfg.source) if cfg.source else None
    target = load_corpus(cfg.target) if cfg.target else None
    test = load_corpus(cfg.test) if cfg.test else None
    start = load_checkpoint(cfg.checkpoint) if cfg.checkpoint else None
    return train_with_corpora(cfg, source, target, test, start)


def sweep(cells, cfg: TrainConfig, source: Corpus, target: Corpus,
          test: Corpus, start: Checkpoint | None
          ) -> list[tuple[tuple[float, float], EvalResult]]:
    """Train one smile run per (p_init, p_add) cell from a shared start and
    seed; returns each cell's final test evaluation."""
    if not cells:
        raise ContractError("sweep: empty grid")
    rows = []
    for p_init, p_add in cells:
        cell_cfg = replace(cfg, mode="smile", p_init=p_init, p_add=p_add)
        ck, _ = train_with_corpora(cell_cfg, source, target, test, start=start)
        rows.append(((p_init, p_add), evaluate(ck.restore(), test)))
    return rows
