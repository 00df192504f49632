"""Training regimes, optimizers, checkpoint format, and the pacing sweep.

Three modes share one loop: "base" minimizes the decoder loss on labeled
source batches; "smile" adds the paced mean entropy of confident target
predictions on top of that; "finetune" is the decoder loss on a labeled
target corpus starting from a loaded checkpoint.

step_losses builds every step's losses, and gate A1 checks it.  In smile
mode it greedy-decodes the target batch off the tape, pools and selects;
then one taped teacher-forced decode runs the labeled batch and, after it,
each target sample with a chosen row fed its whole pseudo-label sequence
(self_paced.replay_plan); the entropy term reads only the chosen rows.
With lam = 0 nothing is replayed, so the update equals base mode's and the
selection is only logged.

Batch composition is stateless: the indices for step s come from fresh
generators keyed [seed, stream, s], so a resumed run draws exactly the
batches the uninterrupted run would have drawn.  A corpus holds 8-bit codes;
each drawn batch is the only float64 copy of its images (Corpus.images).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .binio import Reader, read_file, write_atomic
from .data import (Corpus, VocabSpec, check_seed, load_corpus,
                   read_vocab_block, vocab_block)
from .errors import ContractError, FormatError, NumericalAbort
from .losses import VARIANTS, decoder_loss, smile_loss
from .metrics import EvalResult, evaluate
from .recognizer import (STRIP_W, ArchSpec, Recognizer, check_width,
                         fuse_gates, param_shapes, split_gates)
from .self_paced import (PacingSchedule, PredictionPool, SelectionResult,
                         build_pool, replay_plan, select,
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
        if not 0 <= self.lam < math.inf:
            raise ContractError(f"lambda {self.lam} not in [0, inf)")
        if self.entropy_variant not in VARIANTS:
            raise ContractError(
                f"entropy variant {self.entropy_variant!r} not in {VARIANTS}")
        PacingSchedule(self.p_init, self.p_add)
        if self.steps < 1:
            raise ContractError(f"steps {self.steps} < 1")
        if self.batch_source < 1 or self.batch_target < 1:
            raise ContractError("batch sizes must be >= 1")
        check_seed(self.seed, "seed")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"optimizer {self.optimizer!r} not in {OPTIMIZERS}")
        if self.lr is not None and not 0 < self.lr < math.inf:
            raise ContractError(f"lr {self.lr} not in (0, inf)")
        if not 0 < self.clip < math.inf:
            raise ContractError(f"clip {self.clip} not in (0, inf)")
        if self.eval_every < 1:
            raise ContractError(f"eval_every {self.eval_every} < 1")


# ---------------------------------------------------------------------------
# optimizers

class _Optimizer:
    """Checkpoint state of an optimizer that keeps one dict of arrays per
    slot, keyed by parameter name, plus integer scalars; stored as
    opt/<name>/<slot>/<param> and opt/<name>/<scalar>, GRU slots per gate."""

    def state_tensors(self) -> dict[str, np.ndarray]:
        prefix = f"opt/{self.name}/"
        out = split_gates({f"{prefix}{slot}/{n}": a for slot in self.slots
                           for n, a in getattr(self, slot).items()})
        out.update({f"{prefix}{k}": np.array(float(getattr(self, k)))
                    for k in self.scalars})
        return out

    def load_state(self, tensors: dict[str, np.ndarray]):
        prefix = f"opt/{self.name}/"
        for k in self.scalars:
            setattr(self, k, int(tensors[prefix + k]))
        for slot in self.slots:
            head = f"{prefix}{slot}/"
            getattr(self, slot).update(fuse_gates(
                {name[len(head):]: arr.copy() for name, arr in tensors.items()
                 if name.startswith(head)}))


class Adam(_Optimizer):
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
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class Adadelta(_Optimizer):
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
            if name not in self.eg2:
                self.eg2[name] = np.zeros_like(p.data)
                self.edx2[name] = np.zeros_like(p.data)
            eg2, edx2 = self.eg2[name], self.edx2[name]
            eg2 *= self.rho
            eg2 += (1.0 - self.rho) * g * g
            dx = -np.sqrt((edx2 + self.eps) / (eg2 + self.eps)) * g
            edx2 *= self.rho
            edx2 += (1.0 - self.rho) * dx * dx
            p.data += self.lr * dx


def make_optimizer(cfg: TrainConfig):
    return Adam(cfg.lr) if cfg.optimizer == "adam" else Adadelta(cfg.lr)


def _check_opt_state(opt, opt_state: dict[str, np.ndarray], arch: ArchSpec):
    """Resume needs each of opt's state tensors as stored (per gate), shaped
    like its parameter, and no state for a parameter the model lacks."""
    prefix = f"opt/{opt.name}/"
    expected = {f"{prefix}{k}": () for k in opt.scalars}
    expected.update({f"{prefix}{slot}/{n}": shape for slot in opt.slots
                     for n, shape in param_shapes(arch).items()})
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
    """params hold GRU gates fused; opt_state stays per gate, as stored."""

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
    """The run seed a checkpoint carries as two u32 halves (low, high)."""
    halves = opt_state["opt/seed"]
    if halves.shape != (2,):
        raise ContractError(
            f"resume: opt/seed has shape {halves.shape}, expected (2,)")
    if not np.all((halves >= 0) & (halves < 2.0 ** 32)
                  & (halves == np.floor(halves))):
        raise ContractError(f"resume: opt/seed {halves.tolist()} is not two "
                            f"integers in [0, 2^32)")
    lo, hi = halves
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
    tensors = (sorted(split_gates(ck.params).items())
               + sorted(ck.opt_state.items()))
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_atomic(path, b"".join(parts))


def load_checkpoint(path: str) -> Checkpoint:
    r = Reader(read_file(path, "checkpoint"), path)
    r.header(CK_MAGIC, CK_VERSION)
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
        try:
            name = r.take(name_len, f"tensor {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor {i} name is not UTF-8 "
                              f"(ends at offset {r.off})") from None
        rank = r.u8(f"{name} rank")
        if rank > 2:
            raise FormatError(f"{path}: tensor {name} has rank {rank} at "
                              f"offset {r.off - 1}; the format holds ranks 0-2")
        dims = tuple(r.u32(f"{name} dim {d}") for d in range(rank))
        raw = r.take(8 * math.prod(dims), f"{name} values")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name} holds a non-finite "
                              f"value (values end at offset {r.off})")
        tensors[name] = arr
    r.expect_end()
    params = {n: a for n, a in tensors.items() if not n.startswith("opt/")}
    opt_state = {n: a for n, a in tensors.items() if n.startswith("opt/")}
    arch = ArchSpec(K=k, l_max=l_max, d_feat=d_feat, enc_hidden=enc_hidden,
                    embed_dim=embed_dim)
    expected = param_shapes(arch)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise FormatError(f"{path}: parameter set mismatch "
                          f"(missing {missing}, unexpected {extra})")
    for n, shape in expected.items():
        if params[n].shape != shape:
            raise FormatError(f"{path}: tensor {n} has shape "
                              f"{params[n].shape}, expected {shape}")
    return Checkpoint(vocab, arch, fuse_gates(params), opt_state, step)


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


def step_losses(rec: Recognizer, cfg: TrainConfig, step: int,
                batch_px: np.ndarray, batch_labels: list[tuple[int, ...]],
                target_px: np.ndarray | None = None
                ) -> tuple[Tensor, Tensor | None, PredictionPool | None,
                           SelectionResult | None]:
    """(l_dec, l_ent, pool, sel) of 0-based step `step`: the decoder loss
    of the labeled batch and, given a target batch, its pool, its selection
    at t = step + 1 and the mean entropy of the chosen rows, whose samples
    are teacher-forced whole, with their greedy sequences, after the labeled
    batch in one decode.  l_ent is None when lam is 0 or nothing was chosen;
    it, pool and sel are None with no target batch."""
    pool = sel = None
    replay, rows = [], np.zeros(0, dtype=int)
    if target_px is not None:
        pool = build_pool(rec.greedy(target_px), cfg.entropy_variant)
        sel = select(pool, PacingSchedule(cfg.p_init, cfg.p_add), step + 1)
        if cfg.lam > 0 and len(sel.chosen):
            samples, sequences, rows = replay_plan(pool, sel)
            replay = [(target_px[samples], sequences)]
    decoded = rec.teacher_forced(batch_px, batch_labels, replay)
    source = decoded.head(len(batch_labels))
    l_dec = decoder_loss(source)
    # the replayed samples' emitted rows follow the labeled batch's
    l_ent = selected_entropy_loss(
        decoded.probs, decoded.rows[len(source.rows) + rows],
        cfg.entropy_variant)
    return l_dec, l_ent, pool, sel


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
        l_max = labeled.codes.shape[2] // STRIP_W
        rec = Recognizer.fresh(labeled.vocab, l_max, cfg.seed)
    if test is not None and test.vocab != labeled.vocab:
        raise ContractError("test corpus vocab differs from training vocab")
    for name, corpus in (("target", None if cfg.mode == "base" else target),
                         ("test", test)):
        if corpus is not None:
            check_width(rec.arch, corpus, f"{name} corpus")
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
        _check_opt_state(opt, start.opt_state, rec.arch)
        seed = _seed_value(start.opt_state)
        opt.load_state(start.opt_state)
        start_step = start.step
    if start_step >= cfg.steps:
        raise ContractError(
            f"resume step {start_step} is not below total steps {cfg.steps}")

    unlabeled = target if cfg.mode == "smile" else None
    log = MetricsLog()

    for step in range(start_step, cfg.steps):
        for p in rec.params.values():
            p.zero_grad()
        idx = _draw(seed, 1, step, len(labeled), cfg.batch_source)
        batch_labels = [labeled.labels[i] for i in idx]
        target_batch = None
        if unlabeled is not None:
            target_batch = unlabeled.images(
                _draw(seed, 2, step, len(unlabeled), cfg.batch_target))
        ent_val = None
        with Tape() as tape:
            l_dec, l_ent, pool, sel = step_losses(
                rec, cfg, step, labeled.images(idx), batch_labels,
                target_batch)
            total = l_dec
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
    # every cell's settings are checked before the first one trains
    cell_cfgs = [replace(cfg, mode="smile", p_init=p_init, p_add=p_add)
                 for p_init, p_add in cells]
    rows = []
    for (p_init, p_add), cell_cfg in zip(cells, cell_cfgs):
        ck, _ = train_with_corpora(cell_cfg, source, target, test, start=start)
        rows.append(((p_init, p_add), evaluate(ck.restore(), test)))
    return rows
