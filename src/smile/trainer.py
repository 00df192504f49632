"""Training regimes, optimizers, checkpoint format, and the sweep.

Two modes share one loop: "base" minimizes the decoder loss on labeled
source batches; "smile" adds the paced mean entropy of confident target
predictions on top of that.  Supervised finetuning is a base run whose
source is a labeled target corpus, started from a loaded checkpoint.

step_losses builds every step's losses, and gate A1 checks it.  In smile
mode it greedy-decodes the target batch off the tape, pools and selects;
then one taped teacher-forced decode runs the labeled batch and, after it,
each target sample with a chosen row fed its whole pseudo-label sequence
(self_paced.replay_plan); the entropy term reads only the chosen rows, so a
smile run's source and target images share one width.  With lam = 0 nothing
is replayed, so the update equals base mode's and the selection is only
logged.  Every step scales its gradients to a joint 2-norm of at most
CLIP_NORM before the optimizer runs.

Batch composition is stateless: the indices for step s come from fresh
generators keyed [seed, stream, s], so a resumed run draws exactly the
batches the uninterrupted run would have drawn.  A corpus holds 8-bit codes;
each drawn batch is the only float64 copy of its images (Corpus.images).

A checkpoint is a model (vocab, l_max, weights), optimizer state and a step;
its header's layer sizes and K must be the model's, or loading refuses it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .binio import Reader, read_file, write_atomic
from .data import (GLYPH_W, MAX_LABEL, Corpus, VocabSpec, check_seed,
                   read_vocab_block, vocab_block)
from .errors import ContractError, FormatError, NumericalAbort
from .losses import VARIANTS, decoder_loss, smile_loss
from .metrics import EvalResult, evaluate
from .recognizer import (D_FEAT, EMBED_DIM, ENC_HIDDEN, Recognizer,
                         check_corpus, fuse_gates, param_shapes, split_gates)
from .self_paced import (PredictionPool, SelectionResult, build_pool,
                         portion_at, replay_plan, select,
                         selected_entropy_loss)
from .tensor import Tape, Tensor

MODES = ("base", "smile")
OPTIMIZERS = ("adam", "adadelta")

CLIP_NORM = 5.0   # every step's gradients are scaled to at most this 2-norm

CK_MAGIC = b"SMCK"
CK_VERSION = 1

# built-in sensitivity grid; the last cell disables self-paced selection
SWEEP_GRID = tuple({"p_init": p_init, "p_add": p_add} for p_init, p_add in (
    (0.0, 1e-4), (0.3, 1e-4), (0.5, 1e-4),
    (0.0, 5e-5), (0.3, 5e-5), (0.5, 5e-5), (1.0, 0.0)))


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
    eval_every: int = 200
    source: str | None = None
    target: str | None = None
    test: str | None = None
    checkpoint: str | None = None
    out: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"mode {self.mode!r} not in {MODES}")
        if not 0 <= self.lam < math.inf:
            raise ContractError(f"lambda {self.lam} not in [0, inf)")
        if self.entropy_variant not in VARIANTS:
            raise ContractError(
                f"entropy variant {self.entropy_variant!r} not in {VARIANTS}")
        if not 0.0 <= self.p_init <= 1.0:
            raise ContractError(f"pacing: p_init {self.p_init} not in [0,1]")
        if not 0.0 <= self.p_add < math.inf:
            raise ContractError(f"pacing: p_add {self.p_add} not in [0, inf)")
        if self.steps < 1:
            raise ContractError(f"steps {self.steps} < 1")
        if self.batch_source < 1 or self.batch_target < 1:
            raise ContractError("batch sizes must be >= 1")
        check_seed(self.seed, "seed")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"optimizer {self.optimizer!r} not in {OPTIMIZERS}")
        if self.lr is not None and not 0 < self.lr < math.inf:
            raise ContractError(f"lr {self.lr} not in (0, inf)")
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


def _check_opt_state(opt, ck: Checkpoint):
    """Resume needs each of opt's state tensors as stored (per gate), shaped
    like its parameter, no state for a parameter the model lacks, and each
    scalar (a count of updates) a whole number in [0, ck.step]."""
    prefix = f"opt/{opt.name}/"
    expected = {f"{prefix}{k}": () for k in opt.scalars}
    expected.update({f"{prefix}{slot}/{n}": shape for slot in opt.slots
                     for n, shape in param_shapes(ck.vocab.K).items()})
    for name, shape in expected.items():
        if name not in ck.opt_state:
            raise ContractError(f"resume: checkpoint lacks {name}")
        value = ck.opt_state[name]
        if value.shape != shape:
            raise ContractError(
                f"resume: {name} has shape {value.shape}, expected {shape}")
        if shape == () and not (0 <= value <= ck.step and value % 1 == 0):
            raise ContractError(f"resume: {name} {float(value)} is not a "
                                f"whole number in [0, {ck.step}]")
    for name in ck.opt_state:
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
    l_max: int
    params: dict[str, np.ndarray]
    opt_state: dict[str, np.ndarray]
    step: int

    def restore(self) -> Recognizer:
        tensors = {n: Tensor(a.copy(), requires_grad=True)
                   for n, a in self.params.items()}
        return Recognizer(self.vocab, self.l_max, tensors)


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
    return Checkpoint(rec.vocab, rec.l_max,
                      {n: t.data.copy() for n, t in rec.params.items()},
                      opt_state, step)


def _parameter_fault(tensors: dict[str, np.ndarray], K: int) -> str | None:
    """Why the stored tensors outside opt/ are not the per-gate parameter
    set param_shapes(K) with its shapes, or None if they are."""
    params = {n: a for n, a in tensors.items() if not n.startswith("opt/")}
    expected = param_shapes(K)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        return (f"parameter set mismatch (missing {missing}, unexpected "
                f"{extra})")
    for n, shape in expected.items():
        if params[n].shape != shape:
            return f"tensor {n} has shape {params[n].shape}, expected {shape}"
    return None


def save_checkpoint(ck: Checkpoint, path: str):
    """Write ck to path atomically; a ContractError, and no file, for a
    checkpoint that load_checkpoint would refuse."""
    if not (isinstance(ck.l_max, (int, np.integer))
            and 1 <= ck.l_max <= MAX_LABEL):
        raise ContractError(
            f"save_checkpoint: l_max {ck.l_max!r} is not an integer in "
            f"[1, {MAX_LABEL}], the corpus label range")
    if not (isinstance(ck.step, (int, np.integer)) and 0 <= ck.step < 2**64):
        raise ContractError(f"save_checkpoint: step {ck.step!r} is not an "
                            f"integer in [0, 2**64 - 1], the u64 step counter")
    stored = split_gates(ck.params)
    tensors = sorted(stored.items()) + sorted(ck.opt_state.items())
    for name, arr in tensors:   # what load_checkpoint would refuse
        if arr.ndim > 2:
            raise ContractError(f"save_checkpoint: tensor {name} has rank "
                                f"{arr.ndim}; the format holds ranks 0-2")
        if not np.isfinite(arr).all():
            raise ContractError(f"save_checkpoint: tensor {name} holds a "
                                f"non-finite value")
        if name in stored and name in ck.opt_state:
            raise ContractError(f"save_checkpoint: duplicate tensor {name}")
    fault = _parameter_fault(dict(tensors), ck.vocab.K)
    if fault:
        raise ContractError(f"save_checkpoint: {fault}")
    parts = [CK_MAGIC, struct.pack("<I", CK_VERSION), vocab_block(ck.vocab),
             struct.pack("<IIIII", D_FEAT, ENC_HIDDEN, EMBED_DIM, ck.vocab.K,
                         ck.l_max),
             struct.pack("<Q", ck.step), struct.pack("<I", len(tensors))]
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
    for what, expected in (("d_feat", D_FEAT), ("enc_hidden", ENC_HIDDEN),
                           ("embed_dim", EMBED_DIM), ("class count", vocab.K)):
        got = r.u32(what)
        if got != expected:
            raise FormatError(f"{path}: {what} {got} at offset {r.off - 4}, "
                              f"expected {expected}")
    l_max = r.u32("l_max")
    if not 1 <= l_max <= MAX_LABEL:
        raise FormatError(f"{path}: l_max {l_max} at offset {r.off - 4} "
                          f"outside [1, {MAX_LABEL}], the corpus label range")
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
    fault = _parameter_fault(tensors, vocab.K)
    if fault:
        raise FormatError(f"{path}: {fault}")
    params = {n: a for n, a in tensors.items() if not n.startswith("opt/")}
    opt_state = {n: a for n, a in tensors.items() if n.startswith("opt/")}
    return Checkpoint(vocab, l_max, fuse_gates(params), opt_state, step)


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
    pool = sel = replay = None
    rows = np.zeros(0, dtype=int)
    if target_px is not None:
        pool = build_pool(rec.greedy(target_px), cfg.entropy_variant)
        sel = select(pool, portion_at(cfg.p_init, cfg.p_add, step + 1))
        if cfg.lam > 0 and len(sel.chosen):
            samples, sequences, rows = replay_plan(pool, sel)
            replay = (target_px[samples], sequences)
    decoded = rec.teacher_forced(batch_px, batch_labels, replay)
    source = decoded.head(len(batch_labels))
    l_dec = decoder_loss(source)
    # the replayed samples' rows follow the labeled batch's tokens
    l_ent = selected_entropy_loss(
        decoded.probs, sum(map(len, source.labels)) + rows,
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
    if source is None:
        raise ContractError(f"{cfg.mode} requires a source corpus")
    if cfg.mode == "smile":
        if target is None:
            raise ContractError("smile requires a target corpus")
        if start is None:
            raise ContractError("smile requires a starting checkpoint")
        target = target.without_labels()
    else:
        target = None   # base mode draws no target batches

    # every corpus is checked against the model's vocab and l_max (the
    # start's, or the source's for a fresh model) before the model is built
    vocab, l_max = ((start.vocab, start.l_max) if start is not None
                    else (source.vocab, source.codes.shape[2] // GLYPH_W))
    for name, corpus, labeled in (("source", source, True),
                                  ("target", target, False),
                                  ("test", test, True)):
        if corpus is not None:
            check_corpus(corpus, vocab, l_max, f"{name} corpus", labeled)
    if target is not None and target.codes.shape[2] != source.codes.shape[2]:
        raise ContractError(
            f"target corpus: images are {target.codes.shape[2]} px wide, the "
            f"source's {source.codes.shape[2]} px; a smile run reads one width")
    rec = (start.restore() if start is not None
           else Recognizer.fresh(vocab, l_max, cfg.seed))

    opt = make_optimizer(cfg)
    start_step = 0
    seed = cfg.seed
    if resume:
        if start is None:
            raise ContractError("resume requires a checkpoint")
        if "opt/seed" not in start.opt_state:
            raise ContractError("checkpoint carries no optimizer state to resume")
        _check_opt_state(opt, start)
        seed = _seed_value(start.opt_state)
        opt.load_state(start.opt_state)
        start_step = start.step
    if start_step >= cfg.steps:
        raise ContractError(
            f"resume step {start_step} is not below total steps {cfg.steps}")

    log = MetricsLog()

    for step in range(start_step, cfg.steps):
        for p in rec.params.values():
            p.zero_grad()
        idx = _draw(seed, 1, step, len(source), cfg.batch_source)
        batch_labels = [source.labels[i] for i in idx]
        target_batch = None
        if target is not None:
            target_batch = target.images(
                _draw(seed, 2, step, len(target), cfg.batch_target))
        with Tape() as tape:
            l_dec, l_ent, pool, sel = step_losses(
                rec, cfg, step, source.images(idx), batch_labels,
                target_batch)
            # the terms are checked before smile_loss, which refuses a
            # non-finite one as a contract breach
            dec_val = l_dec.item()
            ent_val = None if l_ent is None else l_ent.item()
            total_val = (dec_val if l_ent is None
                         else dec_val + cfg.lam * ent_val)
            if not math.isfinite(total_val):
                raise NumericalAbort(
                    f"step {step + 1}: non-finite loss {total_val} "
                    f"(decoder {dec_val}, entropy {ent_val})")
            tape.backward(l_dec if l_ent is None
                          else smile_loss(l_dec, l_ent, cfg.lam))
        clip_gradients(rec.params, CLIP_NORM)
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


def cell_name(cell: dict) -> str:
    """A sweep cell's dest=value pairs joined with ';', the name of its row,
    e.g. p_init=0.0;p_add=5e-05."""
    return ";".join(f"{key}={value}" for key, value in cell.items())


def sweep_configs(cells, cfg: TrainConfig) -> list[TrainConfig]:
    """Each cell's smile run: cfg with the cell's train settings overridden.
    A cell sets train settings, never the run's mode, files or start; every
    cell is checked here, so a bad one fails before any trains."""
    if not cells:
        raise ContractError("sweep: empty grid")
    settings = {f.name for f in fields(TrainConfig)} - {
        "mode", "source", "target", "test", "checkpoint", "out"}
    configs = []
    for cell in cells:
        refused = [key for key in cell if key not in settings]
        if refused:
            raise ContractError(f"sweep: cell {cell_name(cell)!r} may not set "
                                f"{', '.join(refused)}")
        try:
            configs.append(replace(cfg, mode="smile", **cell))
        except ContractError as e:
            raise ContractError(
                f"sweep: cell {cell_name(cell)!r}: {e}") from None
    return configs


def sweep(cells, cfg: TrainConfig, source: Corpus, target: Corpus,
          test: Corpus, start: Checkpoint | None
          ) -> list[tuple[str, EvalResult]]:
    """Train one smile run per cell, a dict of train-setting overrides, from
    the shared start; returns each cell's name and its one evaluation on
    the test corpus, which is checked before the first cell trains."""
    configs = sweep_configs(cells, cfg)
    if start is not None:   # without one, the first cell's run refuses
        check_corpus(test, start.vocab, start.l_max, "test corpus")
    rows = []
    for cell, cell_cfg in zip(cells, configs):
        ck, _ = train_with_corpora(cell_cfg, source, target, start=start)
        rows.append((cell_name(cell), evaluate(ck.restore(), test)))
    return rows
