"""File robustness: seeded byte mutations of a corpus, a checkpoint and a
config file raise only the named errors (and make the CLI exit 1, not print
a traceback), and a write that fails midway leaves the previous file as it
was."""

import os
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import smile
from smile import cli
from smile.data import VocabSpec, generate_corpus, load_corpus, save_corpus
from smile.errors import ContractError, FormatError
from smile.recognizer import ArchSpec, init_params, param_shapes
from smile.trainer import (Adam, Checkpoint, TrainConfig, load_checkpoint,
                           save_checkpoint, snapshot, train_with_corpora)

NAMED = (ContractError, FormatError)
MUTANTS = 300
CLI_SAMPLE = 8
HEAD = 96   # header, vocab block and first tensor records


def tiny_checkpoint(vocab: VocabSpec, l_max: int) -> Checkpoint:
    arch = ArchSpec(K=vocab.K, l_max=l_max, d_feat=2, enc_hidden=2,
                    embed_dim=2)
    params = {n: t.data.copy() for n, t in init_params(arch, 0).items()}
    return Checkpoint(vocab, arch, params, {"opt/seed": np.zeros(2)}, 3)


@pytest.fixture(scope="module")
def files(tmp_path_factory, templates):
    """A 3-image corpus, a checkpoint that evaluates it, and an eval
    config naming both."""
    root = tmp_path_factory.mktemp("fuzz")
    vocab = VocabSpec("ABCD")
    corpus = root / "c.smcp"
    save_corpus(generate_corpus(vocab, templates, 3, (1, 2), seed=4),
                str(corpus))
    ck = root / "m.smck"
    save_checkpoint(tiny_checkpoint(vocab, 2), str(ck))
    config = root / "eval.cfg"
    config.write_text(f"checkpoint = {ck}\ntest = {corpus}\n")
    return {"root": root, "corpus": corpus, "ck": ck, "config": config}


def mutants(blob: bytes, seed: int):
    """Byte flips (half of them in the first HEAD bytes) and truncations."""
    rng = np.random.default_rng(seed)
    for i in range(MUTANTS):
        raw = bytearray(blob)
        if i % 4 == 3:
            yield bytes(raw[:int(rng.integers(0, len(raw)))])
            continue
        for _ in range(int(rng.integers(1, 4))):
            span = HEAD if rng.random() < 0.5 else len(raw)
            pos = int(rng.integers(0, min(span, len(raw))))
            raw[pos] ^= int(rng.integers(1, 256))
        yield bytes(raw)


def rejected_mutants(path, load, seed):
    """Load every mutant of path; return the ones refused with a named
    error.  Any other exception fails the test."""
    original = path.read_bytes()
    bad = path.with_suffix(".mut" + path.suffix)
    rejected = []
    for blob in mutants(original, seed):
        bad.write_bytes(blob)
        try:
            load(str(bad))
        except NAMED:
            rejected.append(blob)
    return rejected


@pytest.mark.parametrize("kind", ["corpus", "ck"])
def test_mutated_files_raise_only_named_errors(capsys, files, kind):
    load = load_corpus if kind == "corpus" else load_checkpoint
    rejected = rejected_mutants(files[kind], load, seed=11)
    assert len(rejected) > MUTANTS // 4
    bad = files["root"] / f"cli-{kind}"
    for blob in rejected[:CLI_SAMPLE]:
        bad.write_bytes(blob)
        paths = {"ck": str(files["ck"]), "corpus": str(files["corpus"]),
                 kind: str(bad)}
        code = cli.main(["eval", "--checkpoint", paths["ck"],
                         "--test", paths["corpus"]])
        assert code == 1
        assert "Error: " in capsys.readouterr().err


def test_mutated_config_exits_cleanly(capsys, files):
    # a surviving config still names a valid checkpoint and corpus, so the
    # eval it runs succeeds
    original = files["config"].read_bytes()
    bad = files["root"] / "mut.cfg"
    codes = []
    for blob in list(mutants(original, seed=12))[:60]:
        bad.write_bytes(blob)
        codes.append(cli.main(["eval", "--config", str(bad)]))
    capsys.readouterr()
    assert set(codes) <= {0, 1}
    assert codes.count(1) > 10


# -- the failure modes the fuzzing found, one each ------------------------------

def corrupt(path, offset: int, packed: bytes):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(packed)] = packed
    path.write_bytes(bytes(raw))


def test_checkpoint_huge_arch_sizes_rejected_without_allocating(tmp_path):
    # d_feat sits after magic, version and a 2-symbol vocab block
    path = tmp_path / "ck.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    for field in range(3):   # d_feat, hidden size, embed size
        bad = tmp_path / f"bad{field}.smck"
        bad.write_bytes(path.read_bytes())
        corrupt(bad, 20 + 4 * field, struct.pack("<I", 2 ** 31 - 1))
        with pytest.raises(FormatError, match="shape|mismatch"):
            load_checkpoint(str(bad))


def test_checkpoint_huge_l_max_fails_fast(capsys, tmp_path, files):
    # l_max follows d_feat, hidden, embed and K; greedy would run 2^31 steps
    path = tmp_path / "ck.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    corrupt(path, 36, struct.pack("<I", 2 ** 31 - 1))
    with pytest.raises(ContractError, match="l_max 2147483647 outside"):
        load_checkpoint(str(path))
    code = cli.main(["eval", "--checkpoint", str(path),
                     "--test", str(files["corpus"])])
    assert code == 1
    assert "ContractError: arch: l_max" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["d_feat", "enc_hidden", "embed_dim"])
def test_checkpoint_zero_arch_size_refused(capsys, tmp_path, files, name):
    # ArchSpec refuses a zero size, so write the file from a stand-in arch
    # whose zero-size tensors match their declared shapes
    sizes = {"d_feat": 2, "enc_hidden": 2, "embed_dim": 2, name: 0}
    vocab = VocabSpec("ABCD")
    arch = SimpleNamespace(K=vocab.K, l_max=2,
                           dec_hidden=2 * sizes["enc_hidden"],
                           attn_dim=sizes["d_feat"], **sizes)
    params = {n: np.full(shape, 0.1)
              for n, shape in param_shapes(arch).items()}
    path = tmp_path / "zero.smck"
    save_checkpoint(Checkpoint(vocab, arch, params, {"opt/seed": np.zeros(2)},
                               3), str(path))
    with pytest.raises(ContractError, match=f"{name} 0 is below 1"):
        load_checkpoint(str(path))
    code = cli.main(["eval", "--checkpoint", str(path),
                     "--test", str(files["corpus"])])
    assert code == 1
    assert f"ContractError: arch: {name} 0" in capsys.readouterr().err


def test_checkpoint_bad_name_and_rank_rejected(tmp_path):
    path = tmp_path / "ck.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    first = 20 + 20 + 8 + 4   # arch sizes, step, tensor count
    name_len = struct.unpack_from("<H", path.read_bytes(), first)[0]
    corrupt(path, first + 2, b"\xff")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_checkpoint(str(path))
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    corrupt(path, first + 2 + name_len, bytes([65]))
    with pytest.raises(FormatError, match="rank 65"):
        load_checkpoint(str(path))


def test_checkpoint_non_finite_tensor_rejected(tmp_path):
    # a NaN parameter would evaluate to nan entropy and decode garbage;
    # a fused GRU tensor is named by its stored gate
    path = tmp_path / "ck.smck"
    for name, value, stored in (("out/b", np.nan, "out/b"),
                                ("dec/U", -np.inf, "dec/U_n")):
        ck = tiny_checkpoint(VocabSpec("AB"), 2)
        ck.params[name][0, -1] = value
        save_checkpoint(ck, str(path))
        with pytest.raises(FormatError,
                           match=f"tensor {stored} holds a non-finite"):
            load_checkpoint(str(path))


def test_malformed_gate_slot_loads_and_resume_names_it(capsys, tmp_path,
                                                       files):
    # optimizer slots stay per gate until resume has checked them, so a
    # gate slot that cannot be fused still evaluates and is refused by name
    rec = load_checkpoint(str(files["ck"])).restore()
    for p in rec.params.values():
        p.grad[...] = 1.0
    opt = Adam()
    opt.step(rec.params)
    ck = snapshot(rec, opt, 3, seed=0)
    ck.opt_state["opt/adam/m/enc/W_r"] = np.zeros(5)
    path = tmp_path / "bad-slot.smck"
    save_checkpoint(ck, str(path))
    assert cli.main(["eval", "--checkpoint", str(path),
                     "--test", str(files["corpus"])]) == 0
    capsys.readouterr()
    with pytest.raises(ContractError, match=r"opt/adam/m/enc/W_r has shape"):
        train_with_corpora(TrainConfig(steps=5),
                           source=load_corpus(str(files["corpus"])),
                           start=load_checkpoint(str(path)), resume=True)


def test_vocab_code_point_overflow_rejected(tmp_path, files):
    ck = tmp_path / "ck.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(ck))
    corrupt(ck, 12, struct.pack("<I", 2 ** 31))
    corpus = tmp_path / "c.smcp"
    corpus.write_bytes(files["corpus"].read_bytes())
    corrupt(corpus, 24, struct.pack("<I", 2 ** 32 - 1))
    for path, load in ((ck, load_checkpoint), (corpus, load_corpus)):
        with pytest.raises(FormatError, match="invalid code point"):
            load(str(path))


def test_non_utf8_config_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\n\xff\xfe\n")
    assert cli.main(["gradcheck", "--config", str(path)]) == 1
    assert "ContractError: config: cannot read" in capsys.readouterr().err


# -- atomic writes --------------------------------------------------------------

FAILING_WRITES = """
import resource, sys
import numpy as np
from smile.binio import write_atomic
from smile.data import VocabSpec, generate_corpus, make_templates, save_corpus
from smile.recognizer import ArchSpec, init_params
from smile.trainer import Checkpoint, save_checkpoint

vocab = VocabSpec("ABC")
arch = ArchSpec(K=vocab.K, l_max=3)
params = {n: t.data for n, t in init_params(arch, 1).items()}
ck = Checkpoint(vocab, arch, params, {}, 0)
corpus = generate_corpus(vocab, make_templates(vocab, 1), 40, (1, 3), seed=1)
# every file this process writes stops growing at 4 KiB: EFBIG midway
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
for name, write in (("ck.smck", lambda p: save_checkpoint(ck, p)),
                    ("c.smcp", lambda p: save_corpus(corpus, p)),
                    ("metrics.csv", lambda p: write_atomic(p, "x" * 9000))):
    try:
        write(sys.argv[1] + "/" + name)
        print(name, "written")
    except OSError:
        print(name, "failed")
"""


def test_failed_write_keeps_previous_file(tmp_path):
    names = ("ck.smck", "c.smcp", "metrics.csv")
    for name in names:
        (tmp_path / name).write_bytes(f"previous {name}\n".encode())
    src = os.path.dirname(os.path.dirname(smile.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", FAILING_WRITES,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [w for n in names for w in (n, "failed")]
    for name in names:
        assert (tmp_path / name).read_bytes() == f"previous {name}\n".encode()
    assert sorted(os.listdir(tmp_path)) == sorted(names)
