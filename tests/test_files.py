"""File robustness: seeded byte mutations of a corpus, a checkpoint and a
config file raise only the named errors (and make the CLI exit 1, not print
a traceback), and a write that fails midway leaves the previous file as it
was."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import smile
from smile import cli
from smile.data import VocabSpec, generate_corpus, load_corpus, save_corpus
from smile.errors import ContractError, FormatError
from smile.recognizer import init_params
from smile.trainer import (Adam, Checkpoint, TrainConfig, load_checkpoint,
                           save_checkpoint, snapshot, train_with_corpora)

NAMED = (ContractError, FormatError)
MUTANTS = 300
CLI_SAMPLE = 8
HEAD = 96   # header, vocab block and first tensor records


def tiny_checkpoint(vocab: VocabSpec, l_max: int) -> Checkpoint:
    params = {n: t.data.copy() for n, t in init_params(vocab.K, 0).items()}
    return Checkpoint(vocab, l_max, params, {"opt/seed": np.zeros(2)}, 3)


@pytest.fixture(scope="module")
def files(tmp_path_factory, templates):
    """A 3-image corpus, a checkpoint that evaluates it, and a compare
    config naming the corpus."""
    root = tmp_path_factory.mktemp("fuzz")
    vocab = VocabSpec("ABCD")
    corpus = root / "c.smcp"
    save_corpus(generate_corpus(vocab, templates, 3, (1, 2), seed=4),
                str(corpus))
    ck = root / "m.smck"
    save_checkpoint(tiny_checkpoint(vocab, 2), str(ck))
    config = root / "compare.cfg"
    config.write_text(f"test = {corpus}\n")
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
        code = cli.main(["compare", "--test", paths["corpus"],
                         f"one={paths['ck']}"])
        assert code == 1
        assert "Error: " in capsys.readouterr().err


def test_mutated_config_exits_cleanly(capsys, files):
    # the config's one line names the corpus, and none of these 60 mutants
    # still names a readable one: each must exit 1 with one named error line
    def compare(config) -> tuple[int, str]:
        code = cli.main(["compare", "--config", str(config),
                         f"one={files['ck']}"])
        return code, capsys.readouterr().err

    assert compare(files["config"]) == (0, "")
    bad = files["root"] / "mut.cfg"
    named = ("smile compare: ContractError: ", "smile compare: FormatError: ")
    for blob in list(mutants(files["config"].read_bytes(), seed=12))[:60]:
        bad.write_bytes(blob)
        code, err = compare(bad)
        assert code == 1, blob
        assert len(err.splitlines()) == 1, err
        assert err.startswith(named), err


# -- the failure modes the fuzzing found, one each ------------------------------

def corrupt(path, offset: int, packed: bytes):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(packed)] = packed
    path.write_bytes(bytes(raw))


# the header's four size fields in file order, each with the only value
# the loader takes under VocabSpec("AB") (K = 5); the first sits at offset
# 20, after magic, version and the 2-symbol vocab block, and l_max follows
# them at offset 36
HEADER_SIZES = (("d_feat", 32), ("enc_hidden", 32), ("embed_dim", 16),
                ("class count", 5))


def refused_header(capsys, path, corpus, message: str):
    """path fails to load with a FormatError ending in message, and smile
    compare exits 1 printing it."""
    with pytest.raises(FormatError,
                       match=f"^{re.escape(f'{path}: {message}')}$"):
        load_checkpoint(str(path))
    code = cli.main(["compare", "--test", str(corpus), f"one={path}"])
    assert code == 1
    assert f"FormatError: {path}: {message}" in capsys.readouterr().err


def test_checkpoint_huge_arch_sizes_rejected_without_allocating(
        capsys, tmp_path, files):
    path = tmp_path / "ck.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    for field, (name, value) in enumerate(HEADER_SIZES):
        bad = tmp_path / f"bad{field}.smck"
        bad.write_bytes(path.read_bytes())
        corrupt(bad, 20 + 4 * field, struct.pack("<I", 2 ** 31 - 1))
        refused_header(capsys, bad, files["corpus"],
                       f"{name} 2147483647 at offset {20 + 4 * field}, "
                       f"expected {value}")


def test_checkpoint_huge_l_max_fails_fast(capsys, tmp_path, files):
    # greedy would run 2^31 steps
    path = tmp_path / "ck.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    corrupt(path, 36, struct.pack("<I", 2 ** 31 - 1))
    refused_header(capsys, path, files["corpus"],
                   "l_max 2147483647 at offset 36 outside [1, 255], the "
                   "corpus label range")


@pytest.mark.parametrize("name", ["d_feat", "enc_hidden", "embed_dim"])
def test_checkpoint_zero_arch_size_refused(capsys, tmp_path, files, name):
    path = tmp_path / "zero.smck"
    save_checkpoint(tiny_checkpoint(VocabSpec("AB"), 2), str(path))
    field = [n for n, _ in HEADER_SIZES].index(name)
    corrupt(path, 20 + 4 * field, struct.pack("<I", 0))
    refused_header(capsys, path, files["corpus"],
                   f"{name} 0 at offset {20 + 4 * field}, "
                   f"expected {HEADER_SIZES[field][1]}")


def test_checkpoint_save_refuses_an_l_max_the_loader_refuses(tmp_path):
    # 0 and 300 would be written and then refused on load; -1 and 2.5
    # cannot be packed at all; neither kind may leave a file behind
    path = tmp_path / "ck.smck"
    for l_max in (0, 256, 300, -1, 2.5):
        with pytest.raises(ContractError,
                           match=rf"^save_checkpoint: l_max {l_max} is not "
                                 r"an integer in \[1, 255\], the corpus"):
            save_checkpoint(tiny_checkpoint(VocabSpec("AB"), l_max), str(path))
        assert not path.exists()
    for l_max in (1, 255):
        save_checkpoint(tiny_checkpoint(VocabSpec("AB"), l_max), str(path))
        assert load_checkpoint(str(path)).l_max == l_max


def test_checkpoint_save_refuses_a_step_the_format_cannot_hold(tmp_path):
    # -1, 2**64 and 1.5 cannot be packed as the u64 step counter
    path = tmp_path / "ck.smck"
    ck = tiny_checkpoint(VocabSpec("AB"), 2)
    for step in (-1, 2 ** 64, 1.5):
        with pytest.raises(ContractError,
                           match=rf"^save_checkpoint: step {step} is not an "
                                 r"integer in \[0, 2\*\*64 - 1\]"):
            save_checkpoint(Checkpoint(ck.vocab, 2, ck.params, {}, step),
                            str(path))
        assert not path.exists()
    for step in (0, 2 ** 64 - 1, np.int64(7)):
        save_checkpoint(Checkpoint(ck.vocab, 2, ck.params, {}, step),
                        str(path))
        assert load_checkpoint(str(path)).step == step


def test_checkpoint_save_refuses_a_tensor_the_loader_refuses(tmp_path):
    # a non-finite value, a rank above 2, a duplicate name, a parameter of
    # the wrong shape, a missing one or an unexpected one (an optimizer
    # slot outside opt/ is a parameter) would be written and then refused
    # on load; none may leave a file behind
    path = tmp_path / "ck.smck"
    p = tiny_checkpoint(VocabSpec("AB"), 2).params
    nan_b = p["out/b"].copy()
    nan_b[0, 1] = np.nan
    mismatch = r"parameter set mismatch \(missing \[{}\], unexpected \[{}\]\)"
    cases = (({**p, "out/b": nan_b}, {},
              r"tensor out/b holds a non-finite value"),
             ({**p, "out/b": p["out/b"][None]}, {},
              r"tensor out/b has rank 3; the format holds ranks 0-2"),
             (p, {"opt/m": np.full(2, np.inf)},
              r"tensor opt/m holds a non-finite value"),
             (p, {"opt/m": np.zeros((1, 1, 2))},
              r"tensor opt/m has rank 3; the format holds ranks 0-2"),
             (p, {"out/b": p["out/b"]}, r"duplicate tensor out/b"),
             ({**p, "out/b": np.zeros((1, 3))}, {},
              r"tensor out/b has shape \(1, 3\), expected \(1, 5\)"),
             ({n: a for n, a in p.items() if n != "out/W"}, {},
              mismatch.format("'out/W'", "")),
             (p, {"adam/m": np.zeros(2)}, mismatch.format("", "'adam/m'")))
    for params, opt_state, message in cases:
        bad = Checkpoint(VocabSpec("AB"), 2, params, opt_state, 3)
        with pytest.raises(ContractError,
                           match=rf"^save_checkpoint: {message}$"):
            save_checkpoint(bad, str(path))
        assert not path.exists()


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
    # a fused GRU tensor is named by its stored gate.  save_checkpoint
    # refuses a non-finite value, so a marked finite one is overwritten
    # in the file
    path = tmp_path / "ck.smck"
    mark = struct.pack("<d", 12345.678)
    for name, value, stored in (("out/b", np.nan, "out/b"),
                                ("dec/U", -np.inf, "dec/U_n")):
        ck = tiny_checkpoint(VocabSpec("AB"), 2)
        ck.params[name][0, -1] = 12345.678
        save_checkpoint(ck, str(path))
        blob = path.read_bytes()
        assert blob.count(mark) == 1
        path.write_bytes(blob.replace(mark, struct.pack("<d", value)))
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
    assert cli.main(["compare", "--test", str(files["corpus"]),
                     f"one={path}"]) == 0
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
from smile.recognizer import init_params
from smile.trainer import Checkpoint, save_checkpoint

vocab = VocabSpec("ABC")
params = {n: t.data for n, t in init_params(vocab.K, 1).items()}
ck = Checkpoint(vocab, 3, params, {}, 0)
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
