"""Little-endian binary reading with offset-carrying error messages, and
the atomic file write every output file goes through."""

from __future__ import annotations

import contextlib
import os
import struct

from .errors import FormatError


class Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise FormatError(
                f"{self.path}: truncated reading {what} at offset {self.off} "
                f"(need {n} bytes, have {len(self.blob) - self.off})")
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def header(self, magic: bytes, version: int):
        """Read and check the 4-byte magic and the u32 format version."""
        got = self.take(4, "magic")
        if got != magic:
            raise FormatError(f"{self.path}: bad magic {got!r} at offset 0")
        got = self.u32("version")
        if got != version:
            raise FormatError(
                f"{self.path}: unsupported version {got} at offset 4")

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def expect_end(self):
        if self.off != len(self.blob):
            raise FormatError(f"{self.path}: {len(self.blob) - self.off} "
                              f"trailing bytes at offset {self.off}")


def read_file(path: str, what: str) -> bytes:
    """The whole file; an unreadable or unopenable path is a FormatError."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except (OSError, ValueError) as e:   # ValueError: a NUL in the path
        raise FormatError(f"cannot read {what} {path}: {e}") from None


def write_atomic(path: str, data: bytes | str):
    """Replace path with data in one step: the bytes go to a temporary file
    in the same directory, which os.replace then renames over path.  A
    write that fails midway removes the temporary file and leaves any
    previous file at path untouched."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
