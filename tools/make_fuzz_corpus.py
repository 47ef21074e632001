#!/usr/bin/env python3
"""Regenerates the seed corpora under tests/fuzz/corpus/.

Each corpus file is a byte string the dual-mode drivers (tests/fuzz/*.cc,
docs/CORRECTNESS.md "Dual-mode fuzzing") can consume in libFuzzer mode:

    [config prefix bytes] + FuzzInput::FromSeed(seed, n) byte stream

The prefix replays the LLVMFuzzerTestOneInput config draws (each a
single-byte Below() because every palette has <= 256 entries) so the file
deterministically selects the same (backend, decay, ...) pairing as one of
the historical ctest seed cases; the stream is the exact byte
materialization `FromSeed` produces for that seed, replicated here in
Python (SplitMix64 -> HashCombine -> 8 little-endian bytes per draw, the
contract documented on FuzzInput).  Streams are truncated to a few KB:
libFuzzer grows interesting inputs on its own, the corpus only has to
start it in deep, valid regions of each driver's state space.

Usage:  python3 tools/make_fuzz_corpus.py [--check]

--check verifies the files on disk match what this script generates (used
by the lint/CI legs to keep corpus and seed lists in sync) instead of
writing them.
"""

import argparse
import pathlib
import sys

MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def hash_combine(a: int, b: int) -> int:
    return splitmix64(a ^ ((splitmix64(b) + 0x9E3779B97F4A7C15) & MASK))


def from_seed(seed: int, num_bytes: int) -> bytes:
    """Python twin of FuzzInput::FromSeed (tests/fuzz/fuzz_util.h)."""
    out = bytearray()
    counter = 0
    while len(out) < num_bytes:
        word = hash_combine(seed, counter)
        counter += 1
        out += word.to_bytes(8, "little")
    return bytes(out[:num_bytes])


# Stream bytes per corpus file.  Large enough to drive a few hundred ops
# into every driver, small enough to keep the checked-in corpus light.
STREAM_BYTES = 2048

# driver -> list of (file name, config prefix bytes, FromSeed seed).
# Prefixes mirror the single-byte config draws in each driver's
# LLVMFuzzerTestOneInput; seeds come from the gtest wrappers' historical
# seed lists so each file lands in a proven-interesting configuration.
CORPUS = {
    "eh_fuzz_test": [
        # prefix: [epsilon index Below(4), window index Below(5)]
        ("eh_eps02_w512", bytes([0, 3]), 0xE401),
        ("eh_eps10_w128", bytes([1, 2]), 0xE402),
        ("eh_eps25_w64", bytes([2, 1]), 0xE403),
        ("eh_eps50_w32", bytes([3, 0]), 0xE404),
        ("eh_eps10_w1024", bytes([1, 4]), 0xE405),
    ],
    "ceh_fuzz_test": [
        # prefix: [decay kind Below(4), tight flag Below(4) (0 => tight)]
        ("ceh_sliwin_tight", bytes([0, 0]), 0xCE01),
        ("ceh_sliwin_loose", bytes([0, 1]), 0xCE02),
        ("ceh_poly1", bytes([1, 1]), 0xCE03),
        ("ceh_poly2", bytes([2, 1]), 0xCE04),
        ("ceh_expd", bytes([3, 1]), 0xCE05),
    ],
    "wbmh_fuzz_test": [
        # prefix: [mode Below(4) (0 => shared layout)] then for counter
        # mode [tight Below(4), alpha index Below(3)]
        ("wbmh_shared_layout", bytes([0]), 0x3BFF),
        ("wbmh_a05", bytes([1, 1, 0]), 0x3B01),
        ("wbmh_a10_tight", bytes([1, 0, 1]), 0x3B02),
        ("wbmh_a20", bytes([2, 1, 2]), 0x3B03),
        ("wbmh_a10", bytes([3, 1, 1]), 0x3B04),
    ],
    "mvd_fuzz_test": [
        # prefix: [harness Below(2), rank_seed byte Below(64)]
        ("mvd_list_r1", bytes([0, 0]), 0x4D01),
        ("mvd_list_r17", bytes([0, 16]), 0x4D02),
        ("mvd_bottomk_r5", bytes([1, 4]), 0x4D03),
        ("mvd_bottomk_r33", bytes([1, 32]), 0x4D04),
    ],
    "core_fuzz_test": [
        # prefix: [core Below(5), then that core's own config draws]
        ("core_exact_sliding", bytes([0, 0]), 0xEA01),
        ("core_exact_poly", bytes([0, 1]), 0xEA02),
        ("core_ewma_b16", bytes([1, 1]), 0xEB02),
        ("core_recent", bytes([2]), 0xEC01),
        ("core_polyexp_k2", bytes([3, 1]), 0xED02),
        ("core_coarse", bytes([4]), 0xEE01),
    ],
    "snapshot_fuzz_test": [
        # prefix: [harness Below(4), case index Below(8)]
        ("snap_roundtrip_exact", bytes([0, 0]), 0x5A01),
        ("snap_roundtrip_ceh", bytes([0, 4]), 0x5A01),
        ("snap_roundtrip_wbmh", bytes([0, 7]), 0x5A01),
        ("snap_corrupt_ceh", bytes([1, 4]), 0x5A02),
        ("snap_corrupt_coarse", bytes([1, 6]), 0x5A02),
        # Raw-decode harness: remaining bytes go straight to
        # DecodeDecayedSum, so any stream is a starting point.
        ("snap_rawdecode_ceh", bytes([2, 4]), 0x5A03),
    ],
    "registry_fuzz_test": [
        # prefix: [harness Below(4)]
        ("registry_eviction", bytes([0]), 1 * 7177),
        ("registry_wbmh", bytes([1]), 1 * 1009 + 7),
        ("registry_ceh", bytes([2]), 2 * 1009 + 4),
    ],
    "engine_merge_fuzz_test": [
        # prefix: [config Below(3)]
        ("merge_eh", bytes([0]), 1 * 6151 + 4),
        ("merge_ceh", bytes([1]), 2 * 6151 + 4),
        ("merge_wbmh", bytes([2]), 3 * 6151 + 7),
    ],
    "engine_fault_fuzz_test": [
        # prefix: [config Below(2)]
        ("fault_ceh", bytes([0]), 1 * 9176 + 4),
        ("fault_wbmh", bytes([1]), 2 * 9176 + 7),
    ],
    "checkpoint_log_fuzz_test": [
        # prefix: [config Below(2)]
        ("ckptlog_ceh", bytes([0]), 1 * 5261 + 4),
        ("ckptlog_wbmh", bytes([1]), 2 * 5261 + 7),
    ],
}


def corpus_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent / "tests" / "fuzz" / "corpus"


def generate() -> dict:
    files = {}
    for driver, entries in sorted(CORPUS.items()):
        for name, prefix, seed in entries:
            files[f"{driver}/{name}"] = prefix + from_seed(seed, STREAM_BYTES)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify corpus on disk matches, write nothing")
    args = parser.parse_args()

    root = corpus_root()
    files = generate()
    stale = []
    for rel, payload in files.items():
        path = root / rel
        if args.check:
            if not path.is_file() or path.read_bytes() != payload:
                stale.append(rel)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)

    if args.check:
        on_disk = {p.relative_to(root).as_posix()
                   for p in root.rglob("*") if p.is_file()}
        stray = sorted(on_disk - set(files))
        for rel in stale:
            print(f"make_fuzz_corpus: stale or missing: {rel}")
        for rel in stray:
            print(f"make_fuzz_corpus: not generated by this script: {rel}")
        if stale or stray:
            print("make_fuzz_corpus: run python3 tools/make_fuzz_corpus.py")
            return 1
        print(f"make_fuzz_corpus: {len(files)} corpus files in sync")
        return 0

    print(f"make_fuzz_corpus: wrote {len(files)} files under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
