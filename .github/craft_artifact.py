#!/usr/bin/env python3
"""Rewrites an `implicitc` artifact (`<key>.iart`) in place, keeping it
checksum-valid (FNV-64 over everything but the 8-byte trailer):

  craft_artifact.py deep FILE       keep the 38-byte header, then one
                                    prelude `let` whose type is
                                    200,000 nested list types
  craft_artifact.py version N FILE  stamp format version N
"""
import struct
import sys

HEADER = 38
LEVELS = 200_000


def fnv64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main(argv):
    if argv[:1] == ["deep"] and len(argv) == 2:
        path = argv[1]
        body = open(path, "rb").read()[:HEADER]
        # one let, named `x` (a new symbol: tag 1, u32 length, bytes),
        # typed [[…[Int]…]]: each type is new (memo tag 1) and a list
        # (tag 7), down to Int (tag 1).
        body += struct.pack("<Q", 1) + b"\x01" + struct.pack("<I", 1) + b"x"
        body += b"\x01\x07" * LEVELS + b"\x01\x01"
    elif argv[:1] == ["version"] and len(argv) == 3:
        path = argv[2]
        body = open(path, "rb").read()[:-8]
        body = body[:4] + struct.pack("<I", int(argv[1])) + body[8:]
    else:
        sys.exit(__doc__)
    open(path, "wb").write(body + struct.pack("<Q", fnv64(body)))


main(sys.argv[1:])
