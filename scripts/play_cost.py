#!/usr/bin/env python3
"""What one honest play of the distributed authority costs, phase by phase.

The cost model behind tests/play_cost.rs, written from the format
descriptions alone and sharing no code with the crates (the pattern of
om_wire_digest.py): the schedule table and the "Wire" section of
crates/core/src/distributed.rs, the pulse frame of
crates/clocksync/src/process.rs ("Frame": a varint clock claim, then one
tagged body), and the agreement's frames in
crates/agreement/src/consensus.rs ("Frame", "Short frame") over the level
payloads of crates/agreement/src/eig.rs ("Level payload").

A play is 3R + 4 pulses, R = f + 2 the rounds of one OM consensus, and on
every pulse each of the n processors sends each of its n - 1 peers one
frame: n(n - 1) messages a pulse whatever the phase. A frame is the claim
(one byte: every clock value is below 128 here), then the body its phase
schedules:

    wrap, claims1, claims2, exec   none
    commit                         0xC0 and a 32-byte digest
    reveal                         0xD0, the action as a varint, a 32-byte nonce
    ba3.k                          0xA3 and round k of BA 3's consensus frame,
                                   nothing in its last round, which resolves

In an honest play every processor proposes the foul mask 0, so every value
BA 3 tells is 0, and every part a processor sends tells each of its nodes
that value. Such a round goes as the short frame: one byte 0x80 | level,
then the value as a varint per instance the sender speaks for, its own at
level 1 and each other source's at level >= 2. (The plain parts a round
with an absent or differing value falls back to never occur here; the
figures of the plain layout every round had before the short frame are
kept in ROADMAP.md's BA 3 table.)

For each (n, f) it prints a line per phase, BA 3's rounds apart, then the
play: n, f, phase, pulses, messages, bytes.
tests/play_cost.rs plays each size once and checks its phases against
scripts/play_cost.expected, which is this script's output; tier1 diffs
the two. A change to the wire or the schedule changes this file first.

    python3 scripts/play_cost.py > scripts/play_cost.expected
"""

SIZES = [(4, 1), (7, 2), (10, 3), (13, 2), (22, 3)]

CLAIM = 1
COMMIT = 1 + 32
REVEAL = 1 + 1 + 32  # tag, action 0 or 1 as a varint, nonce
TAG = 1
MASK = 0  # the honest foul proposal


def leb128_len(v):
    """Bytes of v as an unsigned LEB128 varint."""
    n = 1
    while v >= 0x80:
        v >>= 7
        n += 1
    return n


def ba3_round(n, f, k):
    """Bytes of one BA 3 frame at relative round k, behind the claim."""
    if k == f + 1:
        return 0  # the resolve round sends nothing
    level = k + 1
    speaks = 1 if level == 1 else n - 1
    return TAG + 1 + speaks * leb128_len(MASK)


def phases(n, f):
    """(phase, pulses, body bytes per frame) in schedule order."""
    r = f + 2
    assert 3 * r + 4 <= 128, "every claim one byte"
    out = [("wrap", 1, 0), ("claims1", r, 0), ("commit", 1, COMMIT), ("claims2", r, 0)]
    out.append(("reveal", 1, REVEAL))
    out += [(f"ba3.{k}", 1, ba3_round(n, f, k)) for k in range(r)]
    out.append(("exec", 1, 0))
    return out


def main():
    print("# n f phase pulses messages bytes")
    for n, f in SIZES:
        pairs = n * (n - 1)
        total = [0, 0, 0]
        for phase, pulses, body in phases(n, f):
            row = [pulses, pulses * pairs, pulses * pairs * (CLAIM + body)]
            total = [a + b for a, b in zip(total, row)]
            print(n, f, phase, *row)
        print(n, f, "play", *total)


main()
