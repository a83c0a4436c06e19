#!/usr/bin/env python3
"""OM(f) interactive consistency from the wire format's description alone.

The second derivation behind crates/agreement/tests/om_wire.rs: written from
the "Level payload" section of crates/agreement/src/eig.rs and the framing in
consensus.rs ("Frame": a part is the instance and the payload's length as
LEB128 varints, then the payload; "Short frame": a round whose every part
tells every node one value is the byte 0x80 | level, then one LEB128 value
per instance the sender speaks for), sharing no code with the crate. For
(4, 1), (7, 2), (10, 3) and (13, 2) it runs one consensus on inputs 100 + i with 0, 1 and n equivocating sources
(a liar tells destination `to` the value 100 + to at round 0) and prints
messages, bytes, bytes per round and the SHA-256 of every frame in delivery
order (round, sender ascending, destination ascending). After a deliberate
wire change, change this file from the new description first, then pin what
it prints.

    python3 scripts/om_wire_digest.py
"""
import hashlib, itertools, struct


def leb128(v):
    """v as an unsigned LEB128 varint: seven bits a byte, low group first."""
    out = bytearray()
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_leb128(buf, off):
    """(value, next offset) of the varint at buf[off:], or None if it runs past the end."""
    v = shift = 0
    while off < len(buf):
        byte = buf[off]
        off += 1
        v |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return v, off
    return None


def part(instance, payload):
    """One part of a consensus frame: instance, length, payload."""
    return leb128(instance) + leb128(len(payload)) + payload


def level_nodes(n, source, level, last=None):
    """Paths of `level` distinct ids from `source`, ascending; ending in `last` if given."""
    others = [q for q in range(n) if q != source]
    out = []
    for rest in itertools.permutations(others, level - 1):
        path = (source,) + rest
        if last is None or path[-1] == last:
            out.append(path)
    return sorted(out)


def encode(level, told):
    """told: list of value-or-None per node, slot order."""
    presence = bytearray((len(told) + 7) // 8)
    values = []
    for i, v in enumerate(told):
        if v is not None:
            presence[i // 8] |= 1 << (i % 8)
            values.append(v)
    tag = level
    if len(values) >= 2 and len(set(values)) == 1:
        tag |= 0x80
        values = values[:1]
    return bytes([tag]) + bytes(presence) + b"".join(struct.pack(">Q", v) for v in values)


def whole(told):
    """The one value every node is told, or None."""
    if told and None not in told and len(set(told)) == 1:
        return told[0]
    return None


def short(level, values):
    """A short frame: the level with bit 7 set, then each value as a varint."""
    return bytes([0x80 | level]) + b"".join(leb128(v) for v in values)


def read_short(n, level, sender, frame):
    """{source: value} of a short frame received at `level`, or {} when refused."""
    if frame[0] & 0x7F != level or sender >= n:
        return {}
    sources = [sender] if level == 1 else [s for s in range(n) if s != sender]
    out, off = {}, 1
    for s in sources:
        got = read_leb128(frame, off)
        if got is None:
            return {}
        out[s], off = got
    return out if off == len(frame) else {}


def decode(level, nodes, payload):
    """Returns {path: value} or {} when refused."""
    if not payload or not nodes:
        return {}
    tag = payload[0]
    if tag & 0x7F != level:
        return {}
    uniform = bool(tag & 0x80)
    nbytes = (len(nodes) + 7) // 8
    presence = payload[1 : 1 + nbytes]
    if len(presence) != nbytes:
        return {}
    bits = [(presence[i // 8] >> (i % 8)) & 1 for i in range(nbytes * 8)]
    if any(bits[len(nodes):]):
        return {}
    told = sum(bits)
    rest = payload[1 + nbytes :]
    if uniform:
        if told < 2 or len(rest) != 8:
            return {}
        vals = [struct.unpack(">Q", rest)[0]] * told
    else:
        if len(rest) != 8 * told:
            return {}
        vals = [struct.unpack(">Q", rest[8 * i : 8 * i + 8])[0] for i in range(told)]
    it = iter(vals)
    return {path: next(it) for path, b in zip(nodes, bits) if b}


def run(n, f, liars):
    trees = [[{} for _ in range(n)] for _ in range(n)]  # trees[p][s]
    inbox = [[] for _ in range(n)]
    h = hashlib.sha256()
    messages = total = 0
    per_round = []
    for rnd in range(f + 2):
        nxt = [[] for _ in range(n)]
        sent_this_round = 0
        for p in range(n):
            # absorb level-`rnd` payloads
            if rnd >= 1:
                for sender, frame in inbox[p]:
                    if frame[0] & 0x80:
                        # Each value stands for the part telling every node it.
                        for s, v in read_short(n, rnd, sender, frame).items():
                            for path in level_nodes(n, s, rnd, sender):
                                trees[p][s].setdefault(path, v)
                        continue
                    off = 0
                    while off < len(frame):
                        s, off = read_leb128(frame, off)
                        ln, off = read_leb128(frame, off)
                        payload = frame[off : off + ln]
                        off += ln
                        nodes = level_nodes(n, s, rnd, sender) if (rnd == 1) == (sender == s) else []
                        for path, v in decode(rnd, nodes, payload).items():
                            trees[p][s].setdefault(path, v)
            frames = {}
            if rnd == 0:
                v = 100 + p
                trees[p][p][(p,)] = v
                frame = short(1, [v])
                frames = {to: frame for to in range(n) if to != p}
                if p < liars:
                    frames = {to: part(p, encode(1, [100 + to])) for to in frames}
            elif rnd <= f:
                frame, values = b"", []
                for s in range(n):
                    if s == p:
                        continue
                    told = []
                    for child in level_nodes(n, s, rnd + 1, p):
                        v = trees[p][s].get(child[:-1])
                        if v is not None:
                            trees[p][s].setdefault(child, v)
                        told.append(v)
                    frame += part(s, encode(rnd + 1, told))
                    values.append(whole(told))
                if None not in values:
                    frame = short(rnd + 1, values)
                frames = {to: frame for to in range(n) if to != p}
            for to in sorted(frames):
                h.update(frames[to])
                messages += 1
                total += len(frames[to])
                sent_this_round += len(frames[to])
                nxt[to].append((p, frames[to]))
        per_round.append(sent_this_round)
        inbox = nxt
    return messages, total, per_round, h.hexdigest()


for n, f in [(4, 1), (7, 2), (10, 3), (13, 2)]:
    for liars in [0, 1, n]:
        print(f"({n}, {f}) liars={liars}:", *run(n, f, liars))
