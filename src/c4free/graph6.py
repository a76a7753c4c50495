"""
graph6 encoding: bit-packed upper adjacency triangle, printable ASCII at
offset 63. Covers the standard size header for n < 2^36 (we only ever need
n <= 64, but the long forms cost nothing).
"""

from __future__ import annotations

from binascii import b2a_base64

from .graph import Graph, GraphError


_REVERSED = bytes(int(f"{x:08b}"[::-1], 2) for x in range(256))
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def encode(g: Graph) -> str:
    # the upper triangle, column v being bits 0..v-1 of rows[v], as one int
    # whose bit i is bit i of the body; its bytes, each bit-reversed, read
    # first bit first, and base64 cuts them into 6-bit groups
    bits = width = 0
    for v, r in enumerate(g.rows):
        bits |= (r & ((1 << v) - 1)) << width
        width += v
    data = bits.to_bytes((width + 23) // 24 * 3, "little").translate(_REVERSED)
    return _encode_n(g.n) + b2a_base64(data, newline=False)[: (width + 5) // 6].translate(_BASE64_TO_GRAPH6).decode()


def decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    n, body = _decode_n(s)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphError(f"invalid graph6 character {ch!r}")
        bits.extend(val >> k & 1 for k in range(5, -1, -1))
    if any(bits[n * (n - 1) // 2 :]):
        raise GraphError(f"graph6 padding bits of {s!r} are not zero")
    edges = []
    i = 0
    for v in range(n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)


def _encode_n(n: int) -> str:
    if n < 0:
        raise GraphError("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphError("order too large for graph6")


def _decode_n(s: str) -> tuple[int, str]:
    """Order and body of s: the size header is one character, or "~" and
    three, or "~~" and six, each a 6-bit digit at offset 63."""
    if not s:
        raise GraphError("empty graph6 string")
    start, width = (2, 6) if s.startswith("~~") else (1, 3) if s[0] == "~" else (0, 1)
    head = s[start : start + width]
    if len(head) < width:
        raise GraphError(f"truncated graph6 size header {s!r}")
    n = 0
    for ch in head:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphError(f"invalid graph6 character {ch!r}")
        n = n << 6 | val
    return n, s[start + width :]
