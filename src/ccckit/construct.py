"""Builders for complete complementary code sets.

Every construction starts from a structured function whose restrictions are
quadratic chains (``GeneralizedQuadraticSpec``) and turns it into K = M codes
of M sequences by adding seed-and-shift linear terms, one exponent table per
(code index t, sequence index d).  Two enumeration conventions exist:

* ``uniform`` -- domain Z_q^m (single block, any q >= 2).  Code/sequence
  indices split into n+1 base-q digits, most significant first, matching the
  t = sum t_i q^{n+1-i} convention of the uniform-domain family.
* ``mixed``   -- domain Z_{p_1}^{m_1} x ... x Z_{p_k}^{m_k}.  Indices split
  per block (block 1 fastest) and into base-p_i digits least significant
  first, matching t = t_1 + sum_b t_b prod_{a<b} p_a^{n_a+1} with
  t_u = sum_v t_{u,v} p_u^{v-1}.

Chain tables must permute {0..p_i-1} mod p_i; ``build_code_set`` rejects the
first table in ``chain_failures``, named as "block 0, chain 1, fp does not
permute Z_2".  Necessity experiments bypass the check only through
``corrupt_spec``, which flags the spec so the origin of a failed verification
is never ambiguous.
"""

from __future__ import annotations

import functools
import io
import json
import os
import re
from dataclasses import dataclass, replace
from math import gcd, prod

import numpy as np

from .mixed_radix import DomainSpec, digit_matrix, place_digits
from .qary import (
    GeneralizedQuadraticSpec,
    SpecError,
    build_from_spec,
    check_table,
    is_permutation_mod,
    restriction_values,
)
from .waveform import RootSequence

UNIFORM = "uniform"
MIXED = "mixed"


class ConfigError(ValueError):
    """A build config or serialized code set is malformed."""


def exps_dtype(q: int) -> np.dtype:
    """Storage dtype of exponents mod q: the smallest unsigned one holding q values.

    uint8 for q <= 256, uint16 for q <= 65536, int64 beyond.  Arithmetic on
    stored exponents must widen first: under NEP 50, uint8 * int stays uint8
    and wraps.
    """
    for dt in (np.uint8, np.uint16):
        if q <= np.iinfo(dt).max + 1:
            return np.dtype(dt)
    return np.dtype(np.int64)


def _physical_memory() -> int:
    """Bytes of physical memory, or 0 where they cannot be read (no ``os.sysconf`` or no SC_PHYS_PAGES)."""
    try:
        return max(0, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return 0


def _check_alloc(nbytes: int, what: str) -> None:
    """Refuse, before numpy allocates anything, a size beyond physical memory.

    Where physical memory cannot be read, nothing is refused.
    """
    limit = _physical_memory()
    if limit and nbytes > limit:
        raise ConfigError(
            f"{what} needs about 2^{nbytes.bit_length() - 1} bytes, "
            f"more than the {limit >> 20} MiB of physical memory"
        )


def _reduce_sums(x: np.ndarray, q: int) -> None:
    """x mod q in place, for a C-contiguous x whose entries lie in [0, 2q - 2].

    On the unsigned view, x - q wraps above x when x < q, so min(x, x - q)
    is x mod q with no division.  It works through 64 KiB slabs, so its one
    temporary stays small whatever the size of x.
    """
    flat = x.view(f"u{x.itemsize}").reshape(-1)
    step = (1 << 16) // x.itemsize
    wrap = np.empty(min(flat.size, step), flat.dtype)
    for i in range(0, flat.size, step):
        s = flat[i : i + step]
        np.minimum(s, np.subtract(s, q, out=wrap[: s.size]), out=s)


def _tensor_bytes(entries: int, q: int, work: np.dtype) -> int:
    """Peak bytes of a tensor computed in ``work`` and stored in ``exps_dtype(q)``.

    When the two dtypes differ, CodeSet keeps a converted copy next to the
    working tensor until the latter is freed.
    """
    store = exps_dtype(q)
    return entries * (work.itemsize + (store.itemsize if store != work else 0))


_canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _pair(token: str) -> np.uint16:
    """Two bytes of ASCII text as one little-endian uint16, the unit of one-digit text."""
    return np.uint16(int.from_bytes(token.encode(), "little"))


_OPEN, _NEXT, _CLOSE, _LAST = _pair("[["), _pair(",["), _pair("],"), _pair("]]")  # the brackets of one-digit text
_DIGIT, _DIGIT_END = _pair("0,"), _pair("0]")  # plus the value: an entry, and a sequence's last entry


@dataclass(frozen=True)
class CodeSet:
    """K codes of M sequences, length L, exponents mod q.

    exps has shape (K, M, L), stored read-only in ``exps_dtype(q)``; mask is
    None for all-defined sequences or a boolean array of the same shape
    (False marks a literal zero entry).  Exponents of any dtype but an integer
    one (float, bool, object) and a mask of any dtype but bool raise ValueError.
    """

    q: int
    exps: np.ndarray
    mask: np.ndarray | None = None
    meta: dict | None = None

    def __post_init__(self):
        exps = np.asarray(self.exps)
        if exps.dtype.kind not in "iu":
            raise ValueError(f"exponents must have an integer dtype, got {exps.dtype}")
        if exps.ndim != 3:
            raise ValueError("exps must have shape (K, M, L)")
        if exps.size and ((exps.dtype.kind == "i" and exps.min() < 0) or exps.max() >= self.q):
            raise ValueError(f"exponents must lie in [0, {self.q})")
        exps = exps.astype(exps_dtype(self.q), copy=False)
        exps.setflags(write=False)
        object.__setattr__(self, "exps", exps)
        if self.mask is not None:
            mask = np.asarray(self.mask)
            if mask.dtype != bool:
                raise ValueError(f"mask must have dtype bool, got {mask.dtype}")
            if mask.shape != exps.shape:
                raise ValueError("mask shape must match exps")
            if mask.all():
                mask = None
            else:
                mask.setflags(write=False)
            object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "meta", dict(self.meta or {}))

    @property
    def K(self) -> int:
        return self.exps.shape[0]

    @property
    def M(self) -> int:
        return self.exps.shape[1]

    @property
    def L(self) -> int:
        return self.exps.shape[2]

    def sequence(self, k: int, m: int) -> RootSequence:
        row = self.exps[k, m]
        if self.mask is None:
            return RootSequence(self.q, tuple(int(e) for e in row))
        dm = self.mask[k, m]
        return RootSequence(self.q, tuple(int(e) if dm[i] else None for i, e in enumerate(row)))

    def code(self, k: int) -> list[RootSequence]:
        return [self.sequence(k, m) for m in range(self.M)]

    def row(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Code k as arrays: exps[k] (M, L) and mask[k], or None when every entry is defined."""
        return self.exps[k], None if self.mask is None else self.mask[k]

    def same_codes(self, other: "CodeSet") -> bool:
        """Equality of the code arrays (metadata ignored, holes compare as holes)."""
        if not isinstance(other, CodeSet):
            return False
        if (self.q, self.exps.shape) != (other.q, other.exps.shape):
            return False
        if self.mask is None or other.mask is None:  # an all-true mask is stored as None
            return self.mask is other.mask and bool(np.array_equal(self.exps, other.exps))
        if not np.array_equal(self.mask, other.mask):
            return False
        return bool(np.array_equal(np.where(self.mask, self.exps, 0), np.where(other.mask, other.exps, 0)))

    def to_json(self) -> dict:
        if self.mask is None:
            codes = self.exps.tolist()
        else:
            codes = self.exps.astype(object)
            codes[~self.mask] = None
            codes = codes.tolist()
        return {"q": self.q, "L": self.L, "K": self.K, "M": self.M, "meta": self.meta, "codes": codes}

    @staticmethod
    def from_json(data: dict) -> "CodeSet":
        """Load a serialized set: rectangular, K, M, L >= 1, integer exponents in [0, q) or null.

        Anything else raises ConfigError.  The types are checked before numpy
        sees the lists, because numpy casts 0.5, true and "1" to integers.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"a code set is a JSON object, got {type(data).__name__}")
        q, codes, meta = data.get("q"), data.get("codes"), data.get("meta")
        if type(q) is not int or q < 1:
            raise ConfigError(f"q must be a positive integer, got {q!r}")
        if not isinstance(meta, (dict, type(None))):  # absent or null: no metadata
            raise ConfigError("meta must be a JSON object or null")
        if not isinstance(codes, list) or not all(isinstance(row, list) for row in codes):
            raise ConfigError("codes must be a list of codes, each a list of sequences")
        K = len(codes)
        M = len(codes[0]) if K else 0
        L = len(codes[0][0]) if M and isinstance(codes[0][0], list) else 0
        if not (K and M and L):
            raise ConfigError(f"code set must be non-empty, got K={K}, M={M}, L={L}")
        types = set()
        for k, row in enumerate(codes):
            if len(row) != M:
                raise ConfigError(f"code {k} has {len(row)} sequences, code 0 has {M}")
            for m, seq in enumerate(row):
                if not isinstance(seq, list):
                    raise ConfigError(f"sequence ({k},{m}) is not a list")
                if len(seq) != L:
                    raise ConfigError(f"sequence ({k},{m}) has length {len(seq)}, sequence (0,0) has {L}")
                types.update(map(type, seq))
        if types - {int, type(None)}:
            found = ", ".join(sorted(t.__name__ for t in types - {int, type(None)}))
            raise ConfigError(f"exponents must be integers or null, found {found}")
        for name, size in (("L", L), ("K", K), ("M", M)):
            if name in data and (type(data[name]) is not int or data[name] != size):
                raise ConfigError(f"inconsistent {name} in serialized code set")
        holes = type(None) in types
        try:
            exps = np.array(codes, dtype=object if holes else exps_dtype(q))
            mask = np.not_equal(exps, None) if holes else None
            if holes:
                exps[~mask] = 0
                exps = exps.astype(np.int64)
            return CodeSet(q, exps, mask, meta)
        except (OverflowError, ValueError):  # beyond the storage dtype, or outside [0, q)
            raise ConfigError(f"exponents must lie in [0, {q})") from None

    def dumps(self) -> str:
        """Canonical JSON: ``json.dumps(to_json(), sort_keys=True, separators=(",", ":"))`` plus a newline.

        The text is written into one byte buffer, sized by its upper bound,
        and decoded once: by ``_write_digits`` where every token is one digit
        (q <= 10, no holes), by ``_write_tokens`` otherwise.  Peak memory is
        the buffer and the string.  Two copies of the bound beyond physical
        memory are refused before the buffer is allocated (``ConfigError``).
        """
        K, M, L = self.exps.shape
        head = f'{{"K":{K},"L":{L},"M":{M},"codes":['
        tail = f'],"meta":{_canonical(self.meta)},"q":{_canonical(self.q)}}}\n'
        widest = max(len(str(self.q - 1)), 0 if self.mask is None else len("null"))
        text = (widest + 1) * K * M * L + 2 * K * M + 2 * K + len(head) + len(tail)
        _check_alloc(2 * text, f"the canonical text of a ({K}, {L}) code set over Z_{self.q}")
        if not self.exps.size:
            return head[:-1] + _canonical(self.exps.tolist()) + tail[1:]
        pad = len(head) % 2  # codes start at an even offset, where the two-byte tokens are aligned
        buf = np.empty(pad + text, dtype=np.uint8)
        view = memoryview(buf)
        pos = pad + len(head)
        view[pad:pos] = head.encode()
        if self.mask is None and self.q <= 10:
            pos = _write_digits(buf, pos, self.exps)
        else:
            pos = _write_tokens(buf, pos, self.exps, self.mask, self.q)
        pos -= 1  # the "," after the last code: the tail's "]" closes the list instead
        view[pos : pos + len(tail)] = tail.encode()
        return str(view[pad : pos + len(tail)], "ascii")

    @staticmethod
    def loads(data: bytes) -> "CodeSet":
        """Read the bytes of a code-set file: canonical ``dumps`` text is scanned with numpy.

        Any other text, and any text the scanner doubts, goes to ``from_json``,
        decoded as by a file opened in text mode; that path decides every error.
        """
        scanned = _scan_canonical(data)
        if scanned is not None:
            return scanned
        return CodeSet.from_json(json.loads(io.TextIOWrapper(io.BytesIO(data)).read()))


def _write_digits(buf: np.ndarray, pos: int, exps: np.ndarray) -> int:
    """Write the codes of exps (K, M, L), every value one digit, into buf at pos; the end of the "," after them.

    Each code and the "," after it are two-byte tokens: "[[", then per
    sequence the digit and "," of each entry but the last, the digit and
    "]" of the last, and ",[" (or "]," after the code's last sequence).
    pos must be even, so that the tokens are aligned.
    """
    K, M, L = exps.shape
    size = 2 + M * (2 * L + 2)
    codes = buf[pos : pos + K * size].view("<u2").reshape(K, size // 2)
    seqs = codes[:, 1:].reshape(K, M, L + 1)
    codes[:, 0] = _OPEN
    seqs[:, :, L] = _NEXT
    seqs[:, -1, L] = _CLOSE
    c = max(1, _SCAN_BYTES // size)  # codes a step: each step's operands stay in cache
    for k in range(0, K, c):
        np.add(exps[k : k + c, :, :-1], _DIGIT, out=seqs[k : k + c, :, : L - 1])
        np.add(exps[k : k + c, :, -1], _DIGIT_END, out=seqs[k : k + c, :, L - 1])
    return pos + K * size


def _read_digits(data: bytes, start: int, K: int, M: int, L: int, q: int) -> np.ndarray | None:
    """The exponents (K, M, L) of one-digit text at data[start], laid out as ``_write_digits`` writes it; else None.

    The text and the "]" after it are read as two-byte tokens through one
    uint16 view, a step of whole codes at a time.  An entry's token less
    "0," ("0]" for a sequence's last) must be below min(q, 10): with uint16
    wrap-around, one compare checks the digit and its separator together.
    The other tokens must be "[[", ",[", "]," and, after the last code, "]]".
    """
    size = 2 + M * (2 * L + 2)
    codes = np.frombuffer(data, dtype="<u2", count=K * size // 2, offset=start).reshape(K, size // 2)
    seqs = codes[:, 1:].reshape(K, M, L + 1)
    ends = seqs[:, :, L]
    bad = (codes[:, 0] != _OPEN).any() or (ends[:, :-1] != _NEXT).any() or (ends[:-1, -1] != _CLOSE).any()
    if bad or ends[-1, -1] != _LAST:
        return None
    exps = np.empty((K, M, L), dtype=exps_dtype(q))
    c = max(1, _SCAN_BYTES // size)
    v = np.empty((c, M, L), dtype=np.uint16)
    for k in range(0, K, c):
        d = v[: min(c, K - k)]
        np.subtract(seqs[k : k + c, :, : L - 1], _DIGIT, out=d[:, :, :-1])
        np.subtract(seqs[k : k + c, :, L - 1], _DIGIT_END, out=d[:, :, -1])
        if d.max() >= min(q, 10):
            return None
        exps[k : k + c] = d
    return exps


def _write_tokens(buf: np.ndarray, pos: int, exps: np.ndarray, mask: np.ndarray | None, q: int) -> int:
    """Write the codes of exps (K, M, L) and its holes into buf at pos; the end of the "," after them.

    Each code goes through a table of tokens: id v is the text of value v
    then ",", id v + n the same then "]" (a sequence's last entry), and two
    more ids open the first and a later sequence of a code.  Table rows are
    NUL-padded to one width; the padding is dropped.  The temporaries are
    one code's, and they are freed on return.
    """
    K, M, L = exps.shape
    if exps.dtype == np.int64:  # q > 65536: tokens for the values present only
        values, ids = np.unique(exps, return_inverse=True)
        ids = ids.reshape(exps.shape)
    else:
        values, ids = range(q), exps
    tokens = [str(v) for v in values] + ([] if mask is None else ["null"])
    n = len(tokens)
    table = np.array([t + "," for t in tokens] + [t + "]" for t in tokens] + ["[[", ",["], "S")
    row = np.empty((M, L + 1), dtype=np.intp)
    row[:, 0] = 2 * n + 1
    row[0, 0] = 2 * n
    view = memoryview(buf)
    for k in range(K):
        row[:, 1:] = ids[k]
        if mask is not None:  # set in intp: n - 1 = q does not fit the storage dtype
            row[:, 1:][~mask[k]] = n - 1
        row[:, -1] += n
        code = table[row].tobytes().replace(b"\0", b"")
        view[pos : pos + len(code)] = code
        pos += len(code) + 2
        view[pos - 2 : pos] = b"],"
    return pos


_SCAN_BYTES = 1 << 16  # the codec's chunk budget, read and write; a chunk holds at least one whole code
_HEADER = re.compile(rb'\{"K":([1-9][0-9]{0,17}),"L":([1-9][0-9]{0,17}),"M":([1-9][0-9]{0,17}),"codes":\[')
_TOKEN = 0xFF  # a token's one byte in a layout template; no byte of canonical text


def _scan_canonical(data: bytes) -> CodeSet | None:
    """The set in the canonical text of ``dumps``, or None for any other text.

    The codes payload runs from the header to the last ``],"meta":``, and
    what follows must be an object with the keys meta and q alone.  Where
    the payload's length is that of one-digit tokens in the header's K, M
    and L, ``_read_digits`` reads it as ``_write_digits`` writes it.
    Otherwise it is cut into chunks of whole codes at searched cuts, whose
    codes must sum to the header's K, and each chunk is read by
    ``_scan_chunk`` against the layout of its codes in the header's M and L,
    straight into the exponent array and the mask of holes.  Either way
    every byte is checked, so the header alone sizes nothing.
    """
    head = _HEADER.match(data)
    start = head.end() if head else 0
    stop = data.rfind(b'],"meta":', start) if head else -1
    if stop < 0:
        return None
    try:
        rest = json.loads("{" + data[stop + 2 :].decode("ascii"))
    except (ValueError, RecursionError):
        return None
    q, meta = rest.get("q"), rest.get("meta")
    if rest.keys() != {"meta", "q"} or type(q) is not int or q < 1 or not isinstance(meta, dict):
        return None
    K, L, M = map(int, head.groups())
    if stop - start == K * (2 + M * (2 * L + 2)) - 1:  # every token one digit, as _write_digits writes it
        exps = _read_digits(data, start, K, M, L, q)
        return None if exps is None else CodeSet(q, exps, None, meta)
    chunks = []  # (first byte, end, number of codes)
    pos = start
    while pos < stop:
        end = stop
        if stop - pos > _SCAN_BYTES:
            cut = data.rfind(b"]],[[", pos, pos + _SCAN_BYTES)
            cut = data.find(b"]],[[", pos, stop) if cut < 0 else cut
            end = stop if cut < 0 else cut + 2
        chunks.append((pos, end, data.count(b"]],[[", pos, end) + 1))
        pos = end + 1  # past the "," between two codes
    # the header alone sizes nothing, and every entry takes two bytes of the payload
    if sum(c for *_, c in chunks) != K or 2 * K * M * L > stop - start:
        return None
    code = b"[[" + b"],[".join([b",".join([bytes([_TOKEN])] * L)] * M) + b"]]"
    exps = np.empty(K * M * L, dtype=exps_dtype(q))
    mask = None
    layouts = {}  # number of codes -> template
    done = 0
    for pos, end, c in chunks:
        if c not in layouts:
            layouts[c] = np.frombuffer(b",".join([code] * c), dtype=np.uint8)
        scanned = _scan_chunk(np.frombuffer(data, dtype=np.uint8, count=end - pos, offset=pos), layouts[c], q)
        if scanned is None:
            return None
        v, holes = scanned  # c M L values: the chunk matched the template
        if holes is not None:
            mask = np.ones(exps.size, dtype=bool) if mask is None else mask
            mask[done : done + len(v)] = ~holes
        exps[done : done + len(v)] = v
        done += len(v)
    return CodeSet(q, exps.reshape(K, M, L), None if mask is None else mask.reshape(K, M, L), meta)


def _scan_chunk(a: np.ndarray, template: np.ndarray, q: int) -> tuple | None:
    """The values and holes (None if there are none) of a chunk of codes, or None.

    ``template`` is the chunk's layout with every token, whatever its width,
    one ``_TOKEN`` byte.  The chunk must have that layout, each token being
    null or digits without a leading zero, and every value below q.
    """
    digit = (a - ord("0")) < 10
    isval = digit | (a >= ord("a"))  # digits and the letters of "null"; the checks below catch other bytes
    if isval[0] or isval[-1]:
        return None
    edges = np.flatnonzero(isval[1:] != isval[:-1])
    edges += 1
    s, e = edges[::2], edges[1::2]  # token starts and ends
    keep = ~isval
    keep[s] = True
    layout = isval * np.uint8(_TOKEN)
    layout |= a
    if not np.array_equal(layout.take(np.flatnonzero(keep)), template):
        return None
    w, lead = e - s, a[s]
    width = int(w.max())
    null = lead == ord("n")
    nulls = np.count_nonzero(null)
    # a token led by "n" is "null", and every other token byte is a digit
    if nulls and ((w[null] != 4).any() or (a[s[null][:, None] + np.arange(4)] != list(b"null")).any()):
        return None
    if np.count_nonzero(digit) + 4 * nulls != w.sum() or width > 18:  # 19 digits may not fit int64
        return None
    if ((lead == ord("0")) & (w > 1)).any():  # "01" is not JSON
        return None
    v = (lead - ord("0")).astype(np.int64)
    for j in range(1, width):
        v = np.where(w > j, v * 10 + (a.take(s + j, mode="clip") - ord("0")), v)
    v[null] = 0
    return (v, null if nulls else None) if v.max() < q else None


def trivial_code_set() -> CodeSet:
    """The (1,1) code over the unit alphabet: a single all-ones sequence."""
    return CodeSet(1, np.zeros((1, 1, 1), dtype=np.int64), meta={"kind": "trivial"})


# ---------------------------------------------------------------------------
# construction specs


@dataclass(frozen=True, kw_only=True)
class ConstructionSpec(GeneralizedQuadraticSpec):
    """A structured function plus ``kind``, the index-enumeration convention to use: uniform or mixed."""

    kind: str

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in (UNIFORM, MIXED):
            raise SpecError(f"unknown construction kind {self.kind!r}")
        if self.kind == UNIFORM and self.domain.k != 1:
            raise SpecError("uniform constructions need a single-block domain")


def _default_uniform_offsets(d: DomainSpec, J) -> dict:
    """Offset c = sum_i c_i q^{n-i} (digits in J order) for each restriction."""
    q, n = d.q, len(J)
    return {
        cidx: sum(ci * q ** (n - i) for i, ci in enumerate(c, start=1)) % q
        for cidx, c in enumerate(restriction_values(d, J))
    }


def theorem1_spec(q: int, m: int, h, hp, g, pi) -> ConstructionSpec:
    """Uniform-domain spec with no restricted variables: Corollary 1 at n = 0.

    h, hp: the m-1 chain table pairs; g: m tables, g[j] applied to variable j
    directly; pi: ordering of the m variable positions (0-based).
    """
    if m < 2:
        raise SpecError("need at least two variables")
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(m)):
        raise SpecError(f"pi must order positions 0..{m - 1}, got {pi}")
    if len(g) != m:
        raise SpecError(f"need m={m} per-variable tables, got {len(g)}")
    return corollary1_spec(q, m, 0, (), pi, h, hp, [g[v] for v in pi], offsets=None)


def corollary1_spec(q: int, m: int, n: int, J, pi, h, hp, g, offsets="auto") -> ConstructionSpec:
    """Uniform-domain spec with n restricted variables.

    J: the n restricted positions (0-based, order pairs with the t/d digits);
    pi: ordering of the m-n free positions, shared or a dict keyed by
    restriction class; g: m-n tables applied through pi (slot j acts on
    x_{pi(j)}), shared or per class.  The spec stores both per class.
    offsets: "auto" applies c = sum c_i q^{n-i}; a dict gives explicit
    per-restriction constants; None means all zero.
    """
    d = DomainSpec(((q, m),))
    J = tuple(int(j) for j in J)
    if len(J) != n:
        raise SpecError(f"|J| = {len(J)} != n = {n}")
    if offsets == "auto":
        offsets = _default_uniform_offsets(d, J)
    return ConstructionSpec(
        domain=d, J=(J,), pis=(pi,), chains=(tuple(zip(h, hp)),), gs=(g,), offsets=offsets, kind=UNIFORM
    )


def theorem2_spec(p1, p2, m1, m2, pi, pip, f, fp, h, hp, g, gp, f0, h0, lam) -> ConstructionSpec:
    """Two-block spec with no restricted variables: Corollary 3 at n = (0, 0).

    pi orders block-1 positions 0..m1-1, pip block-2 positions m1..m1+m2-1.
    f/fp and h/hp are the block chain pairs; g[a] acts on variable a of block 1
    and gp[b] on variable m1+b of block 2 (both unpermuted); lam scales the
    coupling f0(last pi slot of block 1) * h0(first pip slot of block 2).
    """
    pi = tuple(int(v) for v in pi)
    pip = tuple(int(v) for v in pip)
    if sorted(pi) != list(range(m1)) or sorted(pip) != list(range(m1, m1 + m2)):
        raise SpecError(f"pi must order positions 0..{m1 - 1} and pip {m1}..{m1 + m2 - 1}, got {pi} and {pip}")
    if len(g) != m1 or len(gp) != m2:
        raise SpecError("need m1 tables in g and m2 tables in gp")
    gs = ([g[v] for v in pi], [gp[v - m1] for v in pip])
    return corollary3_spec(
        DomainSpec(((p1, m1), (p2, m2))), ((), ()), (pi, pip), (zip(f, fp), zip(h, hp)), gs, ((lam, f0, h0),)
    )


def corollary3_spec(
    domain: DomainSpec, J, pi, chains, gs, couplings=None, offsets=None
) -> ConstructionSpec:
    """General mixed-domain spec; arguments mirror GeneralizedQuadraticSpec."""
    if couplings is None:
        zero = (0,) * domain.q
        couplings = tuple((0, zero, zero) for _ in range(domain.k - 1))
    return ConstructionSpec(
        domain=domain, J=tuple(tuple(Ji) for Ji in J), pis=tuple(pi), chains=tuple(tuple(ch) for ch in chains),
        gs=tuple(gs), couplings=tuple(couplings), offsets=offsets, kind=MIXED,
    )


def corrupt_spec(cs: ConstructionSpec, block: int, chain: int, which: str, replacement) -> ConstructionSpec:
    """Swap one chain table for a non-permutation and flag the spec.

    which is "f" (left factor) or "fp" (right factor); chain indexes the
    block's chain list (0-based).  Refuses replacements that still permute
    {0..p-1} mod p: those would not corrupt anything.
    """
    if not (0 <= block < cs.domain.k and 0 <= chain < len(cs.chains[block])):
        raise ConfigError(f"no chain {chain} in block {block} of this spec")
    p = cs.domain.blocks[block][0]
    replacement = check_table(replacement, cs.domain.q)
    if is_permutation_mod(replacement, p):
        raise SpecError("replacement table still permutes; not a corruption")
    if which not in ("f", "fp"):
        raise SpecError("which must be 'f' or 'fp'")
    pairs = list(cs.chains[block])
    old_f, old_fp = pairs[chain]
    pairs[chain] = (replacement, old_fp) if which == "f" else (old_f, replacement)
    chains = list(cs.chains)
    chains[block] = tuple(pairs)
    note = f"block {block} chain {chain} {which} replaced by non-permutation"
    return replace(cs, chains=tuple(chains), corrupted=True, corruption_note=note)


# ---------------------------------------------------------------------------
# code-set assembly


def set_size(cs: ConstructionSpec) -> int:
    """K = prod p_i^{n_i+1}; q^{n+1} on a uniform domain, its one block being (q, m)."""
    return prod(p ** (ni + 1) for (p, _), ni in zip(cs.domain.blocks, cs.n))


def seed_digits(cs: ConstructionSpec) -> list[np.ndarray]:
    """Per block, the (K, n_i + 1) seed digits of the indices 0..K-1.

    Columns 0..n_i-1 pair with the restricted positions J[i]; the last column
    weights the chain slots.  Uniform: base-q digits, most significant first.
    Mixed: per block (block 1 fastest), base-p_i digits least significant first.
    """
    # the indices 0..K-1 are the points of the domain prod_i Z_{p_i}^{n_i + 1}
    seed = DomainSpec(tuple((p, ni + 1) for (p, _), ni in zip(cs.domain.blocks, cs.n)))
    digits = place_digits(np.arange(seed.L), seed.radix_per_position, seed.weights)
    if cs.kind == UNIFORM:
        return [digits[:, ::-1]]
    return np.split(digits, seed.block_offsets[1:], axis=1)


def build_code_set(cs: ConstructionSpec) -> CodeSet:
    """Materialize the K x M code matrix for a construction spec.

    Sequence index d and code index t run through the same digit enumeration.
    Entry (t, d) is the exponent table of the base function plus the seed
    terms: per block, weight q/p_i times [(d_v + t_v) on the restricted
    positions, d_last on the first chain slot, t_last on the last chain slot].
    The terms split into T[t] (base, t's part) and D[d] (d's part), so the
    tensor is one broadcast T[:, None] + D[None] of residues, reduced once.
    """
    if not cs.corrupted:
        cs.validate_chains()
    d = cs.domain
    q, L, K = d.q, d.L, set_size(cs)
    work = exps_dtype(2 * q - 1)  # holds T + D <= 2q - 2
    _check_alloc(_tensor_bytes(K * K * L, q, work) + 8 * L * (d.m + 2 * K), f"a ({K}, {L}) code set over Z_{q}")
    digits = digit_matrix(d)
    T = np.broadcast_to(build_from_spec(cs).table, (K, L)).copy()
    D = np.zeros((K, L), dtype=np.int64)
    for i, (S, slots) in enumerate(zip(seed_digits(cs), cs.slot_digits)):
        w = cs.chain_weight(i)
        restricted = S[:, :-1] @ digits[:, list(cs.J[i])].T
        T += w * (restricted + S[:, -1:] * slots[:, -1])
        D += w * (restricted + S[:, -1:] * slots[:, 0])
    exps = np.empty((K, K, L), dtype=work)
    np.add((T % q).astype(work)[:, None], (D % q).astype(work)[None], out=exps)
    _reduce_sums(exps, q)
    meta = {
        "kind": cs.kind,
        "blocks": [list(b) for b in d.blocks],
        "n": list(cs.n),
        "corrupted": cs.corrupted,
    }
    if cs.corrupted:
        meta["corruption"] = cs.corruption_note
    return CodeSet(q, exps, meta=meta)


def kronecker_compose(C: CodeSet, D: CodeSet, *, skip_verify: bool = False) -> CodeSet:
    """Kronecker composition: (K_C K_D, L_C L_D) codes over the lcm alphabet.

    Entry ((u,v), (r,s)) at position i*L_D + j multiplies the factor entries,
    i.e. adds exponents after embedding both alphabets into Z_lcm.  C is the
    slow factor: its indices are most significant.  Inputs must verify as
    complete complementary codes unless skip_verify is set.
    """
    Q = C.q * D.q // gcd(C.q, D.q)
    K, M, L = C.K * D.K, C.M * D.M, C.L * D.L
    work = exps_dtype(2 * Q - 1)  # holds a + b <= 2Q - 2
    masked = C.mask is not None or D.mask is not None
    _check_alloc(_tensor_bytes(K * M * L, Q, work) + masked * K * M * L, f"a ({K}, {L}) Kronecker product over Z_{Q}")
    if not skip_verify:
        from .verify import verify_ccc

        for name, cset in (("first", C), ("second", D)):
            report = verify_ccc(cset, mode="exact")
            if not report.is_ccc:
                raise ValueError(f"{name} factor is not a complete complementary code")
    a = np.multiply(C.exps, Q // C.q, dtype=work)
    b = np.multiply(D.exps, Q // D.q, dtype=work)
    exps = a[:, None, :, None, :, None] + b[None, :, None, :, None, :]
    _reduce_sums(exps, Q)
    exps = exps.reshape(K, M, L)
    mask = None
    if masked:
        mc = np.ones(C.exps.shape, bool) if C.mask is None else C.mask
        md = np.ones(D.exps.shape, bool) if D.mask is None else D.mask
        mask = (mc[:, None, :, None, :, None] & md[None, :, None, :, None, :]).reshape(K, M, L)
    meta = {"kind": "kronecker", "factors": [C.meta.get("kind"), D.meta.get("kind")]}
    return CodeSet(Q, exps, mask, meta)
