"""Binary linear block codes for a 4-bit cryogenic output link.

Three built-in codes are provided, addressable by name everywhere in the
package (CLI, configs, reports):

* ``hamming74``  -- the perfect (7,4,3) Hamming code,
* ``hamming84``  -- the extended (8,4,4) Hamming code (overall parity bit),
* ``rm13``      -- the first-order (8,4,4) Reed-Muller code.

Codewords are computed as ``(message @ G) % 2``.  Decoding supports a
detect-only mode and per-code correction modes: complete syndrome decoding
for hamming74, parity-plus-syndrome decoding for hamming84, and
correlation (nearest-codeword) decoding for rm13.  Exhaustive error-pattern
classification and capability summaries are derived from these decoders by
enumeration, never hard-coded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

CODE_NAMES = ("hamming74", "hamming84", "rm13")

CLEAN = "clean"
CORRECTED = "corrected"
UNCORRECTABLE = "uncorrectable"

DETECT_ONLY = "detect_only"
CORRECT = "correct"

# Tie handling for rm13 correlation decoding.
TIE_CONSERVATIVE = "conservative"  # ties are reported uncorrectable
TIE_OPTIMISTIC = "optimistic"      # ties resolve to the lowest-index candidate

_G_HAMMING84 = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0, 1],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [1, 1, 0, 1, 0, 0, 1, 0],
    ],
    dtype=np.uint8,
)


def bits(s) -> np.ndarray:
    """Coerce a bit string like ``"1011"`` (or any 0/1 sequence) to uint8."""
    if isinstance(s, str):
        if not s or any(ch not in "01" for ch in s):
            raise ValueError(f"not a bit string: {s!r}")
        return np.array([int(ch) for ch in s], dtype=np.uint8)
    a = np.asarray(s, dtype=np.uint8)
    if a.ndim != 1 or not np.isin(a, (0, 1)).all():
        raise ValueError("bit vector must be one-dimensional over {0,1}")
    return a


def bitstr(a) -> str:
    """Render a bit vector as a compact string, e.g. ``01100110``."""
    return "".join(str(int(b)) for b in np.asarray(a).ravel())


def _row_reduce(G: np.ndarray):
    """Row-reduce ``G`` over GF(2), pivoting left-to-right.

    Returns ``(G_sys, R, pivots)`` with ``G_sys = (R @ G) % 2`` in reduced
    row-echelon form and ``pivots`` the pivot column of each row.
    """
    k, n = G.shape
    A = np.concatenate([G.copy() % 2, np.eye(k, dtype=np.uint8)], axis=1)
    pivots = []
    row = 0
    for col in range(n):
        if row == k:
            break
        hit = None
        for r in range(row, k):
            if A[r, col]:
                hit = r
                break
        if hit is None:
            continue
        if hit != row:
            A[[row, hit]] = A[[hit, row]]
        for r in range(k):
            if r != row and A[r, col]:
                A[r] ^= A[row]
        pivots.append(col)
        row += 1
    if row < k:
        raise ValueError("generator matrix does not have full row rank")
    return A[:, :n], A[:, n:], pivots


class LinearCode:
    """A binary linear block code defined by a k x n generator matrix.

    Attributes ``name``, ``n``, ``k``, ``G`` and the cached minimum distance
    ``d_min`` describe the code; the constructor also precomputes the
    codebook, a parity-check matrix derived by Gaussian elimination (pivot
    order fixed left-to-right), and the syndrome lookup used for decoding.
    Instances are immutable in use: every operation is a pure function, so
    codes are safe to share across threads.
    """

    def __init__(self, name: str, G: np.ndarray):
        G = np.asarray(G, dtype=np.uint8) % 2
        self.name = name
        self.k, self.n = G.shape
        self.G = G
        G.setflags(write=False)

        G_sys, R, pivots = _row_reduce(G)
        self._R = R
        self._pivots = pivots
        # H = [P^T | I] in the coordinate system that puts pivot columns first.
        others = [c for c in range(self.n) if c not in pivots]
        P = G_sys[:, others]
        H = np.zeros((self.n - self.k, self.n), dtype=np.uint8)
        H[:, pivots] = P.T
        H[:, others] = np.eye(self.n - self.k, dtype=np.uint8)
        assert not ((G @ H.T) % 2).any()
        self.H = H
        H.setflags(write=False)

        msgs = np.array(
            [[(m >> (self.k - 1 - i)) & 1 for i in range(self.k)] for m in range(2**self.k)],
            dtype=np.uint8,
        )
        self.messages = msgs
        self.codebook = (msgs @ G) % 2
        self._codeword_index = {self.codebook[m].tobytes(): m for m in range(2**self.k)}
        self.d_min = int(min(int(c.sum()) for c in self.codebook[1:]))

        # syndrome -> error position, for single-error syndrome decoding
        self._syndrome_pos = {}
        for pos in range(self.n):
            e = np.zeros(self.n, dtype=np.uint8)
            e[pos] = 1
            self._syndrome_pos[self.syndrome(e).tobytes()] = pos

    def __repr__(self):
        return f"LinearCode({self.name!r}, n={self.n}, k={self.k}, d_min={self.d_min})"

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        return (np.asarray(word, dtype=np.uint8) @ self.H.T) % 2

    def is_codeword(self, word: np.ndarray) -> bool:
        return not self.syndrome(word).any()

    def message_of(self, codeword: np.ndarray):
        """Message index for an exact codeword, or None."""
        return self._codeword_index.get(np.asarray(codeword, dtype=np.uint8).tobytes())

    @property
    def is_perfect(self) -> bool:
        """True when Hamming spheres of radius 1 tile the whole space."""
        return 2 ** (self.n - self.k) == 1 + self.n


def make_code(name: str) -> LinearCode:
    """Construct one of the built-in codes by name.

    hamming84 uses the fixed 4x8 generator with the overall parity bit in
    the last position; hamming74 drops that last column.  rm13 evaluates
    (all-ones, x1, x2, x3) over the 3-cube, points enumerated 000..111 in
    lexicographic order, which keeps every derived artifact deterministic.
    """
    if name == "hamming84":
        return LinearCode(name, _G_HAMMING84)
    if name == "hamming74":
        return LinearCode(name, _G_HAMMING84[:, :7])
    if name == "rm13":
        points = [((p >> 2) & 1, (p >> 1) & 1, p & 1) for p in range(8)]
        G = np.array([[1] * 8] + [[pt[i] for pt in points] for i in range(3)], dtype=np.uint8)
        return LinearCode(name, G)
    raise ValueError(f"unknown code {name!r}; expected one of {', '.join(CODE_NAMES)}")


# syndrome decoder of hamming84's first seven bits, built once
_INNER_HAMMING74 = make_code("hamming74")


def encode(code: LinearCode, message) -> np.ndarray:
    """Encode ``message`` (length k) to its n-bit codeword."""
    m = bits(message)
    if m.size != code.k:
        raise ValueError(f"message length {m.size} != k={code.k} for {code.name}")
    return (m @ code.G) % 2


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over all nonzero codewords (exhaustive)."""
    if code.k > 20:
        raise ValueError("exhaustive enumeration limited to k <= 20")
    return code.d_min


@dataclass(frozen=True)
class OutputForm:
    """One codeword bit as an XOR of message-bit indices (0-based)."""

    position: int
    terms: tuple
    passthrough: bool

    def render(self) -> str:
        expr = " ^ ".join(f"m{i + 1}" for i in self.terms)
        return f"c{self.position + 1} = {expr}"


def boolean_forms(code: LinearCode):
    """Per-output XOR expressions read off the columns of G.

    Output j collects exactly the message indices i with ``G[i, j] == 1``;
    single-term outputs are flagged as pass-throughs.
    """
    forms = []
    for j in range(code.n):
        terms = tuple(int(i) for i in range(code.k) if code.G[i, j])
        forms.append(OutputForm(position=j, terms=terms, passthrough=len(terms) == 1))
    return forms


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder verdict: delivered message (or None) plus a status flag.

    ``status`` is ``clean`` when the received word was already a codeword,
    ``corrected`` when an error was repaired, and ``uncorrectable`` when the
    decoder refuses to deliver (message is None exactly in that case).
    """

    message: np.ndarray | None
    status: str

    @property
    def delivered(self) -> bool:
        return self.message is not None


def _decode_detect_only(code: LinearCode, r: np.ndarray) -> DecodeOutcome:
    idx = code.message_of(r)
    if idx is None:
        return DecodeOutcome(None, UNCORRECTABLE)
    return DecodeOutcome(code.messages[idx].copy(), CLEAN)


def _decode_hamming74(code: LinearCode, r: np.ndarray) -> DecodeOutcome:
    s = code.syndrome(r)
    if not s.any():
        return DecodeOutcome(code.messages[code.message_of(r)].copy(), CLEAN)
    fixed = r.copy()
    fixed[code._syndrome_pos[s.tobytes()]] ^= 1
    return DecodeOutcome(code.messages[code.message_of(fixed)].copy(), CORRECTED)


def _decode_hamming84(code: LinearCode, r: np.ndarray, inner: LinearCode) -> DecodeOutcome:
    parity_ok = int(r.sum()) % 2 == 0
    s = inner.syndrome(r[:7])
    if parity_ok and not s.any():
        return DecodeOutcome(code.messages[code.message_of(r)].copy(), CLEAN)
    if parity_ok:
        # even-weight error beyond single-bit reach: flag, do not guess
        return DecodeOutcome(None, UNCORRECTABLE)
    fixed = r.copy()
    if s.any():
        fixed[inner._syndrome_pos[s.tobytes()]] ^= 1
    else:
        fixed[7] ^= 1  # only the parity bit itself is off
    return DecodeOutcome(code.messages[code.message_of(fixed)].copy(), CORRECTED)


def _decode_rm13(code: LinearCode, r: np.ndarray, tie_break: str) -> DecodeOutcome:
    # correlate +/-1 images: corr = n - 2 * hamming distance
    corr = (1 - 2 * r.astype(np.int16)) @ (1 - 2 * code.codebook.astype(np.int16)).T
    best = corr.max()
    winners = np.flatnonzero(corr == best)
    if winners.size > 1:
        if tie_break == TIE_CONSERVATIVE:
            return DecodeOutcome(None, UNCORRECTABLE)
        winners = winners[:1]  # lowest message index among the closest candidates
    idx = int(winners[0])
    status = CLEAN if best == code.n else CORRECTED
    return DecodeOutcome(code.messages[idx].copy(), status)


def _decode_nearest(code: LinearCode, r: np.ndarray) -> DecodeOutcome:
    dist = np.count_nonzero(code.codebook != r, axis=1)
    best = dist.min()
    winners = np.flatnonzero(dist == best)
    if winners.size > 1:
        return DecodeOutcome(None, UNCORRECTABLE)
    status = CLEAN if best == 0 else CORRECTED
    return DecodeOutcome(code.messages[int(winners[0])].copy(), status)


def decode(code: LinearCode, received, mode: str = CORRECT,
           tie_break: str = TIE_CONSERVATIVE) -> DecodeOutcome:
    """Decode a received n-bit word.

    ``detect_only`` reports clean for exact codewords and uncorrectable for
    everything else.  ``correct`` applies the code's own decoder: complete
    syndrome decoding (hamming74), parity-plus-syndrome (hamming84), or
    full correlation against all 16 codewords (rm13).  ``tie_break`` only
    affects rm13, whose distance-2 ties are refused by default and resolved
    to the lowest-index closest codeword under ``optimistic``.
    """
    r = bits(received)
    if r.size != code.n:
        raise ValueError(f"received length {r.size} != n={code.n} for {code.name}")
    if mode == DETECT_ONLY:
        return _decode_detect_only(code, r)
    if mode != CORRECT:
        raise ValueError(f"unknown decode mode {mode!r}")
    if code.name == "hamming74":
        return _decode_hamming74(code, r)
    if code.name == "hamming84":
        return _decode_hamming84(code, r, _INNER_HAMMING74)
    if code.name == "rm13":
        return _decode_rm13(code, r, tie_break)
    return _decode_nearest(code, r)


@dataclass(frozen=True)
class PatternAnalysis:
    """Classification of every weight-t error pattern under one decoder.

    ``corrected`` counts exact deliveries (clean or repaired to the true
    message), ``miscorrected`` confident-but-wrong repairs, ``undetected``
    silently accepted wrong codewords, and ``detected`` refusals.  The four
    buckets always sum to C(n, t).
    """

    weight: int
    total: int
    undetected: int
    detected: int
    corrected: int
    miscorrected: int


def analyze_patterns(code: LinearCode, mode: str, weight: int,
                     tie_break: str = TIE_CONSERVATIVE,
                     base_codeword=None) -> PatternAnalysis:
    """Classify all weight-t patterns applied to a transmitted codeword.

    The zero codeword suffices by linearity for the deterministic decoders;
    ``base_codeword`` lets tests spot-check that.  Note the optimistic rm13
    tie-break is index-based and therefore not translation invariant: its
    counts are a best-case construct evaluated on the given codeword.
    """
    if not 0 <= weight <= code.n:
        raise ValueError(f"weight {weight} out of range 0..{code.n}")
    sent = np.zeros(code.n, dtype=np.uint8) if base_codeword is None else bits(base_codeword)
    sent_idx = code.message_of(sent)
    if sent_idx is None:
        raise ValueError("base_codeword is not a codeword")
    true_msg = code.messages[sent_idx]

    buckets = {"undetected": 0, "detected": 0, "corrected": 0, "miscorrected": 0}
    for flips in itertools.combinations(range(code.n), weight):
        r = sent.copy()
        r[list(flips)] ^= 1
        out = decode(code, r, mode, tie_break)
        if out.status == UNCORRECTABLE:
            buckets["detected"] += 1
        elif np.array_equal(out.message, true_msg):
            buckets["corrected"] += 1
        elif out.status == CLEAN:
            buckets["undetected"] += 1
        else:
            buckets["miscorrected"] += 1
    return PatternAnalysis(weight=weight, total=comb(code.n, weight), **buckets)


@dataclass(frozen=True)
class CapabilitySummary:
    """Detect/correct capabilities from exhaustive enumeration.

    Per-mode figures:

    * ``guaranteed_detect``: largest t with every pattern of weight <= t
      flagged in detect-only mode.
    * ``guaranteed_correct``: largest t with every pattern of weight <= t
      repaired to the true message in correct mode.
    * ``correct_mode_safe``: largest t with no silent wrong delivery in
      correct mode (miscorrections and clean-wrong both disqualify).
    * ``partial_detect``: largest t whose lower weights are fully detected
      while at least one weight-t pattern is still flagged (detect-only).
    * ``opportunistic_correct``: largest t with at least one weight-t
      pattern delivered correctly under optimistic tie-breaking.

    The worst/best table cells map these to the reference convention: a
    perfect code operates its correcting decoder (which accepts every word,
    so its worst-case detection collapses to ``correct_mode_safe`` and its
    best case is the partial-detection weight), while the extended codes
    report the guaranteed detect-only radius in both columns.
    """

    name: str
    d_min: int
    is_perfect: bool
    guaranteed_detect: int
    guaranteed_correct: int
    correct_mode_safe: int
    partial_detect: int
    opportunistic_correct: int

    @property
    def worst_detect(self) -> int:
        return self.correct_mode_safe if self.is_perfect else self.guaranteed_detect

    @property
    def worst_correct(self) -> int:
        return self.guaranteed_correct

    @property
    def best_detect(self) -> int:
        return self.partial_detect if self.is_perfect else self.guaranteed_detect

    @property
    def best_correct(self) -> int:
        return self.opportunistic_correct

    def table_row(self) -> dict:
        return {
            "code": self.name,
            "d_min": self.d_min,
            "worst_detect": self.worst_detect,
            "worst_correct": self.worst_correct,
            "best_detect": self.best_detect,
            "best_correct": self.best_correct,
        }


def capability_summary(code: LinearCode) -> CapabilitySummary:
    """Enumerate every error weight under each decoder mode and summarize."""
    detect = [analyze_patterns(code, DETECT_ONLY, t) for t in range(code.n + 1)]
    correct = [analyze_patterns(code, CORRECT, t) for t in range(code.n + 1)]
    optimist = [analyze_patterns(code, CORRECT, t, tie_break=TIE_OPTIMISTIC)
                for t in range(code.n + 1)]

    def largest(pred) -> int:
        t = 0
        while t + 1 <= code.n and pred(t + 1):
            t += 1
        return t

    guaranteed_detect = largest(
        lambda t: all(detect[w].undetected == 0 for w in range(1, t + 1)))
    guaranteed_correct = largest(
        lambda t: all(correct[w].corrected == correct[w].total for w in range(1, t + 1)))
    correct_mode_safe = largest(
        lambda t: all(correct[w].undetected == 0 and correct[w].miscorrected == 0
                      for w in range(1, t + 1)))
    partial_detect = 0
    for t in range(1, code.n + 1):
        if all(detect[w].undetected == 0 for w in range(1, t)) and detect[t].detected > 0:
            partial_detect = t
    opportunistic_correct = max(
        (t for t in range(1, code.n + 1) if optimist[t].corrected > 0), default=0)

    return CapabilitySummary(
        name=code.name,
        d_min=code.d_min,
        is_perfect=code.is_perfect,
        guaranteed_detect=guaranteed_detect,
        guaranteed_correct=guaranteed_correct,
        correct_mode_safe=correct_mode_safe,
        partial_detect=partial_detect,
        opportunistic_correct=opportunistic_correct,
    )
