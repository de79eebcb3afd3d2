"""Binary linear block codes for a 4-bit cryogenic output link.

Three built-in codes are provided, addressable by name everywhere in the
package (CLI, configs, reports):

* ``hamming74``  -- the perfect (7,4,3) Hamming code,
* ``hamming84``  -- the extended (8,4,4) Hamming code (overall parity bit),
* ``rm13``      -- the first-order (8,4,4) Reed-Muller code.

Codewords are computed as ``(message @ G) % 2``.  Every code decodes by
nearest-codeword lookup: its constructor tabulates, for each of the 2^n
received words, the distance to the nearest codeword, the lowest-index
nearest message and whether that nearest codeword is tied.  Detect-only
mode delivers exact codewords only; correct mode delivers the unique
nearest codeword and refuses ties.  rm13, whose correlation decoder can
pick among equally correlated codewords, is built with ``resolves_ties``:
under ``optimistic`` tie-breaking it delivers the lowest-index tied
codeword.  For the built-in codes this is exactly complete syndrome
decoding (hamming74), parity-plus-syndrome decoding (hamming84, which never
resolves its distance-2 ties) and correlation decoding (rm13).  Exhaustive
error-pattern classification and capability summaries are read off the
same table, never hard-coded.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

CODE_NAMES = ("hamming74", "hamming84", "rm13")

CLEAN = "clean"
CORRECTED = "corrected"
UNCORRECTABLE = "uncorrectable"

DETECT_ONLY = "detect_only"
CORRECT = "correct"

# Tie handling in correct mode, for codes built with ``resolves_ties``.
TIE_CONSERVATIVE = "conservative"  # ties are reported uncorrectable
TIE_OPTIMISTIC = "optimistic"      # ties resolve to the lowest-index candidate
TIE_POLICIES = (TIE_CONSERVATIVE, TIE_OPTIMISTIC)

_G_HAMMING84 = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0, 1],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [1, 1, 0, 1, 0, 0, 1, 0],
    ],
    dtype=np.uint8,
)


_BIT_VALUES = frozenset((0, 1))


def bits(s) -> np.ndarray:
    """Coerce a bit string like ``"1011"`` (or any 0/1 sequence) to uint8."""
    if isinstance(s, str):
        if not s or any(ch not in "01" for ch in s):
            raise ValueError(f"not a bit string: {s!r}")
        return np.array([int(ch) for ch in s], dtype=np.uint8)
    a = np.asarray(s)
    # checked before the cast, which would wrap 256 to 0 and truncate 0.5;
    # set membership compares by ==, so 1.0 and True pass as they would in
    # ``((a == 0) | (a == 1)).all()``, at a fraction of its cost on short vectors
    if a.ndim != 1 or not _BIT_VALUES.issuperset(a.tolist()):
        raise ValueError("bit vector must be one-dimensional over {0,1}")
    return a.astype(np.uint8)


def bitstr(a) -> str:
    """Render a bit vector as a compact string, e.g. ``01100110``."""
    return "".join(str(int(b)) for b in np.asarray(a).ravel())


def pack(bits) -> np.ndarray:
    """Index of each bit vector along the last axis, first bit most significant."""
    bits = np.asarray(bits)
    weights = 1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def _unpack(words, width: int) -> np.ndarray:
    """Inverse of :func:`pack`: ``width`` uint8 bits per index."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(words)[..., None] >> shifts) & 1).astype(np.uint8)


class LinearCode:
    """A binary linear block code defined by a k x n generator matrix.

    Attributes ``name``, ``n``, ``k``, ``G`` and the cached minimum distance
    ``d_min`` describe the code; the constructor also precomputes the
    codebook and the nearest-codeword table that membership, message lookup
    and every decoder read: per received word (indexed by :func:`pack`) the
    nearest ``distance``, the lowest-index ``nearest`` message and whether
    the nearest codeword is ``tied``.  ``resolves_ties`` lets correct mode
    deliver a tied word under :data:`TIE_OPTIMISTIC`.  The decode table of
    each (mode, tie policy) is derived from it once, here.  Instances are
    immutable in use: every operation is a pure function, so codes are safe
    to share across threads.
    """

    def __init__(self, name: str, G: np.ndarray, *, resolves_ties: bool = False):
        G = np.asarray(G)
        # checked before the cast, by the rule of :func:`bits`
        if G.ndim != 2 or not G.size or not _BIT_VALUES.issuperset(G.ravel().tolist()):
            raise ValueError("generator matrix must be a non-empty 2-D array over {0,1}")
        G = G.astype(np.uint8)
        self.name = name
        self.resolves_ties = resolves_ties
        self.k, self.n = G.shape
        if self.n + self.k > 20:
            raise ValueError("the nearest-codeword table is limited to n + k <= 20")
        self.G = G
        G.setflags(write=False)

        self.messages = _unpack(np.arange(2**self.k), self.k)
        self.codebook = (self.messages @ G) % 2
        self.d_min = int(self.codebook[1:].sum(axis=1).min())
        # over GF(2), rank < k exactly when a nonzero message encodes to zero
        if self.d_min == 0:
            raise ValueError("generator matrix does not have full row rank")

        words = np.arange(2**self.n)
        dist = _unpack(words, self.n).sum(axis=1)[words[:, None] ^ pack(self.codebook)]
        self.distance = dist.min(axis=1)
        # the lowest message index among ties; int16 keeps batch lookups small
        self.nearest = dist.argmin(axis=1).astype(np.int16)
        self.tied = (dist == self.distance[:, None]).sum(axis=1) > 1
        exact = np.where(self.distance > 0, -1, self.nearest)
        unique = np.where(self.tied, -1, self.nearest)
        self._decode_tables = {
            (DETECT_ONLY, TIE_CONSERVATIVE): exact,
            (DETECT_ONLY, TIE_OPTIMISTIC): exact,
            (CORRECT, TIE_CONSERVATIVE): unique,
            (CORRECT, TIE_OPTIMISTIC): self.nearest if resolves_ties else unique,
        }
        self._weights = 1 << np.arange(self.n - 1, -1, -1, dtype=np.int64)
        for table in (self.distance, self.nearest, self.tied, exact, unique, self._weights):
            table.setflags(write=False)

    def __repr__(self):
        return f"LinearCode({self.name!r}, n={self.n}, k={self.k}, d_min={self.d_min})"

    def _index(self, word) -> int:
        """Table index (:func:`pack`) of an n-bit word; ``ValueError`` for anything else."""
        r = bits(word)
        if r.size != self.n:
            raise ValueError(f"word length {r.size} != n={self.n} for {self.name}")
        return int(r.dot(self._weights))

    def is_codeword(self, word) -> bool:
        return self.message_of(word) is not None

    def message_of(self, word):
        """Message index of an exact codeword, None for any other n-bit word."""
        w = self._index(word)
        return int(self.nearest[w]) if self.distance[w] == 0 else None

    def decode_table(self, mode: str = CORRECT, tie_break: str = TIE_CONSERVATIVE):
        """Message index delivered per received word (indexed by :func:`pack`), -1 if refused.

        The tables are built once per code and are read-only.
        ``detect_only`` delivers exact codewords only.  ``correct`` delivers
        the nearest codeword unless it is tied; a code that resolves ties
        delivers the lowest-index tied one under ``optimistic``.
        """
        if tie_break not in TIE_POLICIES:
            raise ValueError(f"unknown tie_break {tie_break!r}; expected one of "
                             f"{', '.join(TIE_POLICIES)}")
        if mode not in (DETECT_ONLY, CORRECT):
            raise ValueError(f"unknown decode mode {mode!r}")
        return self._decode_tables[mode, tie_break]

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
    Only rm13 resolves ties: its correlation decoder may pick among equally
    close codewords, where the parity-plus-syndrome decoder of hamming84
    never does.
    """
    if name == "hamming84":
        return LinearCode(name, _G_HAMMING84)
    if name == "hamming74":
        return LinearCode(name, _G_HAMMING84[:, :7])
    if name == "rm13":
        points = [((p >> 2) & 1, (p >> 1) & 1, p & 1) for p in range(8)]
        G = np.array([[1] * 8] + [[pt[i] for pt in points] for i in range(3)], dtype=np.uint8)
        return LinearCode(name, G, resolves_ties=True)
    raise ValueError(f"unknown code {name!r}; expected one of {', '.join(CODE_NAMES)}")


def encode(code: LinearCode, message) -> np.ndarray:
    """Encode ``message`` (length k) to its n-bit codeword."""
    m = bits(message)
    if m.size != code.k:
        raise ValueError(f"message length {m.size} != k={code.k} for {code.name}")
    return (m @ code.G) % 2


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


def decode(code: LinearCode, received, mode: str = CORRECT,
           tie_break: str = TIE_CONSERVATIVE) -> DecodeOutcome:
    """Decode a received n-bit word by one lookup in the code's table.

    ``detect_only`` reports clean for exact codewords and uncorrectable for
    everything else.  ``correct`` delivers the unique nearest codeword:
    clean at distance 0, corrected beyond, uncorrectable on a tie.
    ``tie_break`` only affects codes built with ``resolves_ties`` (rm13),
    whose ties resolve to the lowest-index nearest codeword under
    ``optimistic``.
    """
    w = code._index(received)
    m = int(code.decode_table(mode, tie_break)[w])
    if m < 0:
        return DecodeOutcome(None, UNCORRECTABLE)
    return DecodeOutcome(code.messages[m].copy(), CLEAN if code.distance[w] == 0 else CORRECTED)


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
    if isinstance(weight, bool) or not isinstance(weight, numbers.Integral):
        raise ValueError(f"weight must be an integer, got {weight!r}")
    if not 0 <= weight <= code.n:
        raise ValueError(f"weight {weight} out of range 0..{code.n}")
    sent = np.zeros(code.n, dtype=np.uint8) if base_codeword is None else bits(base_codeword)
    sent_idx = code.message_of(sent)
    if sent_idx is None:
        raise ValueError("base_codeword is not a codeword")

    flips = np.arange(2**code.n)
    received = pack(sent) ^ flips[_unpack(flips, code.n).sum(axis=1) == weight]
    got = code.decode_table(mode, tie_break)[received]
    detected = int((got < 0).sum())
    corrected = int((got == sent_idx).sum())
    undetected = int(((got != sent_idx) & (code.distance[received] == 0)).sum())
    return PatternAnalysis(weight=weight, total=comb(code.n, weight), undetected=undetected,
                           detected=detected, corrected=corrected,
                           miscorrected=len(received) - detected - corrected - undetected)


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
