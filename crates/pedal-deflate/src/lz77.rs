//! LZ77 string matching over a 32 KiB window, with optional lazy
//! evaluation: the front half of DEFLATE compression.
//!
//! The candidates for a match at `pos` are the earlier positions in the
//! window whose 3-byte hash equals `pos`'s, newest first, walked under a
//! `max_chain` budget. [`tokenize`] looks them up only after every
//! position before `pos` has been inserted and none at or after it, so
//! that list is fixed by the input alone. Two sources produce it:
//!
//! * **hash chains** — zlib's `head`/`prev` tables, one dependent load
//!   per link;
//! * **sorted runs** — every position of a segment and its 32 KiB
//!   lookback, counting-sorted by (hash, position). The list at `pos` is the
//!   run of equal-hash keys just before `pos`'s own key, read backwards:
//!   sequential reads whose candidate loads do not depend on each other.
//!
//! Both sources list the same candidates in the same order, so they emit
//! identical tokens. [`tokenize`] picks one per segment from how many
//! links the previous segment walked: sorting pays only for long chains.
//!
//! The candidate list, and so the match found at `pos`, depends only on
//! the input and `pos`. The lazy parse is therefore a function of its
//! state, the next position and the match pending from the byte before it:
//! two parses that reach the same state emit the same tokens from there
//! on. [`tokenize_split`] parses the segments of a large input on several
//! cores from a fresh state each, and joins them at the first match end
//! past each seam that both parses reach with no match pending; the tokens
//! are those of the sequential parse whatever the core count.

use crate::consts::{MAX_MATCH, MIN_MATCH, WINDOW_SIZE};
use crate::split::{self, MatchEnds};
use std::cell::Cell;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match { len: u16, dist: u16 },
}

/// Tunable matcher effort, mirroring zlib's level ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherParams {
    /// Maximum candidates examined per position.
    pub max_chain: usize,
    /// zlib's *nice_length*: stop searching once a match this long is
    /// found. (zlib's *good_length*, which shortens the chain after a good
    /// match, has no counterpart here.)
    pub nice_len: usize,
    /// Use lazy matching (defer emission by one byte looking for better).
    pub lazy: bool,
    /// Matches at least this long skip the lazy search at the next byte.
    pub lazy_skip_len: usize,
}

impl MatcherParams {
    /// Parameters for a compression level 0..=9 (zlib-like ladder).
    ///
    /// Level 0 means *no matching at all* (zlib's stored semantics): the
    /// tokenizer emits every byte as a literal, and the block encoder is
    /// expected to fall back to stored blocks. Levels above 9 clamp to 9.
    pub fn for_level(level: u8) -> Self {
        match level.min(9) {
            0 => Self { max_chain: 0, nice_len: 0, lazy: false, lazy_skip_len: 0 },
            1 => Self { max_chain: 4, nice_len: 8, lazy: false, lazy_skip_len: 0 },
            2 => Self { max_chain: 8, nice_len: 16, lazy: false, lazy_skip_len: 0 },
            3 => Self { max_chain: 32, nice_len: 32, lazy: false, lazy_skip_len: 0 },
            4 => Self { max_chain: 16, nice_len: 16, lazy: true, lazy_skip_len: 32 },
            5 => Self { max_chain: 32, nice_len: 32, lazy: true, lazy_skip_len: 64 },
            6 => Self { max_chain: 128, nice_len: 128, lazy: true, lazy_skip_len: 128 },
            7 => Self { max_chain: 256, nice_len: 128, lazy: true, lazy_skip_len: 128 },
            8 => Self { max_chain: 1024, nice_len: 258, lazy: true, lazy_skip_len: 258 },
            _ => Self { max_chain: 4096, nice_len: 258, lazy: true, lazy_skip_len: 258 },
        }
    }
}

/// Where the matcher reads its candidates from. Every source yields the
/// same tokens; forcing one is for differential tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidates {
    /// Choose per segment from the previous segment's chain density.
    Adaptive,
    /// Always walk hash chains.
    HashChains,
    /// Always read sorted runs.
    SortedRuns,
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Positions a segment looks candidates up for. With the 32 KiB lookback
/// a segment's offsets fill the 17 bits a sorted key leaves them. The
/// first segment is short: it walks hash chains, so small inputs never pay
/// for a sort, and it measures the chain density the next one picks by.
const FIRST_SEGMENT: usize = 16 * 1024;
const SEGMENT: usize = 96 * 1024;
const OFFSET_BITS: u32 = 17;
const OFFSET_MASK: u32 = (1 << OFFSET_BITS) - 1;
const _: () = assert!(WINDOW_SIZE + SEGMENT <= 1 << OFFSET_BITS);

/// A segment that walked at least this many links per byte reads the
/// next segment from sorted runs; sparser chains are cheaper to walk
/// than to sort.
const SORTED_LINKS_PER_BYTE: usize = 3;

/// Multiplicative hash of the 3 bytes at `pos`.
#[inline]
fn hash3(data: &[u8], pos: usize) -> u32 {
    hash_bytes(data[pos], data[pos + 1], data[pos + 2])
}

#[inline]
fn hash_bytes(a: u8, b: u8, c: u8) -> u32 {
    u32::from_le_bytes([a, b, c, 0]).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)
}

/// zlib-style hash chains, filled lazily up to the position looked up.
///
/// Each thread keeps one set of tables from input to input. An input's
/// positions are stored as `base + 1 + pos`, above every value an earlier
/// input left behind, so a new input starts with empty chains without
/// clearing (or faulting in) 256 KiB of tables.
struct HashChains {
    /// head[h] = the most recent position with hash h.
    head: Vec<u32>,
    /// prev[pos % WINDOW_SIZE] = the previous position with pos's hash.
    prev: Vec<u32>,
    /// Stored values at or below `base` belong to earlier inputs.
    base: u32,
    /// First position not yet inserted.
    next: usize,
}

thread_local! {
    /// Tables the last input on this thread left behind, so the next one
    /// neither allocates nor faults them in again.
    static SPARE_CHAINS: Cell<Option<HashChains>> = const { Cell::new(None) };
}

impl HashChains {
    /// Empty chains for an input of `len` bytes, reusing this thread's
    /// tables when it has them.
    fn acquire(len: usize) -> Self {
        let spare = SPARE_CHAINS.try_with(Cell::take).ok().flatten();
        let mut chains = spare.unwrap_or_else(|| Self {
            head: vec![0; HASH_SIZE],
            prev: vec![0; WINDOW_SIZE],
            base: 0,
            next: 0,
        });
        if chains.base as u64 + len as u64 >= u32::MAX as u64 {
            chains.head.fill(0);
            chains.base = 0;
        }
        chains.next = 0;
        chains
    }

    /// Hand the tables back once the input of `len` bytes is done.
    fn release(mut self, len: usize) {
        self.base += len as u32;
        // Only fails while the thread is exiting; the tables are then dropped.
        let _ = SPARE_CHAINS.try_with(|spare| spare.set(Some(self)));
    }

    /// Insert every position before `end` that starts a 3-byte string.
    /// Entries older than a skipped stretch are never inside a later
    /// window, so resuming at a segment's lookback leaves exact chains.
    fn insert_until(&mut self, data: &[u8], end: usize) {
        let stop = end.min(data.len().saturating_sub(MIN_MATCH - 1));
        for p in self.next..stop {
            let h = hash3(data, p) as usize;
            self.prev[p % WINDOW_SIZE] = self.head[h];
            self.head[h] = self.base + 1 + p as u32;
        }
        self.next = self.next.max(end);
    }

    /// Whether the chain of hash `h` holds a position at or after `floor`.
    fn reaches(&self, h: u32, floor: usize) -> bool {
        let cand = self.head[h as usize];
        cand > self.base && (cand - self.base - 1) as usize >= floor
    }

    /// Walk the chain of hash `h` down to `floor` (positions up to the
    /// searched one already inserted); returns the links walked.
    fn search(&self, h: u32, floor: usize, budget: usize, s: &mut Search) -> usize {
        let mut cand = self.head[h as usize];
        let mut links = 0;
        while cand > self.base && links < budget {
            let cpos = (cand - self.base - 1) as usize;
            if cpos < floor {
                break;
            }
            links += 1;
            // SAFETY: chains hold only positions inserted so far, all
            // before `pos`; a value decodes to at most the position stored
            // (u32 truncation of a huge input only lowers it).
            if unsafe { s.passes(cpos) && s.measure(cpos) } {
                break;
            }
            cand = self.prev[cpos % WINDOW_SIZE];
        }
        links
    }
}

/// One segment's positions sorted by (hash, position), as
/// `hash << OFFSET_BITS | offset` keys relative to `base`.
struct SortedRuns {
    base: usize,
    keys: Vec<u32>,
    /// rank[offset] = index of that offset's key in `keys`.
    rank: Vec<u32>,
    /// Per hash, the keys before its run, then the next free slot in it.
    bucket: Vec<u32>,
}

impl SortedRuns {
    /// Buffers for the longest segment, so none is copied to grow.
    fn new() -> Self {
        let cap = || Vec::with_capacity(WINDOW_SIZE + SEGMENT);
        Self { base: 0, keys: cap(), rank: cap(), bucket: vec![0; HASH_SIZE] }
    }

    /// Sort the positions `base..end` that start a 3-byte string.
    ///
    /// One stable counting sort by hash: count each hash (parking it in
    /// `rank`), turn the counts into each run's first slot, then place
    /// every key at its run's cursor in position order, so ties stay in
    /// it. Each bucket fills in one pass and is never re-sorted.
    fn build(&mut self, data: &[u8], base: usize, end: usize) {
        let end = end.min(data.len().saturating_sub(MIN_MATCH - 1));
        self.base = base;
        let len = end - base;
        let bucket = &mut self.bucket;
        bucket.fill(0);
        self.rank.clear();
        let strings = data[base..end + MIN_MATCH - 1].windows(MIN_MATCH);
        self.rank.extend(strings.map(|w| {
            let h = hash_bytes(w[0], w[1], w[2]);
            bucket[h as usize] += 1;
            h
        }));
        exclusive_prefix_sum(bucket);
        self.keys.clear();
        self.keys.resize(len, 0);
        for (i, r) in self.rank.iter_mut().enumerate() {
            let h = *r;
            let slot = &mut bucket[h as usize];
            self.keys[*slot as usize] = h << OFFSET_BITS | i as u32;
            *r = *slot;
            *slot += 1;
        }
    }

    /// Walk the run of hash `h` before `pos`'s own key, newest first, down
    /// to `floor`; returns the links walked. Four candidates are filtered
    /// together, so a chunk that holds no possible match costs one branch.
    fn search(&self, pos: usize, h: u32, floor: usize, budget: usize, s: &mut Search) -> usize {
        let rank = self.rank[pos - self.base] as usize;
        // Every key in `min_key..` before `rank` has hash `h` and an offset
        // in `floor - base..pos - base`: a candidate inside the window.
        let min_key = h << OFFSET_BITS | (floor - self.base) as u32;
        let at = |k: u32| self.base + (k & OFFSET_MASK) as usize;
        // One candidate; false once the walk is over.
        let step = |s: &mut Search, k: u32, links: &mut usize| {
            if k < min_key {
                return false;
            }
            *links += 1;
            // SAFETY: `k >= min_key`, so `at(k)` precedes `pos`.
            !unsafe { s.passes(at(k)) && s.measure(at(k)) }
        };
        let mut links = 0;
        let mut chunks = self.keys[rank.saturating_sub(budget)..rank].rchunks_exact(4);
        for chunk in &mut chunks {
            // Keys ascend, so the chunk is all in the run when its first is.
            // SAFETY: then every `at(k)` in it precedes `pos`.
            if chunk[0] >= min_key
                && !unsafe {
                    s.passes(at(chunk[0]))
                        | s.passes(at(chunk[1]))
                        | s.passes(at(chunk[2]))
                        | s.passes(at(chunk[3]))
                }
            {
                links += 4;
            } else if !chunk.iter().rev().all(|&k| step(s, k, &mut links)) {
                return links;
            }
        }
        chunks.remainder().iter().rev().all(|&k| step(s, k, &mut links));
        links
    }
}

fn exclusive_prefix_sum(counts: &mut [u32]) {
    let mut sum = 0;
    for c in counts {
        sum += std::mem::replace(c, sum);
    }
}

/// Candidate lookup for one [`tokenize`] call.
struct Matcher<'a> {
    data: &'a [u8],
    params: MatcherParams,
    source: Candidates,
    /// The current segment is `seg_start..seg_end`.
    seg_start: usize,
    seg_end: usize,
    /// Links walked in the current segment.
    seg_links: usize,
    sorted: bool,
    chains: Option<HashChains>,
    runs: Option<SortedRuns>,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8], params: MatcherParams, source: Candidates) -> Self {
        Self {
            data,
            params,
            source,
            seg_start: 0,
            seg_end: 0,
            seg_links: 0,
            sorted: false,
            chains: None,
            runs: None,
        }
    }

    fn start_segment(&mut self, pos: usize) {
        let dense = self.seg_links >= SORTED_LINKS_PER_BYTE * (pos - self.seg_start);
        let sorted = match self.source {
            Candidates::Adaptive => self.seg_end > 0 && dense,
            Candidates::HashChains => false,
            Candidates::SortedRuns => true,
        };
        self.seg_start = pos;
        self.seg_end = pos + if self.seg_end == 0 { FIRST_SEGMENT } else { SEGMENT };
        self.seg_links = 0;
        let lookback = pos.saturating_sub(WINDOW_SIZE);
        if sorted {
            self.runs.get_or_insert_with(SortedRuns::new).build(self.data, lookback, self.seg_end);
        } else {
            let chains = self.chains.get_or_insert_with(|| HashChains::acquire(self.data.len()));
            chains.next = chains.next.max(lookback);
        }
        self.sorted = sorted;
    }

    /// Look the next position up as if from a fresh matcher: after a jump
    /// ahead, the current segment's candidates no longer apply.
    fn restart(&mut self) {
        self.seg_end = 0;
    }

    /// Longest match at `pos`, at least `MIN_MATCH` long, or None.
    fn find_match(&mut self, pos: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if pos + MIN_MATCH > data.len() || self.params.max_chain == 0 {
            return None;
        }
        if pos >= self.seg_end {
            self.start_segment(pos);
        }
        let h = hash3(data, pos);
        let floor = pos.saturating_sub(WINDOW_SIZE);
        let budget = self.params.max_chain;
        if !self.sorted {
            let chains = self.chains.as_mut().expect("chain segments allocate their chains");
            chains.insert_until(data, pos);
            if !chains.reaches(h, floor) {
                return None;
            }
        }
        let mut s = Search::new(data, pos, self.params.nice_len);
        self.seg_links += if self.sorted {
            let runs = self.runs.as_ref().expect("sorted segments build their runs");
            runs.search(pos, h, floor, budget, &mut s)
        } else {
            let chains = self.chains.as_ref().expect("chain segments allocate their chains");
            chains.search(h, floor, budget, &mut s)
        };
        (s.dist > 0).then_some((s.len, s.dist))
    }
}

impl Drop for Matcher<'_> {
    fn drop(&mut self) {
        if let Some(chains) = self.chains.take() {
            chains.release(self.data.len());
        }
    }
}

/// The longest match found so far at `pos`.
///
/// A candidate can only beat `len` if it agrees on every byte up to and
/// including `len`, so before measuring one it must agree on the 3 bytes
/// at `pos` (no match yet) or on the 4 bytes ending at `len`. The filter
/// never skips a longer match, so the result is that of measuring every
/// candidate.
struct Search<'a> {
    data: &'a [u8],
    pos: usize,
    max_len: usize,
    nice_len: usize,
    /// Best length so far (`MIN_MATCH - 1` before any match) and its
    /// distance (0 before any match).
    len: usize,
    dist: usize,
    /// A candidate `c` passes when `word(c + off) & mask == want`.
    off: usize,
    mask: u32,
    want: u32,
}

impl<'a> Search<'a> {
    fn new(data: &'a [u8], pos: usize, nice_len: usize) -> Self {
        let want = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], 0]);
        let max_len = MAX_MATCH.min(data.len() - pos);
        Self {
            data,
            pos,
            max_len,
            nice_len,
            len: MIN_MATCH - 1,
            dist: 0,
            off: 0,
            mask: 0xFF_FFFF,
            want,
        }
    }

    /// Whether candidate `cpos` can beat the current best.
    ///
    /// # Safety
    ///
    /// `cpos < pos`. The word read then ends at most one byte past `len`
    /// beyond `cpos`, before `pos + max_len <= data.len()`: `len <
    /// max_len` while the search runs, and with no match yet the read
    /// ends by `pos + 3`.
    #[inline]
    unsafe fn passes(&self, cpos: usize) -> bool {
        debug_assert!(cpos < self.pos);
        // SAFETY: the read ends by `pos + max_len <= data.len()`, by the
        // caller's `cpos < pos`, as above.
        let word = unsafe { read_u32_le(self.data, cpos + self.off) };
        word & self.mask == self.want
    }

    /// Measure a candidate that passed; true once the search is done.
    ///
    /// # Safety
    ///
    /// `cpos < pos`.
    #[inline]
    unsafe fn measure(&mut self, cpos: usize) -> bool {
        debug_assert!(cpos < self.pos);
        // SAFETY: `cpos < pos` by the caller, and `pos + max_len <=
        // data.len()` by construction.
        let len = unsafe { match_len(self.data, cpos, self.pos, self.max_len) };
        if len > self.len {
            self.len = len;
            self.dist = self.pos - cpos;
            if len >= self.nice_len || len == self.max_len {
                return true;
            }
            self.off = len - 3;
            self.mask = u32::MAX;
            // SAFETY: `len < max_len`, so the word ends by `pos + len + 1
            // <= pos + max_len <= data.len()`.
            self.want = unsafe { read_u32_le(self.data, self.pos + self.off) };
        }
        false
    }
}

/// The little-endian word at `data[pos..pos + 4]`, read unaligned and
/// without a bounds check. The DEFLATE and LZ4 matchers read their
/// candidate words with it.
///
/// # Safety
///
/// `pos + 4 <= data.len()`.
#[inline(always)]
pub unsafe fn read_u32_le(data: &[u8], pos: usize) -> u32 {
    debug_assert!(pos + 4 <= data.len());
    // SAFETY: in bounds by the caller's contract; the read is unaligned.
    u32::from_le(unsafe { data.as_ptr().add(pos).cast::<u32>().read_unaligned() })
}

/// Read 8 bytes at `pos` as a little-endian word via a fixed-size copy.
/// Callers guarantee `pos + 8 <= data.len()`; the bounds check lives in
/// the slice indexing, with no fallible slice-to-array conversion. The
/// LZ4 decoder reads its words with it.
#[inline]
pub fn read_u64_le(data: &[u8], pos: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&data[pos..pos + 8]);
    u64::from_le_bytes(word)
}

/// How many bytes `data[a..]` and `data[b..]` share, up to `max`,
/// compared 8 bytes at a time without bounds checks. The DEFLATE and LZ4
/// matchers extend their matches with it.
///
/// # Safety
///
/// `a <= b` and `b + max <= data.len()`.
#[inline(always)]
pub unsafe fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    debug_assert!(a <= b && b + max <= data.len());
    let at = |k: usize| data.as_ptr().wrapping_add(k);
    let mut i = 0usize;
    while i + 8 <= max {
        // SAFETY: both words end by `b + i + 8 <= b + max <= data.len()`.
        let (x, y) = unsafe {
            (at(a + i).cast::<u64>().read_unaligned(), at(b + i).cast::<u64>().read_unaligned())
        };
        let diff = u64::from_le(x ^ y);
        if diff != 0 {
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    // SAFETY: `a + i <= b + i < b + max <= data.len()`.
    while i < max && unsafe { *at(a + i) == *at(b + i) } {
        i += 1;
    }
    i
}

/// Tokenize `data` into literals and matches using the given parameters,
/// reading candidates from hash chains or sorted runs segment by segment.
///
/// The callback is invoked once per token in order; this avoids materializing
/// a token vector when the caller streams straight into an encoder.
///
/// An input of at least 256 KiB is split into segments of at least
/// 128 KiB, at most one per core, parsed concurrently (see
/// [`tokenize_split`]); the tokens are those of the sequential parse. On a
/// [`crate::pool`] worker the parse stays on the calling thread.
pub fn tokenize(data: &[u8], params: MatcherParams, emit: impl FnMut(Token)) {
    tokenize_split(data, params, split::DEFLATE.segments(data.len()), emit);
}

/// [`tokenize`] with the candidate source forced, on the calling thread;
/// every source emits the same tokens.
pub fn tokenize_from(
    data: &[u8],
    params: MatcherParams,
    source: Candidates,
    mut emit: impl FnMut(Token),
) {
    let mut m = Matcher::new(data, params, source);
    let mut state = Parse::START;
    parse_from(&mut m, &mut state, |_| false, &mut emit);
    state.finish(&mut emit);
}

/// [`tokenize`] split into `segments` near-equal segments, with no minimum
/// segment size; the tokens are the same for every count. Returns how
/// many seams resynchronised.
///
/// The segments run on [`crate::split`]. A helper records its tokens as
/// 4-byte steps. The calling thread adopts them at a helper's match end
/// that it reaches with no match pending: `find_match` is pure in (data,
/// pos), so from equal states both parses emit the same tokens.
pub fn tokenize_split(
    data: &[u8],
    params: MatcherParams,
    segments: usize,
    emit: impl FnMut(Token),
) -> usize {
    let n = data.len();
    let segments = segments.clamp(1, n.max(1));
    if segments == 1 {
        tokenize_from(data, params, Candidates::Adaptive, emit);
        return 0;
    }
    let m = Matcher::new(data, params, Candidates::Adaptive);
    let mut caller = Caller { m, state: Parse::START, emit };
    let resynced = split::parse(&split::DEFLATE, &mut caller, n, segments, |seam, end, ends| {
        helper(data, params, seam, end, ends)
    });
    caller.state.finish(&mut caller.emit);
    resynced
}

/// The lazy parse between two steps: the next position to look a match up
/// for, and the match found one byte before it, held back to see whether
/// `pos` starts a better one. Every token before the pending match (or
/// before `pos`, when none is pending) has been emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Parse {
    pos: usize,
    /// (len, dist) of the match at `pos - 1`.
    pending: Option<(usize, usize)>,
}

impl Parse {
    const START: Parse = Parse { pos: 0, pending: None };

    /// End of input: emit the match still pending.
    fn finish(self, emit: &mut impl FnMut(Token)) {
        if let Some((len, dist)) = self.pending {
            emit(matched(len, dist));
        }
    }
}

fn matched(len: usize, dist: usize) -> Token {
    Token::Match { len: len as u16, dist: dist as u16 }
}

/// Step the parse from `state` until `stop(state)` holds or the input
/// ends, emitting every token it settles.
///
/// `find_match(pos)` depends only on the input and `pos`, so each step
/// depends only on `state`: two parses that reach the same state emit the
/// same tokens from there on. This is the one copy of the lazy-match rules.
fn parse_from(
    m: &mut Matcher<'_>,
    state: &mut Parse,
    mut stop: impl FnMut(Parse) -> bool,
    emit: &mut impl FnMut(Token),
) {
    let (data, params) = (m.data, m.params);
    let Parse { mut pos, mut pending } = *state;
    while pos < data.len() && !stop(Parse { pos, pending }) {
        let cur = m.find_match(pos);
        if !params.lazy {
            match cur {
                Some((len, dist)) => {
                    emit(matched(len, dist));
                    pos += len;
                }
                None => {
                    emit(Token::Literal(data[pos]));
                    pos += 1;
                }
            }
            continue;
        }
        match (pending.take(), cur) {
            (Some((plen, _)), Some(c)) if c.0 > plen + 1 => {
                // Current match is better by at least two bytes: previous
                // byte becomes a literal, re-pend the current match. A +1
                // gain is never worth deferring — the literal costs 8-9
                // fixed-Huffman bits while one extra match byte usually
                // stays in the same length-code bucket and saves none.
                emit(Token::Literal(data[pos - 1]));
                pending = Some(c);
                pos += 1;
            }
            (Some((plen, pdist)), _) => {
                // Previous match wins; it started at pos-1.
                emit(matched(plen, pdist));
                pos += plen - 1;
            }
            (None, Some((clen, cdist))) if clen >= params.lazy_skip_len => {
                // Long enough: take immediately.
                emit(matched(clen, cdist));
                pos += clen;
            }
            (None, Some(c)) => {
                pending = Some(c);
                pos += 1;
            }
            (None, None) => {
                emit(Token::Literal(data[pos]));
                pos += 1;
            }
        }
    }
    *state = Parse { pos, pending };
}

/// One step of a helper's parse in 4 bytes: `gap` literals (the input's
/// own bytes), then a match of `len + MIN_MATCH` bytes `dist` back, or no
/// match when `dist` is 0 (a run of more than 255 literals takes several
/// steps).
struct Step {
    gap: u8,
    len: u8,
    dist: u16,
}

/// A helper's parse of `seam..end` from a fresh state: its steps, each
/// match end recorded with the steps up to it, and its final state.
fn helper(
    data: &[u8],
    params: MatcherParams,
    seam: usize,
    end: usize,
    ends: &mut MatchEnds,
) -> (Vec<Step>, Parse) {
    // Room for every step the segment can take, so the buffer never
    // grows by copying; only the pages it fills become resident.
    let mut steps = Vec::with_capacity((end - seam) / MIN_MATCH + 1);
    let (mut gap, mut at) = (0u8, seam);
    let mut record = |t: Token| match t {
        Token::Literal(_) => {
            if gap == u8::MAX {
                steps.push(Step { gap, len: 0, dist: 0 });
                gap = 0;
            }
            gap += 1;
            at += 1;
        }
        Token::Match { len, dist } => {
            steps.push(Step { gap, len: (len as usize - MIN_MATCH) as u8, dist });
            gap = 0;
            at += len as usize;
            ends.record(at, steps.len());
        }
    };
    let mut m = Matcher::new(data, params, Candidates::Adaptive);
    let mut state = Parse { pos: seam, pending: None };
    parse_from(&mut m, &mut state, |s| s.pos >= end, &mut record);
    (steps, state)
}

/// The calling thread's parse of a split input, streaming its tokens.
struct Caller<'a, E> {
    m: Matcher<'a>,
    state: Parse,
    emit: E,
}

impl<E: FnMut(Token)> split::Parser for Caller<'_, E> {
    type Out = Vec<Step>;
    type Last = Parse;

    fn run(&mut self, end: usize, mut at_match_end: impl FnMut(usize) -> bool) {
        let stop = |s: Parse| s.pos >= end || s.pending.is_none() && at_match_end(s.pos);
        parse_from(&mut self.m, &mut self.state, stop, &mut self.emit);
    }

    fn adopt(&mut self, steps: Vec<Step>, pos: usize, off: usize, last: Parse) {
        let (data, emit) = (self.m.data, &mut self.emit);
        let mut at = pos;
        for step in &steps[off..] {
            let gap = step.gap as usize;
            data[at..at + gap].iter().for_each(|&b| emit(Token::Literal(b)));
            at += gap;
            if step.dist > 0 {
                let len = step.len as usize + MIN_MATCH;
                emit(matched(len, step.dist as usize));
                at += len;
            }
        }
        // The literals the helper settled after its last step.
        let settled = last.pos - last.pending.is_some() as usize;
        data[at..settled].iter().for_each(|&b| emit(Token::Literal(b)));
        self.state = last;
        self.m.restart();
    }
}

/// Reconstruct original bytes from a token stream (the reference decoder
/// the tests check token streams with).
pub fn detokenize(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], level: u8) {
        let mut tokens = Vec::new();
        tokenize(data, MatcherParams::for_level(level), |t| tokens.push(t));
        assert_eq!(detokenize(&tokens), data, "level {level}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for level in [1, 6, 9] {
            roundtrip(b"", level);
            roundtrip(b"a", level);
            roundtrip(b"ab", level);
            roundtrip(b"abc", level);
        }
    }

    #[test]
    fn repeated_data_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc";
        let mut tokens = Vec::new();
        tokenize(data, MatcherParams::for_level(6), |t| tokens.push(t));
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match token"
        );
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn overlapping_match_rle() {
        // Classic RLE-via-LZ77: dist 1, long len.
        let data = vec![0x41u8; 1000];
        let mut tokens = Vec::new();
        tokenize(&data, MatcherParams::for_level(6), |t| tokens.push(t));
        assert!(tokens.len() < 20, "RLE data should compress to few tokens");
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn all_levels_roundtrip_mixed_data() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.push((i % 251) as u8);
            if i % 7 == 0 {
                data.extend_from_slice(b"common substring here");
            }
        }
        for level in 1..=9 {
            roundtrip(&data, level);
        }
    }

    #[test]
    fn matches_never_exceed_window() {
        let mut data = vec![0u8; 40_000];
        // Plant identical blocks farther apart than the window.
        for i in 0..64 {
            data[i] = 0xAB;
            data[39_000 + i] = 0xAB;
        }
        let mut tokens = Vec::new();
        tokenize(&data, MatcherParams::for_level(9), |t| tokens.push(t));
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= WINDOW_SIZE);
            }
        }
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn lazy_beats_greedy_on_crafted_input() {
        // "ab" then "abcde" repeated: lazy matching should pick the longer
        // match starting one byte later at least as well as greedy.
        let data = b"xabyabcdez_abcdez_abcdez_abcdez".repeat(20);
        let mut greedy = Vec::new();
        tokenize(&data, MatcherParams { lazy: false, ..MatcherParams::for_level(9) }, |t| {
            greedy.push(t)
        });
        let mut lazy = Vec::new();
        tokenize(&data, MatcherParams::for_level(9), |t| lazy.push(t));
        assert_eq!(detokenize(&greedy), data);
        assert_eq!(detokenize(&lazy), data);
        assert!(lazy.len() <= greedy.len() + 1);
    }

    #[test]
    fn match_len_helper() {
        let data = b"abcdefghabcdefgX";
        // SAFETY (every call below): `a <= b` and `b + max <= data.len()`.
        assert_eq!(unsafe { match_len(data, 0, 8, 8) }, 7);
        assert_eq!(unsafe { match_len(data, 0, 0, 16) }, 16);
    }

    #[test]
    fn match_len_into_short_tail() {
        // The match extends to the very last byte of the input, with the
        // comparison crossing from the 8-byte word loop into a tail shorter
        // than 8 bytes (13 = one word + 5 tail bytes). `max` equals the
        // remaining input so every read must stay in bounds.
        let pattern = b"0123456789abc"; // 13 bytes
        let mut data = Vec::new();
        data.extend_from_slice(pattern);
        data.extend_from_slice(pattern);
        assert_eq!(data.len(), 26);
        // SAFETY (every call below): `a <= b` and `b + max <= data.len()`.
        assert_eq!(unsafe { match_len(&data, 0, 13, 13) }, 13);
        // Same, but the tail differs at the final byte.
        data[25] = b'X';
        assert_eq!(unsafe { match_len(&data, 0, 13, 13) }, 12);
        // Tail shorter than a word from the start (no word-loop iteration).
        assert_eq!(unsafe { match_len(&data, 0, 13, 5) }, 5);
    }

    #[test]
    fn level0_params_disable_matching() {
        let p = MatcherParams::for_level(0);
        assert_eq!(p.max_chain, 0);
        assert!(!p.lazy);
        // Highly repetitive data still tokenizes to pure literals.
        let data = b"abcabcabcabcabcabcabcabc".repeat(8);
        let mut tokens = Vec::new();
        tokenize(&data, p, |t| tokens.push(t));
        assert_eq!(tokens.len(), data.len());
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn levels_above_nine_clamp_to_nine() {
        assert_eq!(MatcherParams::for_level(10), MatcherParams::for_level(9));
        assert_eq!(MatcherParams::for_level(255), MatcherParams::for_level(9));
    }

    /// Words from a tiny vocabulary (long chains), then random bytes
    /// (short ones), then words again.
    fn dense_sparse_dense() -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let words: [&[u8]; 6] = [b"alpha ", b"beta ", b"gamma ", b"delta ", b"eps ", b"zeta "];
        let mut data = Vec::new();
        while data.len() < FIRST_SEGMENT {
            data.extend_from_slice(words[next() as usize % words.len()]);
        }
        data.extend((0..100_000).map(|_| next() as u8));
        while data.len() < 230_000 {
            data.extend_from_slice(words[next() as usize % words.len()]);
        }
        data
    }

    /// `SortedRuns::build`'s keys and ranks, from a comparison sort.
    fn reference_runs(data: &[u8], base: usize, end: usize) -> (Vec<u32>, Vec<u32>) {
        let end = end.min(data.len().saturating_sub(MIN_MATCH - 1));
        let mut keys: Vec<u32> =
            (base..end).map(|p| hash3(data, p) << OFFSET_BITS | (p - base) as u32).collect();
        keys.sort_by_key(|&k| (k >> OFFSET_BITS, k & OFFSET_MASK));
        let mut rank = vec![0; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            rank[(k & OFFSET_MASK) as usize] = i as u32;
        }
        (keys, rank)
    }

    #[test]
    fn one_pass_runs_match_a_comparison_sort() {
        let dense = dense_sparse_dense();
        let mut x = 0x2545_F491u32;
        let sparse: Vec<u8> = (0..dense.len())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let equal = vec![0x5A; dense.len()];
        let mut runs = SortedRuns::new();
        let mut check = |data: &[u8], base: usize, end: usize| {
            runs.build(data, base, end);
            let (keys, rank) = reference_runs(data, base, end);
            assert!(runs.keys == keys, "keys of {base}..{end} over {} bytes", data.len());
            assert!(runs.rank == rank, "ranks of {base}..{end} over {} bytes", data.len());
        };
        for data in [&dense[..], &sparse, &equal] {
            // The first segment one byte short, exact and one byte long;
            // a full segment with its lookback (the most offsets a key
            // holds), starting a byte early, on time or late, and one
            // byte short.
            for d in [0, 1, 2] {
                check(data, 0, FIRST_SEGMENT + d - 1);
                let seg = FIRST_SEGMENT + WINDOW_SIZE + d - 1;
                check(data, seg - WINDOW_SIZE, seg + SEGMENT);
                check(data, seg - WINDOW_SIZE, seg + SEGMENT - 1);
            }
            // Segments that run into the input's last 0..=3 bytes, where
            // fewer than 3 bytes start no string.
            for tail in 0..=3 {
                let data = &data[..FIRST_SEGMENT + tail];
                check(data, 0, FIRST_SEGMENT);
                check(data, 0, FIRST_SEGMENT + 8);
            }
        }
        for tiny in [&b"abc"[..], b"abcd", b"aaaa", b"abcab"] {
            for end in 1..=tiny.len() {
                check(tiny, 0, end);
            }
        }
    }

    #[test]
    fn adaptive_source_follows_chain_density() {
        let data = dense_sparse_dense();
        let mut m = Matcher::new(&data, MatcherParams::for_level(6), Candidates::Adaptive);
        let mut segments = Vec::new();
        for pos in 0..data.len() {
            m.find_match(pos);
            if pos == m.seg_start {
                segments.push(m.sorted);
            }
        }
        // 16 KiB of words on chains; sorted runs for the next 96 KiB; the
        // random bytes that filled it send the next segment back to
        // chains; the words there bring sorted runs back.
        assert_eq!(segments, [false, true, false, true]);
    }

    #[test]
    fn every_source_emits_the_same_tokens() {
        let data = dense_sparse_dense();
        for level in [1, 6, 9] {
            let tokens = |source| {
                let mut tokens = Vec::new();
                tokenize_from(&data, MatcherParams::for_level(level), source, |t| tokens.push(t));
                tokens
            };
            let chains = tokens(Candidates::HashChains);
            assert_eq!(detokenize(&chains), data);
            assert!(tokens(Candidates::SortedRuns) == chains, "level {level}: sorted runs");
            assert!(tokens(Candidates::Adaptive) == chains, "level {level}: adaptive");
        }
    }

    /// The seams a split parse resynchronised for each segment count,
    /// its tokens checked against the sequential parse.
    fn split_against_sequential(data: &[u8], level: u8, segments: &[usize]) -> Vec<usize> {
        let params = MatcherParams::for_level(level);
        let mut sequential = Vec::new();
        tokenize_from(data, params, Candidates::Adaptive, |t| sequential.push(t));
        let resynced = |&segments: &usize| {
            let mut tokens = Vec::new();
            let resynced = tokenize_split(data, params, segments, |t| tokens.push(t));
            assert!(tokens == sequential, "level {level}, {segments} segments");
            resynced
        };
        segments.iter().map(resynced).collect()
    }

    #[test]
    fn split_parse_resyncs_on_text() {
        let data = dense_sparse_dense();
        for level in [1, 6] {
            assert_eq!(split_against_sequential(&data, level, &[2, 3, 4]), [1, 2, 3]);
        }
    }

    #[test]
    fn split_parse_falls_back_inside_long_runs() {
        // Both parses step 258 bytes at a time through the run, out of
        // phase, for longer than the resync window.
        let data = vec![b'a'; 200_000];
        for level in [1, 6, 9] {
            assert_eq!(split_against_sequential(&data, level, &[2]), [0]);
        }
    }

    #[test]
    fn chain_tables_carry_over_between_inputs() {
        // The second input reuses the first one's tables on this thread;
        // nothing of the first may show up as a candidate.
        let first = b"the same words, the same words, the same words".repeat(50);
        let second = b"the same words once".to_vec();
        let params = MatcherParams::for_level(9);
        let mut tokens = Vec::new();
        tokenize_from(&first, params, Candidates::HashChains, |_| {});
        tokenize_from(&second, params, Candidates::HashChains, |t| tokens.push(t));
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))), "{tokens:?}");
    }
}
