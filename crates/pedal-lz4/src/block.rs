//! LZ4 block format codec.
//!
//! Implements the LZ4 block specification: a sequence of tokens, each a
//! 4+4 bit (literal length, match length) nibble pair followed by literals,
//! a 2-byte little-endian offset, and optional length continuation bytes.
//! Matches are at least 4 bytes; the last 5 bytes of a block are always
//! literals and the last match must start at least 12 bytes before the end.
//!
//! The compressor is a one-slot hash table parse. Large blocks are parsed
//! in segments on several cores with the bytes of the sequential parse
//! (see [`compress_block_split`]).

use pedal_deflate::lz77::{match_len, read_u32_le, read_u64_le as read_u64};
use pedal_deflate::split::{self, MatchEnds};

/// Minimum match length in the LZ4 format.
pub const MIN_MATCH: usize = 4;
/// The spec requires the final 5 bytes to be literals.
const LAST_LITERALS: usize = 5;
/// A match may not start within the final 12 bytes.
const MFLIMIT: usize = 12;
/// Maximum back-reference distance (16-bit offset).
pub const MAX_DISTANCE: usize = 65_535;

const HASH_LOG: u32 = 16;

/// Errors from block decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lz4Error {
    /// Input ended in the middle of a sequence.
    Truncated,
    /// A match offset of zero or beyond the produced output.
    InvalidOffset { offset: usize, available: usize },
    /// Output did not match the expected decompressed size.
    SizeMismatch { expected: usize, actual: usize },
    /// Output would exceed the caller-provided limit.
    OutputLimitExceeded(usize),
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "truncated lz4 block"),
            Lz4Error::InvalidOffset { offset, available } => {
                write!(f, "invalid offset {offset} with {available} bytes decoded")
            }
            Lz4Error::SizeMismatch { expected, actual } => {
                write!(f, "decompressed {actual} bytes, expected {expected}")
            }
            Lz4Error::OutputLimitExceeded(n) => write!(f, "output exceeds {n} bytes"),
        }
    }
}

impl std::error::Error for Lz4Error {}

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

/// Each run of `1 << SKIP_TRIGGER` misses in a row lengthens the step by
/// one byte.
const SKIP_TRIGGER: u32 = 7;
/// The largest `accel` honoured, as in the reference encoder.
const ACCEL_MAX: u32 = 65_537;

/// How far the parse moves after the `misses`-th miss in a row: `accel`
/// bytes, one more for every `1 << SKIP_TRIGGER` misses, so a higher
/// `accel` skips incompressible data faster.
#[inline]
fn skip(misses: u32, accel: u32) -> usize {
    (accel + (misses >> SKIP_TRIGGER)) as usize
}

/// Compress `src` into LZ4 block format.
///
/// `accel` trades ratio for speed like the reference `acceleration`
/// parameter: it is the step after a miss, so higher values skip
/// positions faster on incompressible data. `accel = 1` is the default.
///
/// An input of at least 1.25 MiB is split into at most one segment per
/// core, each helper's share at least twice its 256 KiB warm-up, and
/// parsed concurrently (see [`compress_block_split`]); the bytes are
/// those of the sequential parse. On a `pedal_deflate::pool` worker the
/// parse stays on the calling thread.
pub fn compress_block(src: &[u8], accel: u32) -> Vec<u8> {
    compress_segments(src, accel, split::LZ4.segments(src.len())).0
}

/// [`compress_block`] with `accel = 1`, split into `segments` segments
/// whatever the input size; the bytes are the same for every count.
/// Returns them and how many seams resynchronised.
///
/// The segments run on `pedal_deflate::split`. A helper starts 256 KiB
/// before its seam with an empty table and keeps its bytes from the seam
/// on. The calling thread adopts them at a match end that both parses
/// share, once both also hashed exactly the same positions over the last
/// `MAX_DISTANCE` bytes: from there every lookup sees the same in-window
/// candidate in both tables.
pub fn compress_block_split(src: &[u8], segments: usize) -> (Vec<u8>, usize) {
    compress_segments(src, 1, segments)
}

fn compress_segments(src: &[u8], accel: u32, segments: usize) -> (Vec<u8>, usize) {
    let accel = accel.clamp(1, ACCEL_MAX);
    let n = src.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        // A single token with zero literal length terminates the block.
        out.push(0);
        return (out, 0);
    }
    if n < MFLIMIT {
        emit_final_literals(&mut out, src);
        return (out, 0);
    }
    let mut p = Parse::new(src, accel, 0);
    let segments = segments.clamp(1, n / MFLIMIT);
    if segments == 1 {
        p.run(n, Some(&mut out), &mut (), |_, _, _| false);
        emit_final_literals(&mut out, &src[p.st.anchor..]);
        return (out, 0);
    }
    let bits = Bits::from_seam(split::LZ4.seam(n, segments, 1), src);
    let mut caller = Caller { p, out, bits };
    let resynced = split::parse(&split::LZ4, &mut caller, n, segments, |seam, end, ends| {
        helper(src, accel, seam, end, ends)
    });
    let Caller { p, mut out, .. } = caller;
    emit_final_literals(&mut out, &src[p.st.anchor..]);
    (out, resynced)
}

/// The parse between two steps: the next position to look up, the start
/// of the literals no sequence has emitted yet, and the misses since the
/// last match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    pos: usize,
    anchor: usize,
    misses: u32,
}

impl State {
    /// Whether the step just taken ended a match at `pos`.
    fn after_match(self) -> bool {
        self.misses == 0 && self.anchor == self.pos
    }
}

/// Where the positions a parse hashes go.
trait Inserted {
    fn insert(&mut self, pos: usize);
}

impl Inserted for () {
    #[inline(always)]
    fn insert(&mut self, _: usize) {}
}

/// A set of input positions, one bit each, kept from a multiple of 64
/// on: positions before that are neither stored nor read back.
struct Bits {
    /// Index of `words[0]` in the whole input's words.
    base: usize,
    words: Vec<u64>,
}

impl Bits {
    /// Room for what a check at `seam` or past it reads back: the
    /// positions from `seam - MAX_DISTANCE` to the end of `src`.
    fn from_seam(seam: usize, src: &[u8]) -> Bits {
        let base = seam.saturating_sub(MAX_DISTANCE) / 64;
        Bits { base, words: vec![0; src.len().div_ceil(64) - base] }
    }

    /// Word `w` of the whole input's words (empty outside the room).
    fn word(&self, w: usize) -> u64 {
        w.checked_sub(self.base).and_then(|i| self.words.get(i)).map_or(0, |&x| x)
    }
}

impl Inserted for Bits {
    #[inline(always)]
    fn insert(&mut self, pos: usize) {
        if let Some(w) = self.words.get_mut((pos / 64).wrapping_sub(self.base)) {
            *w |= 1 << (pos % 64);
        }
    }
}

/// One parse of `src`: its hash table (position + 1 per hash, 0 for
/// empty) and where it stands.
struct Parse<'a> {
    src: &'a [u8],
    accel: u32,
    table: Box<[u32; 1 << HASH_LOG]>,
    st: State,
}

impl<'a> Parse<'a> {
    fn new(src: &'a [u8], accel: u32, pos: usize) -> Self {
        let table = vec![0u32; 1 << HASH_LOG].into_boxed_slice().try_into().expect("table size");
        Parse { src, accel, table, st: State { pos, anchor: pos, misses: 0 } }
    }

    /// Step until the parse stands at or past `end` (or past the last
    /// position a match may start at), or `stop(state, out.len(),
    /// inserted)` holds after a step. Sequences go to `out`, if any;
    /// every hashed position goes to `inserted`, in increasing order.
    ///
    /// Each step depends only on the state and on the in-window candidate
    /// the table holds for `pos`. This is the one copy of the parse rules.
    #[inline(always)]
    fn run<I: Inserted>(
        &mut self,
        end: usize,
        mut out: Option<&mut Vec<u8>>,
        inserted: &mut I,
        mut stop: impl FnMut(State, usize, &I) -> bool,
    ) {
        let (src, accel) = (self.src, self.accel);
        let n = src.len();
        // No match starts in the last `MFLIMIT` bytes.
        let limit = n - MFLIMIT + 1;
        let end = end.min(limit);
        let table = &mut *self.table;
        let State { mut pos, mut anchor, mut misses } = self.st;
        while pos < end {
            // SAFETY: `pos < end <= limit`, so `pos + 4 <= n - 8`.
            let cur = unsafe { read_u32_le(src, pos) };
            let h = hash4(cur);
            let cand = table[h] as usize;
            table[h] = pos as u32 + 1;
            inserted.insert(pos);

            // `cand - 1` is a position hashed before `pos`, or `cand` is 0:
            // one branch tests both, and a wrapped distance fails it.
            let distance = pos.wrapping_sub(cand).wrapping_add(1);
            // SAFETY: the distance test proves `cand - 1 <= pos`, and
            // `pos + 4 <= n`.
            let found = (cand != 0) & (distance <= MAX_DISTANCE)
                && unsafe { read_u32_le(src, cand - 1) } == cur;
            if !found {
                misses += 1;
                pos += skip(misses, accel);
            } else {
                misses = 0;
                let cpos = cand - 1;
                // Extend the match forward (bounded so the last 5 bytes
                // stay literal), then backwards over pending literals.
                let max_len = n - LAST_LITERALS - pos;
                // SAFETY: `cpos <= pos` by the distance test, and the
                // compare ends by `pos + max_len = n - LAST_LITERALS`.
                let ext = unsafe {
                    match_len(src, cpos + MIN_MATCH, pos + MIN_MATCH, max_len - MIN_MATCH)
                };
                let mut mlen = MIN_MATCH + ext;
                let mut back = 0usize;
                debug_assert!(cpos <= pos && pos < n);
                // SAFETY: both reads are before `pos < n`.
                while pos - back > anchor
                    && cpos - back > 0
                    && unsafe {
                        src.get_unchecked(cpos - back - 1) == src.get_unchecked(pos - back - 1)
                    }
                {
                    back += 1;
                }
                let mpos = pos - back;
                mlen += back;
                if let Some(out) = out.as_deref_mut() {
                    emit_sequence(out, src, anchor, mpos, pos - cpos, mlen);
                }
                pos = mpos + mlen;
                anchor = pos;
                // Prime the table with a position inside the match to
                // improve the next search.
                if pos < limit {
                    let p = pos - 2;
                    // SAFETY: `p + 4 = pos + 2 <= limit + 1 <= n`.
                    table[hash4(unsafe { read_u32_le(src, p) })] = p as u32 + 1;
                    inserted.insert(p);
                }
            }
            let len = out.as_deref().map_or(0, Vec::len);
            if stop(State { pos, anchor, misses }, len, inserted) {
                break;
            }
        }
        self.st = State { pos, anchor, misses };
    }
}

/// A helper's parse of `seam..end`, from a warm-up before `seam` with an
/// empty table; it keeps its bytes, match ends and hashed positions.
fn helper<'a>(
    src: &'a [u8],
    accel: u32,
    seam: usize,
    end: usize,
    ends: &mut MatchEnds,
) -> (Vec<u8>, Last<'a>) {
    let mut p = Parse::new(src, accel, seam.saturating_sub(split::LZ4.warm_up));
    let mut out = Vec::new();
    let mut bits = Bits::from_seam(seam, src);
    // The warm-up only fills the table: no byte of it is kept.
    p.run(seam, None, &mut bits, |_, _, _| false);
    p.run(ends.until, Some(&mut out), &mut bits, |st, len, _| {
        if st.after_match() {
            ends.record(st.pos, len);
        }
        false
    });
    p.run(end, Some(&mut out), &mut bits, |_, _, _| false);
    (out, Last { p, scanned: bits.base, bits, diff: None })
}

/// A helper's final parse and hashed positions. The calling thread has
/// compared the words of those below `scanned`; `diff` is the last
/// position among them that one parse hashed and the other did not.
struct Last<'a> {
    p: Parse<'a>,
    bits: Bits,
    scanned: usize,
    diff: Option<usize>,
}

/// The calling thread's parse of a split block, with every position it
/// hashed from `MAX_DISTANCE` before the first seam on.
struct Caller<'a> {
    p: Parse<'a>,
    out: Vec<u8>,
    bits: Bits,
}

impl<'a> split::Parser for Caller<'a> {
    type Out = Vec<u8>;
    type Last = Last<'a>;

    fn run(&mut self, end: usize, mut at_match_end: impl FnMut(usize) -> bool) {
        let stop = |st: State, _, _: &Bits| st.after_match() && at_match_end(st.pos);
        self.p.run(end, Some(&mut self.out), &mut self.bits, stop);
    }

    /// Both parses hashed the same positions over the `MAX_DISTANCE` bytes
    /// before `r`, the furthest back a lookup at `r` or later can reach.
    fn agrees(&mut self, last: &mut Last<'a>, r: usize) -> bool {
        let (ours, theirs) = (&self.bits, &last.bits);
        let last_diff = |w: usize, d: u64| 64 * w + 63 - d.leading_zeros() as usize;
        for w in last.scanned..r / 64 {
            let d = ours.word(w) ^ theirs.word(w);
            if d != 0 {
                last.diff = Some(last_diff(w, d));
            }
        }
        last.scanned = last.scanned.max(r / 64);
        let partial = (ours.word(r / 64) ^ theirs.word(r / 64)) & ((1u64 << (r % 64)) - 1);
        let latest = if partial != 0 { Some(last_diff(r / 64, partial)) } else { last.diff };
        latest.is_none_or(|d| d + MAX_DISTANCE < r)
    }

    fn adopt(&mut self, out: Vec<u8>, r: usize, off: usize, last: Last<'a>) {
        self.out.extend_from_slice(&out[off..]);
        // Both parses hashed the same positions over the words from
        // `r / 64` up to `r`, so the helper's words stand for both.
        let (ours, theirs) = (&mut self.bits, &last.bits);
        ours.words[r / 64 - ours.base..].copy_from_slice(&theirs.words[r / 64 - theirs.base..]);
        self.p = last.p;
    }
}

/// Emit one LZ4 sequence for the literals `src[anchor..mpos]` and a match:
/// token, literal length extension, literals, offset, match length
/// extension. One `reserve` covers every store, which are raw; a run of
/// at most 16 literals copies as one 16-byte move when `src` has the
/// bytes, the excess landing in reserved room past the output.
#[inline(always)]
fn emit_sequence(
    out: &mut Vec<u8>,
    src: &[u8],
    anchor: usize,
    mpos: usize,
    offset: usize,
    match_len: usize,
) {
    debug_assert!(match_len >= MIN_MATCH && anchor <= mpos && mpos <= src.len());
    debug_assert!((1..=MAX_DISTANCE).contains(&offset));
    let lit_len = mpos - anchor;
    let ml = match_len - MIN_MATCH;
    // Token 1, literal extension at most `lit_len / 255 + 1`, literals at
    // most `lit_len + 16`, offset 2, match extension at most `ml / 255 + 1`.
    let room = lit_len + lit_len / 255 + ml / 255 + 21;
    out.reserve(room);
    let (buf, mut at) = (out.as_mut_ptr(), out.len());
    let end = at + room;
    // SAFETY: every store lands in `out[at..end]`, reserved above, by the
    // count above; the 16-byte move reads `src[anchor..anchor + 16]`, in
    // bounds by its test, and the literals `src[anchor..mpos]`.
    unsafe {
        buf.add(at).write(((lit_len.min(15) as u8) << 4) | ml.min(15) as u8);
        at += 1;
        if lit_len >= 15 {
            at = put_len_ext(buf, at, end, lit_len - 15);
        }
        let from = src.as_ptr().add(anchor);
        debug_assert!(at + lit_len.max(16) <= end);
        if lit_len <= 16 && anchor + 16 <= src.len() {
            std::ptr::copy_nonoverlapping(from, buf.add(at), 16);
        } else {
            std::ptr::copy_nonoverlapping(from, buf.add(at), lit_len);
        }
        at += lit_len;
        debug_assert!(at + 2 <= end);
        buf.add(at).cast::<[u8; 2]>().write_unaligned((offset as u16).to_le_bytes());
        at += 2;
        if ml >= 15 {
            at = put_len_ext(buf, at, end, ml - 15);
        }
        out.set_len(at);
    }
}

/// Store a length extension of `rem` at `buf[at..]`: a 255 for every
/// whole 255, then the rest; returns the index after it.
///
/// # Safety
///
/// `buf[at..end]` is allocated and `at + rem / 255 + 1 <= end`.
#[inline(always)]
unsafe fn put_len_ext(buf: *mut u8, mut at: usize, end: usize, mut rem: usize) -> usize {
    debug_assert!(at + rem / 255 < end);
    // SAFETY: `rem / 255 + 1` stores from `at`, before `end` by the
    // caller's contract.
    unsafe {
        while rem >= 255 {
            buf.add(at).write(255);
            at += 1;
            rem -= 255;
        }
        buf.add(at).write(rem as u8);
    }
    at + 1
}

/// The final sequence of a block carries only literals, no match.
fn emit_final_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    out.push((lit_len.min(15) as u8) << 4);
    if lit_len >= 15 {
        emit_len_ext(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
}

#[inline]
fn emit_len_ext(out: &mut Vec<u8>, mut rem: usize) {
    while rem >= 255 {
        out.push(255);
        rem -= 255;
    }
    out.push(rem as u8);
}

/// Hard cap on speculative preallocation: `expected_len` may come from an
/// untrusted header, so never reserve more than this up front — the vector
/// grows on demand and the `limit` checks below still bound the total.
const MAX_PREALLOC: usize = 1 << 22;

/// Decompress an LZ4 block with an output-size cap and no expected length —
/// the hostile-input entry point, mirroring `inflate_with_limit`: output
/// beyond `limit` bytes is rejected as [`Lz4Error::OutputLimitExceeded`]
/// instead of allocated.
pub fn decompress_block_with_limit(src: &[u8], limit: usize) -> Result<Vec<u8>, Lz4Error> {
    decompress_block(src, None, limit)
}

/// Room [`decompress_block_into`] keeps past the bytes it appends, so
/// that short literal runs and matches copy as whole 8- and 16-byte
/// moves. A buffer with this much spare capacity past the decoded bytes
/// never reallocates.
pub const DECODE_SLACK: usize = 64;

/// Decompress an LZ4 block. `expected_len`, when known, lets the caller
/// preallocate and validates the result; pass `None` to accept any size up
/// to `limit`. [`decompress_block_into`] a new buffer.
pub fn decompress_block(
    src: &[u8],
    expected_len: Option<usize>,
    limit: usize,
) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::new();
    decompress_block_into(src, expected_len, limit, &mut out)?;
    Ok(out)
}

/// [`decompress_block`], appending the block's bytes to `out`; after an
/// error `out` may hold bytes past what it held before.
///
/// The output is written in place into room sized up front (and
/// doubled, within `limit`, when a block decodes longer): literal runs of
/// up to 16 bytes and matches of up to 32 copy as whole words, and an
/// overlapping match copies in doubling spans. The checks and errors are
/// those of [`decompress_block_bytewise`], in the same order.
pub fn decompress_block_into(
    src: &[u8],
    expected_len: Option<usize>,
    limit: usize,
    out: &mut Vec<u8>,
) -> Result<(), Lz4Error> {
    let base = out.len();
    let room = expected_len.unwrap_or(src.len() * 3).min(limit).min(MAX_PREALLOC) + DECODE_SLACK;
    out.resize(base + room, 0);
    // Positions in `out` are absolute; lengths and offsets count from `base`.
    let end = base.saturating_add(limit);
    let mut op = base;
    let mut i = 0usize;
    let n = src.len();
    loop {
        // The common sequence: its lengths fit in the token, its offset is
        // at least 8, and it ends well before both buffers do. None of
        // the checks below can fail for it.
        if i + 19 <= n && op + 48 <= out.len() {
            let token = src[i];
            let lit_len = (token >> 4) as usize;
            let match_len = (token & 0x0F) as usize + MIN_MATCH;
            if lit_len < 15 && match_len < 15 + MIN_MATCH && op + lit_len + match_len <= end {
                let at = i + 1 + lit_len;
                let offset = u16::from_le_bytes([src[at], src[at + 1]]) as usize;
                if (8..=op - base + lit_len).contains(&offset) {
                    out[op..op + 16].copy_from_slice(&src[i + 1..i + 17]);
                    op += lit_len;
                    i = at + 2;
                    let from = op - offset;
                    for k in [0, 8, 16] {
                        let w = read_u64(out, from + k);
                        out[op + k..op + k + 8].copy_from_slice(&w.to_le_bytes());
                    }
                    op += match_len;
                    continue;
                }
            }
        }
        if i >= n {
            return Err(Lz4Error::Truncated);
        }
        let token = src[i];
        i += 1;
        // Literal run.
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len_ext(src, &mut i)?;
        }
        if i + lit_len > n {
            return Err(Lz4Error::Truncated);
        }
        if op + lit_len > end {
            return Err(Lz4Error::OutputLimitExceeded(limit));
        }
        make_room(out, op + lit_len, end);
        if lit_len <= 16 && i + 16 <= n {
            out[op..op + 16].copy_from_slice(&src[i..i + 16]);
        } else {
            out[op..op + lit_len].copy_from_slice(&src[i..i + lit_len]);
        }
        op += lit_len;
        i += lit_len;
        if i == n {
            break; // final sequence has no match part
        }
        // Match part.
        if i + 2 > n {
            return Err(Lz4Error::Truncated);
        }
        let offset = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > op - base {
            return Err(Lz4Error::InvalidOffset { offset, available: op - base });
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_len_ext(src, &mut i)?;
        }
        let match_len = match_len + MIN_MATCH;
        if op + match_len > end {
            return Err(Lz4Error::OutputLimitExceeded(limit));
        }
        make_room(out, op + match_len, end);
        copy_match(out, op, offset, match_len);
        op += match_len;
    }
    out.truncate(op);
    if let Some(expected) = expected_len {
        if op - base != expected {
            return Err(Lz4Error::SizeMismatch { expected, actual: op - base });
        }
    }
    Ok(())
}

/// Grow `out` to hold `need` bytes and the slack after them, at least
/// doubling it but never past `end` and the slack.
#[inline]
fn make_room(out: &mut Vec<u8>, need: usize, end: usize) {
    let room = need + DECODE_SLACK;
    if out.len() < room {
        out.resize((out.len() * 2).min(end.saturating_add(DECODE_SLACK)).max(room), 0);
    }
}

/// Copy the `len` bytes `offset` back from `op` to `op`, as LZ4 defines
/// it for overlapping spans; `out` holds [`DECODE_SLACK`] bytes past `op + len`,
/// which a short copy may overwrite.
#[inline]
fn copy_match(out: &mut [u8], op: usize, offset: usize, len: usize) {
    let from = op - offset;
    if offset >= 8 && len <= 32 {
        // Each word is read whole before or at the bytes written so far.
        for k in (0..len).step_by(8) {
            let w = read_u64(out, from + k);
            out[op + k..op + k + 8].copy_from_slice(&w.to_le_bytes());
        }
    } else if offset >= len {
        out.copy_within(from..from + len, op);
    } else {
        // The source repeats every `offset` bytes: each copy doubles the
        // span the next may take.
        let end = op + len;
        let mut at = op;
        while at < end {
            let span = (at - from).min(end - at);
            out.copy_within(from..from + span, at);
            at += span;
        }
    }
}

/// The plain decoder, growing its output one copy at a time and copying
/// overlapping matches byte by byte. [`decompress_block`] must return
/// exactly what it returns, output or error; the differential tests hold
/// it to that.
pub fn decompress_block_bytewise(
    src: &[u8],
    expected_len: Option<usize>,
    limit: usize,
) -> Result<Vec<u8>, Lz4Error> {
    let mut out =
        Vec::with_capacity(expected_len.unwrap_or(src.len() * 3).min(limit).min(MAX_PREALLOC));
    let mut i = 0usize;
    let n = src.len();
    loop {
        if i >= n {
            return Err(Lz4Error::Truncated);
        }
        let token = src[i];
        i += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len_ext(src, &mut i)?;
        }
        if i + lit_len > n {
            return Err(Lz4Error::Truncated);
        }
        if out.len() + lit_len > limit {
            return Err(Lz4Error::OutputLimitExceeded(limit));
        }
        out.extend_from_slice(&src[i..i + lit_len]);
        i += lit_len;
        if i == n {
            break;
        }
        if i + 2 > n {
            return Err(Lz4Error::Truncated);
        }
        let offset = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(Lz4Error::InvalidOffset { offset, available: out.len() });
        }
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_len_ext(src, &mut i)?;
        }
        let match_len = match_len + MIN_MATCH;
        if out.len() + match_len > limit {
            return Err(Lz4Error::OutputLimitExceeded(limit));
        }
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    if let Some(expected) = expected_len {
        if out.len() != expected {
            return Err(Lz4Error::SizeMismatch { expected, actual: out.len() });
        }
    }
    Ok(out)
}

#[inline]
fn read_len_ext(src: &[u8], i: &mut usize) -> Result<usize, Lz4Error> {
    let mut total = 0usize;
    loop {
        if *i >= src.len() {
            return Err(Lz4Error::Truncated);
        }
        let b = src[*i];
        *i += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Worst-case compressed size of `n` bytes (reference `LZ4_compressBound`).
pub fn compress_bound(n: usize) -> usize {
    n + n / 255 + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        for accel in [1u32, 4] {
            let enc = compress_block(data, accel);
            assert!(enc.len() <= compress_bound(data.len()));
            let dec = decompress_block(&enc, Some(data.len()), usize::MAX).unwrap();
            assert_eq!(dec, data, "accel {accel}");
        }
    }

    #[test]
    fn skip_starts_at_accel_and_grows_with_misses() {
        assert_eq!([1, 127, 128, 255, 256].map(|m| skip(m, 1)), [1, 1, 2, 2, 3]);
        for misses in [1, 100, 1000, 100_000] {
            for accel in 1..20 {
                assert!(skip(misses, accel + 1) > skip(misses, accel));
            }
        }
    }

    /// How many positions a sequential parse at `accel` looks up or
    /// primes.
    fn hashed(data: &[u8], accel: u32) -> usize {
        struct Count(usize);
        impl Inserted for Count {
            fn insert(&mut self, _: usize) {
                self.0 += 1;
            }
        }
        let mut count = Count(0);
        Parse::new(data, accel, 0).run(data.len(), None, &mut count, |_, _, _| false);
        count.0
    }

    #[test]
    fn higher_accel_hashes_fewer_positions() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<u8> = (0..1 << 18)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng as u8
            })
            .collect();
        let counts = [1, 2, 8].map(|accel| hashed(&random, accel));
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        roundtrip(&random);
    }

    #[test]
    fn split_parse_keeps_the_bytes_at_every_accel() {
        let data: Vec<u8> = (0..600_000u64).map(|i| (i * i / 977 % 61) as u8).collect();
        for accel in [1, 4] {
            let sequential = compress_segments(&data, accel, 1).0;
            for segments in [2, 3] {
                assert!(compress_segments(&data, accel, segments).0 == sequential, "{accel}");
            }
        }
        // Tiny inputs with more segments than make sense.
        for n in [MFLIMIT, 40, 100, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i % 7) as u8).collect();
            assert_eq!(compress_segments(&data, 1, 5).0, compress_segments(&data, 1, 1).0);
        }
    }

    #[test]
    fn empty_block() {
        roundtrip(b"");
    }

    #[test]
    fn short_inputs_all_literal() {
        for n in 1..=20 {
            let data: Vec<u8> = (0..n as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn repetitive_data() {
        roundtrip(&b"abcd".repeat(10_000));
        roundtrip(&vec![0u8; 100_000]);
    }

    #[test]
    fn text_data() {
        let data = b"LZ4 is lossless compression algorithm, providing compression \
                     speed > 500 MB/s per core, scalable with multi-cores CPU. "
            .repeat(100);
        let enc = compress_block(&data, 1);
        assert!(enc.len() * 4 < data.len(), "ratio too poor: {}", enc.len());
        roundtrip(&data);
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // >15 literals then a >15+4 match.
        let mut data = Vec::new();
        for i in 0..300u32 {
            data.push((i % 256) as u8);
        }
        data.extend(std::iter::repeat_n(0x55, 400));
        data.extend_from_slice(b"tail bytes here!");
        roundtrip(&data);
    }

    #[test]
    fn offset_beyond_output_rejected() {
        // Token: 1 literal, then match with offset 9999.
        let src = [0x10, b'a', 0x0F, 0x27, 0x00];
        match decompress_block(&src, None, usize::MAX) {
            Err(Lz4Error::InvalidOffset { .. }) => {}
            other => panic!("expected InvalidOffset, got {other:?}"),
        }
    }

    #[test]
    fn zero_offset_rejected() {
        let src = [0x10, b'a', 0x00, 0x00, 0x00];
        match decompress_block(&src, None, usize::MAX) {
            Err(Lz4Error::InvalidOffset { offset: 0, .. }) => {}
            other => panic!("expected InvalidOffset, got {other:?}"),
        }
    }

    #[test]
    fn truncated_inputs_rejected() {
        let enc = compress_block(&b"hello world hello world hello world!!".repeat(4), 1);
        for cut in 0..enc.len() {
            // Either an error, or (for cuts that land on a sequence boundary)
            // a wrong size detected by expected_len.
            match decompress_block(&enc[..cut], Some(152), usize::MAX) {
                Err(_) => {}
                Ok(v) => panic!("accepted truncation at {cut}: {} bytes", v.len()),
            }
        }
    }

    #[test]
    fn size_mismatch_detected() {
        let enc = compress_block(b"some payload", 1);
        match decompress_block(&enc, Some(5), usize::MAX) {
            Err(Lz4Error::SizeMismatch { expected: 5, .. }) => {}
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![1u8; 10_000];
        let enc = compress_block(&data, 1);
        match decompress_block(&enc, None, 100) {
            Err(Lz4Error::OutputLimitExceeded(100)) => {}
            other => panic!("expected OutputLimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_match_copy() {
        // Every offset against every length, including the word copies
        // and the doubling spans, against the byte-by-byte definition.
        for offset in 1..=40 {
            for len in MIN_MATCH..=100 {
                let mut out: Vec<u8> = (0..offset as u8).map(|b| b ^ 0xA5).collect();
                out.resize(offset + len + DECODE_SLACK, 0);
                copy_match(&mut out, offset, offset, len);
                for k in offset..offset + len {
                    assert_eq!(out[k], out[k - offset], "offset {offset} len {len} at {k}");
                }
            }
        }
    }

    #[test]
    fn into_appends_after_what_the_buffer_holds() {
        let data = b"appended after a prefix; appended after a prefix".repeat(20);
        let block = compress_block(&data, 1);
        let mut out = b"prefix".to_vec();
        decompress_block_into(&block, Some(data.len()), data.len(), &mut out).unwrap();
        assert_eq!(out, [&b"prefix"[..], &data].concat());
        // Offsets and the limit count from the block's start: one literal
        // cannot serve an offset of 2, whatever the buffer held.
        let bad = [0x10, b'a', 0x02, 0x00, 0x00];
        let err = decompress_block_into(&bad, None, 100, &mut b"prefix".to_vec());
        assert_eq!(err, Err(Lz4Error::InvalidOffset { offset: 2, available: 1 }));
        let err = decompress_block_into(&block, None, data.len() - 1, &mut b"prefix".to_vec());
        assert_eq!(err, Err(Lz4Error::OutputLimitExceeded(data.len() - 1)));
    }

    #[test]
    fn window_cap_respected() {
        // Identical 64-byte blocks separated by more than 64 KiB must not
        // produce far offsets.
        let mut data = vec![0u8; 70_000];
        for i in 0..64 {
            data[i] = i as u8 ^ 0xA5;
            data[69_000 + i] = i as u8 ^ 0xA5;
        }
        roundtrip(&data);
    }
}
