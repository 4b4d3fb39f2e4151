//! One split parse of a large input across cores that still writes the
//! sequential parse's output; the DEFLATE tokenizer and the LZ4 block
//! compressor both run on it.
//!
//! The calling thread parses the first segment while [`crate::pool`]
//! helpers parse the others from a fresh state (after a warm-up, if the
//! parser has one). A helper keeps its output in the parser's own form,
//! the position and output offset of each match end in its first
//! [`Shape::window`] bytes, and its final state. Past each seam the calling
//! thread parses on until it stands at one of those match ends in the
//! helper's state there and the parser's history check passes; both parses
//! then write the same output, so it adopts the helper's output from that
//! offset and its final state. Otherwise it parses the segment itself.

use crate::pool;

/// How a parser splits an input: its own constants, not an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// How far before its seam a helper starts, writing no output.
    pub warm_up: usize,
    /// The least a segment holds past its warm-up.
    pub share: usize,
    /// A seam resynchronises within this many bytes past it, or not at all.
    pub window: usize,
}

/// The DEFLATE tokenizer: the match found at a position depends only on
/// the input and the position, so a fresh parse needs no warm-up.
pub const DEFLATE: Shape = Shape { warm_up: 0, share: 128 * 1024, window: 64 * 1024 };

/// The LZ4 block compressor: a helper fills its table over a 256 KiB
/// warm-up, and its own share is at least twice that.
pub const LZ4: Shape = Shape { warm_up: 256 * 1024, share: 512 * 1024, window: 192 * 1024 };

impl Shape {
    /// How many segments an input of `n` bytes is parsed in on this host:
    /// one below `warm_up + 2 * share` bytes or on a [`crate::pool`]
    /// worker, else one per `share` past the warm-up, at most one per core.
    pub fn segments(&self, n: usize) -> usize {
        if n < self.warm_up + 2 * self.share || pool::on_worker() {
            1
        } else {
            ((n - self.warm_up) / self.share).min(pool::cores())
        }
    }

    /// Seam `j` of `k` in `n` bytes, at `(j·n + (k−j)·w)/k`: the first
    /// segment is as long as a helper's warm-up `w` and segment together.
    pub fn seam(&self, n: usize, k: usize, j: usize) -> usize {
        let w = self.warm_up.min(n / k);
        (j * n + (k - j) * w) / k
    }
}

/// The calling thread's parse, as [`parse`] sees it.
pub trait Parser {
    /// A helper's output from its seam on, in the parser's own form.
    type Out: Send;
    /// A helper's final state, and whatever else the calling thread takes.
    type Last: Send;

    /// Step until the parse stands at or past `end`, or `at_match_end(pos)`
    /// holds in the state a parse is in right after a match ending at `pos`.
    fn run(&mut self, end: usize, at_match_end: impl FnMut(usize) -> bool);

    /// Whether, standing at `pos` in the helper's state, both parses also
    /// agree on what later steps read besides the state.
    fn agrees(&mut self, _last: &mut Self::Last, _pos: usize) -> bool {
        true
    }

    /// Append a helper's output from offset `off`, where it stood at `pos`,
    /// and continue from its final state.
    fn adopt(&mut self, out: Self::Out, pos: usize, off: usize, last: Self::Last);
}

/// A helper's match ends before `until`, as (position − seam, output
/// offset) in position order.
pub struct MatchEnds {
    seam: usize,
    pub until: usize,
    list: Vec<(u32, u32)>,
}

impl MatchEnds {
    /// A match ends at `pos`, with `off` units of output written.
    #[inline]
    pub fn record(&mut self, pos: usize, off: usize) {
        if pos < self.until {
            self.list.push(((pos - self.seam) as u32, off as u32));
        }
    }
}

/// Parse `n` bytes in `segments` (at least two) segments laid out by
/// `shape`. `p` stands at 0; `helper(seam, end, ends)` parses `seam..end`
/// from a fresh state, records its match ends and returns its output and
/// final state. Returns how many seams resynchronised; `p` then stands at
/// the end of the last segment.
pub fn parse<P: Parser>(
    shape: &Shape,
    p: &mut P,
    n: usize,
    segments: usize,
    helper: impl Fn(usize, usize, &mut MatchEnds) -> (P::Out, P::Last) + Sync,
) -> usize {
    let seam = |j| shape.seam(n, segments, j);
    let ((), helpers) = pool::fan_out_beside(
        segments - 1,
        segments - 1,
        |j| {
            let (start, end) = (seam(j + 1), seam(j + 2));
            let until = (start + shape.window).min(end);
            let mut ends = MatchEnds { seam: start, until, list: Vec::new() };
            let (out, last) = helper(start, end, &mut ends);
            (end, ends, out, last)
        },
        || p.run(seam(1), |_| false),
    );
    let mut resynced = 0;
    for (end, ends, out, mut last) in helpers {
        let at = |&(e, off): &(u32, u32)| (ends.seam + e as usize, off as usize);
        let mut ends = ends.list.iter().map(at).peekable();
        // Parse on to each match end where both parses stand in one state,
        // until the history check passes there too.
        let agreed = loop {
            let mut hit = None;
            p.run(end, |pos| {
                while ends.next_if(|&(e, _)| e < pos).is_some() {}
                hit = ends.next_if(|&(e, _)| e == pos);
                hit.is_some()
            });
            match hit {
                Some((pos, _)) if !p.agrees(&mut last, pos) => continue,
                hit => break hit,
            }
        };
        if let Some((pos, off)) = agreed {
            p.adopt(out, pos, off, last);
            resynced += 1;
        }
    }
    resynced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_counts_seams_and_the_worker_rule() {
        let cores = pool::cores();
        for (shape, threshold) in [(DEFLATE, 256 * 1024), (LZ4, 5 * 256 * 1024)] {
            assert_eq!(shape.segments(threshold), cores.min(2), "{shape:?}");
            assert_eq!(shape.segments(threshold - 1), 1, "{shape:?}");
            let most = ((16 << 20) - shape.warm_up) / shape.share;
            assert_eq!(shape.segments(16 << 20), cores.min(most), "{shape:?}");
            // A pool worker parses alone, however large its input.
            let on_worker = pool::fan_out(2, 2, |_| shape.segments(16 << 20));
            assert_eq!(on_worker, [1, 1], "{shape:?}");
            // Every count `segments` gives on a host of up to 8 cores.
            for n in [threshold, 3 << 20, 7_654_321] {
                for k in 2..=((n - shape.warm_up) / shape.share).min(8) {
                    let seams: Vec<usize> = (1..=k).map(|j| shape.seam(n, k, j)).collect();
                    assert!(seams[0] > 0 && seams.windows(2).all(|s| s[0] < s[1]), "{seams:?}");
                    assert_eq!(seams[k - 1], n);
                    // The first segment is a helper's warm-up and share.
                    let share = seams[1] - seams[0];
                    assert!(seams[0].abs_diff(shape.warm_up + share) <= 1, "{shape:?} {n} {k}");
                }
            }
        }
    }
}
