//! Text I/O for sparse tensors in the FROSTT `.tns` coordinate format.
//!
//! Each non-comment line holds `N` one-based indices followed by a value:
//!
//! ```text
//! # optional comment
//! 1 1 1 1.0
//! 2 3 4 2.5
//! ```
//!
//! The paper's datasets (Netflix, NELL, Delicious, Flickr) are distributed in
//! this shape; the reproduction's synthetic profiles can be written out and
//! read back through these routines, and real `.tns` files can be fed to the
//! examples and benches directly.
//!
//! Every reader goes through one parser: a bounded-memory pass that scans
//! the text once, validates indices against declared dimensions as it goes
//! (reporting 1-based line numbers), and computes dimensions and the
//! nonzero count in the same pass.  The raw text is read in windows of a few
//! MiB; the scan that finds a window's end cuts it at newlines into parts of
//! at least 64 KiB, several per thread of the ambient rayon pool, counting
//! each part's lines as it goes.  The parts parse in parallel, one pass over
//! each line's bytes, straight into the spare capacity of the entry
//! buffers, one slot per line, so each entry is written once; entries are
//! moved up only after a part that skipped a comment or blank line.  The
//! entries, the tensor and the first error are the same at every pool width.
//! [`stream_tns`] parses into chunk buffers it hands to a sink in
//! fixed-size chunks; [`read_tns`] / [`read_tns_file`] /
//! [`read_tns_streamed`] / [`read_tns_file_streamed`] parse into the COO
//! tensor's own buffers, from which a plan derives every per-mode index
//! structure.
//!
//! No reader rejects or merges a duplicated coordinate: it is kept as two
//! nonzeros.  TTMc adds them linearly, but
//! [`SparseTensor::frobenius_norm`] sums `a² + b²` where the tensor holds
//! `(a + b)²`; call [`SparseTensor::coalesce`] on input that may repeat a
//! coordinate.
//!
//! Fields are separated by ASCII whitespace (space, tab, CR, form feed);
//! any other byte, Unicode whitespace such as U+00A0 included, belongs to a
//! field, which then fails to parse.  A line that is not valid UTF-8 fails
//! with [`TensorIoError::Parse`] naming it.
//!
//! Writers can prepend a `# dims: d1 d2 … dN` header comment
//! ([`write_tns_with_header`]); readers honor it as declared dimensions when
//! the caller supplies none, and validate every index against whichever
//! declaration is in effect.

use crate::coo::SparseTensor;
use rayon::prelude::*;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::path::Path;

/// Errors produced while reading a tensor file.
#[derive(Debug)]
pub enum TensorIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and a
    /// description.
    Parse(usize, String),
    /// An index exceeded the declared dimension of its mode.  `index` is the
    /// 1-based index as written in the file; `mode` is 0-based.
    IndexOutOfRange {
        /// 1-based line number of the offending entry.
        line: usize,
        /// 0-based mode whose bound was violated.
        mode: usize,
        /// The 1-based index as written in the file.
        index: usize,
        /// The declared size of that mode.
        size: usize,
    },
    /// The file contained no nonzeros.
    Empty,
}

impl std::fmt::Display for TensorIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorIoError::Io(e) => write!(f, "I/O error: {e}"),
            TensorIoError::Parse(line, msg) => write!(f, "parse error on line {line}: {msg}"),
            TensorIoError::IndexOutOfRange {
                line,
                mode,
                index,
                size,
            } => write!(
                f,
                "index out of range on line {line}: index {index} of mode {mode} exceeds the declared size {size}"
            ),
            TensorIoError::Empty => write!(f, "tensor file contains no nonzeros"),
        }
    }
}

impl std::error::Error for TensorIoError {}

impl From<io::Error> for TensorIoError {
    fn from(e: io::Error) -> Self {
        TensorIoError::Io(e)
    }
}

/// Options for the streaming `.tns` reader.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Number of nonzeros per chunk handed to the sink; the reader's resident
    /// buffers hold at most this many entries.  Defaults to 65 536.
    pub chunk_nonzeros: usize,
    /// Declared dimensions to validate indices against.  When `None`, a
    /// `# dims: …` header comment (if present) takes their place; otherwise
    /// dimensions are inferred as the per-mode maxima.
    pub declared_dims: Option<Vec<usize>>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk_nonzeros: 65_536,
            declared_dims: None,
        }
    }
}

impl StreamOptions {
    /// Default options: 65 536-nonzero chunks, no declared dimensions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the chunk size in nonzeros (clamped to at least 1).
    pub fn chunk_nonzeros(mut self, n: usize) -> Self {
        self.chunk_nonzeros = n.max(1);
        self
    }

    /// Declares the dimensions up front; every index is validated against
    /// them during the streaming pass.
    pub fn declared_dims(mut self, dims: Vec<usize>) -> Self {
        self.declared_dims = Some(dims);
        self
    }
}

/// What a completed streaming pass learned about the tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TnsInfo {
    /// Number of modes.
    pub order: usize,
    /// Declared dimensions if any were in effect, otherwise per-mode maxima.
    pub dims: Vec<usize>,
    /// Number of nonzero entries.
    pub nnz: usize,
}

/// Buffer accounting for a streaming pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of chunks handed to the sink: [`stream_tns`]'s chunks of at
    /// most `chunk_nonzeros` entries, or 1 for [`read_tns_streamed`], whose
    /// tensor is the one chunk.
    pub chunks: usize,
    /// Peak bytes resident in the reader's own nonzero buffers (indices and
    /// values), measured from the buffers' capacities.  For [`stream_tns`]
    /// at most `min(chunk_nonzeros, lines read) · (order + 1)` words, since
    /// the chunk buffers grow only by the lines actually read.
    /// [`read_tns_streamed`] parses straight into the tensor it returns and
    /// holds no other entry buffers: 0.  Excludes the raw text
    /// ([`peak_window_bytes`](Self::peak_window_bytes)) and whatever the
    /// sink itself retains.
    pub peak_buffer_bytes: usize,
    /// Peak capacity of the reader's raw text buffer, at every entry point:
    /// one 256 KiB read for a text no longer than that, otherwise one window
    /// — about 2 MiB of whole lines, or fewer at a chunk's last line — plus
    /// the part scanned past it (at most 512 KiB) and one read, at most
    /// doubled by the buffer's growth.  A line longer than that is held
    /// whole.
    pub peak_window_bytes: usize,
}

/// One chunk of parsed nonzeros, borrowed from the reader's buffers.
#[derive(Debug)]
pub struct TnsChunk<'a> {
    /// Number of modes.
    pub order: usize,
    /// Flattened 0-based indices, `order` per entry.
    pub indices: &'a [usize],
    /// One value per entry.
    pub values: &'a [f64],
}

impl TnsChunk<'_> {
    /// Number of nonzeros in the chunk.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the chunk holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The 0-based index tuple of entry `k`.
    // Same naming rationale as `SparseTensor::index`: `Index` cannot return
    // a borrowed sub-slice of the flat buffer by value semantics, and
    // `index` is the paper's name for a nonzero's coordinate tuple.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, k: usize) -> &[usize] {
        &self.indices[k * self.order..(k + 1) * self.order]
    }
}

/// Bytes the reader asks its source for at a time while a window fills.
const READ_BLOCK: usize = 256 * 1024;

/// Text one window holds: it closes at the first part end at or past this
/// many bytes (or at the chunk's last line, or at the end of the text).
const WINDOW_BYTES: usize = 2 << 20;

/// Least text one part holds: a window shorter than this stays on the
/// calling thread.
const MIN_PART_BYTES: usize = 64 * 1024;

/// Parts a full window is cut into per pool thread, so a thread that falls
/// behind leaves the others parts to take instead of a wait.
const PARTS_PER_THREAD: usize = 4;

/// Attempts to parse a `# dims: …` / `% dims: …` header comment.
fn parse_dims_header(trimmed: &str) -> Option<Vec<usize>> {
    let body = trimmed
        .strip_prefix('#')
        .or_else(|| trimmed.strip_prefix('%'))?;
    let rest = body.trim_ascii_start().strip_prefix("dims:")?;
    let mut dims = Vec::new();
    for field in rest.split_ascii_whitespace() {
        dims.push(field.parse::<usize>().ok()?);
    }
    if dims.is_empty() {
        None
    } else {
        Some(dims)
    }
}

/// Number of `\n` bytes in a block of at most 255: byte-wide counters
/// vectorize to byte lanes, four times the throughput of a `usize` count.
fn block_newlines(block: &[u8]) -> usize {
    usize::from(block.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')))
}

/// Number of `\n` bytes in `text`.
fn count_newlines(text: &[u8]) -> usize {
    text.chunks(255).map(block_newlines).sum()
}

/// Position just past the `n`-th newline of `text` (`n ≥ 1`), which must
/// hold at least `n`.
fn nth_line_end(text: &[u8], n: usize) -> usize {
    let mut found = 0;
    let mut offset = 0;
    // Count a block at a time; only the block holding the `n`-th newline
    // is walked byte by byte.
    for block in text.chunks(255) {
        let count = block_newlines(block);
        if found + count >= n {
            let (pos, _) = (block.iter().enumerate())
                .filter(|&(_, &b)| b == b'\n')
                .nth(n - found - 1)
                .expect("the block holds that many newlines");
            return offset + pos + 1;
        }
        found += count;
        offset += block.len();
    }
    unreachable!("the text holds fewer than {n} newlines")
}

/// One part of a window: where its text ends (an offset into
/// [`Window::bytes`]) and how many lines it holds.
#[derive(Clone, Copy)]
struct Cut {
    end: usize,
    lines: usize,
}

/// The raw text of the stream, handed out one window of whole lines at a
/// time, already cut into parts: the one scan that finds where the window
/// ends counts every part's lines as it goes.  It holds the window, the
/// open part after it and at most one [`READ_BLOCK`] of look-ahead.
#[derive(Default)]
struct Window {
    /// Text read from the source; `bytes[start..]` is not handed out yet.
    bytes: Vec<u8>,
    start: usize,
    /// The open part, which starts where the last one cut: up to `scanned`
    /// it holds `newlines` newlines, the last of them just before
    /// `last_end`.
    scanned: usize,
    newlines: usize,
    last_end: Option<usize>,
    /// The source is exhausted: at a clean end of file, or by `error`.
    done: bool,
    error: Option<io::Error>,
}

impl Window {
    /// The next window: a range of [`Self::bytes`] holding at most
    /// `max_lines ≥ 1` whole lines (the last may lack its newline at a clean
    /// end of file), and its parts.  A part closes at the last newline
    /// within `part_bytes` of its start (or at the first one after, for a
    /// longer line), the window at the first part end `max_bytes` or more
    /// past its start.  No parts once the text is exhausted; after a failed
    /// read the unfinished line is dropped and `error` says why.
    fn next<R: Read>(
        &mut self,
        reader: &mut R,
        max_lines: usize,
        max_bytes: usize,
        part_bytes: usize,
    ) -> (Range<usize>, Vec<Cut>) {
        let mut parts: Vec<Cut> = Vec::new();
        let mut lines = 0;
        loop {
            let cut = parts.last().map_or(self.start, |p| p.end);
            let room = max_lines - lines;
            if self.newlines >= room {
                // The window's last line ends inside the scanned text: find
                // it there, and keep what lies beyond for the next window.
                let end = cut + nth_line_end(&self.bytes[cut..self.scanned], room);
                parts.push(Cut { end, lines: room });
                self.newlines -= room;
                if self.newlines == 0 {
                    self.last_end = None;
                }
                return self.hand_out(parts);
            }
            if self.scanned == self.bytes.len() {
                if !self.done {
                    self.fill(reader, &mut parts);
                    continue;
                }
                // The rest is the last line, unless a failed read cut it.
                let last_end = self.last_end.unwrap_or(cut);
                let end = if self.error.is_some() {
                    last_end
                } else {
                    self.bytes.len()
                };
                let lines = self.newlines + usize::from(end > last_end);
                if lines > 0 {
                    parts.push(Cut { end, lines });
                }
                self.bytes.truncate(end);
                self.scanned = end;
                self.newlines = 0;
                self.last_end = None;
                return self.hand_out(parts);
            }
            let budget = cut + part_bytes;
            let to = if self.scanned < budget {
                budget
            } else {
                self.scanned + part_bytes
            };
            let block = &self.bytes[self.scanned..to.min(self.bytes.len())];
            let count = count_newlines(block);
            if count > 0 {
                let last = block.iter().rposition(|&b| b == b'\n');
                self.last_end = last.map(|p| self.scanned + p + 1);
                self.newlines += count;
            }
            self.scanned += block.len();
            if self.newlines >= room {
                continue;
            }
            if let Some(end) = self.last_end.filter(|_| self.scanned >= budget) {
                // `bytes[end..scanned]` holds no newline: the next part
                // starts with it already scanned.
                parts.push(Cut {
                    end,
                    lines: self.newlines,
                });
                lines += self.newlines;
                self.newlines = 0;
                self.last_end = None;
                if end - self.start >= max_bytes {
                    return self.hand_out(parts);
                }
            }
        }
    }

    fn hand_out(&mut self, parts: Vec<Cut>) -> (Range<usize>, Vec<Cut>) {
        let start = self.start;
        self.start = parts.last().map_or(start, |p| p.end);
        (start..self.start, parts)
    }

    /// Drops the handed-out text and appends up to one [`READ_BLOCK`].
    fn fill<R: Read>(&mut self, reader: &mut R, parts: &mut [Cut]) {
        let gone = self.start;
        self.bytes.drain(..gone);
        self.start = 0;
        self.scanned -= gone;
        self.last_end = self.last_end.map(|e| e - gone);
        for part in parts {
            part.end -= gone;
        }
        self.bytes.reserve(READ_BLOCK);
        // `read_to_end` retries interrupted reads and keeps what it read
        // before a failure; short of the limit means the source ended.
        match reader
            .by_ref()
            .take(READ_BLOCK as u64)
            .read_to_end(&mut self.bytes)
        {
            Ok(n) => self.done = n < READ_BLOCK,
            Err(e) => {
                self.done = true;
                self.error = Some(e);
            }
        }
    }
}

/// Checks that line `lineno` is valid UTF-8.
///
/// # Errors
/// [`TensorIoError::Parse`] if it is not.
fn check_utf8(line: &[u8], lineno: usize) -> Result<(), TensorIoError> {
    if !line.is_ascii() && std::str::from_utf8(line).is_err() {
        return Err(TensorIoError::Parse(
            lineno,
            "line is not valid UTF-8".to_string(),
        ));
    }
    Ok(())
}

/// A line with its ASCII whitespace trimmed.
///
/// # Errors
/// [`TensorIoError::Parse`] if the line is not valid UTF-8.
fn line_text(line: &[u8], lineno: usize) -> Result<&[u8], TensorIoError> {
    check_utf8(line, lineno)?;
    Ok(line.trim_ascii())
}

/// Whether a trimmed line holds an entry (it is neither blank nor a comment).
fn is_entry(text: &[u8]) -> bool {
    !matches!(text.first(), None | Some(b'#' | b'%'))
}

/// An entry line needs at least one index and a value.
fn check_arity(fields: usize, lineno: usize) -> Result<(), TensorIoError> {
    if fields < 2 {
        return Err(TensorIoError::Parse(
            lineno,
            "expected at least one index and a value".to_string(),
        ));
    }
    Ok(())
}

/// The ASCII whitespace `u8::is_ascii_whitespace` names — space, tab, line
/// feed, form feed, carriage return; not the vertical tab `\x0b`.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0c' | b'\r')
}

/// `b` in every byte lane of a word.
const fn lanes(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// Where the field at `text[pos..]` ends: at the next ASCII whitespace or
/// the end of the text.  Sets `high` if the field holds a byte ≥ 0x80.
/// Eight bytes at a time while they last: the lowest lane below `0x21`
/// (the exact one, as borrows only run upwards) is the only candidate for
/// the separator.
#[inline(always)]
fn field_end(text: &[u8], mut pos: usize, high: &mut bool) -> usize {
    while let Some(word) = text.get(pos..).and_then(<[u8]>::first_chunk::<8>) {
        let w = u64::from_le_bytes(*word);
        let low = w.wrapping_sub(lanes(0x21)) & !w & lanes(0x80);
        if low == 0 {
            *high |= w & lanes(0x80) != 0;
            pos += 8;
            continue;
        }
        let k = low.trailing_zeros() as usize / 8;
        *high |= w & lanes(0x80) & ((1u64 << (8 * k)) - 1) != 0;
        pos += k;
        if is_space(text[pos]) {
            return pos;
        }
        // A control byte that is not a separator belongs to the field.
        pos += 1;
    }
    while let Some(&b) = text.get(pos).filter(|&&b| !is_space(b)) {
        *high |= !b.is_ascii();
        pos += 1;
    }
    pos
}

/// The run of ASCII digits at the front of `text`: its length and its
/// value (wrapping past `usize`).  Up to seven digits with eight bytes to
/// read take no branch per digit: the lowest lane that is not a digit ends
/// the run, and three multiplies combine the lanes below it.
#[inline(always)]
fn leading_digits(text: &[u8]) -> (usize, usize) {
    if let Some(word) = text.first_chunk::<8>() {
        let digits = u64::from_le_bytes(*word).wrapping_sub(lanes(b'0'));
        let other = (digits | digits.wrapping_add(lanes(0x76))) & lanes(0x80);
        let n = other.trailing_zeros() as usize / 8;
        if (1..8).contains(&n) {
            // The run's lanes on top, as the low digits of an 8-digit number.
            let v = digits << (8 * (8 - n));
            let v = v.wrapping_mul(10 * 256 + 1) >> 8 & 0x00ff_00ff_00ff_00ff;
            let v = v.wrapping_mul(100 * 65_536 + 1) >> 16 & 0x0000_ffff_0000_ffff;
            let v = v.wrapping_mul(10_000 * (1 << 32) + 1) >> 32;
            return (n, v as usize);
        }
    }
    let mut n = 0;
    let mut value = 0usize;
    while let Some(d) = text
        .get(n)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        value = value.wrapping_mul(10).wrapping_add(usize::from(d));
        n += 1;
    }
    (n, value)
}

/// Why an index field failed, noted while its line is scanned and reported
/// only if the line's arity is right.
#[derive(Clone, Copy)]
enum IndexFault {
    /// Not an optional `+` and ASCII digits, or beyond `usize`.
    Invalid,
    /// The field reads 0; indices are 1-based.
    Zero,
    /// Beyond the declared size of its mode.
    OutOfRange(usize),
}

/// The error for an index field of `mode` that failed with `fault`.
#[cold]
fn index_error(
    fault: IndexFault,
    field: &[u8],
    lineno: usize,
    mode: usize,
    bounds: &[usize],
) -> TensorIoError {
    match fault {
        IndexFault::Invalid => TensorIoError::Parse(
            lineno,
            format!("invalid index '{}'", String::from_utf8_lossy(field)),
        ),
        IndexFault::Zero => {
            TensorIoError::Parse(lineno, "indices are 1-based; found 0".to_string())
        }
        IndexFault::OutOfRange(index) => TensorIoError::IndexOutOfRange {
            line: lineno,
            mode,
            index,
            size: bounds[mode],
        },
    }
}

/// One part of a window: its lines and the slots their entries may fill,
/// which nothing has written before.
struct Part<'a> {
    text: &'a [u8],
    first_line: usize,
    indices: &'a mut [MaybeUninit<usize>],
    values: &'a mut [MaybeUninit<f64>],
    /// Entries parsed so far, packed at the front of the slots.
    entries: usize,
    /// Per-mode maxima of the 1-based indices parsed.
    maxes: Vec<usize>,
    /// The part's first error; parsing stops there.
    error: Option<TensorIoError>,
}

impl Part<'_> {
    /// Parses every line; `bounds[mode]` is the declared size of the mode,
    /// or `usize::MAX` without a declaration.
    fn parse(&mut self, bounds: &[usize]) {
        let order = bounds.len();
        let Part {
            text,
            first_line,
            indices,
            values,
            entries,
            maxes,
            error,
        } = self;
        let mut at = 0;
        let mut lineno = *first_line;
        while at < text.len() {
            let slot = &mut indices[*entries * order..];
            match parse_line(text, &mut at, lineno, bounds, slot, maxes) {
                Ok(Some(value)) => {
                    values[*entries].write(value);
                    *entries += 1;
                }
                Ok(None) => {}
                Err(e) => {
                    *error = Some(e);
                    return;
                }
            }
            lineno += 1;
        }
    }
}

/// The most decimal digits whose every value fits a `usize`.
const SAFE_DIGITS: usize = usize::MAX.ilog10() as usize;

/// `digits` (ASCII digits only) as a `usize`, or `None` on overflow.
#[cold]
fn checked_index(digits: &[u8]) -> Option<usize> {
    digits.iter().try_fold(0usize, |acc, &b| {
        acc.checked_mul(10)?.checked_add(usize::from(b - b'0'))
    })
}

/// Parses the line at `text[*at..]` in one pass over its bytes and moves
/// `*at` past it: the entry's value, with its 0-based indices written to
/// the front of `slot` and `maxes` raised to them, or `None` for a blank or
/// comment line.  Errors come in the order a reader that checks the whole
/// line first meets them: the encoding, the field count, each index in
/// turn, then the value.
#[inline(always)]
fn parse_line(
    text: &[u8],
    at: &mut usize,
    lineno: usize,
    bounds: &[usize],
    slot: &mut [MaybeUninit<usize>],
    maxes: &mut [usize],
) -> Result<Option<f64>, TensorIoError> {
    let order = bounds.len();
    let start = *at;
    let mut pos = start;
    let mut fields = 0;
    let mut high = false;
    let mut fault: Option<(usize, Range<usize>, IndexFault)> = None;
    let mut value = 0..0;
    loop {
        while text.get(pos).is_some_and(|&b| b != b'\n' && is_space(b)) {
            pos += 1;
        }
        let Some(&first) = text.get(pos).filter(|&&b| b != b'\n') else {
            break;
        };
        if fields == 0 && matches!(first, b'#' | b'%') {
            let end =
                (text[pos..].iter().position(|&b| b == b'\n')).map_or(text.len(), |p| pos + p);
            *at = (end + 1).min(text.len());
            return check_utf8(&text[start..end], lineno).map(|()| None);
        }
        let field = pos;
        if fields < order && fault.is_none() {
            // An optional `+`, then ASCII digits, as `str::parse::<usize>`
            // accepts them; only a field longer than any `usize` needs the
            // overflow checks.
            let digits = pos + usize::from(first == b'+');
            let (n, index) = leading_digits(&text[digits..]);
            let p = digits + n;
            pos = if text.get(p).is_none_or(|&b| is_space(b)) {
                p
            } else {
                field_end(text, p, &mut high)
            };
            let index = if p - digits > SAFE_DIGITS {
                checked_index(&text[digits..p])
            } else {
                Some(index)
            };
            match index {
                Some(i) if pos == p && p > digits => {
                    if i.wrapping_sub(1) < bounds[fields] {
                        slot[fields].write(i - 1);
                        maxes[fields] = maxes[fields].max(i);
                    } else if i == 0 {
                        fault = Some((fields, field..pos, IndexFault::Zero));
                    } else {
                        fault = Some((fields, field..pos, IndexFault::OutOfRange(i)));
                    }
                }
                _ => fault = Some((fields, field..pos, IndexFault::Invalid)),
            }
        } else {
            pos = field_end(text, pos, &mut high);
            if fields == order {
                value = field..pos;
            }
        }
        fields += 1;
    }
    *at = (pos + 1).min(text.len());
    if high {
        check_utf8(&text[start..pos], lineno)?;
    }
    if fields == 0 {
        return Ok(None);
    }
    check_arity(fields, lineno)?;
    if fields - 1 != order {
        return Err(TensorIoError::Parse(
            lineno,
            format!(
                "inconsistent arity: expected {order} indices, found {}",
                fields - 1
            ),
        ));
    }
    if let Some((mode, field, fault)) = fault {
        return Err(index_error(fault, &text[field], lineno, mode, bounds));
    }
    let field = &text[value];
    // SAFETY: the line is ASCII or was just checked to be UTF-8, and the
    // field is cut from it at ASCII bytes.
    let value: f64 = unsafe { std::str::from_utf8_unchecked(field) }
        .parse()
        .map_err(|_| {
            TensorIoError::Parse(
                lineno,
                format!("invalid value '{}'", String::from_utf8_lossy(field)),
            )
        })?;
    // `str::parse` accepts `nan`, `inf` and overflowing literals; a
    // non-finite nonzero would poison every product downstream.
    if !value.is_finite() {
        return Err(TensorIoError::Parse(
            lineno,
            format!("non-finite value '{}'", String::from_utf8_lossy(field)),
        ));
    }
    Ok(Some(value))
}

/// Entry buffers: flat 0-based indices, `order` per entry, and the values.
#[derive(Default)]
struct Entries {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Entries {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn capacity_bytes(&self) -> usize {
        self.indices.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }
}

/// Makes room for `extra` more elements: at least doubling, so appends stay
/// amortized O(1), but never beyond `limit` elements unless `extra` needs
/// them.  Room is reserved, not filled: its pages are first touched by the
/// parse that writes them.
fn grow<T>(v: &mut Vec<T>, extra: usize, limit: usize) {
    if v.capacity() - v.len() < extra {
        let doubled = v.len().saturating_mul(2).min(limit);
        v.reserve_exact((v.len() + extra).max(doubled) - v.len());
    }
}

/// Parses the window `text` — whole lines from line `first_line` on, cut
/// into `parts` (each ends where the next starts, the first at `from`) —
/// and appends its entries to `entries`, which may grow to `limit` entries.
/// The parts run in parallel on the ambient pool, each writing its lines
/// straight into its own range of the buffers' spare capacity: one slot per
/// line, but no more than an entry of `order` indices can fill — `2·order +
/// 1` bytes each — so blank lines cannot inflate it.  Only when a part
/// skipped a comment or blank line are the entries after it moved up.  The
/// buffers, the maxima and the first error are those of a sequential pass
/// whatever the cuts.
#[allow(clippy::too_many_arguments)]
fn parse_window(
    text: &[u8],
    from: usize,
    parts: &[Cut],
    first_line: usize,
    bounds: &[usize],
    limit: usize,
    entries: &mut Entries,
    maxes: &mut [usize],
) -> Result<(), TensorIoError> {
    let order = bounds.len();
    let starts = std::iter::once(from).chain(parts.iter().map(|p| p.end));
    let slots: Vec<usize> = (parts.iter().zip(starts))
        .map(|(part, start)| part.lines.min((part.end - start) / (2 * order + 1) + 1))
        .collect();
    let total: usize = slots.iter().sum();
    grow(
        &mut entries.indices,
        total * order,
        limit.saturating_mul(order),
    );
    grow(&mut entries.values, total, limit);

    let mut indices = &mut entries.indices.spare_capacity_mut()[..total * order];
    let mut values = &mut entries.values.spare_capacity_mut()[..total];
    let mut work = Vec::with_capacity(parts.len());
    let (mut start, mut line) = (from, first_line);
    for (part, &n) in parts.iter().zip(&slots) {
        let (part_indices, rest) = std::mem::take(&mut indices).split_at_mut(n * order);
        indices = rest;
        let (part_values, rest) = std::mem::take(&mut values).split_at_mut(n);
        values = rest;
        work.push(Part {
            text: &text[start..part.end],
            first_line: line,
            indices: part_indices,
            values: part_values,
            entries: 0,
            maxes: vec![0; order],
            error: None,
        });
        start = part.end;
        line += part.lines;
    }
    work.par_iter_mut().for_each(|part| part.parse(bounds));

    let mut packed = Vec::with_capacity(work.len());
    for part in work {
        if let Some(e) = part.error {
            return Err(e);
        }
        for (max, part_max) in maxes.iter_mut().zip(part.maxes) {
            *max = (*max).max(part_max);
        }
        packed.push(part.entries);
    }
    let indices = entries.indices.spare_capacity_mut();
    let values = entries.values.spare_capacity_mut();
    let (mut slot, mut len) = (0, 0);
    for (&room, n) in slots.iter().zip(packed) {
        if slot != len {
            indices.copy_within(slot * order..(slot + n) * order, len * order);
            values.copy_within(slot..slot + n, len);
        }
        slot += room;
        len += n;
    }
    // SAFETY: the parts wrote the first `n` slots of each of their ranges,
    // and those were just packed into the first `len` slots.
    unsafe {
        entries.indices.set_len(entries.indices.len() + len * order);
        entries.values.set_len(entries.values.len() + len);
    }
    Ok(())
}

/// The pass both entry points share: reads windows of text, parses each
/// across the ambient pool into `entries`, and calls `flush` whenever they
/// hold `chunk` entries and once at the end.  Given the length of the whole
/// text, the first window's lines per byte size `entries` for all of it
/// (plus 1/16), so they need not grow by copying.  Returns the tensor's
/// shape and the pass's chunk and window accounting.
fn parse_stream<R: Read>(
    reader: &mut R,
    options: &StreamOptions,
    chunk: usize,
    text_bytes: Option<u64>,
    entries: &mut Entries,
    mut flush: impl FnMut(usize, &mut Entries) -> Result<(), TensorIoError>,
) -> Result<(TnsInfo, StreamStats), TensorIoError> {
    let mut declared = options.declared_dims.clone();
    let declared_explicit = declared.is_some();
    let mut bounds: Vec<usize> = Vec::new();
    let mut maxes: Vec<usize> = Vec::new();
    let mut window = Window::default();
    let mut stats = StreamStats::default();
    let mut nnz = 0usize;
    let mut next_line = 1usize;
    let part_bytes =
        (WINDOW_BYTES / (PARTS_PER_THREAD * rayon::current_num_threads())).max(MIN_PART_BYTES);

    loop {
        // A line holds at most one entry, so a window never overfills the
        // chunk.
        let (range, mut parts) =
            window.next(reader, chunk - entries.len(), WINDOW_BYTES, part_bytes);
        stats.peak_window_bytes = stats.peak_window_bytes.max(window.bytes.capacity());
        if parts.is_empty() {
            break;
        }
        let text = &window.bytes[range.clone()];
        for part in &mut parts {
            part.end -= range.start;
        }
        let window_first = next_line;
        next_line += parts.iter().map(|p| p.lines).sum::<usize>();
        let mut first_line = window_first;
        let mut from = 0;
        if bounds.is_empty() {
            // Up to the first entry, sequentially: a header comment may
            // declare the dims, and the entry's field count fixes the order.
            for line in text.split_inclusive(|&b| b == b'\n') {
                let trimmed = line_text(line, first_line)?;
                if is_entry(trimmed) {
                    let count = trimmed
                        .split(u8::is_ascii_whitespace)
                        .filter(|f| !f.is_empty())
                        .count();
                    check_arity(count, first_line)?;
                    if let Some(d) = declared.as_ref().filter(|d| d.len() != count - 1) {
                        return Err(TensorIoError::Parse(
                            first_line,
                            format!(
                                "declared dims have arity {} but file has arity {}",
                                d.len(),
                                count - 1
                            ),
                        ));
                    }
                    bounds = declared.clone().unwrap_or(vec![usize::MAX; count - 1]);
                    maxes = vec![0; count - 1];
                    break;
                }
                if !declared_explicit && declared.is_none() {
                    declared = std::str::from_utf8(trimmed)
                        .ok()
                        .and_then(parse_dims_header);
                }
                from += line.len();
                first_line += 1;
            }
            if bounds.is_empty() {
                continue;
            }
            // Drop the lines read here from the parts that held them.
            let mut skipped = first_line - window_first;
            let whole = parts.iter().take_while(|p| p.end <= from).count();
            skipped -= parts[..whole].iter().map(|p| p.lines).sum::<usize>();
            parts.drain(..whole);
            parts[0].lines -= skipped;
        }
        let filled = entries.len();
        if let Some(total) = text_bytes.filter(|_| nnz == 0) {
            let lines: usize = parts.iter().map(|p| p.lines).sum();
            let estimate = lines as u128 * u128::from(total) / text.len() as u128;
            let estimate = usize::try_from(estimate + estimate / 16).unwrap_or(usize::MAX);
            // Only a hint: growth takes over if it is refused or short.
            let _ = entries
                .indices
                .try_reserve_exact(estimate.saturating_mul(bounds.len()));
            let _ = entries.values.try_reserve_exact(estimate);
        }
        parse_window(
            text, from, &parts, first_line, &bounds, chunk, entries, &mut maxes,
        )?;
        nnz += entries.len() - filled;
        if entries.len() == chunk {
            stats.chunks += 1;
            flush(bounds.len(), entries)?;
        }
    }
    if let Some(e) = window.error.take() {
        return Err(e.into());
    }
    if bounds.is_empty() {
        return Err(TensorIoError::Empty);
    }
    if entries.len() > 0 {
        stats.chunks += 1;
        flush(bounds.len(), entries)?;
    }
    let order = bounds.len();
    let dims = declared.unwrap_or(maxes);
    Ok((TnsInfo { order, dims, nnz }, stats))
}

/// Streams a `.tns`-format reader through `sink` in chunks of at most
/// `options.chunk_nonzeros` entries, returning the tensor's shape summary
/// and the reader's buffer accounting.
///
/// Dimensions are validated as declared by `options.declared_dims`, or by a
/// `# dims: …` header comment before the first entry when the options
/// carry none; indices beyond a declared bound fail with
/// [`TensorIoError::IndexOutOfRange`] carrying the 1-based line number.
/// Without any declaration, dimensions are inferred as the per-mode maxima
/// seen across the pass.
///
/// The text is read in windows of about 2 MiB that close early at the
/// chunk's last line, each cut at newlines into parts of at least 64 KiB —
/// several per thread of the ambient rayon pool
/// (`rayon::current_num_threads()`) — that parse in parallel straight into
/// the chunk buffers.  The chunks, the result and the first error (variant,
/// line and message) are the same at every pool width.
/// [`StreamStats::peak_buffer_bytes`] is at most
/// `min(chunk_nonzeros, lines read) · (order + 1)` words and
/// [`StreamStats::peak_window_bytes`] about one window (see there).
///
/// Fields are separated by ASCII whitespace only: any other byte, including
/// Unicode whitespace such as U+00A0 and the vertical tab, belongs to a
/// field, which then fails to parse.  A line that is not valid UTF-8 fails
/// with [`TensorIoError::Parse`].  Indices are parsed as
/// `str::parse::<usize>` would (an optional `+`, overflow is an error),
/// values by `str::parse::<f64>`.
pub fn stream_tns<R: BufRead, F>(
    mut reader: R,
    options: &StreamOptions,
    mut sink: F,
) -> Result<(TnsInfo, StreamStats), TensorIoError>
where
    F: FnMut(&TnsChunk<'_>) -> Result<(), TensorIoError>,
{
    let mut buffers = Entries::default();
    let (info, mut stats) = parse_stream(
        &mut reader,
        options,
        options.chunk_nonzeros.max(1),
        None,
        &mut buffers,
        |order, buffers| {
            sink(&TnsChunk {
                order,
                indices: &buffers.indices,
                values: &buffers.values,
            })?;
            buffers.clear();
            Ok(())
        },
    )?;
    // The buffers never shrink: their capacity now is their peak.
    stats.peak_buffer_bytes = buffers.capacity_bytes();
    Ok((info, stats))
}

/// Reads a sparse tensor through the streaming parser, materializing COO.
/// Returns the tensor together with the pass's buffer accounting.
///
/// Same grammar, errors and parallel windows as [`stream_tns`], but the
/// parts parse straight into the tensor's own index and value buffers,
/// which grow by the lines each window holds and are trimmed to the entries
/// at the end; `options.chunk_nonzeros` does not apply.  So the whole
/// tensor is one chunk ([`StreamStats::chunks`] is 1),
/// [`StreamStats::peak_buffer_bytes`] is 0 — the reader holds no entry
/// buffers besides the tensor it returns — and
/// [`StreamStats::peak_window_bytes`] is bounded as for [`stream_tns`].
pub fn read_tns_streamed<R: BufRead>(
    reader: R,
    options: &StreamOptions,
) -> Result<(SparseTensor, StreamStats), TensorIoError> {
    read_sized(reader, options, None)
}

/// [`read_tns_streamed`], told the length of the text when it is known.
fn read_sized<R: Read>(
    mut reader: R,
    options: &StreamOptions,
    text_bytes: Option<u64>,
) -> Result<(SparseTensor, StreamStats), TensorIoError> {
    let mut entries = Entries::default();
    let (info, stats) = parse_stream(
        &mut reader,
        options,
        usize::MAX,
        text_bytes,
        &mut entries,
        |_, _| Ok(()),
    )?;
    // The tensor lives on after the pass: drop the slack the size estimate
    // or the doubling growth left (up to as much again as the entries).
    let Entries {
        mut indices,
        mut values,
    } = entries;
    indices.shrink_to_fit();
    values.shrink_to_fit();
    // The pass checked every index against `info.dims`.
    let tensor = SparseTensor::from_validated_parts(info.dims, indices, values);
    Ok((tensor, stats))
}

/// Reads a `.tns` file through the streaming parser, sizing the tensor's
/// buffers from the file's length (see [`read_tns_streamed`]).
pub fn read_tns_file_streamed<P: AsRef<Path>>(
    path: P,
    options: &StreamOptions,
) -> Result<(SparseTensor, StreamStats), TensorIoError> {
    let file = File::open(path)?;
    let bytes = file.metadata()?.len();
    read_sized(BufReader::new(file), options, Some(bytes))
}

/// Reads a sparse tensor from a `.tns`-format reader.  Mode sizes are taken
/// as the maximum index seen per mode unless `dims` is provided (directly or
/// via a `# dims: …` header); declared dimensions are validated against
/// every index during the pass, with violations reported as
/// [`TensorIoError::IndexOutOfRange`] carrying the line number.
pub fn read_tns<R: BufRead>(
    reader: R,
    dims: Option<Vec<usize>>,
) -> Result<SparseTensor, TensorIoError> {
    let mut options = StreamOptions::new();
    options.declared_dims = dims;
    read_tns_streamed(reader, &options).map(|(t, _)| t)
}

/// Reads a sparse tensor from a `.tns` file on disk.
pub fn read_tns_file<P: AsRef<Path>>(
    path: P,
    dims: Option<Vec<usize>>,
) -> Result<SparseTensor, TensorIoError> {
    let mut options = StreamOptions::new();
    options.declared_dims = dims;
    read_tns_file_streamed(path, &options).map(|(t, _)| t)
}

/// Writes a sparse tensor in `.tns` format (1-based indices).
pub fn write_tns<W: Write>(tensor: &SparseTensor, writer: &mut W) -> io::Result<()> {
    for (idx, val) in tensor.iter() {
        for &i in idx {
            write!(writer, "{} ", i + 1)?;
        }
        writeln!(writer, "{val}")?;
    }
    Ok(())
}

/// Writes a sparse tensor in `.tns` format with a `# dims: …` header comment
/// that readers use as the declared dimensions.
pub fn write_tns_with_header<W: Write>(tensor: &SparseTensor, writer: &mut W) -> io::Result<()> {
    write!(writer, "# dims:")?;
    for &d in tensor.dims() {
        write!(writer, " {d}")?;
    }
    writeln!(writer)?;
    write_tns(tensor, writer)
}

/// Writes a sparse tensor to a file in `.tns` format.
pub fn write_tns_file<P: AsRef<Path>>(tensor: &SparseTensor, path: P) -> io::Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    write_tns(tensor, &mut writer)
}

/// Writes a sparse tensor to a file with the `# dims: …` header.
pub fn write_tns_file_with_header<P: AsRef<Path>>(
    tensor: &SparseTensor,
    path: P,
) -> io::Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    write_tns_with_header(tensor, &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_simple_3mode() {
        let data = "# comment\n1 1 1 1.0\n2 3 4 2.5\n";
        let t = read_tns(Cursor::new(data), None).unwrap();
        assert_eq!(t.order(), 3);
        assert_eq!(t.dims(), &[2, 3, 4]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.index(0), &[0, 0, 0]);
        assert_eq!(t.index(1), &[1, 2, 3]);
        assert_eq!(t.value(1), 2.5);
    }

    #[test]
    fn read_with_explicit_dims() {
        let data = "1 1 1.0\n";
        let t = read_tns(Cursor::new(data), Some(vec![10, 10])).unwrap();
        assert_eq!(t.dims(), &[10, 10]);
    }

    #[test]
    fn read_rejects_zero_index() {
        let data = "0 1 1.0\n";
        assert!(matches!(
            read_tns(Cursor::new(data), None),
            Err(TensorIoError::Parse(1, _))
        ));
    }

    #[test]
    fn read_rejects_inconsistent_arity() {
        let data = "1 1 1 1.0\n1 1 1.0\n";
        assert!(matches!(
            read_tns(Cursor::new(data), None),
            Err(TensorIoError::Parse(2, _))
        ));
    }

    #[test]
    fn read_rejects_bad_value() {
        let data = "1 1 notanumber\n";
        assert!(matches!(
            read_tns(Cursor::new(data), None),
            Err(TensorIoError::Parse(1, _))
        ));
    }

    #[test]
    fn read_empty_is_error() {
        let data = "# nothing here\n";
        assert!(matches!(
            read_tns(Cursor::new(data), None),
            Err(TensorIoError::Empty)
        ));
    }

    #[test]
    fn declared_dims_reject_out_of_range_with_line_number() {
        let data = "1 1 1.0\n3 9 2.0\n";
        match read_tns(Cursor::new(data), Some(vec![5, 5])) {
            Err(TensorIoError::IndexOutOfRange {
                line,
                mode,
                index,
                size,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(mode, 1);
                assert_eq!(index, 9);
                assert_eq!(size, 5);
            }
            other => panic!("expected IndexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn dims_header_declares_and_validates() {
        let data = "# dims: 4 4 4\n1 1 1 1.0\n";
        let t = read_tns(Cursor::new(data), None).unwrap();
        assert_eq!(t.dims(), &[4, 4, 4]);

        let bad = "# dims: 2 2\n3 1 1.0\n";
        assert!(matches!(
            read_tns(Cursor::new(bad), None),
            Err(TensorIoError::IndexOutOfRange { line: 2, .. })
        ));
    }

    #[test]
    fn header_roundtrip_preserves_dims() {
        let t = SparseTensor::from_entries(vec![6, 7], &[(vec![0, 0], 1.0), (vec![2, 3], 2.0)]);
        let mut buf = Vec::new();
        write_tns_with_header(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("# dims: 6 7\n"));
        let back = read_tns(Cursor::new(buf), None).unwrap();
        assert_eq!(back.dims(), &[6, 7]);
    }

    #[test]
    fn streaming_chunks_and_peak_buffer_are_bounded() {
        let mut data = String::new();
        for k in 0..25 {
            data.push_str(&format!(
                "{} {} {} {}\n",
                k % 5 + 1,
                k % 3 + 1,
                k % 4 + 1,
                k
            ));
        }
        let options = StreamOptions::new().chunk_nonzeros(4);
        let mut seen = 0usize;
        let mut chunk_sizes = Vec::new();
        let (info, stats) = stream_tns(Cursor::new(&data), &options, |chunk| {
            seen += chunk.len();
            chunk_sizes.push(chunk.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(info.order, 3);
        assert_eq!(info.nnz, 25);
        assert_eq!(seen, 25);
        // 25 entries in chunks of 4: six full chunks and one single-entry tail.
        assert_eq!(chunk_sizes, vec![4, 4, 4, 4, 4, 4, 1]);
        assert_eq!(stats.chunks, 7);
        // The buffers grow by exactly the lines read, up to the chunk:
        // chunk * (order + 1) words.
        let word = std::mem::size_of::<usize>();
        assert_eq!(stats.peak_buffer_bytes, 4 * (3 + 1) * word);
        // The raw window holds the whole (small) text plus one read block.
        assert!(stats.peak_window_bytes >= data.len());
        assert!(stats.peak_window_bytes <= data.len() + READ_BLOCK);
    }

    #[test]
    fn chunk_boundary_exactly_at_eof() {
        // 8 entries with chunk 4: the final chunk fills exactly at EOF and
        // no empty trailing chunk is emitted.
        let mut data = String::new();
        for k in 0..8 {
            data.push_str(&format!("{} {} 1.0\n", k + 1, k + 1));
        }
        let options = StreamOptions::new().chunk_nonzeros(4);
        let mut chunk_sizes = Vec::new();
        let (info, stats) = stream_tns(Cursor::new(&data), &options, |chunk| {
            chunk_sizes.push(chunk.len());
            Ok(())
        })
        .unwrap();
        assert_eq!(info.nnz, 8);
        assert_eq!(chunk_sizes, vec![4, 4]);
        assert_eq!(stats.chunks, 2);
    }

    #[test]
    fn write_read_roundtrip() {
        let t = SparseTensor::from_entries(
            vec![3, 4, 5, 6],
            &[
                (vec![0, 1, 2, 3], 1.5),
                (vec![2, 3, 4, 5], -2.0),
                (vec![1, 0, 0, 0], 0.25),
            ],
        );
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(Cursor::new(buf), Some(t.dims().to_vec())).unwrap();
        assert_eq!(back.nnz(), t.nnz());
        for k in 0..t.nnz() {
            assert_eq!(back.index(k), t.index(k));
            assert!((back.value(k) - t.value(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("sptensor_io_test.tns");
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 1], 3.0), (vec![1, 0], 4.0)]);
        write_tns_file(&t, &path).unwrap();
        let back = read_tns_file(&path, None).unwrap();
        assert_eq!(back.nnz(), 2);
        std::fs::remove_file(path).ok();
    }

    /// An index field read by the line parser as the only index of a line,
    /// undeclared: `None` where it fails as invalid (or as not UTF-8),
    /// `Some(0)` where it reads 0.
    fn parse_index(field: &[u8]) -> Option<usize> {
        if field.is_empty() {
            // No line holds an empty field.
            return None;
        }
        let mut text = field.to_vec();
        text.extend_from_slice(b" 1.5");
        let mut maxes = [0];
        match parse_line(
            &text,
            &mut 0,
            1,
            &[usize::MAX],
            &mut [MaybeUninit::uninit()],
            &mut maxes,
        ) {
            Ok(_) => Some(maxes[0]),
            Err(TensorIoError::Parse(_, msg)) if msg.contains("found 0") => Some(0),
            Err(TensorIoError::Parse(_, msg))
                if msg.starts_with("invalid index") || msg.contains("UTF-8") =>
            {
                None
            }
            Err(e) => panic!("{field:?}: {e:?}"),
        }
    }

    #[test]
    fn index_fields_parse_exactly_as_str_parse_does() {
        // Every field of up to four bytes over an alphabet of digits, signs,
        // a letter and a non-ASCII byte, plus the overflow boundary.
        let alphabet: &[u8] = b"019+-a\xc2";
        let mut fields: Vec<Vec<u8>> = vec![Vec::new()];
        for len in 1..=4u32 {
            for mut k in 0..alphabet.len().pow(len) {
                let mut field = Vec::new();
                for _ in 0..len {
                    field.push(alphabet[k % alphabet.len()]);
                    k /= alphabet.len();
                }
                fields.push(field);
            }
        }
        let max = usize::MAX.to_string();
        let over = "18446744073709551616";
        for edge in [
            max.clone(),
            format!("+{max}"),
            format!("0{max}"),
            over.to_string(),
        ] {
            fields.push(edge.into_bytes());
        }
        // Every run length on both sides of the eight-byte word, with the
        // digits a word holds and a stray byte after them.
        for len in 1..=20 {
            let digits: String = (0..len)
                .map(|k| char::from(b"9081726354"[k % 10]))
                .collect();
            for tail in ["", "x", "/", ":", "\u{e9}"] {
                fields.push(format!("{digits}{tail}").into_bytes());
                fields.push(format!("+{digits}{tail}").into_bytes());
            }
        }
        for field in &fields {
            let expect = std::str::from_utf8(field)
                .ok()
                .and_then(|s| s.parse::<usize>().ok());
            assert_eq!(parse_index(field), expect, "field {field:?}");
        }
        assert_eq!(parse_index(b"+7"), Some(7));
        assert_eq!(parse_index(max.as_bytes()), Some(usize::MAX));
    }

    /// A window's entries (indices, value bits) and per-mode maxima, or its
    /// first error's `Debug`.
    type WindowOutcome = Result<(Vec<usize>, Vec<u64>, Vec<usize>), String>;

    /// Parses `text` through `parse_window`, cut at the first line start at
    /// or after each of `width` even byte shares, after two entries already
    /// in the chunk.
    fn window_outcome(text: &[u8], width: usize) -> WindowOutcome {
        let mut parts: Vec<Cut> = Vec::new();
        for p in 1..=width {
            let target = p * text.len() / width;
            let end = (text[target..].iter().position(|&b| b == b'\n'))
                .map_or(text.len(), |pos| target + pos + 1);
            let start = parts.last().map_or(0, |c| c.end);
            if end > start {
                let part = &text[start..end];
                let lines = count_newlines(part) + usize::from(part.last() != Some(&b'\n'));
                parts.push(Cut { end, lines });
            }
        }
        let mut buffers = Entries {
            indices: vec![0, 0, 0, 1, 1, 1],
            values: vec![0.5, 1.5],
        };
        let mut maxes = vec![2, 2, 2];
        parse_window(
            text,
            0,
            &parts,
            3,
            &[9, 9, 9],
            usize::MAX,
            &mut buffers,
            &mut maxes,
        )
        .map_err(|e| format!("{e:?}"))?;
        let bits = buffers.values.iter().map(|v| v.to_bits()).collect();
        Ok((buffers.indices, bits, maxes))
    }

    #[test]
    fn every_cut_of_a_window_parses_like_one_part() {
        let good = "1 2 3 1.5\n# comment\n\n  4 5 6\t-2e3\r\n+7 8 9 0.25\n%\n9 1 1 4\n2 2 2 5";
        let cases: Vec<Vec<u8>> = vec![
            good.as_bytes().to_vec(),
            format!("{good}\n").into_bytes(),
            b"1 1 1 1\n2 2 2 2\n3 3 x 3\n4 4 4 nan\n".to_vec(),
            b"1 1 1 1\n\xff\xfe\n1 1 1 1 1\n".to_vec(),
            "1 1 1 1\n1\u{a0}1 1 1\n2 2 10 2\n".as_bytes().to_vec(),
            b"1 1 1 1\n2 2 2 2\n2 2 10 2\n0 1 1 1\n".to_vec(),
        ];
        for text in &cases {
            let reference = window_outcome(text, 1);
            // Width `len` puts a cut target on every byte of every line.
            for width in 2..=text.len() {
                assert_eq!(
                    window_outcome(text, width),
                    reference,
                    "{:?} at width {width}",
                    String::from_utf8_lossy(text)
                );
            }
        }
        let (indices, _, maxes) = window_outcome(cases[0].as_slice(), 1).unwrap();
        assert_eq!(
            &indices[6..],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 0, 0, 1, 1, 1]
        );
        assert_eq!(maxes, vec![9, 8, 9]);
        // The first error in line order wins, whatever part found it.
        let first = |k: usize| window_outcome(&cases[k], 1).unwrap_err();
        assert!(
            first(2).starts_with("Parse(5, \"invalid index 'x'\")"),
            "{}",
            first(2)
        );
        assert!(
            first(3).starts_with("Parse(4, \"line is not valid UTF-8\")"),
            "{}",
            first(3)
        );
        assert!(
            first(4).contains("Parse(4, \"inconsistent arity"),
            "{}",
            first(4)
        );
        assert!(
            first(5).starts_with("IndexOutOfRange { line: 5, mode: 2, index: 10"),
            "{}",
            first(5)
        );
    }

    #[test]
    fn chunk_sizes_beyond_memory_read_small_files() {
        let data = "# dims: 3 3\n1 2 0.5\n3 1 -1.25\n";
        let expect = read_tns(Cursor::new(data), None).unwrap();
        for chunk in [usize::MAX, 1 << 40, 100_000_000_000] {
            let options = StreamOptions::new().chunk_nonzeros(chunk);
            let (t, stats) = read_tns_streamed(Cursor::new(data), &options).unwrap();
            assert_eq!(t, expect, "chunk {chunk}");
            // The entries go straight into the tensor: no buffers besides it.
            assert_eq!(stats.peak_buffer_bytes, 0);
            assert_eq!(stats.chunks, 1);
            // Chunk buffers are sized by the two lines read, not by the
            // request.
            let (_, stats) = stream_tns(Cursor::new(data), &options, |_| Ok(())).unwrap();
            assert_eq!(stats.peak_buffer_bytes, 2 * (2 + 1) * 8);
            assert_eq!(stats.chunks, 1);
        }
    }

    /// Yields its text a few bytes at a time, interrupted once, then fails.
    struct Flaky {
        text: Vec<u8>,
        at: usize,
        interrupted: bool,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "again"));
            }
            if self.at == self.text.len() {
                return Err(io::Error::other("disk on fire"));
            }
            let n = buf.len().min(3).min(self.text.len() - self.at);
            buf[..n].copy_from_slice(&self.text[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_failed_read_parses_the_whole_lines_before_it_then_fails() {
        let flaky = |text: &str| {
            io::BufReader::with_capacity(
                2,
                Flaky {
                    text: text.as_bytes().to_vec(),
                    at: 0,
                    interrupted: false,
                },
            )
        };
        // The whole lines reach the sink; the cut line is dropped and the
        // read error is the result.
        let options = StreamOptions::new().chunk_nonzeros(1);
        let mut seen = 0;
        let err = stream_tns(flaky("1 1 1.0\n2 2 2.0\n3 3"), &options, |chunk| {
            seen += chunk.len();
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(&err, TensorIoError::Io(e) if e.to_string() == "disk on fire"),
            "{err:?}"
        );
        assert_eq!(seen, 2);
        // A bad line before the failure is the first error.
        let err = read_tns(flaky("1 1 1.0\n2 x 2.0\n3 3"), None).unwrap_err();
        assert!(matches!(err, TensorIoError::Parse(2, _)), "{err:?}");
    }

    #[test]
    fn error_display_strings() {
        let e = TensorIoError::Parse(3, "bad".to_string());
        assert!(format!("{e}").contains("line 3"));
        let e = TensorIoError::Empty;
        assert!(format!("{e}").contains("no nonzeros"));
        let e = TensorIoError::IndexOutOfRange {
            line: 7,
            mode: 1,
            index: 9,
            size: 5,
        };
        let s = format!("{e}");
        assert!(s.contains("line 7") && s.contains("size 5"));
    }
}
