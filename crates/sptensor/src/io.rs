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
//! Every reader goes through one parser, [`stream_tns`]: a bounded-memory
//! pass that hands the file to a sink in fixed-size nonzero chunks,
//! validates indices against declared dimensions as it goes (reporting
//! 1-based line numbers), computes dimensions and the nonzero count in the
//! same pass, and accounts its own peak buffer footprint.  Ingest is
//! parallel on the ambient rayon pool: the raw text is read in windows of at
//! most one chunk's worth of lines, each window is cut at newlines into one
//! part per worker, and each worker parses its lines straight into its own
//! slots of the chunk buffers, which are packed in line order before the
//! sink sees them — so the chunks, the tensor and the first error are the
//! same at every pool width.  On top of it, [`read_tns`] /
//! [`read_tns_file`] / [`read_tns_streamed`] / [`read_tns_file_streamed`]
//! collect the chunks into a COO tensor, from which a plan derives every
//! per-mode index structure.
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
    /// Number of chunks handed to the sink.
    pub chunks: usize,
    /// Peak bytes resident in the reader's nonzero buffers (indices and
    /// values), measured from the buffers' capacities: at most
    /// `min(chunk_nonzeros, lines read) · (order + 1)` words, since the
    /// buffers grow only by the lines actually read.  Excludes the raw text
    /// ([`peak_window_bytes`](Self::peak_window_bytes)) and whatever the
    /// sink itself retains.
    pub peak_buffer_bytes: usize,
    /// Peak capacity of the reader's raw text window: the text of at most
    /// `chunk_nonzeros` lines, one unfinished line and one 256 KiB read of
    /// look-ahead.
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

/// Least text one worker parses: a window is split across at most
/// `len / MIN_PART_BYTES` workers, so small windows stay on the calling
/// thread.
const MIN_PART_BYTES: usize = 64 * 1024;

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

/// Position just past the `n`-th newline of `text` (`n ≥ 1`), or — when it
/// holds fewer — how many newlines it holds.
fn nth_line_end(text: &[u8], n: usize) -> Result<usize, usize> {
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
            return Ok(offset + pos + 1);
        }
        found += count;
        offset += block.len();
    }
    Err(found)
}

/// The raw text of the stream, handed out one window of whole lines at a
/// time.  It holds at most the window's lines, one unfinished line and one
/// [`READ_BLOCK`] of look-ahead.
#[derive(Default)]
struct Window {
    /// Text read from the source; `bytes[start..]` is not handed out yet.
    bytes: Vec<u8>,
    start: usize,
    /// `bytes[start..scanned]` holds `newlines` newlines.
    scanned: usize,
    newlines: usize,
    /// The source is exhausted: at a clean end of file, or by `error`.
    done: bool,
    error: Option<io::Error>,
}

impl Window {
    /// The next window: a range of [`Self::bytes`] holding at most
    /// `max_lines ≥ 1` whole lines (the last may lack its newline at a
    /// clean end of file), and its line count.  Zero lines once the text is
    /// exhausted; after a failed read the unfinished line is dropped and
    /// `error` says why.
    fn next<R: Read>(&mut self, reader: &mut R, max_lines: usize) -> (Range<usize>, usize) {
        loop {
            match nth_line_end(&self.bytes[self.scanned..], max_lines - self.newlines) {
                Ok(end) => return self.take(self.scanned + end, max_lines),
                Err(found) => {
                    self.newlines += found;
                    self.scanned = self.bytes.len();
                }
            }
            if self.done {
                let text = &self.bytes[self.start..];
                let len = if self.error.is_some() {
                    text.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
                } else {
                    text.len()
                };
                let unterminated = len > 0 && text[len - 1] != b'\n';
                return self.take(self.start + len, self.newlines + usize::from(unterminated));
            }
            self.fill(reader);
        }
    }

    fn take(&mut self, end: usize, lines: usize) -> (Range<usize>, usize) {
        let range = self.start..end;
        self.start = end;
        self.scanned = end;
        self.newlines = 0;
        (range, lines)
    }

    /// Drops the handed-out text and appends up to one [`READ_BLOCK`].
    fn fill<R: Read>(&mut self, reader: &mut R) {
        self.bytes.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        self.bytes.reserve_exact(READ_BLOCK);
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

/// A line with its ASCII whitespace trimmed.
///
/// # Errors
/// [`TensorIoError::Parse`] if the line is not valid UTF-8.
fn line_text(line: &[u8], lineno: usize) -> Result<&[u8], TensorIoError> {
    if !line.is_ascii() && std::str::from_utf8(line).is_err() {
        return Err(TensorIoError::Parse(
            lineno,
            "line is not valid UTF-8".to_string(),
        ));
    }
    Ok(line.trim_ascii())
}

/// Whether a trimmed line holds an entry (it is neither blank nor a comment).
fn is_entry(text: &[u8]) -> bool {
    !matches!(text.first(), None | Some(b'#' | b'%'))
}

/// The fields of a trimmed line: runs of bytes between ASCII whitespace.
fn fields(text: &[u8]) -> impl Iterator<Item = &[u8]> {
    text.split(u8::is_ascii_whitespace)
        .filter(|f| !f.is_empty())
}

/// Parses an index field exactly as `str::parse::<usize>` does: an optional
/// `+`, then at least one ASCII digit; `None` on anything else or overflow.
fn parse_index(field: &[u8]) -> Option<usize> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(usize::from(digit))
    })
}

/// Parses one entry line (trimmed, non-empty, not a comment) into `index`
/// (0-based, `index.len()` is the order) and returns its value.  Errors
/// come in the order a reader scanning the line meets them: the field
/// count, then each index in turn, then the value.
fn parse_entry(
    text: &[u8],
    lineno: usize,
    declared: Option<&[usize]>,
    index: &mut [usize],
) -> Result<f64, TensorIoError> {
    let order = index.len();
    let mut count = 0;
    let mut index_error = None;
    let mut value_field: &[u8] = &[];
    for field in fields(text) {
        if count < order && index_error.is_none() {
            match check_index(field, lineno, count, declared) {
                Ok(i) => index[count] = i,
                Err(e) => index_error = Some(e),
            }
        } else if count == order {
            value_field = field;
        }
        count += 1;
    }
    check_arity(count, lineno)?;
    if count - 1 != order {
        return Err(TensorIoError::Parse(
            lineno,
            format!(
                "inconsistent arity: expected {order} indices, found {}",
                count - 1
            ),
        ));
    }
    if let Some(e) = index_error {
        return Err(e);
    }
    let value: f64 = std::str::from_utf8(value_field)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            TensorIoError::Parse(
                lineno,
                format!("invalid value '{}'", String::from_utf8_lossy(value_field)),
            )
        })?;
    // `str::parse` accepts `nan`, `inf` and overflowing literals; a
    // non-finite nonzero would poison every product downstream.
    if !value.is_finite() {
        return Err(TensorIoError::Parse(
            lineno,
            format!(
                "non-finite value '{}'",
                String::from_utf8_lossy(value_field)
            ),
        ));
    }
    Ok(value)
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

/// Parses the 1-based index field of `mode` and checks it against the
/// declared dimensions; returns it 0-based.
fn check_index(
    field: &[u8],
    lineno: usize,
    mode: usize,
    declared: Option<&[usize]>,
) -> Result<usize, TensorIoError> {
    let one_based = parse_index(field).ok_or_else(|| {
        TensorIoError::Parse(
            lineno,
            format!("invalid index '{}'", String::from_utf8_lossy(field)),
        )
    })?;
    if one_based == 0 {
        return Err(TensorIoError::Parse(
            lineno,
            "indices are 1-based; found 0".to_string(),
        ));
    }
    if let Some(d) = declared {
        if one_based > d[mode] {
            return Err(TensorIoError::IndexOutOfRange {
                line: lineno,
                mode,
                index: one_based,
                size: d[mode],
            });
        }
    }
    Ok(one_based - 1)
}

/// The entry buffers of the chunk being filled.
#[derive(Default)]
struct ChunkBuffers {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl ChunkBuffers {
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

/// One worker's share of a window: its lines and the chunk slots they may
/// fill, one per line.
struct Part<'a> {
    text: &'a [u8],
    first_line: usize,
    indices: &'a mut [usize],
    values: &'a mut [f64],
    /// Entries parsed so far, packed at the front of the slots.
    entries: usize,
    /// Per-mode maxima of the 1-based indices parsed.
    maxes: Vec<usize>,
    /// The part's first error; parsing stops there.
    error: Option<TensorIoError>,
}

impl Part<'_> {
    fn parse(&mut self, declared: Option<&[usize]>) {
        for (k, line) in self.text.split_inclusive(|&b| b == b'\n').enumerate() {
            if let Err(e) = self.parse_line(line, self.first_line + k, declared) {
                self.error = Some(e);
                return;
            }
        }
    }

    fn parse_line(
        &mut self,
        line: &[u8],
        lineno: usize,
        declared: Option<&[usize]>,
    ) -> Result<(), TensorIoError> {
        let text = line_text(line, lineno)?;
        if !is_entry(text) {
            return Ok(());
        }
        let order = self.maxes.len();
        let slot = self.entries;
        let index = &mut self.indices[slot * order..(slot + 1) * order];
        self.values[slot] = parse_entry(text, lineno, declared, index)?;
        for (max, &i) in self.maxes.iter_mut().zip(index.iter()) {
            *max = (*max).max(i + 1);
        }
        self.entries += 1;
        Ok(())
    }
}

/// Parses `text` — whole lines from line `first_line` on, the order already
/// fixed by `maxes.len()` — into the chunk's next slots, cut at newlines
/// into at most `width` parts that run in parallel on the ambient pool.
/// Each part fills its own slot range, one slot per line; the entries are
/// then packed in line order, so the chunk, the maxima and the first error
/// are those of a sequential pass whatever the cuts.
fn parse_window(
    text: &[u8],
    first_line: usize,
    declared: Option<&[usize]>,
    width: usize,
    buffers: &mut ChunkBuffers,
    maxes: &mut [usize],
) -> Result<(), TensorIoError> {
    // Cut at the first line start at or after each even byte share.
    let mut cuts = vec![0];
    for p in 1..width {
        let target = p * text.len() / width;
        let cut = (text[target..].iter().position(|&b| b == b'\n'))
            .map_or(text.len(), |pos| target + pos + 1);
        if cut > *cuts.last().unwrap() && cut < text.len() {
            cuts.push(cut);
        }
    }
    cuts.push(text.len());
    let part_lines: Vec<usize> = (cuts.windows(2))
        .map(|span| {
            let part = &text[span[0]..span[1]];
            count_newlines(part) + usize::from(part.last().is_some_and(|&b| b != b'\n'))
        })
        .collect();

    let order = maxes.len();
    let filled = buffers.len();
    let lines: usize = part_lines.iter().sum();
    let slots = filled + lines;
    buffers.indices.reserve_exact(lines * order);
    buffers.indices.resize(slots * order, 0);
    buffers.values.reserve_exact(lines);
    buffers.values.resize(slots, 0.0);

    let mut parts = Vec::with_capacity(part_lines.len());
    let mut indices = &mut buffers.indices[filled * order..];
    let mut values = &mut buffers.values[filled..];
    let mut line = first_line;
    for (span, &n) in cuts.windows(2).zip(&part_lines) {
        let (part_indices, rest) = std::mem::take(&mut indices).split_at_mut(n * order);
        indices = rest;
        let (part_values, rest) = std::mem::take(&mut values).split_at_mut(n);
        values = rest;
        parts.push(Part {
            text: &text[span[0]..span[1]],
            first_line: line,
            indices: part_indices,
            values: part_values,
            entries: 0,
            maxes: vec![0; order],
            error: None,
        });
        line += n;
    }
    parts.par_iter_mut().for_each(|part| part.parse(declared));

    let mut packed = Vec::with_capacity(parts.len());
    let mut slot = filled;
    for part in parts {
        if let Some(e) = part.error {
            return Err(e);
        }
        for (max, part_max) in maxes.iter_mut().zip(part.maxes) {
            *max = (*max).max(part_max);
        }
        packed.push((slot, part.entries));
        slot += part.values.len();
    }
    let mut len = filled;
    for (from, entries) in packed {
        buffers
            .indices
            .copy_within(from * order..(from + entries) * order, len * order);
        buffers.values.copy_within(from..from + entries, len);
        len += entries;
    }
    buffers.indices.truncate(len * order);
    buffers.values.truncate(len);
    Ok(())
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
/// The text is read in windows of at most `chunk_nonzeros` lines, each
/// split at newlines across the ambient rayon pool
/// (`rayon::current_num_threads()`); the chunks, the result and the first
/// error (variant and line) are the same at every pool width.  Fields are
/// separated by ASCII whitespace only: any other byte, including Unicode
/// whitespace such as U+00A0, belongs to a field, which then fails to parse.
/// A line that is not valid UTF-8 fails with [`TensorIoError::Parse`].
/// Indices are parsed as `str::parse::<usize>` would (an optional `+`,
/// overflow is an error), values by `str::parse::<f64>`.
pub fn stream_tns<R: BufRead, F>(
    mut reader: R,
    options: &StreamOptions,
    mut sink: F,
) -> Result<(TnsInfo, StreamStats), TensorIoError>
where
    F: FnMut(&TnsChunk<'_>) -> Result<(), TensorIoError>,
{
    let chunk = options.chunk_nonzeros.max(1);
    let mut declared = options.declared_dims.clone();
    let declared_explicit = declared.is_some();
    let mut order: Option<usize> = None;
    let mut maxes: Vec<usize> = Vec::new();
    let mut buffers = ChunkBuffers::default();
    let mut window = Window::default();
    let mut stats = StreamStats::default();
    let mut nnz = 0usize;
    let mut next_line = 1usize;

    let mut flush = |buffers: &mut ChunkBuffers,
                     order: usize,
                     stats: &mut StreamStats|
     -> Result<(), TensorIoError> {
        if buffers.len() == 0 {
            return Ok(());
        }
        stats.chunks += 1;
        sink(&TnsChunk {
            order,
            indices: &buffers.indices,
            values: &buffers.values,
        })?;
        buffers.clear();
        Ok(())
    };

    loop {
        // A line holds at most one entry, so a window never overfills the
        // chunk.
        let (range, lines) = window.next(&mut reader, chunk - buffers.len());
        stats.peak_window_bytes = stats.peak_window_bytes.max(window.bytes.capacity());
        if lines == 0 {
            break;
        }
        let mut text = &window.bytes[range];
        let mut first_line = next_line;
        next_line += lines;
        if order.is_none() {
            // Up to the first entry, sequentially: a header comment may
            // declare the dims, and the entry's field count fixes the order.
            for line in text.split_inclusive(|&b| b == b'\n') {
                let trimmed = line_text(line, first_line)?;
                if is_entry(trimmed) {
                    let count = fields(trimmed).count();
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
                    order = Some(count - 1);
                    maxes = vec![0; count - 1];
                    break;
                }
                if !declared_explicit && declared.is_none() {
                    declared = std::str::from_utf8(trimmed)
                        .ok()
                        .and_then(parse_dims_header);
                }
                text = &text[line.len()..];
                first_line += 1;
            }
            if order.is_none() {
                continue;
            }
        }
        let filled = buffers.len();
        let width = (text.len() / MIN_PART_BYTES).clamp(1, rayon::current_num_threads());
        let result = parse_window(
            text,
            first_line,
            declared.as_deref(),
            width,
            &mut buffers,
            &mut maxes,
        );
        stats.peak_buffer_bytes = stats.peak_buffer_bytes.max(buffers.capacity_bytes());
        result?;
        nnz += buffers.len() - filled;
        if buffers.len() == chunk {
            flush(
                &mut buffers,
                order.expect("an entry fixed the order"),
                &mut stats,
            )?;
        }
    }
    if let Some(e) = window.error.take() {
        return Err(e.into());
    }
    let order = order.ok_or(TensorIoError::Empty)?;
    flush(&mut buffers, order, &mut stats)?;
    let dims = declared.unwrap_or(maxes);
    Ok((TnsInfo { order, dims, nnz }, stats))
}

/// Reads a sparse tensor through the streaming parser, materializing COO.
/// Returns the tensor together with the pass's buffer accounting.
pub fn read_tns_streamed<R: BufRead>(
    reader: R,
    options: &StreamOptions,
) -> Result<(SparseTensor, StreamStats), TensorIoError> {
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let (info, stats) = stream_tns(reader, options, |chunk| {
        indices.extend_from_slice(chunk.indices);
        values.extend_from_slice(chunk.values);
        Ok(())
    })?;
    // The tensor lives on after the pass: drop the slack the doubling
    // growth left (up to as much again as the entries).
    indices.shrink_to_fit();
    values.shrink_to_fit();
    // The pass checked every index against `info.dims`.
    let tensor = SparseTensor::from_validated_parts(info.dims, indices, values);
    Ok((tensor, stats))
}

/// Reads a `.tns` file through the streaming parser.
pub fn read_tns_file_streamed<P: AsRef<Path>>(
    path: P,
    options: &StreamOptions,
) -> Result<(SparseTensor, StreamStats), TensorIoError> {
    let file = File::open(path)?;
    read_tns_streamed(BufReader::new(file), options)
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
    let file = File::open(path)?;
    read_tns(BufReader::new(file), dims)
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

    /// Parses `text` through `parse_window` at `width` after two entries
    /// already in the chunk.
    fn window_outcome(text: &[u8], width: usize) -> WindowOutcome {
        let mut buffers = ChunkBuffers {
            indices: vec![0, 0, 0, 1, 1, 1],
            values: vec![0.5, 1.5],
        };
        let mut maxes = vec![2, 2, 2];
        parse_window(
            text,
            3,
            Some(&[9, 9, 9][..]),
            width,
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
            // Buffers are sized by the two lines read, not by the request.
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
