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
//! Two ingestion paths are provided:
//!
//! * [`read_tns`] / [`read_tns_file`] — materialize the whole tensor as COO;
//!   convenient for anything that fits comfortably in RAM.
//! * [`stream_tns`] — a bounded-memory reader that parses the file in
//!   fixed-size nonzero chunks, validates indices against declared
//!   dimensions as it goes (reporting 1-based line numbers), computes
//!   dimensions and the nonzero count in the same single pass, and accounts
//!   its own peak buffer footprint.  [`external_sort_tns`] layers an
//!   external merge sort on top: chunks are sorted and spilled to binary run
//!   files in a temp directory, then [`SortedRuns::for_each`] k-way-merges
//!   them back in sorted order with a configurable [`DuplicatePolicy`] — the
//!   path by which a tensor larger than RAM becomes a set of
//!   [`CsfMode`](crate::csf::CsfMode) hierarchies without ever existing as
//!   full COO.
//!
//! Writers can prepend a `# dims: d1 d2 … dN` header comment
//! ([`write_tns_with_header`]); readers honor it as declared dimensions when
//! the caller supplies none, and validate every index against whichever
//! declaration is in effect.

use crate::coo::SparseTensor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

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
    /// Two entries carried identical indices and the duplicate policy was
    /// [`DuplicatePolicy::Reject`].
    Duplicate {
        /// 1-based line number of the later duplicate.
        line: usize,
        /// 1-based line number of the earlier occurrence.
        earlier_line: usize,
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
            TensorIoError::Duplicate { line, earlier_line } => write!(
                f,
                "duplicate nonzero on line {line}: same indices as line {earlier_line}"
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
    /// Peak bytes resident in the reader's nonzero buffers (indices, values
    /// and line numbers), measured from the buffers' capacities — the bound
    /// the chunk size buys.  Excludes the transient per-line string and
    /// whatever the sink itself retains.
    pub peak_buffer_bytes: usize,
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
    /// 1-based source line of each entry.
    pub lines: &'a [usize],
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

/// Attempts to parse a `# dims: …` / `% dims: …` header comment.
fn parse_dims_header(trimmed: &str) -> Option<Vec<usize>> {
    let body = trimmed
        .strip_prefix('#')
        .or_else(|| trimmed.strip_prefix('%'))?;
    let rest = body.trim_start().strip_prefix("dims:")?;
    let mut dims = Vec::new();
    for field in rest.split_whitespace() {
        dims.push(field.parse::<usize>().ok()?);
    }
    if dims.is_empty() {
        None
    } else {
        Some(dims)
    }
}

/// Streams a `.tns`-format reader through `sink` in chunks of at most
/// `options.chunk_nonzeros` entries, returning the tensor's shape summary
/// and the reader's buffer accounting.
///
/// Dimensions are validated as declared by `options.declared_dims`, or by a
/// `# dims: …` header comment when the options carry none; indices beyond a
/// declared bound fail with [`TensorIoError::IndexOutOfRange`] carrying the
/// 1-based line number.  Without any declaration, dimensions are inferred as
/// the per-mode maxima seen across the pass.
pub fn stream_tns<R: BufRead, F>(
    reader: R,
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
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut lines: Vec<usize> = Vec::new();
    let mut stats = StreamStats::default();
    let mut nnz = 0usize;

    let flush = |indices: &mut Vec<usize>,
                 values: &mut Vec<f64>,
                 lines: &mut Vec<usize>,
                 order: usize,
                 stats: &mut StreamStats,
                 sink: &mut F|
     -> Result<(), TensorIoError> {
        if values.is_empty() {
            return Ok(());
        }
        stats.chunks += 1;
        sink(&TnsChunk {
            order,
            indices,
            values,
            lines,
        })?;
        indices.clear();
        values.clear();
        lines.clear();
        Ok(())
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            if !declared_explicit && declared.is_none() && order.is_none() {
                if let Some(dims) = parse_dims_header(trimmed) {
                    declared = Some(dims);
                }
            }
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let count = trimmed.split_whitespace().count();
        if count < 2 {
            return Err(TensorIoError::Parse(
                lineno,
                "expected at least one index and a value".to_string(),
            ));
        }
        let this_order = count - 1;
        match order {
            None => {
                if let Some(d) = &declared {
                    if d.len() != this_order {
                        return Err(TensorIoError::Parse(
                            lineno,
                            format!(
                                "declared dims have arity {} but file has arity {this_order}",
                                d.len()
                            ),
                        ));
                    }
                }
                order = Some(this_order);
                maxes = vec![0usize; this_order];
                // Reserve the full chunk once so the buffers never grow past
                // it and `peak_buffer_bytes` is the tight bound
                // `chunk * (order + 2) * 8`.
                indices.reserve_exact(chunk * this_order);
                values.reserve_exact(chunk);
                lines.reserve_exact(chunk);
            }
            Some(o) if o != this_order => {
                return Err(TensorIoError::Parse(
                    lineno,
                    format!("inconsistent arity: expected {o} indices, found {this_order}"),
                ))
            }
            _ => {}
        }
        for m in 0..this_order {
            let f = fields.next().expect("counted field");
            let one_based: usize = f
                .parse()
                .map_err(|_| TensorIoError::Parse(lineno, format!("invalid index '{f}'")))?;
            if one_based == 0 {
                return Err(TensorIoError::Parse(
                    lineno,
                    "indices are 1-based; found 0".to_string(),
                ));
            }
            if let Some(d) = &declared {
                if one_based > d[m] {
                    return Err(TensorIoError::IndexOutOfRange {
                        line: lineno,
                        mode: m,
                        index: one_based,
                        size: d[m],
                    });
                }
            }
            maxes[m] = maxes[m].max(one_based);
            indices.push(one_based - 1);
        }
        let vfield = fields.next().expect("counted field");
        let value: f64 = vfield
            .parse()
            .map_err(|_| TensorIoError::Parse(lineno, format!("invalid value '{vfield}'")))?;
        // `str::parse` accepts `nan`, `inf` and overflowing literals; a
        // non-finite nonzero would poison every product downstream.
        if !value.is_finite() {
            return Err(TensorIoError::Parse(
                lineno,
                format!("non-finite value '{vfield}'"),
            ));
        }
        values.push(value);
        lines.push(lineno);
        nnz += 1;
        let word = std::mem::size_of::<usize>();
        stats.peak_buffer_bytes = stats.peak_buffer_bytes.max(
            indices.capacity() * word
                + values.capacity() * std::mem::size_of::<f64>()
                + lines.capacity() * word,
        );
        if values.len() == chunk {
            flush(
                &mut indices,
                &mut values,
                &mut lines,
                this_order,
                &mut stats,
                &mut sink,
            )?;
        }
    }

    let order = order.ok_or(TensorIoError::Empty)?;
    flush(
        &mut indices,
        &mut values,
        &mut lines,
        order,
        &mut stats,
        &mut sink,
    )?;
    let dims = declared.unwrap_or(maxes);
    Ok((TnsInfo { order, dims, nnz }, stats))
}

/// Reads a sparse tensor through the streaming parser, materializing COO.
/// Returns the tensor together with the pass's buffer accounting.
pub fn read_tns_streamed<R: BufRead>(
    reader: R,
    options: &StreamOptions,
) -> Result<(SparseTensor, StreamStats), TensorIoError> {
    let mut all_indices: Vec<usize> = Vec::new();
    let mut all_values: Vec<f64> = Vec::new();
    let (info, stats) = stream_tns(reader, options, |chunk| {
        all_indices.extend_from_slice(chunk.indices);
        all_values.extend_from_slice(chunk.values);
        Ok(())
    })?;
    let mut tensor = SparseTensor::with_capacity(info.dims.clone(), info.nnz);
    for (idx, &v) in all_indices.chunks_exact(info.order).zip(all_values.iter()) {
        tensor.push(idx, v);
    }
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

// ---------------------------------------------------------------------------
// External merge sort: spill sorted runs, k-way merge them back.
// ---------------------------------------------------------------------------

/// How [`SortedRuns::for_each`] treats entries with identical indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicatePolicy {
    /// Emit every entry, duplicates included (deterministic file order
    /// within equal keys).
    Keep,
    /// Merge duplicates by summing their values; the merged entry keeps the
    /// earliest line number.
    Sum,
    /// Fail with [`TensorIoError::Duplicate`] naming both lines.
    Reject,
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The spilled, sorted runs of one external-sort pass over a `.tns` stream.
///
/// Run files live in the spill directory until the value is dropped.  Each
/// record is `(order + 2) × 8` bytes: the 0-based indices, the source line,
/// and the value, all little-endian.
#[derive(Debug)]
pub struct SortedRuns {
    info: TnsInfo,
    stats: StreamStats,
    runs: Vec<PathBuf>,
    sort_mode: Option<usize>,
}

impl Drop for SortedRuns {
    fn drop(&mut self) {
        for run in &self.runs {
            std::fs::remove_file(run).ok();
        }
    }
}

/// Streams a `.tns` reader into sorted runs spilled under `spill_dir`.
///
/// Each chunk of `options.chunk_nonzeros` entries is sorted — by the
/// `sort_mode` index first when given (ties full-lexicographic), plain
/// lexicographic otherwise, with the source line as the final tie-break —
/// and written to its own binary run file, so peak memory stays bounded by
/// the chunk size regardless of the tensor's total size.
pub fn external_sort_tns<R: BufRead>(
    reader: R,
    options: &StreamOptions,
    sort_mode: Option<usize>,
    spill_dir: &Path,
) -> Result<SortedRuns, TensorIoError> {
    std::fs::create_dir_all(spill_dir)?;
    let mut runs: Vec<PathBuf> = Vec::new();
    let result = stream_tns(reader, options, |chunk| {
        let n = chunk.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_unstable_by(|&a, &b| {
            compare_keys(chunk.index(a), chunk.index(b), sort_mode)
                .then_with(|| chunk.lines[a].cmp(&chunk.lines[b]))
        });
        let run_id = RUN_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        let path = spill_dir.join(format!("tns_run_{}_{run_id}.bin", std::process::id()));
        let mut writer = BufWriter::new(File::create(&path)?);
        for &k in &perm {
            for &i in chunk.index(k) {
                writer.write_all(&(i as u64).to_le_bytes())?;
            }
            writer.write_all(&(chunk.lines[k] as u64).to_le_bytes())?;
            writer.write_all(&chunk.values[k].to_le_bytes())?;
        }
        writer.flush()?;
        runs.push(path);
        Ok(())
    });
    match result {
        Ok((info, stats)) => Ok(SortedRuns {
            info,
            stats,
            runs,
            sort_mode,
        }),
        Err(e) => {
            for run in &runs {
                std::fs::remove_file(run).ok();
            }
            Err(e)
        }
    }
}

fn compare_keys(a: &[usize], b: &[usize], sort_mode: Option<usize>) -> Ordering {
    match sort_mode {
        Some(m) => a[m].cmp(&b[m]).then_with(|| a.cmp(b)),
        None => a.cmp(b),
    }
}

struct RunCursor {
    reader: BufReader<File>,
    order: usize,
}

impl RunCursor {
    /// Reads the next record, or `None` at a clean end of file.
    fn next(&mut self) -> Result<Option<(Vec<usize>, usize, f64)>, TensorIoError> {
        let mut buf = vec![0u8; (self.order + 2) * 8];
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = self.reader.read(&mut buf[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(TensorIoError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated spill run record",
                )));
            }
            filled += n;
        }
        let mut index = Vec::with_capacity(self.order);
        for m in 0..self.order {
            let mut w = [0u8; 8];
            w.copy_from_slice(&buf[m * 8..(m + 1) * 8]);
            index.push(u64::from_le_bytes(w) as usize);
        }
        let mut w = [0u8; 8];
        w.copy_from_slice(&buf[self.order * 8..(self.order + 1) * 8]);
        let line = u64::from_le_bytes(w) as usize;
        w.copy_from_slice(&buf[(self.order + 1) * 8..(self.order + 2) * 8]);
        let value = f64::from_le_bytes(w);
        Ok(Some((index, line, value)))
    }
}

struct MergeEntry {
    index: Vec<usize>,
    line: usize,
    value: f64,
    run: usize,
    sort_mode: Option<usize>,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        compare_keys(&self.index, &other.index, self.sort_mode)
            .then_with(|| self.line.cmp(&other.line))
            .then_with(|| self.run.cmp(&other.run))
    }
}

impl SortedRuns {
    /// What the ingestion pass learned about the tensor.
    pub fn info(&self) -> &TnsInfo {
        &self.info
    }

    /// Buffer accounting of the ingestion pass.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Number of spilled run files.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// The mode the runs are sorted by, if any.
    pub fn sort_mode(&self) -> Option<usize> {
        self.sort_mode
    }

    /// K-way-merges the runs and visits every entry in globally sorted
    /// order as `(index, value)`.  Resident memory is one record plus a
    /// small read buffer per run.  Returns the number of entries emitted
    /// (which [`DuplicatePolicy::Sum`] can make smaller than the ingested
    /// count).
    pub fn for_each<F: FnMut(&[usize], f64)>(
        &self,
        policy: DuplicatePolicy,
        mut f: F,
    ) -> Result<usize, TensorIoError> {
        let order = self.info.order;
        let mut cursors: Vec<RunCursor> = Vec::with_capacity(self.runs.len());
        for path in &self.runs {
            cursors.push(RunCursor {
                reader: BufReader::with_capacity(16 * 1024, File::open(path)?),
                order,
            });
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<MergeEntry>> = BinaryHeap::new();
        for (run, cursor) in cursors.iter_mut().enumerate() {
            if let Some((index, line, value)) = cursor.next()? {
                heap.push(std::cmp::Reverse(MergeEntry {
                    index,
                    line,
                    value,
                    run,
                    sort_mode: self.sort_mode,
                }));
            }
        }
        let mut pending: Option<(Vec<usize>, usize, f64)> = None;
        let mut emitted = 0usize;
        while let Some(std::cmp::Reverse(entry)) = heap.pop() {
            if let Some((index, line, value)) = cursors[entry.run].next()? {
                heap.push(std::cmp::Reverse(MergeEntry {
                    index,
                    line,
                    value,
                    run: entry.run,
                    sort_mode: self.sort_mode,
                }));
            }
            match &mut pending {
                Some((pidx, pline, pval)) if *pidx == entry.index => match policy {
                    DuplicatePolicy::Keep => {
                        f(pidx, *pval);
                        emitted += 1;
                        *pline = entry.line;
                        *pval = entry.value;
                    }
                    DuplicatePolicy::Sum => {
                        *pval += entry.value;
                    }
                    DuplicatePolicy::Reject => {
                        return Err(TensorIoError::Duplicate {
                            line: entry.line,
                            earlier_line: *pline,
                        });
                    }
                },
                Some((pidx, _, pval)) => {
                    f(pidx, *pval);
                    emitted += 1;
                    pending = Some((entry.index, entry.line, entry.value));
                }
                None => {
                    pending = Some((entry.index, entry.line, entry.value));
                }
            }
        }
        if let Some((pidx, _, pval)) = pending {
            f(&pidx, pval);
            emitted += 1;
        }
        Ok(emitted)
    }
}

/// Streams a `.tns` file into per-mode CSF hierarchies without ever holding
/// the tensor as full COO: one external-sort pass per mode, each bounded by
/// `options.chunk_nonzeros` resident entries plus per-run merge buffers.
/// Returns the assembled [`CsfTensor`](crate::csf::CsfTensor) and the worst
/// buffer accounting across the passes.
pub fn read_csf_tns_file<P: AsRef<Path>>(
    path: P,
    options: &StreamOptions,
    policy: DuplicatePolicy,
    spill_dir: &Path,
) -> Result<(crate::csf::CsfTensor, StreamStats), TensorIoError> {
    let path = path.as_ref();
    let mut modes = Vec::new();
    let mut dims: Vec<usize> = Vec::new();
    let mut stats = StreamStats::default();
    let mut mode = 0usize;
    loop {
        let file = File::open(path)?;
        let mut opts = options.clone();
        if mode > 0 {
            // Later passes reuse the dimensions the first pass established,
            // so every index is validated even when the file has no header.
            opts.declared_dims = Some(dims.clone());
        }
        let runs = external_sort_tns(BufReader::new(file), &opts, Some(mode), spill_dir)?;
        if mode == 0 {
            dims = runs.info().dims.clone();
        }
        stats.chunks += runs.stats().chunks;
        stats.peak_buffer_bytes = stats.peak_buffer_bytes.max(runs.stats().peak_buffer_bytes);
        let mut builder = crate::csf::CsfModeBuilder::new(mode, &dims, runs.info().nnz);
        runs.for_each(policy, |index, value| builder.push(index, value))?;
        modes.push(builder.finish());
        mode += 1;
        if mode >= dims.len() {
            break;
        }
    }
    Ok((crate::csf::CsfTensor::from_modes(dims, modes), stats))
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
        // The tight bound bought by reserve_exact: chunk * (order + 2) words.
        let word = std::mem::size_of::<usize>();
        assert_eq!(stats.peak_buffer_bytes, 4 * (3 + 2) * word);
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
    fn external_sort_merges_runs_in_mode_order() {
        // Unsorted input; chunk 2 forces three runs.
        let data = "3 1 1 3.0\n1 2 2 1.0\n2 1 1 2.0\n1 1 1 0.5\n2 2 2 2.5\n";
        let options = StreamOptions::new().chunk_nonzeros(2);
        let dir = std::env::temp_dir().join("sptensor_extsort_test");
        let runs = external_sort_tns(Cursor::new(data), &options, Some(0), &dir).unwrap();
        assert_eq!(runs.num_runs(), 3);
        let mut merged = Vec::new();
        let emitted = runs
            .for_each(DuplicatePolicy::Reject, |idx, v| {
                merged.push((idx.to_vec(), v))
            })
            .unwrap();
        assert_eq!(emitted, 5);
        assert_eq!(
            merged,
            vec![
                (vec![0, 0, 0], 0.5),
                (vec![0, 1, 1], 1.0),
                (vec![1, 0, 0], 2.0),
                (vec![1, 1, 1], 2.5),
                (vec![2, 0, 0], 3.0),
            ]
        );
        drop(runs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_policies_reject_sum_keep() {
        let data = "1 1 1.0\n2 2 5.0\n1 1 2.5\n";
        let dir = std::env::temp_dir().join("sptensor_dup_test");
        let options = StreamOptions::new().chunk_nonzeros(2);

        let runs = external_sort_tns(Cursor::new(data), &options, None, &dir).unwrap();
        match runs.for_each(DuplicatePolicy::Reject, |_, _| {}) {
            Err(TensorIoError::Duplicate { line, earlier_line }) => {
                assert_eq!((earlier_line, line), (1, 3));
            }
            other => panic!("expected Duplicate, got {other:?}"),
        }

        let runs = external_sort_tns(Cursor::new(data), &options, None, &dir).unwrap();
        let mut merged = Vec::new();
        let emitted = runs
            .for_each(DuplicatePolicy::Sum, |idx, v| {
                merged.push((idx.to_vec(), v))
            })
            .unwrap();
        assert_eq!(emitted, 2);
        assert_eq!(merged, vec![(vec![0, 0], 3.5), (vec![1, 1], 5.0)]);

        let runs = external_sort_tns(Cursor::new(data), &options, None, &dir).unwrap();
        let emitted = runs.for_each(DuplicatePolicy::Keep, |_, _| {}).unwrap();
        assert_eq!(emitted, 3);
        drop(runs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csf_from_file_matches_coo_roundtrip() {
        let t = SparseTensor::from_entries(
            vec![5, 4, 6],
            &[
                (vec![4, 0, 3], -1.0),
                (vec![0, 1, 2], 2.0),
                (vec![2, 3, 5], 3.0),
                (vec![0, 0, 0], 4.0),
                (vec![2, 1, 1], 5.0),
            ],
        );
        let dir = std::env::temp_dir().join("sptensor_csf_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        write_tns_file_with_header(&t, &path).unwrap();
        let options = StreamOptions::new().chunk_nonzeros(2);
        let (csf, stats) =
            read_csf_tns_file(&path, &options, DuplicatePolicy::Reject, &dir).unwrap();
        assert_eq!(csf.dims(), t.dims());
        assert_eq!(csf.nnz(), t.nnz());
        assert!(stats.peak_buffer_bytes > 0);
        // Every mode's hierarchy must agree with the one built from sorted COO.
        for m in 0..t.order() {
            let mut sorted = t.clone();
            sorted.sort_by_mode(m);
            let expect = crate::csf::CsfMode::from_coo(&sorted, m);
            let mut a = Vec::new();
            let mut b = Vec::new();
            csf.mode(m)
                .for_each_nonzero(|r, c, v| a.push((r, c.to_vec(), v)));
            expect.for_each_nonzero(|r, c, v| b.push((r, c.to_vec(), v)));
            assert_eq!(a, b, "mode {m}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
        let e = TensorIoError::Duplicate {
            line: 9,
            earlier_line: 2,
        };
        assert!(format!("{e}").contains("line 9"));
    }
}
