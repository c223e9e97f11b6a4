//! `.tns` round-trip and malformed-input coverage for `sptensor::io`
//! (feeds the ROADMAP's FROSTT validation item: real tensor files must load
//! exactly or fail with an error value, never a panic).

use sptensor::io::{
    read_tns, read_tns_file, read_tns_file_streamed, read_tns_streamed, stream_tns, write_tns,
    write_tns_file, StreamOptions, TensorIoError,
};
use sptensor::SparseTensor;
use std::io::Cursor;

/// Tiny deterministic generator (xorshift64*) so the round-trip covers many
/// shapes without pulling `datagen` into sptensor's dev-dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn value(&mut self) -> f64 {
        // Mix magnitudes (including subnormal-ish and large) and signs.
        let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let exponent = self.below(61) as i32 - 30;
        let sign = if self.next().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        sign * mantissa * 2f64.powi(exponent)
    }
}

fn random_tensor(rng: &mut Rng, dims: &[usize], nnz: usize) -> SparseTensor {
    let mut seen = std::collections::BTreeSet::new();
    let mut entries = Vec::new();
    while entries.len() < nnz {
        let idx: Vec<usize> = dims.iter().map(|&d| rng.below(d)).collect();
        if seen.insert(idx.clone()) {
            entries.push((idx, rng.value()));
        }
    }
    SparseTensor::from_entries(dims.to_vec(), &entries)
}

#[test]
fn write_read_identity_across_shapes() {
    let mut rng = Rng(0x5eed_cafe);
    for dims in [
        vec![7, 5],
        vec![9, 8, 7],
        vec![6, 5, 4, 3],
        vec![3, 3, 3, 3, 3],
    ] {
        let capacity: usize = dims.iter().product();
        let t = random_tensor(&mut rng, &dims, capacity / 3);
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(Cursor::new(&buf), Some(t.dims().to_vec())).unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.nnz(), t.nnz(), "dims {dims:?}");
        for k in 0..t.nnz() {
            assert_eq!(back.index(k), t.index(k), "dims {dims:?} entry {k}");
            // Rust's f64 Display prints the shortest representation that
            // parses back to the same bits, so the round-trip is exact.
            assert_eq!(
                back.value(k).to_bits(),
                t.value(k).to_bits(),
                "dims {dims:?} entry {k}: {} vs {}",
                back.value(k),
                t.value(k)
            );
        }
    }
}

#[test]
fn inferred_dims_match_max_index_per_mode() {
    let mut rng = Rng(0xfeed);
    let t = random_tensor(&mut rng, &[12, 10, 8], 120);
    let mut buf = Vec::new();
    write_tns(&t, &mut buf).unwrap();
    let back = read_tns(Cursor::new(&buf), None).unwrap();
    // Inferred sizes are the per-mode maxima actually present, which can
    // only shrink relative to the declared dims.
    assert_eq!(back.order(), 3);
    for (inferred, &declared) in back.dims().iter().zip(t.dims()) {
        assert!(*inferred <= declared);
    }
    assert_eq!(back.nnz(), t.nnz());
}

#[test]
fn file_roundtrip_on_disk() {
    let mut rng = Rng(0xd15c);
    let t = random_tensor(&mut rng, &[11, 9, 7], 80);
    let path = std::env::temp_dir().join("sptensor_tns_roundtrip_test.tns");
    write_tns_file(&t, &path).unwrap();
    let back = read_tns_file(&path, Some(t.dims().to_vec())).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.nnz(), t.nnz());
    for k in 0..t.nnz() {
        assert_eq!(back.index(k), t.index(k));
        assert_eq!(back.value(k).to_bits(), t.value(k).to_bits());
    }
}

#[test]
fn comments_blanks_and_whitespace_are_tolerated() {
    let data =
        "# header comment\n\n% matrix-market style comment\n  1\t2\t3   1.5  \n2 1 1 -0.25\n";
    let t = read_tns(Cursor::new(data), None).unwrap();
    assert_eq!(t.nnz(), 2);
    assert_eq!(t.index(0), &[0, 1, 2]);
    assert_eq!(t.value(0), 1.5);
    assert_eq!(t.value(1), -0.25);
}

#[test]
fn crlf_line_endings_and_missing_final_newline_parse() {
    // Windows-style endings, mixed with Unix ones, and a last line cut off
    // without its newline: all legal.
    let data = "# dims: 3 4 5\r\n1 1 1 1.5\r\n2 2 2 -2.0\n3 4 5 0.25";
    let t = read_tns(Cursor::new(data), None).unwrap();
    assert_eq!(t.dims(), &[3, 4, 5]);
    assert_eq!(t.nnz(), 3);
    assert_eq!(t.index(2), &[2, 3, 4]);
    assert_eq!(t.value(2), 0.25);
}

#[test]
fn truncated_files_are_parse_errors_with_the_right_line() {
    // A file cut mid-entry — whether mid-value, mid-index, or with the
    // value missing entirely — must fail as a typed error naming the line,
    // never panic or silently drop the tail.
    let cases: &[(&str, usize)] = &[
        // Value column missing on the last (unterminated) line.
        ("1 1 1 1.0\n2 2 2\n", 2),
        // Cut mid-index list, no trailing newline.
        ("1 1 1 1.0\n2 2", 2),
        // Cut mid-number: "-" alone is not a value.
        ("1 1 1 1.0\n2 2 2 -", 2),
    ];
    for (input, line) in cases {
        match read_tns(Cursor::new(*input), None) {
            Err(TensorIoError::Parse(l, _)) => assert_eq!(l, *line, "input {input:?}"),
            other => panic!("input {input:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn out_of_range_indices_fail_during_streaming_with_line_numbers() {
    // The declared dims (here via the header) are enforced while the file
    // streams, so a bad index fails fast with its line — the file is never
    // buffered whole first.
    let data = "# dims: 3 3 3\n1 1 1 1.0\n2 9 2 2.0\n";
    let err = read_tns_streamed(Cursor::new(data), &StreamOptions::new()).unwrap_err();
    match err {
        TensorIoError::IndexOutOfRange {
            line,
            mode,
            index,
            size,
        } => {
            assert_eq!((line, mode, index, size), (3, 1, 9, 3));
        }
        other => panic!("expected out-of-range error, got {other:?}"),
    }
}

#[test]
fn non_finite_values_are_parse_errors_at_every_entry_point() {
    let dir = std::env::temp_dir().join(format!("sptensor_nonfinite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let options = StreamOptions::new().chunk_nonzeros(2);
    // `1e999` overflows to infinity in `str::parse`.
    for (bad, line) in [
        ("nan", 1),
        ("NaN", 2),
        ("inf", 3),
        ("-inf", 4),
        ("1e999", 5),
        ("-1e999", 3),
    ] {
        let mut data = String::from("# dims: 6 6 6\n");
        for l in 1..=5 {
            let value = if l == line {
                bad.to_string()
            } else {
                format!("{l}.5")
            };
            data.push_str(&format!("{l} {l} {l} {value}\n"));
        }
        let lineno = line + 1; // the header is line 1
        let expect = |result: Result<(), TensorIoError>, entry: &str| match result {
            Err(TensorIoError::Parse(l, msg)) => {
                assert_eq!(
                    l, lineno,
                    "{entry}: {bad} on line {lineno}, reported {msg:?}"
                );
                assert!(msg.contains(bad), "{entry}: {msg:?}");
            }
            other => panic!("{entry}: {bad} expected a parse error, got {other:?}"),
        };
        let path = dir.join("hostile.tns");
        std::fs::write(&path, &data).unwrap();
        expect(read_tns(Cursor::new(&data), None).map(drop), "read_tns");
        expect(
            read_tns_file_streamed(&path, &options).map(drop),
            "read_tns_file_streamed",
        );
    }
    // Large but finite values, and zeros of either sign, still load.
    let fine = read_tns(Cursor::new("1 1 1 1e308\n2 2 2 -0.0\n3 3 3 4e-320\n"), None).unwrap();
    assert_eq!(fine.nnz(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_inputs_are_errors_not_panics() {
    // (input, expected 1-based line of the parse error)
    let cases: &[(&str, usize)] = &[
        // A lone value with no index.
        ("3.25\n", 1),
        // Zero index (the format is 1-based).
        ("0 1 1 2.0\n", 1),
        // Index too large for usize.
        ("99999999999999999999999999 1 1 2.0\n", 1),
        // Negative index.
        ("-3 1 1 2.0\n", 1),
        // Non-numeric index.
        ("a 1 1 2.0\n", 1),
        // Non-numeric value.
        ("1 1 1 xyz\n", 1),
        // Arity changes mid-file.
        ("1 1 1 1.0\n1 1 1 1 1.0\n", 2),
        // Good line, then a bad one: error names the right line.
        ("1 2 3 4.0\n1 2 oops 4.0\n", 2),
    ];
    for (input, line) in cases {
        match read_tns(Cursor::new(*input), None) {
            Err(TensorIoError::Parse(l, msg)) => {
                assert_eq!(l, *line, "input {input:?}: wrong line in {msg:?}");
                assert!(!msg.is_empty());
            }
            other => panic!("input {input:?}: expected parse error, got {other:?}"),
        }
    }

    // Only comments / nothing at all: a distinct "empty" error.
    for input in ["", "# nothing\n", "% still nothing\n\n"] {
        assert!(
            matches!(
                read_tns(Cursor::new(input), None),
                Err(TensorIoError::Empty)
            ),
            "input {input:?}"
        );
    }

    // Explicit dims with the wrong arity.
    let err = read_tns(Cursor::new("1 1 1 1.0\n"), Some(vec![4, 4])).unwrap_err();
    assert!(matches!(err, TensorIoError::Parse(_, _)));

    // A missing file is an I/O error value.
    let err = read_tns_file("/nonexistent/definitely/missing.tns", None).unwrap_err();
    assert!(matches!(err, TensorIoError::Io(_)));
}

/// What one read of a `.tns` text produced: the tensor (dims, flat indices,
/// value bits) and the size of each chunk handed to the sink — or the first
/// error's variant, line and message.
type Outcome = Result<(Vec<usize>, Vec<usize>, Vec<u64>, Vec<usize>), String>;

fn outcome(data: &[u8], options: &StreamOptions) -> Outcome {
    let (mut chunks, mut streamed) = (Vec::new(), (Vec::new(), Vec::new()));
    stream_tns(Cursor::new(data), options, |chunk| {
        chunks.push(chunk.len());
        streamed.0.extend_from_slice(chunk.indices);
        streamed.1.extend(chunk.values.iter().map(|v| v.to_bits()));
        Ok(())
    })
    .map_err(|e| format!("{e:?}"))?;
    let (t, _) = read_tns_streamed(Cursor::new(data), options).map_err(|e| format!("{e:?}"))?;
    let indices: Vec<usize> = (0..t.nnz()).flat_map(|k| t.index(k).to_vec()).collect();
    let bits: Vec<u64> = t.values().iter().map(|v| v.to_bits()).collect();
    // Both entry points read the same entries.
    assert!(
        streamed == (indices.clone(), bits.clone()),
        "stream_tns and read_tns_streamed differ"
    );
    Ok((t.dims().to_vec(), indices, bits, chunks))
}

/// Reads `data` in pools of width 1, 2 and 3 with chunks of 1, 2, 7 and the
/// default size.  Per chunk size, every width must give the same outcome
/// (chunk sequence included); across chunk sizes the same tensor or the
/// same error.  Returns the default-chunk outcome.
fn read_everywhere(data: &[u8], pools: &[rayon::ThreadPool]) -> Outcome {
    let what = || {
        String::from_utf8_lossy(data)
            .chars()
            .take(80)
            .collect::<String>()
    };
    let mut reference: Option<Outcome> = None;
    for chunk in [1, 2, 7, StreamOptions::new().chunk_nonzeros] {
        let options = StreamOptions::new().chunk_nonzeros(chunk);
        let at_one = pools[0].install(|| outcome(data, &options));
        for pool in &pools[1..] {
            let here = pool.install(|| outcome(data, &options));
            assert_eq!(
                here,
                at_one,
                "{:?}: width {} differs from width 1 at chunk {chunk}",
                what(),
                pool.current_num_threads()
            );
        }
        let tensor_or_error = at_one.clone().map(|(d, i, v, _)| (d, i, v));
        match &reference {
            None => {}
            Some(r) => assert_eq!(
                r.clone().map(|(d, i, v, _)| (d, i, v)),
                tensor_or_error,
                "{:?}: chunk {chunk} reads another tensor or error",
                what()
            ),
        }
        reference = Some(at_one);
    }
    reference.unwrap()
}

fn pools() -> Vec<rayon::ThreadPool> {
    (1..=3)
        .map(|w| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .unwrap()
        })
        .collect()
}

/// `n` order-2 entry lines, each followed by a 1 KiB comment line: bulk
/// for the windows without many lines to parse.
fn filler(n: usize) -> Vec<u8> {
    let comment = format!("#{}\n", "-".repeat(1022));
    (0..n)
        .flat_map(|k| format!("{} {} {k}.5\n{comment}", k % 9 + 1, k % 7 + 1).into_bytes())
        .collect()
}

/// Entries read, or the expected error's variant and line.
type Expect = Result<usize, (&'static str, usize)>;

#[test]
fn hostile_inputs_read_the_same_at_every_pool_width_and_chunk_size() {
    // (input after a good first line, expected error variant and line, or
    // `Ok` with the number of entries).  Every input has order 2.
    let nbsp = "\u{a0}";
    let cases: Vec<(Vec<u8>, Expect)> = vec![
        (b"1 1 1.0\n2 2 2.0".to_vec(), Ok(2)),
        (b"1 1 1.0\r\n2 2 2.0\r\n\r\n".to_vec(), Ok(2)),
        (b"1 1 1.0\n+2 +2 +2.5\n".to_vec(), Ok(2)),
        (b"1 1 1.0\n2\t2\x0c 2.0 \n".to_vec(), Ok(2)),
        (
            b"1 1 1.0\n1 18446744073709551616 1.0\n".to_vec(),
            Err(("Parse", 2)),
        ),
        (b"1 1 1.0\n1 -1 1.0\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n1 1\x00 1.0\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n\x00\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n\xff\xfe garbage\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n# caf\xe9\n2 2 2.0\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n2 2 2.\xe9\n".to_vec(), Err(("Parse", 2))),
        (
            format!("1 1 1.0\n2{nbsp}2 2.0\n").into_bytes(),
            Err(("Parse", 2)),
        ),
        (
            format!("1 1 1.0\n2 2{nbsp}2.0\n").into_bytes(),
            Err(("Parse", 2)),
        ),
        (b"1 1 1.0\n2\x0b2 2.0\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n2 2 inf\n".to_vec(), Err(("Parse", 2))),
        (b"1 1 1.0\n2 2 2.0\n0 1 3.0\n".to_vec(), Err(("Parse", 3))),
    ];
    let pools = pools();
    let check = |data: &[u8], expect: Expect| {
        let got = read_everywhere(data, &pools);
        match (got, expect) {
            (Ok((_, _, values, _)), Ok(n)) => assert_eq!(values.len(), n),
            (Err(e), Err((variant, line))) => assert!(
                e.starts_with(&format!("{variant}({line},")),
                "{:?}: expected {variant} on line {line}, got {e}",
                String::from_utf8_lossy(data)
            ),
            (got, expect) => panic!(
                "{:?}: expected {expect:?}, got {got:?}",
                String::from_utf8_lossy(data)
            ),
        }
    };
    // Behind 200 good entries (≈ 200 KiB, so a window is split across the
    // pool) and ahead of 30 more.
    let (before, after) = (200, 30);
    for (input, expect) in cases {
        check(&input, expect);
        let mut data = filler(before);
        data.extend_from_slice(&input);
        let unterminated = !input.ends_with(b"\n");
        if unterminated {
            data.push(b'\n');
        }
        data.extend_from_slice(&filler(after));
        let shifted = expect
            .map(|n| before + n + after)
            .map_err(|(variant, line)| (variant, 2 * before + line));
        check(&data, shifted);
    }
    // The typed errors name the offending field or the encoding.
    let err = read_tns(Cursor::new(&b"1 1 1.0\n\xff\n"[..]), None).unwrap_err();
    assert!(format!("{err}").contains("not valid UTF-8"), "{err}");
    let err = read_tns(Cursor::new(format!("7{nbsp}7 1.0\n")), None).unwrap_err();
    assert!(
        format!("{err}").contains("invalid index '7\u{a0}7'"),
        "{err}"
    );
}

#[test]
fn a_line_cut_by_the_read_window_parses_the_same_at_every_byte() {
    // The reader fills its window from the source 256 KiB at a time: put
    // each byte of the probe line on that boundary in turn.
    const BLOCK: usize = 256 * 1024;
    let pools = pools();
    for (probe, expect) in [
        (&b"123 45 6.75\r\n"[..], Ok(())),
        (&b"123 4\xff5 6.75\n"[..], Err("Parse(")),
    ] {
        for k in 0..=probe.len() {
            let mut data = filler(BLOCK / 1100);
            // Pad with a comment so the probe starts at BLOCK - k.
            let pad = BLOCK - k - data.len();
            data.push(b'#');
            data.extend(std::iter::repeat_n(b'x', pad - 2));
            data.push(b'\n');
            data.extend_from_slice(probe);
            data.extend_from_slice(&filler(5));
            let probe_line = 2 * (BLOCK / 1100) + 2;
            match (read_everywhere(&data, &pools), expect) {
                (Ok((_, indices, _, _)), Ok(())) => {
                    assert_eq!(&indices[2 * (BLOCK / 1100)..][..2], &[122, 44], "k {k}");
                }
                (Err(e), Err(prefix)) => {
                    assert!(
                        e.starts_with(&format!("{prefix}{probe_line},")),
                        "k {k}: {e}"
                    );
                }
                (got, _) => panic!("k {k}: {got:?}"),
            }
        }
    }
}

/// A tensor's dims, flat indices and value bits, or the first error's
/// variant and line.
type Reference = Result<(Vec<usize>, Vec<usize>, Vec<u64>), (&'static str, usize)>;

/// Blank lines reserve no entry slots beyond what their bytes could hold: a
/// wide first entry followed by millions of empty lines used to ask the
/// allocator for one `order`-wide slot per line — terabytes — and abort.
#[test]
fn blank_lines_after_a_wide_entry_reserve_next_to_nothing() {
    let order = 100_000;
    let mut data = "1 ".repeat(order).into_bytes();
    data.extend_from_slice(b"-1.5\n");
    data.extend(std::iter::repeat_n(b'\n', 3_000_000));
    data.extend_from_slice(b"2 ");
    data.extend_from_within(2..2 * order + 5);
    let (t, _) = read_tns_streamed(Cursor::new(&data), &StreamOptions::new()).unwrap();
    assert_eq!((t.order(), t.nnz()), (order, 2));
    assert_eq!(t.index(1)[0], 1);
    let (info, stats) = stream_tns(Cursor::new(&data), &StreamOptions::new(), |_| Ok(())).unwrap();
    assert_eq!(info.nnz, 2);
    let word = std::mem::size_of::<usize>();
    assert!(
        stats.peak_buffer_bytes <= 4 * (order + 1) * word,
        "{stats:?}"
    );
}

/// The documented grammar read the plain way — whole lines, `trim_ascii`,
/// fields split on ASCII whitespace, `str::parse` — as a reference for the
/// streaming reader: the dims, flat indices and value bits, or the first
/// error's variant and line (`("Empty", 0)` for a text without entries).
fn reference_read(data: &[u8]) -> Reference {
    let parse = |line| Err(("Parse", line));
    let mut declared: Option<Vec<usize>> = None;
    let mut maxes: Vec<usize> = Vec::new();
    let (mut indices, mut bits) = (Vec::new(), Vec::new());
    let mut order = None;
    let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
    if data.ends_with(b"\n") {
        lines.pop();
    }
    for (k, line) in lines.into_iter().enumerate() {
        let lineno = k + 1;
        let Ok(line) = std::str::from_utf8(line) else {
            return parse(lineno);
        };
        let trimmed = line.trim_ascii();
        if trimmed.is_empty() || trimmed.starts_with(['#', '%']) {
            if order.is_none() && declared.is_none() {
                let header = (trimmed.strip_prefix(['#', '%']))
                    .and_then(|body| body.trim_ascii_start().strip_prefix("dims:"));
                declared = header.and_then(|rest| {
                    let dims: Option<Vec<usize>> = rest
                        .split_ascii_whitespace()
                        .map(|f| f.parse().ok())
                        .collect();
                    dims.filter(|d| !d.is_empty())
                });
            }
            continue;
        }
        let fields: Vec<&str> = trimmed.split_ascii_whitespace().collect();
        if fields.len() < 2 {
            return parse(lineno);
        }
        let n = *order.get_or_insert(fields.len() - 1);
        if fields.len() - 1 != n || declared.as_ref().is_some_and(|d| d.len() != n) {
            return parse(lineno);
        }
        maxes.resize(n, 0);
        for (mode, field) in fields[..n].iter().enumerate() {
            match field.parse::<usize>() {
                Ok(0) | Err(_) => return parse(lineno),
                Ok(i) if declared.as_ref().is_some_and(|d| i > d[mode]) => {
                    return Err(("IndexOutOfRange", lineno))
                }
                Ok(i) => {
                    indices.push(i - 1);
                    maxes[mode] = maxes[mode].max(i);
                }
            }
        }
        match fields[n].parse::<f64>() {
            Ok(v) if v.is_finite() => bits.push(v.to_bits()),
            _ => return parse(lineno),
        }
    }
    if order.is_none() {
        return Err(("Empty", 0));
    }
    Ok((declared.unwrap_or(maxes), indices, bits))
}

/// A `.tns` text drawn from the grammar: an optional (sometimes wrong)
/// `# dims:` header, entry lines with runs of every ASCII whitespace byte
/// between fields, `+` signs, leading zeros, out-of-range and overflowing
/// indices, values in every float syntax, comments, blank lines, the odd
/// line of the wrong arity, CRLF endings and sometimes no final newline.
/// Unless `hostile`, every line is well formed.
fn grammar_text(rng: &mut Rng, lines: usize, hostile: bool) -> Vec<u8> {
    const SPACE: &[u8] = b" \t\r\x0c";
    const VALUES: &[&str] = &[
        "1",
        "-2.5",
        "+3.",
        ".5",
        "-.25",
        "1e10",
        "1E-5",
        "-0.0",
        "0",
        "4e-320",
        "1.7976931348623157e308",
        "2.2250738585072014e-308",
        "inf",
        "-inf",
        "NaN",
        "infinity",
        "1e999",
        "-1e999",
        "0x10",
        "1_0",
        "1e",
        "e5",
        "--1",
        "+-1",
        "1.5.2",
        "",
    ];
    // The well-formed values come first.
    const FINITE: usize = 12;
    let pick = |rng: &mut Rng, n: usize, well_formed: usize| {
        if hostile {
            rng.below(n)
        } else {
            rng.below(well_formed)
        }
    };
    let order = 1 + rng.below(4);
    let dims: Vec<usize> = (0..order).map(|_| 1 + rng.below(12)).collect();
    let space = |rng: &mut Rng| -> Vec<u8> {
        (0..1 + rng.below(3))
            .map(|_| SPACE[rng.below(SPACE.len())])
            .collect()
    };
    let mut text = Vec::new();
    if rng.below(2) == 0 {
        let mut header = dims.clone();
        match pick(rng, 6, 2) {
            4 => header.push(3),
            5 => header[0] = header[0].saturating_sub(1),
            _ => {}
        }
        let marker = if rng.below(4) == 0 { "%" } else { "#" };
        let list: Vec<String> = header.iter().map(|d| d.to_string()).collect();
        text.extend_from_slice(format!("{marker} dims: {}\n", list.join(" ")).as_bytes());
    }
    for _ in 0..lines {
        if rng.below(10) == 0 {
            text.extend(space(rng));
        }
        match rng.below(20) {
            0 => text.extend_from_slice(b"# a comment, 1 2 3\t4"),
            1 => text.extend_from_slice(b"%"),
            2 => {}
            3 => text.extend(space(rng)),
            _ => {
                let arity = match pick(rng, 40, 38) {
                    38 => order + 1,
                    39 => order.saturating_sub(1),
                    _ => order,
                };
                for mode in 0..arity {
                    let dim = dims[mode % order];
                    let index = match pick(rng, 60, 55) {
                        0 => format!("+{}", 1 + rng.below(dim)),
                        1 => format!("000000000000000000000{}", 1 + rng.below(dim)),
                        55 => "0".to_string(),
                        56 => "18446744073709551616".to_string(),
                        57 => "18446744073709551615".to_string(),
                        58 => format!("{}", dim + 1),
                        59 => "-1".to_string(),
                        _ => format!("{}", 1 + rng.below(dim)),
                    };
                    text.extend_from_slice(index.as_bytes());
                    text.extend(space(rng));
                }
                let value = if rng.below(3) == 0 {
                    VALUES[pick(rng, VALUES.len(), FINITE)].to_string()
                } else if rng.below(2) == 0 {
                    format!("{:e}", rng.value())
                } else {
                    format!("{}", rng.value())
                };
                text.extend_from_slice(value.as_bytes());
            }
        }
        if rng.below(8) == 0 {
            text.extend(space(rng));
        }
        text.extend_from_slice(if rng.below(8) == 0 { b"\r\n" } else { b"\n" });
    }
    if rng.below(5) == 0 {
        text.pop();
    }
    text
}

/// Byte-level mutations: a byte replaced, inserted or deleted — among them
/// the vertical tab `\x0b` (not a separator), newlines, signs, digits and
/// bytes ≥ 0x80 that are or are not valid UTF-8.
fn mutate(rng: &mut Rng, text: &mut Vec<u8>) {
    const BYTES: &[&[u8]] = &[
        b"\x0b",
        b" ",
        b"\t",
        b"\n",
        b"\r",
        b"\x0c",
        b"#",
        b"%",
        b"+",
        b"-",
        b"0",
        b"9",
        b".",
        b"e",
        b"\x00",
        b"\xff",
        b"\xe9",
        b"\xc2\xa0",
        "é".as_bytes(),
        b"\xc2",
    ];
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(text.len() + 1);
        let bytes = BYTES[rng.below(BYTES.len())];
        match rng.below(3) {
            0 if at < text.len() => {
                text.splice(at..at + 1, bytes.iter().copied());
            }
            1 if at < text.len() => {
                text.remove(at);
            }
            _ => {
                text.splice(at..at, bytes.iter().copied());
            }
        }
    }
}

#[test]
fn grammar_texts_and_byte_mutations_read_as_the_reference_does() {
    let pools = pools();
    let mut rng = Rng(0x0b7e_5ca1_ab1e);
    let check = |data: &[u8], case: usize| {
        let got = read_everywhere(data, &pools);
        let want = reference_read(data);
        let what = || {
            String::from_utf8_lossy(data)
                .chars()
                .take(200)
                .collect::<String>()
        };
        match (&got, &want) {
            (Ok((dims, indices, bits, _)), Ok(want)) => {
                assert_eq!(
                    &(dims.clone(), indices.clone(), bits.clone()),
                    want,
                    "case {case}: {:?}",
                    what()
                )
            }
            (Err(e), Err(("Empty", _))) => assert_eq!(e, "Empty", "case {case}: {:?}", what()),
            (Err(e), Err(("IndexOutOfRange", line))) => assert!(
                e.starts_with(&format!("IndexOutOfRange {{ line: {line},")),
                "case {case}: {:?}: expected IndexOutOfRange on line {line}, got {e}",
                what()
            ),
            (Err(e), Err((variant, line))) => assert!(
                e.starts_with(&format!("{variant}({line},")),
                "case {case}: {:?}: expected {variant} on line {line}, got {e}",
                what()
            ),
            _ => panic!(
                "case {case}: {:?}: read {got:?}, reference {want:?}",
                what()
            ),
        }
    };
    for case in 0..2000 {
        let lines = rng.below(12);
        let mut text = grammar_text(&mut rng, lines, case % 4 > 0);
        if case % 3 > 0 {
            mutate(&mut rng, &mut text);
        }
        check(&text, case);
    }
    // Well-formed texts long enough to be cut into several parts per window
    // at every width (parts hold 1 MiB / width or more), the last into
    // several windows (2 MiB each), some mutated in their second half.
    for (case, lines) in [12_000, 50_000, 50_000, 200_000].into_iter().enumerate() {
        let mut text = grammar_text(&mut rng, lines, false);
        while lines > 100_000 && text.len() <= 4 << 20 {
            text = grammar_text(&mut rng, lines, false);
        }
        if case == 1 || case == 2 {
            let half = text.split_off(text.len() / 2);
            let mut tail = half;
            mutate(&mut rng, &mut tail);
            text.extend(tail);
        }
        check(&text, 2000 + case);
    }
}
