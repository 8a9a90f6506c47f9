//! Hostile-input tests for the serve crate's HTTP request reader.
//!
//! Mutated requests (every truncation, byte replacement, insertion,
//! deletion and bit flip, duplicated and conflicting headers, CRLF↔LF
//! swaps, over-long lines, and random stacks of these) must come back
//! from `http::read_request` as a request or a typed `HttpError`, never
//! a panic. Whenever a request parses, its body is exactly the
//! declared `content-length` bytes, the reader stopped on the byte
//! after it, and a valid request following it parses from there. The
//! outcome must not depend on how the bytes were split across buffer
//! fills.

use std::io::{BufRead, BufReader, Cursor};

use edm_serve::http::{read_request, HttpError, Request};
use proptest::prelude::*;
use proptest::TestRng;

const PREDICT_BODY: &str = r#"{"inputs": [[0.15, 0.2]]}"#;

/// Valid GET, POST and pipelined requests, as the smoke tests send them.
fn seeds() -> Vec<Vec<u8>> {
    let get = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".to_string();
    let post = format!(
        "POST /v1/models/ridge:predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{PREDICT_BODY}",
        PREDICT_BODY.len()
    );
    let keep_alive_10 = "GET /metrics HTTP/1.0\r\nconnection: keep-alive\r\n\r\n".to_string();
    let close = format!(
        "POST /v1/models/m:train HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{PREDICT_BODY}",
        PREDICT_BODY.len()
    );
    vec![
        get.clone().into_bytes(),
        post.clone().into_bytes(),
        keep_alive_10.clone().into_bytes(),
        format!("{post}{get}").into_bytes(),
        format!("{get}{close}").into_bytes(),
        format!("{keep_alive_10}{post}").into_bytes(),
    ]
}

/// A valid request appended after a parsed one.
const SENTINEL: &[u8] = b"GET /sentinel HTTP/1.1\r\nhost: s\r\n\r\n";

/// Bytes that change the meaning of a request wherever they land.
const SHARP_BYTES: &[u8] = b" \t\r\n:/0519-+\x0b\x0c\x00\xffa";

/// Twice the reader's 8 KiB line cap.
const LONG_LINE: usize = 16 * 1024;

/// Largest body the reader accepts in these tests.
const MAX_BODY: usize = 1 << 16;

/// Where the head at the start of `raw` ends (just past its blank
/// line) and the `content-length` it declares (0 when absent), read
/// without the parser under test. `None` when the head is unterminated
/// or a declared length is not a number.
fn frame(raw: &[u8]) -> Option<(usize, usize)> {
    let mut start = 0;
    let mut declared = 0;
    let mut request_line = true;
    while let Some(nl) = raw[start..].iter().position(|&b| b == b'\n') {
        let line = &raw[start..start + nl];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        start += nl + 1;
        if std::mem::take(&mut request_line) {
            continue;
        }
        if line.is_empty() {
            return Some((start, declared));
        }
        let name = b"content-length:";
        if line.len() >= name.len() && line[..name.len()].eq_ignore_ascii_case(name) {
            let value = std::str::from_utf8(&line[name.len()..]).ok()?;
            declared = value.trim_matches([' ', '\t']).parse().ok()?;
        }
    }
    None
}

/// `raw` for a failure message: lossy text, cut to 200 bytes.
fn shown(raw: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(&raw[..raw.len().min(200)]))
}

/// The outcome of one parse, comparable across buffering strategies.
#[derive(Debug, PartialEq)]
enum Outcome {
    Parsed(Request),
    Malformed,
    TooLarge,
    Io,
}

fn outcome(result: Result<Request, HttpError>) -> Outcome {
    match result {
        Ok(request) => Outcome::Parsed(request),
        Err(HttpError::Malformed(_)) => Outcome::Malformed,
        Err(HttpError::TooLarge { limit }) => {
            assert_eq!(limit, MAX_BODY);
            Outcome::TooLarge
        }
        Err(HttpError::Io(_)) => Outcome::Io,
    }
}

/// Reads requests off `reader` until one fails or the input ends.
fn read_all(mut reader: impl BufRead, len: usize) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    // Every parsed request consumes at least one byte, so this bounds
    // the loop even if the reader misbehaves.
    for _ in 0..=len {
        let next = outcome(read_request(&mut reader, MAX_BODY));
        let done = !matches!(next, Outcome::Parsed(_));
        outcomes.push(next);
        if done || reader.fill_buf().expect("in-memory reads succeed").is_empty() {
            break;
        }
    }
    outcomes
}

/// Parses every request in `raw` and checks the framing contract of
/// each one that parses.
fn check(raw: &[u8]) {
    let mut cursor = Cursor::new(raw);
    let mut start = 0;
    while start < raw.len() {
        let result = read_request(&mut cursor, MAX_BODY);
        let Ok(request) = result else { break };
        let consumed = cursor.position() as usize - start;
        let (head_end, declared) = frame(&raw[start..])
            .unwrap_or_else(|| panic!("parsed a request without a framed head: {}", shown(raw)));
        assert_eq!(request.body.len(), declared, "body length in {}", shown(raw));
        assert_eq!(consumed, head_end + declared, "stopped off the request end in {}", shown(raw));
        assert_eq!(request.body, raw[start + head_end..start + consumed], "body bytes");

        let mut followed = raw[start..start + consumed].to_vec();
        followed.extend_from_slice(SENTINEL);
        let mut next = Cursor::new(&followed[..]);
        assert_eq!(read_request(&mut next, MAX_BODY).expect("reparses alone"), request);
        let sentinel = read_request(&mut next, MAX_BODY).expect("the next request parses");
        assert_eq!((sentinel.target.as_str(), sentinel.body.len()), ("/sentinel", 0));
        assert_eq!(next.position() as usize, followed.len(), "sentinel fully consumed");
        start += consumed;
    }
    // The same bytes in small buffer fills give the same answers.
    let whole = read_all(Cursor::new(raw), raw.len());
    for capacity in [1, 7, 64] {
        let split = read_all(BufReader::with_capacity(capacity, raw), raw.len());
        assert_eq!(split, whole, "capacity {capacity} changed the outcome for {}", shown(raw));
    }
}

/// Every truncation, single-byte replacement, insertion, deletion and
/// bit flip of `seed`.
fn single_mutations(seed: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..seed.len()).map(|end| seed[..end].to_vec()).collect();
    for at in 0..seed.len() {
        for &b in SHARP_BYTES {
            let mut replaced = seed.to_vec();
            replaced[at] = b;
            out.push(replaced);
            let mut inserted = seed.to_vec();
            inserted.insert(at, b);
            out.push(inserted);
        }
        let mut deleted = seed.to_vec();
        deleted.remove(at);
        out.push(deleted);
        for bit in [0x01, 0x20, 0x80] {
            let mut flipped = seed.to_vec();
            flipped[at] ^= bit;
            out.push(flipped);
        }
    }
    out
}

/// The byte range of each header line of the first head in `seed`,
/// terminator included (the request line excluded).
fn header_line_ends(seed: &[u8]) -> Vec<(usize, usize)> {
    let mut lines = Vec::new();
    let mut start = 0;
    while let Some(nl) = seed[start..].iter().position(|&b| b == b'\n') {
        let end = start + nl + 1;
        if end - start <= 2 {
            break;
        }
        if start > 0 {
            lines.push((start, end));
        }
        start = end;
    }
    lines
}

/// Duplicated and conflicting headers, CRLF↔LF swaps, and over-long
/// lines, derived from `seed`.
fn structural_mutations(seed: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let first_line_end = seed.iter().position(|&b| b == b'\n').map_or(seed.len(), |i| i + 1);
    for (start, end) in header_line_ends(seed) {
        let line = &seed[start..end];
        let mut duplicated = seed[..end].to_vec();
        duplicated.extend_from_slice(line);
        duplicated.extend_from_slice(&seed[end..]);
        out.push(duplicated);
    }
    for value in ["0", "1", "24", "25", "26", "99999999999999999999999", " 25 ", "\t25"] {
        let mut conflicting = seed[..first_line_end].to_vec();
        conflicting.extend_from_slice(format!("content-length:{value}\r\n").as_bytes());
        conflicting.extend_from_slice(&seed[first_line_end..]);
        out.push(conflicting);
    }
    let lf_only: Vec<u8> = seed.iter().copied().filter(|&b| b != b'\r').collect();
    let mut crlf_everywhere = Vec::new();
    for &b in &lf_only {
        if b == b'\n' {
            crlf_everywhere.push(b'\r');
        }
        crlf_everywhere.push(b);
    }
    out.extend([lf_only, crlf_everywhere]);
    for (at, _) in seed.iter().enumerate().filter(|&(_, &b)| b == b'\n') {
        if at > 0 && seed[at - 1] == b'\r' {
            let mut one_lf = seed.to_vec();
            one_lf.remove(at - 1);
            out.push(one_lf);
        }
        let mut bare_cr = seed.to_vec();
        bare_cr[at] = b'\r';
        out.push(bare_cr);
    }
    let pad = "a".repeat(LONG_LINE);
    let mut long_header = seed[..first_line_end].to_vec();
    long_header.extend_from_slice(format!("x-pad: {pad}\r\n").as_bytes());
    long_header.extend_from_slice(&seed[first_line_end..]);
    out.push(long_header);
    let mut long_target = b"GET /".to_vec();
    long_target.extend_from_slice(pad.as_bytes());
    long_target.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    out.push(long_target);
    out
}

#[test]
fn seeds_parse_and_frame_exactly() {
    for seed in seeds() {
        let outcomes = read_all(Cursor::new(&seed[..]), seed.len());
        assert!(
            outcomes.iter().all(|o| matches!(o, Outcome::Parsed(_))),
            "seed {} answered {outcomes:?}",
            shown(&seed)
        );
        check(&seed);
    }
}

#[test]
fn single_byte_mutations_never_panic_and_frame_exactly() {
    for seed in seeds() {
        for raw in single_mutations(&seed) {
            check(&raw);
        }
    }
}

#[test]
fn structural_mutations_never_panic_and_frame_exactly() {
    for seed in seeds() {
        for raw in structural_mutations(&seed) {
            check(&raw);
        }
    }
}

#[test]
fn lines_over_the_cap_are_rejected_however_they_are_buffered() {
    let pad = "a".repeat(LONG_LINE);
    for raw in
        [format!("GET /x HTTP/1.1\r\nx-pad: {pad}\r\n\r\n"), format!("GET /{pad} HTTP/1.1\r\n\r\n")]
    {
        assert_eq!(
            outcome(read_request(&mut Cursor::new(raw.as_bytes()), MAX_BODY)),
            Outcome::Malformed
        );
        let mut small = BufReader::with_capacity(64, raw.as_bytes());
        assert_eq!(outcome(read_request(&mut small, MAX_BODY)), Outcome::Malformed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random stacks of up to eight byte edits on a random seed.
    #[test]
    fn stacked_mutations_never_panic_and_frame_exactly(
        which in 0usize..6, edits in 1usize..9, edit_seed in 0u64..u64::MAX
    ) {
        let mut raw = seeds()[which].clone();
        let mut rng = TestRng::new(edit_seed);
        for _ in 0..edits {
            let at = rng.below(raw.len() as u64 + 1) as usize;
            let byte = SHARP_BYTES[rng.below(SHARP_BYTES.len() as u64) as usize];
            match rng.below(4) {
                0 if at < raw.len() => raw[at] = byte,
                1 if at < raw.len() => {
                    raw.remove(at);
                }
                2 if at < raw.len() => raw[at] ^= 1 << rng.below(8),
                _ => raw.insert(at, byte),
            }
        }
        check(&raw);
    }
}
