//! # edm-model-io — the versioned binary container for trained models
//!
//! Defines the on-disk format that lets a model trained in one process
//! be served by any other (the ROADMAP's "train once, serve many"
//! unlock). This crate is deliberately **dependency-free**: it knows
//! nothing about kernels, predictors, or serde — only bytes. The
//! facade crate (`edm::persist`) layers per-family encoders on top.
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"EDMM"
//! 4       2     schema version (u16, currently 1)
//! 6       2     family tag length F (u16)
//! 8       F     family tag (UTF-8, e.g. "svc")
//! 8+F     4     section count S (u32)
//!               then S sections, each:
//!                 2     name length N (u16)
//!                 N     section name (UTF-8)
//!                 8     payload length P (u64)
//!                 P     payload bytes
//!                 4     CRC-32 of the payload
//! EOF-4   4     file CRC-32 over every preceding byte
//! ```
//!
//! Every section payload carries its own CRC so a flipped byte is
//! pinned to the section it corrupted; the trailing file CRC catches
//! truncation and header damage. Floats are stored via
//! [`f64::to_bits`], so a save → load round trip is bitwise exact —
//! the property the workspace proptests pin for all nine `Predictor`
//! families.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};

/// The four magic bytes opening every model file.
pub const MAGIC: [u8; 4] = *b"EDMM";

/// The schema version this crate writes (and the newest it can read).
pub const SCHEMA_VERSION: u16 = 1;

/// Hard cap on a single section payload (256 MiB) — a corrupted length
/// field must not trigger an enormous allocation.
const MAX_SECTION_BYTES: u64 = 256 * 1024 * 1024;

/// Errors raised while reading or writing a model container.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// The file does not start with [`MAGIC`] — not a model file.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's schema version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this build reads ([`SCHEMA_VERSION`]).
        supported: u16,
    },
    /// A section payload failed its CRC-32 check.
    SectionChecksum {
        /// Section whose payload was corrupted.
        section: String,
        /// CRC recorded in the file.
        expected: u32,
        /// CRC recomputed from the payload.
        found: u32,
    },
    /// The trailing whole-file CRC-32 did not match.
    FileChecksum {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC recomputed over the file body.
        found: u32,
    },
    /// The file ended before a declared structure was complete.
    Truncated {
        /// What was being read when bytes ran out.
        context: &'static str,
    },
    /// A decoder asked for a section the file does not contain.
    MissingSection {
        /// The absent section's name.
        section: String,
    },
    /// A payload decoded to something structurally impossible.
    Malformed {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The underlying reader or writer failed.
    Io(std::io::Error),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::BadMagic { found } => {
                write!(f, "not a model file: magic {found:?} != {MAGIC:?}")
            }
            IoError::UnsupportedVersion { found, supported } => {
                write!(f, "model schema version {found} is newer than supported {supported}")
            }
            IoError::SectionChecksum { section, expected, found } => write!(
                f,
                "section {section:?} corrupted: crc {found:#010x} != recorded {expected:#010x}"
            ),
            IoError::FileChecksum { expected, found } => {
                write!(f, "file corrupted: crc {found:#010x} != recorded {expected:#010x}")
            }
            IoError::Truncated { context } => write!(f, "file truncated while reading {context}"),
            IoError::MissingSection { section } => {
                write!(f, "required section {section:?} missing")
            }
            IoError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            IoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Computes the CRC-32 (ISO-HDLC, polynomial `0xEDB88320` reflected —
/// the zlib/PNG checksum) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state ^= u32::from(b);
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    state
}

/// An append-only little-endian encode buffer for one section payload.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty payload buffer.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` bitwise ([`f64::to_bits`]), preserving NaN
    /// payloads and signed zeros exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Appends a length-prefixed `i32` slice.
    pub fn put_i32s(&mut self, v: &[i32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_i32(x);
        }
    }

    /// Appends a row-major rectangular (or ragged) `f64` matrix as a
    /// row count followed by each row as a length-prefixed slice.
    pub fn put_rows(&mut self, rows: &[Vec<f64>]) {
        self.put_usize(rows.len());
        for r in rows {
            self.put_f64s(r);
        }
    }
}

/// A cursor decoding one section payload written by [`Enc`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], IoError> {
        let end = self.pos.checked_add(n).ok_or(IoError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(IoError::Truncated { context });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the whole payload was consumed — catches encoder /
    /// decoder drift within a schema version.
    pub fn finish(self) -> Result<(), IoError> {
        if self.remaining() != 0 {
            return Err(IoError::Malformed {
                detail: format!(
                    "section {:?} has {} trailing bytes after decode",
                    self.section,
                    self.remaining()
                ),
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, IoError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, IoError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, IoError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, IoError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| IoError::Malformed {
            detail: format!("length {v} does not fit this platform's usize"),
        })
    }

    /// Reads an element count, rejecting one the bytes left cannot hold
    /// at `min_size` bytes per element — before any `Vec::with_capacity`
    /// reserves memory the payload could never fill.
    fn get_count(&mut self, what: &str, min_size: usize) -> Result<usize, IoError> {
        let v = self.get_u64()?;
        let fits = (self.remaining() / min_size) as u64;
        if v > fits {
            return Err(IoError::Malformed {
                detail: format!("{what} count {v} exceeds the {} bytes left", self.remaining()),
            });
        }
        Ok(v as usize)
    }

    /// Reads an `i32`.
    pub fn get_i32(&mut self) -> Result<i32, IoError> {
        let b = self.take(4, "i32")?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f64` stored bitwise.
    pub fn get_f64(&mut self) -> Result<f64, IoError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool.
    pub fn get_bool(&mut self) -> Result<bool, IoError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, IoError> {
        let n = self.get_count("string byte", 1)?;
        let b = self.take(n, "string")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| IoError::Malformed { detail: "string is not UTF-8".into() })
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, IoError> {
        let n = self.get_count("f64", 8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_f64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `i32` slice.
    pub fn get_i32s(&mut self) -> Result<Vec<i32>, IoError> {
        let n = self.get_count("i32", 4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_i32()?);
        }
        Ok(v)
    }

    /// Reads a matrix written by [`Enc::put_rows`].
    pub fn get_rows(&mut self) -> Result<Vec<Vec<f64>>, IoError> {
        // Each row is at least its own 8-byte length prefix.
        let n = self.get_count("row", 8)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.get_f64s()?);
        }
        Ok(rows)
    }
}

/// Builds a model container section by section, then serializes it.
#[derive(Debug)]
pub struct ModelWriter {
    family: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl ModelWriter {
    /// Starts a container for the given family tag (e.g. `"svc"`).
    pub fn new(family: &str) -> Self {
        ModelWriter { family: family.to_string(), sections: Vec::new() }
    }

    /// Appends a named section with the payload encoded in `enc`.
    /// Section order is preserved; names must be unique.
    pub fn add_section(&mut self, name: &str, enc: Enc) {
        debug_assert!(self.sections.iter().all(|(n, _)| n != name), "duplicate section {name:?}");
        self.sections.push((name.to_string(), enc.buf));
    }

    /// Serializes the container to `w` (header, sections with per-payload
    /// CRCs, trailing file CRC).
    ///
    /// # Errors
    ///
    /// [`IoError::Io`] if the writer fails; [`IoError::Malformed`] if a
    /// name or payload exceeds the format's length fields.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), IoError> {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        let fam_len = u16::try_from(self.family.len())
            .map_err(|_| IoError::Malformed { detail: "family tag too long".into() })?;
        body.extend_from_slice(&fam_len.to_le_bytes());
        body.extend_from_slice(self.family.as_bytes());
        let n_sections = u32::try_from(self.sections.len())
            .map_err(|_| IoError::Malformed { detail: "too many sections".into() })?;
        body.extend_from_slice(&n_sections.to_le_bytes());
        for (name, payload) in &self.sections {
            let name_len = u16::try_from(name.len())
                .map_err(|_| IoError::Malformed { detail: "section name too long".into() })?;
            if payload.len() as u64 > MAX_SECTION_BYTES {
                return Err(IoError::Malformed {
                    detail: format!("section {name:?} exceeds {MAX_SECTION_BYTES} bytes"),
                });
            }
            body.extend_from_slice(&name_len.to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            body.extend_from_slice(payload);
            body.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let file_crc = crc32(&body);
        w.write_all(&body)?;
        w.write_all(&file_crc.to_le_bytes())?;
        Ok(())
    }

    /// Serializes the container to a fresh byte vector.
    ///
    /// # Errors
    ///
    /// As for [`ModelWriter::write_to`].
    pub fn to_bytes(&self) -> Result<Vec<u8>, IoError> {
        let mut out = Vec::new();
        self.write_to(&mut out)?;
        Ok(out)
    }
}

/// A fully parsed, checksum-verified model container.
#[derive(Debug)]
pub struct ModelReader {
    family: String,
    version: u16,
    checksum: u32,
    sections: BTreeMap<String, Vec<u8>>,
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], IoError> {
        let end = self.pos.checked_add(n).ok_or(IoError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(IoError::Truncated { context });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn get_u16(&mut self, context: &'static str) -> Result<u16, IoError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn get_u32(&mut self, context: &'static str) -> Result<u32, IoError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_u64(&mut self, context: &'static str) -> Result<u64, IoError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

impl ModelReader {
    /// Reads and validates a container from `r` (reads to EOF).
    ///
    /// Validation order: magic → schema version → file CRC → per-section
    /// CRCs, so the most fundamental failure is the one reported.
    ///
    /// # Errors
    ///
    /// Any [`IoError`] variant; see the container layout in the crate
    /// docs for what each protects.
    pub fn from_reader(r: &mut dyn Read) -> Result<Self, IoError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Reads and validates a container from an in-memory byte slice.
    ///
    /// # Errors
    ///
    /// As for [`ModelReader::from_reader`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IoError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        let magic = c.take(4, "magic")?;
        if magic != MAGIC {
            return Err(IoError::BadMagic { found: [magic[0], magic[1], magic[2], magic[3]] });
        }
        let version = c.get_u16("schema version")?;
        if version > SCHEMA_VERSION {
            return Err(IoError::UnsupportedVersion { found: version, supported: SCHEMA_VERSION });
        }
        // Whole-file CRC first: it distinguishes truncation/corruption
        // from structural decode errors in everything below.
        if bytes.len() < 4 + 2 + 4 {
            return Err(IoError::Truncated { context: "file trailer" });
        }
        let body = &bytes[..bytes.len() - 4];
        let tail = &bytes[bytes.len() - 4..];
        let expected = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        let found = crc32(body);
        if expected != found {
            return Err(IoError::FileChecksum { expected, found });
        }
        let fam_len = c.get_u16("family tag length")? as usize;
        let fam = c.take(fam_len, "family tag")?;
        let family = String::from_utf8(fam.to_vec())
            .map_err(|_| IoError::Malformed { detail: "family tag is not UTF-8".into() })?;
        let n_sections = c.get_u32("section count")?;
        let mut sections = BTreeMap::new();
        for _ in 0..n_sections {
            let name_len = c.get_u16("section name length")? as usize;
            let name_bytes = c.take(name_len, "section name")?;
            let name = String::from_utf8(name_bytes.to_vec())
                .map_err(|_| IoError::Malformed { detail: "section name is not UTF-8".into() })?;
            let payload_len = c.get_u64("section payload length")?;
            if payload_len > MAX_SECTION_BYTES {
                return Err(IoError::Malformed {
                    detail: format!("section {name:?} declares {payload_len} bytes"),
                });
            }
            let payload = c.take(payload_len as usize, "section payload")?.to_vec();
            let recorded = c.get_u32("section crc")?;
            let actual = crc32(&payload);
            if recorded != actual {
                return Err(IoError::SectionChecksum {
                    section: name,
                    expected: recorded,
                    found: actual,
                });
            }
            if sections.insert(name.clone(), payload).is_some() {
                return Err(IoError::Malformed { detail: format!("duplicate section {name:?}") });
            }
        }
        if c.pos != body.len() {
            return Err(IoError::Malformed {
                detail: format!("{} trailing bytes after last section", body.len() - c.pos),
            });
        }
        Ok(ModelReader { family, version, checksum: expected, sections })
    }

    /// The family tag recorded in the header (e.g. `"ridge"`).
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The schema version the file was written with.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The whole-file CRC-32 — a stable fingerprint of the saved model,
    /// reported by `edm-serve`'s `/v1/models`.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// Names of all sections present, in sorted order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// Opens a decoding cursor over the named section.
    ///
    /// # Errors
    ///
    /// [`IoError::MissingSection`] if absent.
    pub fn section(&self, name: &str) -> Result<Dec<'_>, IoError> {
        match self.sections.get_key_value(name) {
            Some((k, payload)) => Ok(Dec { buf: payload, pos: 0, section: k }),
            None => Err(IoError::MissingSection { section: name.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the ISO-HDLC CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_container() -> Vec<u8> {
        let mut w = ModelWriter::new("svc");
        let mut e = Enc::new();
        e.put_f64(1.5);
        e.put_f64(-0.0);
        e.put_f64(f64::NAN);
        e.put_usize(7);
        e.put_str("hello");
        w.add_section("params", e);
        let mut m = Enc::new();
        m.put_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.put_i32s(&[-1, 5]);
        w.add_section("weights", m);
        w.to_bytes().unwrap()
    }

    #[test]
    fn round_trip_is_bitwise() {
        let bytes = sample_container();
        let r = ModelReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.family(), "svc");
        assert_eq!(r.version(), SCHEMA_VERSION);
        let mut d = r.section("params").unwrap();
        assert_eq!(d.get_f64().unwrap(), 1.5);
        let neg_zero = d.get_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert!(d.get_f64().unwrap().is_nan());
        assert_eq!(d.get_usize().unwrap(), 7);
        assert_eq!(d.get_str().unwrap(), "hello");
        d.finish().unwrap();
        let mut d = r.section("weights").unwrap();
        assert_eq!(d.get_rows().unwrap(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(d.get_i32s().unwrap(), vec![-1, 5]);
        d.finish().unwrap();
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_container();
        bytes[0] = b'X';
        assert!(matches!(ModelReader::from_bytes(&bytes), Err(IoError::BadMagic { .. })));
    }

    #[test]
    fn future_version_rejected() {
        let mut w = ModelWriter::new("svc");
        w.add_section("params", Enc::new());
        let mut bytes = w.to_bytes().unwrap();
        // Bump the version field and re-seal the file CRC so only the
        // version check can fire.
        bytes[4] = 0xFF;
        let n = bytes.len();
        let fixed = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            ModelReader::from_bytes(&bytes),
            Err(IoError::UnsupportedVersion { supported: SCHEMA_VERSION, .. })
        ));
    }

    #[test]
    fn flipped_byte_fails_file_crc() {
        let mut bytes = sample_container();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(ModelReader::from_bytes(&bytes), Err(IoError::FileChecksum { .. })));
    }

    #[test]
    fn flipped_payload_with_resealed_file_crc_fails_section_crc() {
        let mut w = ModelWriter::new("f");
        let mut e = Enc::new();
        e.put_f64s(&[1.0, 2.0, 3.0]);
        w.add_section("data", e);
        let mut bytes = w.to_bytes().unwrap();
        // Flip one payload byte, then re-seal the outer CRC so the
        // per-section check is what catches it.
        let flip_at = bytes.len() - 4 - 4 - 8;
        bytes[flip_at] ^= 0x01;
        let n = bytes.len();
        let fixed = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(ModelReader::from_bytes(&bytes), Err(IoError::SectionChecksum { .. })));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = sample_container();
        for n in 0..bytes.len() {
            let err = ModelReader::from_bytes(&bytes[..n]);
            assert!(err.is_err(), "prefix of {n} bytes must not parse");
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let r = ModelReader::from_bytes(&sample_container()).unwrap();
        assert!(matches!(
            r.section("nope"),
            Err(IoError::MissingSection { section }) if section == "nope"
        ));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let r = ModelReader::from_bytes(&sample_container()).unwrap();
        let mut d = r.section("params").unwrap();
        let _ = d.get_f64().unwrap();
        assert!(matches!(d.finish(), Err(IoError::Malformed { .. })));
    }

    #[test]
    fn counts_beyond_the_payload_are_malformed_before_allocating() {
        // 2^26 elements in an 8-byte section would reserve 1.5 GiB of
        // rows, 512 MiB of f64s or 256 MiB of i32s.
        let mut w = ModelWriter::new("f");
        let mut e = Enc::new();
        e.put_u64(1 << 26);
        w.add_section("data", e);
        let r = ModelReader::from_bytes(&w.to_bytes().unwrap()).unwrap();
        let d = || r.section("data").unwrap();
        assert!(matches!(d().get_rows(), Err(IoError::Malformed { .. })));
        assert!(matches!(d().get_f64s(), Err(IoError::Malformed { .. })));
        assert!(matches!(d().get_i32s(), Err(IoError::Malformed { .. })));
        assert!(matches!(d().get_str(), Err(IoError::Malformed { .. })));
    }

    #[test]
    fn checksum_is_stable_fingerprint() {
        let a = sample_container();
        let b = sample_container();
        assert_eq!(
            ModelReader::from_bytes(&a).unwrap().checksum(),
            ModelReader::from_bytes(&b).unwrap().checksum()
        );
    }
}
