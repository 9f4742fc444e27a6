//! The one binary codec behind every byte format the engine persists.
//!
//! Journal headers and records, run payloads, memo run entries, blob
//! frames, memo index frames, checkpoint manifests, trace ops, `MemFs`
//! images, the applications' memo artifacts, and the run, plan, trace
//! and demand fingerprints are all written and read through this
//! module:
//!
//! * the `put_*` helpers append little-endian fixed-width integers,
//!   IEEE-754 `f64`s, `u32`-length-prefixed UTF-8 strings, and
//!   presence-tagged optional strings;
//! * [`Reader`] takes them back. Every accessor is bounds-checked and
//!   returns `None` on underflow, and [`Reader::count`] refuses an item
//!   count the remaining bytes cannot hold, so a length field read from
//!   disk never sizes an allocation or indexes past the buffer;
//! * [`crc32`] is the frame checksum and [`Fnv`] the fingerprint hash;
//! * [`put_frame`] / [`Reader::frame`] are the `len u32 | crc u32 |
//!   body` frame of journal records, blob files and manifests;
//! * [`install`] lands a whole file through a temp file and a rename,
//!   so no reader ever sees a torn file under its final name.
//!
//! The application formats under test (`hdf5lite`, `fitslite`) keep
//! their own readers: their parse errors are what decide whether an
//! injected fault is detected or crashes the application.

use std::io;
use std::path::Path;
use std::sync::OnceLock;

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian IEEE-754 `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append an optional string: a presence byte, then [`put_str`].
pub fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        None => buf.push(0),
    }
}

/// Append one `len u32 | crc u32 | body` frame whose body `write_body`
/// appends in place; the length and CRC are patched in afterwards.
pub fn put_frame(buf: &mut Vec<u8>, write_body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 8]);
    write_body(buf);
    let len = (buf.len() - at - 8) as u32;
    let crc = crc32(&buf[at + 8..]);
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Bounds-checked sequential reader over encoded bytes. Every accessor
/// returns `None` instead of panicking, so a torn or bit-rotted input
/// decodes to "corrupt".
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }

    /// Take one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// Take a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Take a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Take a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Option<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// Take a `u32` length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).ok()
    }

    /// Take what [`put_opt_str`] wrote.
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// Take a `u32` item count and accept it only when the remaining
    /// bytes could hold that many items of at least `min_item_bytes`
    /// each — the guard that keeps a corrupt count from sizing an
    /// allocation.
    pub fn count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u32()?;
        self.fits(u64::from(n), min_item_bytes)
    }

    /// [`Reader::count`] for a `u64` count (also a `u64` byte length,
    /// with `min_item_bytes` 1).
    pub fn count_u64(&mut self, min_item_bytes: usize) -> Option<usize> {
        let n = self.u64()?;
        self.fits(n, min_item_bytes)
    }

    fn fits(&self, n: u64, min_item_bytes: usize) -> Option<usize> {
        let n = usize::try_from(n).ok()?;
        (n.checked_mul(min_item_bytes)? <= self.remaining()).then_some(n)
    }

    /// Take one [`put_frame`] frame and return its body, or `None` when
    /// the frame is truncated or fails its CRC.
    pub fn frame(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let crc = self.u32()?;
        let body = self.bytes(len)?;
        (crc32(body) == crc).then_some(body)
    }
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// 64-bit FNV-1a accumulator: the fingerprint hash of run digests and
/// of plan, trace and demand fingerprints. It keys caches and compares
/// runs; it does not address content (that is SHA-256's job in
/// [`crate::blobs`]).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The empty digest (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Fold in raw bytes.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold in a `u64` as its little-endian bytes.
    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// Fold in a string, length first.
    pub fn eat_str(&mut self, s: &str) {
        self.eat_u64(s.len() as u64);
        self.eat(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Write `bytes` to `path` through a process-unique temp file in the
/// same directory and an atomic rename, so a concurrent reader or a
/// crash never exposes a torn file under the final name. The temp file
/// is removed if the write or the rename fails. No fsync: the stores
/// promise crash consistency, not power-loss durability.
pub fn install(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!(".tmp-{}-{name}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -2.5);
        put_str(&mut buf, "/out/data.bin");
        put_opt_str(&mut buf, Some("hi"));
        put_opt_str(&mut buf, None);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f64(), Some(-2.5));
        assert_eq!(r.str().as_deref(), Some("/out/data.bin"));
        assert_eq!(r.opt_str(), Some(Some("hi".into())));
        assert_eq!(r.opt_str(), Some(None));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underflow_is_none_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), None);
        // Declared length 5, only 1 byte present.
        assert_eq!(Reader::new(&[5, 0, 0, 0, b'a']).str(), None);
        assert_eq!(Reader::new(&[2]).opt_str(), None, "presence tag must be 0 or 1");
        assert_eq!(Reader::new(&[0xFF; 8]).bytes(usize::MAX), None);
    }

    #[test]
    fn invalid_utf8_is_none() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Reader::new(&buf).str(), None);
    }

    #[test]
    fn count_rejects_what_the_remaining_bytes_cannot_hold() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&buf).count(8), Some(2));
        assert_eq!(Reader::new(&buf).count(9), None);
        // One byte of input behind the largest count either width can
        // carry.
        let mut huge = u32::MAX.to_le_bytes().to_vec();
        huge.push(0);
        assert_eq!(Reader::new(&huge).count(1), None);
        let mut huge = u64::MAX.to_le_bytes().to_vec();
        huge.push(0);
        assert_eq!(Reader::new(&huge).count_u64(1), None);
        assert_eq!(Reader::new(&huge).count_u64(usize::MAX), None);
    }

    #[test]
    fn frame_round_trips_and_rejects_damage() {
        let mut buf = vec![0xAA];
        put_frame(&mut buf, |b| b.extend_from_slice(b"body"));
        assert_eq!(&buf[1..5], &4u32.to_le_bytes());
        assert_eq!(&buf[5..9], &crc32(b"body").to_le_bytes());
        let mut r = Reader::new(&buf[1..]);
        assert_eq!(r.frame(), Some(&b"body"[..]));
        assert_eq!(r.remaining(), 0);
        let mut flipped = buf.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(Reader::new(&flipped[1..]).frame(), None);
        assert_eq!(Reader::new(&buf[1..buf.len() - 1]).frame(), None);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(Fnv::new().finish(), 0xCBF2_9CE4_8422_2325);
        let mut h = Fnv::new();
        h.eat(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn install_replaces_atomically_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("ffis-codec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        install(&path, b"one").unwrap();
        install(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no temp file left behind");
        assert!(install(&dir.join("missing").join("x"), b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
