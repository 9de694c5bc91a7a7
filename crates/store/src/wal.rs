//! The write-ahead log: length-prefixed, CRC-checksummed record
//! framing over a flat byte image.
//!
//! Layout:
//!
//! ```text
//! [magic: 8 bytes "VDCEWAL1"]
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]   × N
//! ```
//!
//! The failure model is *suffix truncation*: a crash mid-append loses
//! an arbitrary byte suffix of the image but never scrambles earlier
//! bytes (the append-only discipline). Recovery therefore distinguishes
//! two cases:
//!
//! - **torn tail** — the image ends inside a record header or payload.
//!   That is the expected crash signature; [`read_wal`] truncates it
//!   silently and reports how many bytes were dropped.
//! - **corrupt record** — a record is fully present but its payload
//!   does not match its stored CRC. That is bit rot or a software bug,
//!   never a clean crash, and it surfaces as
//!   [`WalError::CorruptRecord`] — a typed error, not a panic.

/// Magic + format version, the first 8 bytes of every WAL image.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"VDCEWAL1";

/// Bytes of the image header (the magic).
pub const WAL_HEADER_LEN: usize = 8;

/// Bytes of one record header (`len` + `crc`).
pub(crate) const RECORD_HEADER_LEN: usize = 8;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold in with eight independent
/// loads instead of eight dependent ones. `CRC_TABLES[0]` is the classic
/// bytewise table.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Fold `bytes` into a running (pre-inversion) CRC-32 register.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Frame one record whose payload is the concatenation of `parts` onto the
/// end of `buf`. The one place a record header is written.
pub(crate) fn frame_into(buf: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let crc = parts.iter().fold(0xFFFF_FFFF, |c, p| crc32_update(c, p)) ^ 0xFFFF_FFFF;
    buf.reserve(RECORD_HEADER_LEN + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    for p in parts {
        buf.extend_from_slice(p);
    }
}

/// A WAL image that cannot be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The image does not start with `WAL_MAGIC` (and is long enough
    /// that a torn header cannot explain it).
    BadMagic {
        /// The first bytes actually found.
        found: Vec<u8>,
    },
    /// A fully-present record whose payload does not match its CRC.
    CorruptRecord {
        /// 0-based index of the bad record.
        index: usize,
        /// Byte offset of the record header within the image.
        offset: usize,
        /// CRC stored in the record header.
        stored: u32,
        /// CRC computed over the payload found.
        computed: u32,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadMagic { found } => {
                write!(f, "WAL image does not start with {WAL_MAGIC:?} (found {found:?})")
            }
            WalError::CorruptRecord { index, offset, stored, computed } => write!(
                f,
                "WAL record {index} at byte {offset} is corrupt: \
                 stored crc {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Append side of the WAL. Owns the byte image; records are framed on
/// append so the image is always a valid WAL prefix.
#[derive(Debug, Clone)]
pub struct WalWriter {
    buf: Vec<u8>,
    records: u64,
}

impl WalWriter {
    /// Empty WAL (just the magic header).
    pub fn new() -> Self {
        WalWriter { buf: WAL_MAGIC.to_vec(), records: 0 }
    }

    /// Append one record; returns its 0-based index within this image.
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        self.append_parts(&[payload])
    }

    /// Append one record whose payload is the concatenation of `parts`,
    /// without the caller building that concatenation first: the same
    /// image bytes as [`WalWriter::append`] of the joined payload.
    pub(crate) fn append_parts(&mut self, parts: &[&[u8]]) -> u64 {
        frame_into(&mut self.buf, parts);
        let idx = self.records;
        self.records += 1;
        idx
    }

    /// The current image.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Size of the current image in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Consume the writer, returning the image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for WalWriter {
    fn default() -> Self {
        WalWriter::new()
    }
}

/// What [`read_wal`] recovered from an image: each record's payload as
/// `R`, a slice of the image itself ([`read_wal`]) or a copy of it
/// ([`crate::FileWal::open`], which owns the bytes it read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery<R> {
    /// Every intact record's payload, in append order.
    pub records: Vec<R>,
    /// Length of the valid prefix (magic + intact records) in bytes.
    pub valid_len: usize,
    /// Bytes of torn tail dropped (0 for a cleanly closed image).
    pub torn_bytes: usize,
}

/// Recover every intact record from a WAL image, truncating a torn
/// tail; the records are borrowed out of `image`. An image that is a
/// strict prefix of the magic (crash before the header finished)
/// recovers as an empty log.
pub fn read_wal(image: &[u8]) -> Result<WalRecovery<&[u8]>, WalError> {
    if image.len() < WAL_HEADER_LEN {
        return if WAL_MAGIC.starts_with(image) {
            Ok(WalRecovery { records: Vec::new(), valid_len: 0, torn_bytes: image.len() })
        } else {
            Err(WalError::BadMagic { found: image.to_vec() })
        };
    }
    if image[..WAL_HEADER_LEN] != WAL_MAGIC {
        return Err(WalError::BadMagic { found: image[..WAL_HEADER_LEN].to_vec() });
    }

    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    while offset < image.len() {
        let remaining = image.len() - offset;
        if remaining < RECORD_HEADER_LEN {
            break; // torn record header
        }
        let len = u32::from_le_bytes(image[offset..offset + 4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(image[offset + 4..offset + 8].try_into().unwrap());
        if remaining < RECORD_HEADER_LEN + len {
            break; // torn payload
        }
        let payload = &image[offset + RECORD_HEADER_LEN..offset + RECORD_HEADER_LEN + len];
        let computed = crc32(payload);
        if computed != stored {
            return Err(WalError::CorruptRecord { index: records.len(), offset, stored, computed });
        }
        records.push(payload);
        offset += RECORD_HEADER_LEN + len;
    }
    Ok(WalRecovery { records, valid_len: offset, torn_bytes: image.len() - offset })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut w = WalWriter::new();
        for p in payloads {
            w.append(p);
        }
        w.into_bytes()
    }

    #[test]
    fn round_trip_preserves_records_in_order() {
        let img = image(&[b"alpha", b"", b"gamma with spaces"]);
        let rec = read_wal(&img).unwrap();
        assert_eq!(rec.records, vec![b"alpha".to_vec(), Vec::new(), b"gamma with spaces".to_vec()]);
        assert_eq!(rec.valid_len, img.len());
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn empty_wal_recovers_empty() {
        let img = image(&[]);
        let rec = read_wal(&img).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_an_error() {
        let img = image(&[b"keep me", b"lose me"]);
        // Cut inside the second record's payload.
        let cut = &img[..img.len() - 3];
        let rec = read_wal(cut).unwrap();
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
        assert_eq!(rec.torn_bytes, cut.len() - rec.valid_len);
        assert!(rec.torn_bytes > 0);
    }

    #[test]
    fn torn_magic_recovers_as_empty_log() {
        let rec = read_wal(&WAL_MAGIC[..3]).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.torn_bytes, 3);
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        let err = read_wal(b"NOTAWAL!rest").unwrap_err();
        assert!(matches!(err, WalError::BadMagic { .. }));
    }

    #[test]
    fn corrupt_checksum_is_a_typed_error() {
        let mut img = image(&[b"first", b"second"]);
        // Flip one payload byte of the *first* record (fully present).
        let first_payload_at = WAL_HEADER_LEN + 8;
        img[first_payload_at] ^= 0xFF;
        let err = read_wal(&img).unwrap_err();
        match err {
            WalError::CorruptRecord { index, offset, stored, computed } => {
                assert_eq!(index, 0);
                assert_eq!(offset, WAL_HEADER_LEN);
                assert_ne!(stored, computed);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The one-table, one-byte-at-a-time loop the sliced version replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut v = *x;
        v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        v ^ (v >> 31)
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_loop() {
        let mut rng = 0x5eed_u64;
        let noise: Vec<u8> = (0..4096 + 8).map(|_| splitmix(&mut rng) as u8).collect();
        // Every length up to two chunks and a tail, then seeded lengths up
        // to 4096, each at every alignment of the chunked loop.
        let lengths = (0..=24).chain((0..64).map(|_| (splitmix(&mut rng) % 4097) as usize));
        for len in lengths.chain([4096]) {
            for align in 0..8 {
                let bytes = &noise[align..align + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} align {align}");
            }
        }
    }

    #[test]
    fn append_parts_frames_the_joined_payload() {
        let mut rng = 7u64;
        let (mut joined, mut parted) = (WalWriter::new(), WalWriter::new());
        for _ in 0..64 {
            let parts: Vec<Vec<u8>> = (0..splitmix(&mut rng) % 4)
                .map(|_| (0..splitmix(&mut rng) % 40).map(|_| splitmix(&mut rng) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            assert_eq!(parted.append_parts(&refs), joined.append(&parts.concat()));
        }
        assert_eq!(parted.bytes(), joined.bytes());
        assert_eq!(read_wal(parted.bytes()).unwrap().records.len(), 64);
    }
}
