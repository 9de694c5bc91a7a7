//! File-backed write-ahead log: the [`crate::wal`] framing spilled to
//! an actual on-disk file.
//!
//! [`crate::wal::WalWriter`] frames records into an in-memory byte
//! image; everything durable in the repo so far round-trips that image
//! through byte slices. [`FileWal`] keeps the exact same on-disk layout
//! (`VDCEWAL1` magic, then `[len u32 LE][crc32 u32 LE][payload]` per
//! record, framed by the code [`crate::wal::WalWriter`] frames with) but
//! writes it through a real [`std::fs::File`], so a WAL produced by either
//! side is readable by the other.
//!
//! ## Fsync discipline
//!
//! [`FileWal::append`] only issues the `write(2)`; durability is
//! decided by the caller at commit points via [`FileWal::sync`], which
//! maps to `fdatasync(2)`. This is the classic group-commit split: a
//! batch of appends costs one fsync, and a crash between `append` and
//! `sync` loses at most the unsynced suffix — which the recovery path
//! already models as a torn tail.
//!
//! ## Recovery
//!
//! [`FileWal::open`] reads the whole file, runs [`read_wal`] over it,
//! and — crucially — truncates the file itself (`set_len`) to the valid
//! prefix, so a torn tail is physically removed before new appends land.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::wal::{frame_into, read_wal, WalError, WalRecovery, WAL_HEADER_LEN, WAL_MAGIC};

/// Why a [`FileWal`] could not be opened.
#[derive(Debug)]
pub enum FileWalError {
    /// The filesystem said no (permissions, missing parent, ...).
    Io(std::io::Error),
    /// The file's bytes are not a recoverable WAL image (bad magic or
    /// a corrupt record — *not* a torn tail, which recovers silently).
    Wal(WalError),
}

impl std::fmt::Display for FileWalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileWalError::Io(e) => write!(f, "file WAL I/O error: {e}"),
            FileWalError::Wal(e) => write!(f, "file WAL image error: {e}"),
        }
    }
}

impl std::error::Error for FileWalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileWalError::Io(e) => Some(e),
            FileWalError::Wal(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for FileWalError {
    fn from(e: std::io::Error) -> Self {
        FileWalError::Io(e)
    }
}

impl From<WalError> for FileWalError {
    fn from(e: WalError) -> Self {
        FileWalError::Wal(e)
    }
}

/// Append side of an on-disk WAL. See the module docs for the layout
/// and fsync discipline.
#[derive(Debug)]
pub struct FileWal {
    file: File,
    records: u64,
}

impl FileWal {
    /// Create a fresh WAL at `path`, truncating anything already there.
    /// The magic header is written and fsynced before returning, so an
    /// immediately-crashing process still leaves a valid empty image.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, FileWalError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.sync_data()?;
        Ok(FileWal { file, records: 0 })
    }

    /// Open (or create) the WAL at `path`, recovering every intact
    /// record and physically truncating a torn tail off the file. The
    /// returned [`WalRecovery`] reports what was found and dropped; its
    /// records are copied out of the bytes read, which do not outlive
    /// the call.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, WalRecovery<Vec<u8>>), FileWalError> {
        let path = path.as_ref();
        if !path.exists() {
            let wal = FileWal::create(path)?;
            return Ok((
                wal,
                WalRecovery { records: Vec::new(), valid_len: WAL_HEADER_LEN, torn_bytes: 0 },
            ));
        }

        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut image = Vec::new();
        file.read_to_end(&mut image)?;
        let WalRecovery { records, valid_len, torn_bytes } = read_wal(&image)?;
        let recovery = WalRecovery {
            records: records.into_iter().map(<[u8]>::to_vec).collect(),
            valid_len,
            torn_bytes,
        };

        if recovery.valid_len < WAL_HEADER_LEN {
            // Crash before the magic finished: rewrite a clean header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&WAL_MAGIC)?;
        } else if recovery.torn_bytes > 0 {
            file.set_len(recovery.valid_len as u64)?;
        }
        if recovery.torn_bytes > 0 || recovery.valid_len < WAL_HEADER_LEN {
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;

        let wal = FileWal { file, records: recovery.records.len() as u64 };
        Ok((wal, recovery))
    }

    /// Append one record; returns its 0-based index. The bytes are
    /// written but **not** fsynced — call [`FileWal::sync`] at the next
    /// commit point.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, FileWalError> {
        let mut frame = Vec::new();
        frame_into(&mut frame, &[payload]);
        self.file.write_all(&frame)?;
        let idx = self.records;
        self.records += 1;
        Ok(idx)
    }

    /// Force every appended record to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), FileWalError> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use std::path::PathBuf;

    /// Unique-ish temp path per test; tests clean up after themselves.
    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vdce_file_wal_{}_{name}.wal", std::process::id()))
    }

    #[test]
    fn round_trips_records_through_a_real_file() {
        let path = tmp("round_trip");
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma with spaces"];
        {
            let mut wal = FileWal::create(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }

        // Byte-for-byte compatible with the in-memory WalWriter image.
        let mut expect = WalWriter::new();
        for p in &payloads {
            expect.append(p);
        }
        assert_eq!(std::fs::read(&path).unwrap(), expect.bytes());

        let (_, rec) = FileWal::open(&path).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.records, payloads.iter().map(|p| p.to_vec()).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_off_the_file_on_open() {
        let path = tmp("torn_tail");
        {
            let mut wal = FileWal::create(&path).unwrap();
            wal.append(b"keep me").unwrap();
            wal.append(b"lose me to the crash").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: chop into the last payload.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);

        let (mut wal, rec) = FileWal::open(&path).unwrap();
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
        assert!(rec.torn_bytes > 0);
        // The torn bytes are physically gone.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), rec.valid_len as u64);

        // The log is appendable again and the new record survives.
        wal.append(b"after recovery").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec2) = FileWal::open(&path).unwrap();
        assert_eq!(rec2.records, vec![b"keep me".to_vec(), b"after recovery".to_vec()]);
        assert_eq!(rec2.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_is_a_typed_error_not_a_truncation() {
        let path = tmp("corrupt");
        {
            let mut wal = FileWal::create(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.sync().unwrap();
        }
        // Flip a byte inside the *first* record's payload.
        let mut image = std::fs::read(&path).unwrap();
        let flip_at = WAL_HEADER_LEN + 8; // first payload byte
        image[flip_at] ^= 0xFF;
        std::fs::write(&path, &image).unwrap();

        match FileWal::open(&path) {
            Err(FileWalError::Wal(WalError::CorruptRecord { index, .. })) => assert_eq!(index, 0),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_on_a_missing_path_creates_a_fresh_image() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (_wal, rec) = FileWal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_before_magic_finished_recovers_as_empty() {
        let path = tmp("torn_magic");
        std::fs::write(&path, &WAL_MAGIC[..3]).unwrap();
        let (mut wal, rec) = FileWal::open(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.torn_bytes, 3);
        wal.append(b"reborn").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, rec2) = FileWal::open(&path).unwrap();
        assert_eq!(rec2.records, vec![b"reborn".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }
}
