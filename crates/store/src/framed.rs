//! One CRC-framed, append-only file: the container under both the
//! write-ahead log ([`crate::wal`]) and `odin-log`'s segment file.
//!
//! Layout (little-endian):
//!
//! ```text
//! file   := header? frame*
//! header := magic [u8; 4] | version u32        (only formats that have one)
//! frame  := marker u8 | prefix | len u32 | crc u32 | body
//!           prefix: a fixed number of bytes per format (the WAL's
//!           8-byte seq; empty for the event log)
//!           crc:    CRC-32 of (prefix ‖ body), so a frame spliced in
//!           from elsewhere with a valid body but the wrong prefix fails
//! ```
//!
//! [`scan`] returns the intact frames up to the first one that is
//! short, mis-marked or fails its CRC (a torn tail from a crash
//! mid-append, or bit rot); a reader cannot tell where the next frame
//! would start. [`AppendFile`] is the one writer: `open` truncates the
//! torn tail, and `append` rolls a failed write back to the last good
//! frame. A write that fails part-way (full disk, I/O error) leaves a
//! partial frame; left there, every frame appended after the disk
//! recovered would sit behind it, unreadable and truncated away by the
//! next `open`. If the rollback fails too, the file's end is unknown,
//! so the handle refuses every later append.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::checkpoint::write_atomic;
use crate::crc::crc32_parts;
use crate::error::StoreError;

/// The layout parameters of one kind of framed file.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// Byte that starts every frame.
    pub marker: u8,
    /// Length of the CRC-covered prefix between marker and length.
    pub prefix_len: usize,
    /// Magic and version the file starts with, if the format has a
    /// header. Files with a newer version are rejected.
    pub header: Option<([u8; 4], u32)>,
}

impl Format {
    /// Bytes of a frame before its body.
    pub const fn overhead(&self) -> usize {
        1 + self.prefix_len + 4 + 4
    }

    /// The file header (empty for a headerless format).
    pub fn header_bytes(&self) -> Vec<u8> {
        self.header.map_or(Vec::new(), |(magic, version)| [magic, version.to_le_bytes()].concat())
    }

    /// Encode one frame.
    pub fn encode(&self, prefix: &[u8], body: &[u8]) -> Vec<u8> {
        assert_eq!(prefix.len(), self.prefix_len, "frame prefix length is fixed per format");
        let len = u32::try_from(body.len()).expect("frame body longer than u32::MAX bytes");
        let mut frame = Vec::with_capacity(self.overhead() + body.len());
        frame.push(self.marker);
        frame.extend_from_slice(prefix);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32_parts(&[prefix, body]).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }
}

/// One intact frame found by [`scan`].
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Byte offset of the marker in the file.
    pub offset: usize,
    /// The frame's prefix.
    pub prefix: &'a [u8],
    /// The frame's body.
    pub body: &'a [u8],
}

/// What [`scan`] found: the intact frames and where they end.
#[derive(Debug)]
pub struct Scan<'a> {
    /// Intact frames, in file order.
    pub frames: Vec<Frame<'a>>,
    /// Length of the intact prefix (header plus whole frames), or 0
    /// when not even the header is whole.
    pub good_len: usize,
    /// True when bytes after `good_len` were ignored.
    pub torn: bool,
}

/// Scan `bytes` for intact frames, stopping at the first short,
/// mis-marked or CRC-failing one. Errors only when the header is not
/// this format's: wrong magic, or a newer version. A file shorter than
/// its header that begins like one is a torn header, not an error.
pub fn scan<'a>(bytes: &'a [u8], format: &Format) -> Result<Scan<'a>, StoreError> {
    let header = format.header_bytes();
    if bytes.len() < header.len() && header.starts_with(bytes) {
        return Ok(Scan { frames: Vec::new(), good_len: 0, torn: !bytes.is_empty() });
    }
    if let Some((magic, version)) = format.header {
        if bytes.len() < header.len() || bytes[..4] != magic {
            let found = std::array::from_fn(|i| bytes.get(i).copied().unwrap_or(0));
            return Err(StoreError::BadMagic { found });
        }
        let found = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if found > version {
            return Err(StoreError::UnsupportedVersion { found, supported: version });
        }
    }
    let p = format.prefix_len;
    let mut frames = Vec::new();
    let mut pos = header.len();
    while let Some(head) = bytes.get(pos..pos + format.overhead()) {
        let prefix = &head[1..1 + p];
        let len = u32::from_le_bytes([head[p + 1], head[p + 2], head[p + 3], head[p + 4]]);
        let crc = u32::from_le_bytes([head[p + 5], head[p + 6], head[p + 7], head[p + 8]]);
        let start = pos + format.overhead();
        match bytes[start..].get(..len as usize) {
            Some(body) if head[0] == format.marker && crc32_parts(&[prefix, body]) == crc => {
                frames.push(Frame { offset: pos, prefix, body });
                pos = start + body.len();
            }
            _ => break,
        }
    }
    Ok(Scan { frames, good_len: pos, torn: pos != bytes.len() })
}

/// The bytes of the file at `path`; a missing file reads as empty.
pub fn read_or_empty(path: &Path) -> Result<Vec<u8>, StoreError> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => Ok(read?),
    }
}

/// Appender over one framed file; see the module docs for why a failed
/// append is rolled back.
#[derive(Debug)]
pub struct AppendFile {
    file: File,
    path: PathBuf,
    format: Format,
    /// Length of the intact prefix: the file ends here between appends.
    good_len: u64,
    /// Set when a rollback or a post-rewrite reopen failed: the handle
    /// no longer knows where the file ends.
    broken: bool,
    /// Test hook: the next append writes this many bytes of its frame,
    /// then fails.
    #[cfg(test)]
    fail_after: Option<usize>,
}

impl AppendFile {
    /// Open (or create) the file at `path` and its parent directory.
    /// `recover` receives the file's bytes and returns the caller's
    /// state plus the length of the prefix to keep — normally
    /// [`Scan::good_len`], shortened by any check of the caller's own.
    /// The rest is truncated and, when nothing is kept, the header is
    /// written. Appends then go to the end of the file (`O_APPEND`).
    pub fn open<T>(
        path: &Path,
        format: Format,
        recover: impl FnOnce(Vec<u8>) -> Result<(T, usize), StoreError>,
    ) -> Result<(Self, T), StoreError> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let found = bytes.len();
        let (state, mut good_len) = recover(bytes)?;
        if good_len != found {
            file.set_len(good_len as u64)?;
        }
        if good_len == 0 {
            let header = format.header_bytes();
            file.write_all(&header)?;
            good_len = header.len();
        }
        if good_len != found {
            file.sync_data()?;
        }
        let appender = AppendFile {
            file,
            path: path.to_path_buf(),
            format,
            good_len: good_len as u64,
            broken: false,
            #[cfg(test)]
            fail_after: None,
        };
        Ok((appender, state))
    }

    /// Path of the file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of the file: its header plus every whole frame.
    pub fn good_len(&self) -> u64 {
        self.good_len
    }

    /// Append one frame, written and handed to the OS; [`Self::sync`]
    /// makes it durable. On a failed write the file is truncated back
    /// to its length before the call.
    pub fn append(&mut self, prefix: &[u8], body: &[u8]) -> Result<(), StoreError> {
        if self.broken {
            return Err(io::Error::other("appends stopped after a failed rollback").into());
        }
        let frame = self.format.encode(prefix, body);
        if let Err(e) = self.write(&frame) {
            self.broken = self.file.set_len(self.good_len).is_err();
            return Err(e.into());
        }
        self.good_len += frame.len() as u64;
        Ok(())
    }

    fn write(&mut self, frame: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(k) = self.fail_after.take() {
            self.file.write_all(&frame[..k])?;
            return Err(io::Error::other("injected write failure"));
        }
        self.file.write_all(frame)
    }

    /// fsync the file's data.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Replace the whole file with `bytes` atomically (tmp + fsync +
    /// rename) and reopen the handle, which the rename left on the old
    /// file. `bytes` must be a header plus whole frames.
    pub fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        write_atomic(&self.path, bytes)?;
        match OpenOptions::new().read(true).append(true).open(&self.path) {
            Ok(file) => {
                self.file = file;
                self.good_len = bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.broken = true;
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAL: Format = Format { marker: 0xA5, prefix_len: 8, header: None };
    const LOG: Format = Format { marker: 0xD6, prefix_len: 0, header: Some((*b"ODLG", 1)) };

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "odin-framed-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn prefix(format: &Format, i: u64) -> Vec<u8> {
        i.to_le_bytes()[..format.prefix_len].to_vec()
    }

    fn open(path: &Path, format: Format) -> AppendFile {
        AppendFile::open(path, format, |bytes| Ok(((), scan(&bytes, &format)?.good_len))).unwrap().0
    }

    /// Bodies of every frame in the file, in order: through `read_wal`
    /// for the WAL's format.
    fn bodies(path: &Path, format: &Format) -> Vec<Vec<u8>> {
        if format.marker == WAL.marker {
            let log = crate::wal::read_wal(path).unwrap();
            assert!(!log.torn_tail);
            return log.records.into_iter().map(|r| r.payload).collect();
        }
        let bytes = std::fs::read(path).unwrap();
        let s = scan(&bytes, format).unwrap();
        assert!(!s.torn);
        s.frames.iter().map(|f| f.body.to_vec()).collect()
    }

    /// A write that fails after k bytes, for every k short of the whole
    /// frame: the file is left exactly as it was, and the next append is
    /// readable — on both formats.
    #[test]
    fn failed_append_rolls_back_at_every_byte() {
        for format in [WAL, LOG] {
            let path = temp_path(&format!("rollback-{:x}", format.marker));
            let frame_len = format.overhead() + 5;
            for k in 0..frame_len {
                std::fs::remove_file(&path).ok();
                let mut f = open(&path, format);
                f.append(&prefix(&format, 1), b"first").unwrap();
                let before = std::fs::read(&path).unwrap();
                f.fail_after = Some(k);
                assert!(f.append(&prefix(&format, 2), b"lost!").is_err());
                assert_eq!(std::fs::read(&path).unwrap(), before, "k = {k}");
                f.append(&prefix(&format, 2), b"kept").unwrap();
                assert_eq!(bodies(&path, &format), vec![b"first".to_vec(), b"kept".to_vec()]);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A handle whose rollback failed (here: made to look so) writes
    /// nothing more; reopening recovers.
    #[test]
    fn broken_handle_refuses_every_later_append() {
        let path = temp_path("broken");
        std::fs::remove_file(&path).ok();
        let mut f = open(&path, LOG);
        f.append(&[], b"first").unwrap();
        f.file.write_all(&LOG.encode(&[], b"torn")[..3]).unwrap();
        f.broken = true;
        let after_failure = std::fs::read(&path).unwrap();
        assert!(f.append(&[], b"refused").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), after_failure, "a broken handle wrote");
        // Reopening recovers: the torn bytes go, the first frame stays.
        let mut f = open(&path, LOG);
        f.append(&[], b"second").unwrap();
        assert_eq!(bodies(&path, &LOG), vec![b"first".to_vec(), b"second".to_vec()]);
        std::fs::remove_file(&path).ok();
    }
}
