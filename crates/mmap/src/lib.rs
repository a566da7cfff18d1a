//! # dkc-mmap — audited read-only memory mapping
//!
//! Every other crate in this workspace carries `#![forbid(unsafe_code)]`.
//! This crate is the single, deliberately tiny carve-out: it wraps the
//! `mmap(2)`/`munmap(2)` syscalls behind a safe, read-only [`Mmap`] handle
//! so `.dkcsr` snapshot loads cost page faults instead of a full
//! read-and-copy. The snapshot decoder reads the mapped bytes with the same
//! portable little-endian decode as a buffered load; it reinterprets
//! nothing in place. On the 19.3 MB DS@1 snapshot (2 vCPUs, medians of 11
//! loads) a mapped load read 76–93 ms against 102–116 ms for
//! `std::fs::read` with the same decode, while in-place `u32`/`u64` casts of
//! the mapped sections measured no faster than the portable decode
//! (84.4 ms against 84.5 ms over 8 alternating runs) and were removed.
//!
//! ## Audit policy
//!
//! * All `unsafe` in the library crates lives in this file (the other
//!   audited site is the bench crate's tracking allocator); CI fails if
//!   the token appears anywhere else (`unsafe-audit` step).
//! * Every `unsafe` block carries a `SAFETY:` comment stating the invariant
//!   it relies on.
//! * Mappings are always `PROT_READ` + `MAP_PRIVATE`: the kernel enforces
//!   immutability, so handing out `&[u8]` is sound for the mapping's
//!   lifetime.
//! * The one caveat inherent to file mappings: truncating the file while it
//!   is mapped raises `SIGBUS` on access. Snapshot files are treated as
//!   immutable during a load — the same assumption the buffered read path
//!   already makes between its `stat` and `read` calls.
//!
//! On non-Unix targets [`Mmap::map`] returns `Unsupported` and callers fall
//! back to buffered reads; nothing else in the workspace changes.

#![allow(unsafe_code)] // the workspace's single audited unsafe carve-out
#![warn(missing_docs)]

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // Hand-declared prototypes (no libc crate in the hermetic build). The
    // signatures match POSIX with 64-bit `off_t`, which holds on every
    // 64-bit Unix this workspace targets.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only, private memory mapping of an entire file.
///
/// Dereferences to `&[u8]`. The mapping is unmapped on drop. Zero-length
/// files produce an empty mapping without touching `mmap` (which rejects
/// `len == 0`).
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE — no thread can observe a
// mutation through this handle, and the pointer's lifetime is tied to the
// struct, so sharing or moving it across threads is sound.
unsafe impl Send for Mmap {}
// SAFETY: as above — the kernel enforces read-only access.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    ///
    /// Fails with the underlying OS error when the mapping is rejected
    /// (exotic filesystems, exhausted address space) and with
    /// `ErrorKind::Unsupported` on non-Unix targets; callers are expected
    /// to fall back to a buffered read.
    #[cfg(unix)]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(Mmap { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: we pass a null hint, a length measured from the live fd,
        // read-only/private protection flags and offset 0 — every argument
        // combination POSIX documents as valid for a regular file. The
        // result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// Non-Unix stub: always `Unsupported`, so callers take their buffered
    /// fallback path.
    #[cfg(not(unix))]
    pub fn map(_file: &File) -> io::Result<Mmap> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "memory mapping requires a Unix target"))
    }

    /// Opens `path` and maps it. See [`Mmap::map`].
    pub fn map_path<P: AsRef<Path>>(path: P) -> io::Result<Mmap> {
        Mmap::map(&File::open(path)?)
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len came from a successful mmap that has not been
        // unmapped (drop consumes self), the mapping is read-only, and u8
        // has no validity requirements.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len != 0 {
            // SAFETY: ptr/len describe exactly the region the successful
            // mmap returned, unmapped exactly once. munmap failure leaks
            // the mapping, which is safe; there is nothing useful to do
            // with the error in a destructor.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique throwaway path under the OS temp dir (no tempfile crate).
    fn temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dkc-mmap-{}-{tag}-{n}", std::process::id()))
    }

    struct RemoveOnDrop(std::path::PathBuf);
    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn mapping_matches_buffered_read() {
        let path = temp_path("roundtrip");
        let _guard = RemoveOnDrop(path.clone());
        let payload: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let map = Mmap::map_path(&path).unwrap();
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        assert_eq!(&map[..], &payload[..]);
        assert_eq!(&*map, std::fs::read(&path).unwrap().as_slice());
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        let _guard = RemoveOnDrop(path.clone());
        std::fs::File::create(&path).unwrap();
        let map = Mmap::map_path(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(&map[..], &[] as &[u8]);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(Mmap::map_path(temp_path("missing")).is_err());
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = temp_path("threads");
        let _guard = RemoveOnDrop(path.clone());
        std::fs::File::create(&path).unwrap().write_all(&[7u8; 4096]).unwrap();
        let map = Mmap::map_path(&path).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &map;
                s.spawn(move || assert!(m.iter().all(|&b| b == 7)));
            }
        });
    }
}
