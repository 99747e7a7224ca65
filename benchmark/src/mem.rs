//! Allocator hygiene and memory counters.
//!
//! The measured noise of this box is not CPU speed but the guest kernel's
//! `mmap`/page-fault path under glibc's large-block churn (see README,
//! "Why in-process block recycling"). [`recycle_large_blocks`] keeps every
//! freed block inside the process, so a timed part that repeats the
//! warm-up round's allocations touches no fresh page;
//! [`minor_faults`] proves it per round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator plus counters: calls, bytes requested, bytes live
/// and the peak of bytes live. A `realloc` counts as one allocation of the
/// new size: that is what it may copy.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `c += by` as a plain load and store. The process is single-threaded, so
/// the counters skip the locked read-modify-write an allocation-heavy op
/// would pay some hundred times; under threads an update could be lost,
/// which would only miscount.
fn add(c: &AtomicU64, by: u64) -> u64 {
    let v = c.load(Relaxed).wrapping_add(by);
    c.store(v, Relaxed);
    v
}

fn count(size: usize) {
    add(&ALLOCS, 1);
    add(&BYTES, size as u64);
}

/// Moves the live byte count by `new - old` and raises the peak to it.
fn resize(old: usize, new: usize) {
    let live = add(&LIVE, (new as u64).wrapping_sub(old as u64));
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters are plain
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        resize(0, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        resize(0, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(layout.size(), 0);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        resize(layout.size(), new_size);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocation calls, bytes requested) since process start.
pub fn alloc_counters() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Restarts the peak at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Most heap bytes live at once since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::ffi::c_int;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }

    const M_TRIM_THRESHOLD: c_int = -1;
    const M_TOP_PAD: c_int = -2;
    const M_MMAP_MAX: c_int = -4;

    /// Never serve a block from its own `mmap` (so freeing it never
    /// `munmap`s), never trim the heap top back to the kernel, and grow the
    /// heap 16 MiB at a time.
    pub(super) fn recycle() -> bool {
        // SAFETY: `mallopt` only stores tuning integers inside glibc's
        // malloc state; it is called once, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_MAX, 0) == 1
                && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
                && mallopt(M_TOP_PAD, 16 << 20) == 1
        }
    }
}

/// Makes the process recycle large heap blocks in-process. Returns whether
/// the mechanism (glibc `mallopt`) was available and accepted the settings;
/// elsewhere the fault guard alone decides whether the run is valid.
pub fn recycle_large_blocks() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        glibc::recycle()
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Minor page faults of this process so far (`/proc/self/stat`, field 10);
/// 0 where procfs is missing.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: state is field 3, minflt field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size in KiB (`VmHWM` of `/proc/self/status`); 0 where
/// procfs is missing.
pub fn vm_hwm_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
