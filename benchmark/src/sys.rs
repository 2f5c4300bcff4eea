//! The three things the standard library does not offer: a child's
//! resource usage (`wait4`), this process's CPU time including threads
//! that have exited (`getrusage`), and a count of heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn cpu_nanos(&self) -> u64 {
        let micros =
            (self.utime.sec + self.stime.sec) * 1_000_000 + self.utime.usec + self.stime.usec;
        micros.max(0) as u64 * 1_000
    }
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child process cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Exited normally with status 0.
    pub success: bool,
    /// User + system CPU time.
    pub cpu_nanos: u64,
    /// Peak resident set size.
    pub maxrss_kib: u64,
}

/// Waits for `child` and returns its resource usage. Consumes the
/// handle: after `wait4` has reaped the process there is nothing left
/// for `Child::wait` to collect.
pub fn wait_with_usage(child: Child) -> io::Result<ChildUsage> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and of the
        // types wait4(2) fills on this platform (see `Rusage`); the pid
        // is a child of this process that nothing else waits for.
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0: the low 7 bits hold the
    // terminating signal, the next 8 the exit status.
    Ok(ChildUsage {
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        cpu_nanos: usage.cpu_nanos(),
        maxrss_kib: usage.maxrss_kib.max(0) as u64,
    })
}

/// User + system CPU time of this process so far, over every thread it
/// has had — capture and shard threads that already exited included,
/// which per-thread clocks would miss.
pub fn process_cpu_nanos() -> u64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is live, writable, and laid out as getrusage(2)
    // fills it on this platform.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage.cpu_nanos()
}

/// Counts every heap allocation and growth the process makes, so the
/// layer probes can report exact allocations per packet.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
