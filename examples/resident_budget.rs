//! Resident bytes per simulated client, by call site: a fleet in the
//! `renew_storm` shape (self-driving clients, a licence table seated at
//! the fleet size) is built, bootstrapped, placed in two zones and pumped
//! for three lease periods while a tracking allocator keys every live
//! allocation by a hash of its stack's return addresses (glibc's
//! `backtrace(3)`) and captures one `Backtrace` per distinct stack. What
//! is still live at the end is grouped by the first frame of a workspace
//! crate on its stack, each distinct stack resolved once, and printed as
//! bytes and allocations per client, largest first. A release build has
//! no line tables: sites are functions, inlined ones folded into their
//! callers; `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` adds
//! `file:line`. Prints; gates nothing. Linux with glibc only.
//!
//! Run with: `cargo run --release --example resident_budget [-- <clients>]`
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::ffi::{c_int, c_void};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Mutex;

use drivolution::fleet::{FleetSim, DEFAULT_POLL_EVERY};
use drivolution::prelude::{DriverId, LifecyclePolicy};

const LEASE_MS: u64 = 10 * 60 * 1000;
const LEASES: u64 = 3;

/// Crates whose frames name a site; the shims and `std` never do.
const WORKSPACE: [&str; 9] = [
    "cluster",
    "driverkit",
    "drivolution_bootloader",
    "drivolution_core",
    "drivolution_depot",
    "drivolution_server",
    "fleet",
    "minidb",
    "netsim",
];

/// The system allocator, recording the size and stack of every
/// allocation the tracking thread makes and forgetting it when freed.
struct Tracking;

thread_local! {
    /// Set while this thread is tracked; cleared inside the hook, so the
    /// table's and the stacks' own allocations go unrecorded.
    static ON: Cell<bool> = const { Cell::new(false) };
}

/// Every tracked allocation still live: its size and its stack's id.
static LIVE: Mutex<Option<HashMap<usize, (usize, u64)>>> = Mutex::new(None);

/// One captured stack per stack id, resolved only when the table is built.
static STACKS: Mutex<Option<HashMap<u64, Backtrace>>> = Mutex::new(None);

extern "C" {
    /// glibc's `backtrace(3)`: the calling stack's return addresses,
    /// unresolved.
    fn backtrace(buffer: *mut *mut c_void, size: c_int) -> c_int;
}

/// The id of the calling stack: a hash of its return addresses.
fn stack_id() -> u64 {
    let mut frames = [std::ptr::null_mut::<c_void>(); 64];
    // SAFETY: `frames` has room for the 64 addresses glibc may write.
    let n = unsafe { backtrace(frames.as_mut_ptr(), 64) };
    let mut h = DefaultHasher::new();
    frames[..n.max(0) as usize].hash(&mut h);
    h.finish()
}

fn record(ptr: *mut u8, size: usize) {
    if ptr.is_null() || !ON.with(|on| on.replace(false)) {
        return;
    }
    let id = stack_id();
    let mut stacks = STACKS.lock().unwrap_or_else(|e| e.into_inner());
    stacks
        .get_or_insert_with(HashMap::new)
        .entry(id)
        .or_insert_with(Backtrace::force_capture);
    drop(stacks);
    let mut live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    live.get_or_insert_with(HashMap::new)
        .insert(ptr as usize, (size, id));
    drop(live);
    ON.with(|on| on.set(true));
}

fn forget(ptr: *mut u8) {
    if !ON.with(|on| on.replace(false)) {
        return;
    }
    if let Some(live) = LIVE.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
        live.remove(&(ptr as usize));
    }
    ON.with(|on| on.set(true));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the bookkeeping around
// it never touches the memory handed out.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc(layout) };
        record(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        record(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        forget(ptr);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        forget(ptr);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        record(grown, new_size);
        grown
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// The first workspace frame of `stack`, with its `file:line` when the
/// build has line tables.
fn site(stack: &Backtrace) -> String {
    let text = stack.to_string();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some((_, name)) = line.trim_start().split_once(": ") else {
            continue;
        };
        let path = name.trim_start_matches('<');
        let ours = WORKSPACE.iter().any(|c| {
            path.strip_prefix(c)
                .is_some_and(|rest| rest.starts_with("::"))
        });
        if ours {
            let at = lines
                .peek()
                .and_then(|l| l.trim_start().strip_prefix("at "));
            return match at.and_then(|at| at.find("crates/").map(|i| &at[i..])) {
                Some(at) => format!("{name} ({at})"),
                None => name.to_string(),
            };
        }
    }
    "(no workspace frame)".to_string()
}

fn main() {
    let clients: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000);

    ON.with(|on| on.set(true));
    let sim = FleetSim::build_with_lifecycle(
        clients,
        LEASE_MS,
        false,
        0,
        LifecyclePolicy::driven(DEFAULT_POLL_EVERY),
    );
    sim.server().licenses().set_limit(DriverId(1), clients);
    sim.bootstrap_all();
    sim.net().with_topology(|t| {
        t.set_default_latency(5, 5);
        t.place("db1", "za");
        for (i, c) in sim.clients().iter().enumerate() {
            t.place(c.local_addr().host(), if i % 2 == 0 { "za" } else { "zb" });
        }
    });
    let start = sim.net().clock().now_ms();
    let mut now = start;
    while now < start + LEASES * LEASE_MS {
        now += 1_000;
        sim.net().run_until(now);
    }
    ON.with(|on| on.set(false));

    let renewals: u64 = sim.clients().iter().map(|c| c.stats().renewals).sum();
    let live = LIVE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    let stacks = STACKS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    let mut sites: HashMap<u64, String> = HashMap::new();
    let mut by_site: HashMap<String, (usize, usize)> = HashMap::new();
    // drvlint: allow(map-iter) — sums per site; the rows are sorted below.
    for (size, id) in live.values() {
        let site = sites
            .entry(*id)
            .or_insert_with(|| stacks.get(id).map_or_else(String::new, site));
        let row = by_site.entry(site.clone()).or_default();
        row.0 += size;
        row.1 += 1;
    }
    let mut rows: Vec<(String, (usize, usize))> = by_site.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    let per = |n: usize| n as f64 / clients as f64;
    println!(
        "{clients} clients, {renewals} renewals over {LEASES} leases, {} distinct stacks; live at the end, per client:",
        stacks.len()
    );
    println!("{:>10} {:>8}  site", "bytes", "allocs");
    let (mut bytes, mut allocs) = (0, 0);
    for (site, (b, n)) in &rows {
        bytes += b;
        allocs += n;
        if per(*b) >= 0.5 {
            println!("{:>10.1} {:>8.2}  {site}", per(*b), per(*n));
        }
    }
    println!("{:>10.1} {:>8.2}  total", per(bytes), per(allocs));
}
