//! Pinning the process environment and recording the machine it ran on.

use crate::stats::Digest;
use ark_core::Backend;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Environment variables the crates read that the benchmark sets itself,
/// so a caller's environment cannot change what a workload measures.
const PINNED: [&str; 4] = ["ARK_BACKEND", "ARK_LANES", "ARK_CODEGEN_DIR", "TMPDIR"];
/// Variables that would change codegen behaviour; removed.
const CLEARED: [&str; 2] = ["ARK_RUSTC", "ARK_REQUIRE_NATIVE"];

/// A run-private scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Create `<checkout>/.bench_work/run-<pid>`, fresh.
    pub fn create() -> std::io::Result<WorkDir> {
        let root = std::env::current_dir()?
            .join(".bench_work")
            .join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(root.join("tmp"))?;
        Ok(WorkDir { root })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The codegen cache directory the process-wide cache points at.
    pub fn codegen_dir(&self) -> PathBuf {
        self.root.join("codegen")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove the parent too when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Set every variable the crates read. Must run before any ensemble,
/// compile or codegen call: `Backend::from_env` and the shared codegen cache
/// read their variables once per process.
pub fn pin(backend: Backend, lanes: usize, work: &WorkDir) -> Result<(), String> {
    let values = [
        match backend {
            Backend::Native => "native".to_string(),
            Backend::Interp => "interp".to_string(),
        },
        lanes.to_string(),
        work.codegen_dir().display().to_string(),
        work.path().join("tmp").display().to_string(),
    ];
    for (key, value) in PINNED.iter().zip(values) {
        std::env::set_var(key, value);
    }
    for key in CLEARED {
        std::env::remove_var(key);
    }
    if Backend::from_env() != backend {
        return Err(format!(
            "backend pinned to {backend:?} but the process default is {:?}",
            Backend::from_env()
        ));
    }
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A digest of the repository's sources (crates, vendored shims, manifests
/// and this benchmark), identifying the code measured when the checkout is
/// not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "src", "paperbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "paperbench/Cargo.toml"] {
        files.push(PathBuf::from(file));
    }
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            d.bytes(f.to_string_lossy().as_bytes());
            d.bytes(&bytes);
        }
    }
    format!("{:016x}", d.finish())
}

/// The machine and configuration a result was measured with, as JSON
/// fields.
pub fn record(workers: usize, lanes: usize, backend: Backend) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = command_output("rustc", &["-vV"]).unwrap_or_else(|| "unavailable".into());
    // Only this checkout's own repository counts, never an enclosing one.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", crate::report::json_str(&rustc)),
        ("commit", crate::report::json_str(&commit)),
        ("source_digest", crate::report::json_str(&source_digest())),
        ("workers", workers.to_string()),
        ("lanes", lanes.to_string()),
        (
            "backend",
            crate::report::json_str(match backend {
                Backend::Native => "native",
                Backend::Interp => "interp",
            }),
        ),
        (
            "codegen",
            crate::report::json_str(match backend {
                Backend::Native => "cold (fresh run-private directory per setup)",
                Backend::Interp => "not used",
            }),
        ),
    ]
}

/// Machine-wide CPU ticks `(busy, stolen)` so far, from `/proc/stat`:
/// busy is user + nice + system + irq + softirq, stolen is the time the
/// hypervisor ran something else while a virtual CPU wanted to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let busy = fields[0] + fields[1] + fields[2] + fields.get(5)? + fields.get(6)?;
    Some((busy, *fields.get(7)?))
}

/// Intervals shorter than this are reported raw: `/proc/stat` counts in
/// 10 ms ticks, too coarse to correct them.
const MIN_CORRECTED_S: f64 = 0.5;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    /// Wall seconds as the clock read them.
    pub raw_s: f64,
    /// Wall seconds less the time the hypervisor stole from the virtual
    /// CPUs: the raw time scaled by the share of wanted CPU time that
    /// actually ran. On a shared host, steal comes and goes with other
    /// tenants' load and swings raw wall times by tens of percent; this is
    /// the wall time the run takes on CPUs of its own.
    pub s: f64,
}

/// A running interval timer that also tracks hypervisor steal.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    ticks: Option<(u64, u64)>,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            ticks: cpu_ticks(),
            start: Instant::now(),
        }
    }

    /// The interval so far.
    pub fn lap(&self) -> Lap {
        let raw_s = self.start.elapsed().as_secs_f64();
        let ran = match (self.ticks, cpu_ticks()) {
            (Some((b0, s0)), Some((b1, s1))) if raw_s >= MIN_CORRECTED_S => {
                let (busy, stolen) = (b1 - b0, s1 - s0);
                if busy + stolen == 0 {
                    1.0
                } else {
                    busy as f64 / (busy + stolen) as f64
                }
            }
            _ => 1.0,
        };
        Lap {
            raw_s,
            s: raw_s * ran,
        }
    }
}

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run so far, in nanoseconds. Time the
/// hypervisor stole and time spent waiting for a CPU do not count, which
/// makes it the latency of a job on a CPU of its own. `None` where the
/// clock is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call,
    // and CLOCK_THREAD_CPUTIME_ID is a valid clock id on Linux; the call
    // writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time the calling thread has run so far (unavailable here).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
