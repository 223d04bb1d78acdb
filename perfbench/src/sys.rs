//! Process and host readers: CPU time (`getrusage`), resident memory
//! (`/proc/self/status`), and the facts every result records about the
//! host and the code it measured.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of x86-64 / aarch64 Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// User + system CPU time consumed so far by every thread of this process.
pub fn cpu_time() -> Duration {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    tv(&usage.ru_utime) + tv(&usage.ru_stime)
}

/// Hands freed heap pages back to the kernel, so memory retained by the
/// allocator from earlier work does not pad the next peak reading.
pub fn release_free_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim only inspects and trims the allocator's own free
    // lists; any pad value is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// Reads a `kB` field (e.g. `VmHWM`, `VmRSS`) of a `/proc/<pid>/status`
/// text and returns it in bytes.
pub fn status_field_bytes(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

fn own_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_bytes(&status, field)
}

/// Peak resident set size in bytes since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> Option<u64> {
    own_status_field("VmHWM")
}

/// Resets the kernel's peak-RSS mark to the current RSS. Returns false
/// when the kernel refuses, in which case the peak covers the process
/// lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Reads the aggregate `cpu` line of a `/proc/stat` text and returns
/// `(steal, total)` in clock ticks, where `total` sums every state.
pub fn stat_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Host-wide `(steal, total)` CPU ticks so far: time the hypervisor gave
/// this machine's virtual CPUs to others.
pub fn steal_ticks() -> Option<(u64, u64)> {
    stat_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Measures the share of the host's CPU ticks the hypervisor stole over
/// an interval.
pub struct StealWatch(Option<(u64, u64)>);

impl StealWatch {
    /// Starts the interval.
    pub fn start() -> Self {
        StealWatch(steal_ticks())
    }

    /// Stolen share of the ticks since [`StealWatch::start`]; 0 where the
    /// host does not report steal.
    pub fn share(&self) -> f64 {
        match (self.0, steal_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// The CPU model string of the host.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Threads the host offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of every `Cargo.toml` and `.rs` file under `dirs` of
/// `root` (paths sorted), identifying the measured code where no git
/// metadata exists.
pub fn source_digest(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h = crate::check::Fnv::default();
    for f in &files {
        h.write(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        if let Ok(bytes) = std::fs::read(f) {
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_time() - before;
        assert!(spent >= Duration::from_millis(20), "{spent:?}");
        assert!(spent < Duration::from_secs(5), "{spent:?}");
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(status_field_bytes(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(status_field_bytes(status, "VmRSS"), Some(1024 * 1024));
        assert_eq!(status_field_bytes(status, "VmSwap"), None);
        // a field name that is a prefix of another must not match it
        assert_eq!(status_field_bytes(status, "Vm"), None);
    }

    #[test]
    fn stat_parser_reads_steal() {
        let stat = "cpu  10 1 5 100 2 0 3 7 0 0\ncpu0 5 0 2 50 1 0 1 3 0 0\n";
        assert_eq!(stat_steal_ticks(stat), Some((7, 128)));
        assert_eq!(stat_steal_ticks("cpu  1 2 3\n"), None);
        assert_eq!(stat_steal_ticks("intr 5\n"), None);
        let (steal, total) = steal_ticks().expect("/proc/stat readable");
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn rss_readers_see_a_touched_allocation() {
        let rss = own_status_field("VmRSS").expect("VmRSS readable");
        let peak = peak_rss_bytes().expect("VmHWM readable");
        assert!(rss > 0 && peak >= rss);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let peak_after = peak_rss_bytes().unwrap();
        assert!(peak_after >= rss + (48 << 20), "{peak_after} vs {rss}");
        drop(block);
        release_free_memory();
        if reset_peak_rss() {
            let reset = peak_rss_bytes().unwrap();
            assert!(reset < peak_after, "{reset} vs {peak_after}");
        }
    }

    #[test]
    fn git_commit_reads_refs_and_detached_heads() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_commit(&dir.join("nowhere")), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::remove_file(git.join("refs/heads/main")).unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\ndef456 refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&dir), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_commit(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
