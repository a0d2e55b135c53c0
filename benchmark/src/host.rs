//! Facts about the machine the run happened on: the header every
//! result carries, the roofline denominators, and peak memory.

use crate::json::Json;
use std::fs;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Threads the OS will run in parallel for this process, as read the
/// first time this is called. `main` calls it before any workload runs:
/// once a pinned team has bound the calling thread to one core, the
/// same query answers 1.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// `(l2_bytes, llc_bytes)` of cpu0 as sysfs reports them; 0 when the
/// kernel does not say.
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0;
    let mut llc = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(&size)) else {
            continue;
        };
        if level == 2 {
            l2 = size;
        }
        if level > llc.0 {
            llc = (level, size);
        }
    }
    (l2, llc.1)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path).ok()?.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

fn proc_kib(path: &str, key: &str) -> Option<u64> {
    proc_field(path, key)?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// `MemAvailable` in bytes (0 when unknown).
pub fn mem_available_bytes() -> u64 {
    proc_kib("/proc/meminfo", "MemAvailable").unwrap_or(0) * 1024
}

/// The machine part of a result header. Commit, compiler and feature
/// strings come from the environment `run.sh` sets up, so the binary
/// itself starts no process.
pub fn header() -> Vec<(String, Json)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let (l2, llc) = cache_sizes();
    let features = if cfg!(feature = "simd") {
        "simd"
    } else {
        "default"
    };
    vec![
        ("commit".into(), Json::str(env("BENCH_COMMIT"))),
        ("rustc".into(), Json::str(env("BENCH_RUSTC"))),
        ("cargo_features".into(), Json::str(features)),
        (
            "cpu_model".into(),
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("l2_bytes".into(), Json::Num(l2 as f64)),
        ("llc_bytes".into(), Json::Num(llc as f64)),
    ]
}

/// Result of one triad measurement.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Best-of-passes bandwidth, counting 3 × 8 bytes per element.
    pub gbs: f64,
    /// Bytes in each of the three arrays.
    pub array_bytes: u64,
}

/// Plain STREAM-style triad `a[i] = b[i] + s·c[i]` on three arrays of
/// `len` doubles: one untimed pass to fault the pages in, then `passes`
/// timed ones, reporting the fastest.
pub fn triad(len: usize, passes: usize) -> Triad {
    let len = len.max(1);
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut best = f64::INFINITY;
    for pass in 0..=passes.max(1) {
        let s = 3.0 + pass as f64;
        let t0 = Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        let dt = t0.elapsed().as_secs_f64();
        black_box(&mut a);
        if pass > 0 {
            best = best.min(dt);
        }
    }
    Triad {
        gbs: (3 * 8 * len) as f64 / best / 1e9,
        array_bytes: (8 * len) as u64,
    }
}

/// Array length for the out-of-cache triad: each array at least four
/// times the reported last-level cache, the three together capped at a
/// quarter of `MemAvailable` (and at `cap_bytes` per array, which the
/// smoke run uses to stay small).
pub fn triad_len(llc_bytes: u64, mem_available: u64, cap_bytes: u64) -> usize {
    let want = (4 * llc_bytes).max(64 << 20);
    let mem_cap = if mem_available == 0 {
        u64::MAX
    } else {
        mem_available / 4 / 3
    };
    (want.min(mem_cap).min(cap_bytes) / 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_sysfs_suffixes() {
        assert_eq!(parse_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn triad_length_respects_both_caps() {
        let gib = 1u64 << 30;
        // 4 × LLC wins when memory allows it.
        assert_eq!(triad_len(32 << 20, 64 * gib, u64::MAX), (128 << 20) / 8);
        // A quarter of available memory, split over three arrays.
        assert_eq!(triad_len(gib, 3 * gib, u64::MAX), (gib / 4 / 8) as usize);
        // The explicit cap (smoke runs).
        assert_eq!(triad_len(gib, 64 * gib, 8 << 20), (8 << 20) / 8);
        // Unknown cache size still leaves the private caches.
        assert_eq!(triad_len(0, 0, u64::MAX), (64 << 20) / 8);
    }

    #[test]
    fn triad_reports_positive_bandwidth() {
        let t = triad(1 << 14, 2);
        assert!(t.gbs > 0.0 && t.gbs.is_finite());
        assert_eq!(t.array_bytes, 8 << 14);
    }
}
