//! Host facts every output is tagged with: worker count, an in-process
//! speed calibration, peak memory and the identity of the measured source.

use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Busy threads the benchmark may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed pure-CPU xorshift reduction, in operations per second (median of
/// `repeats`). Probe costs are also reported in these operations, so that
/// numbers taken on hosts of different speed compare.
pub fn calibrate(repeats: usize) -> f64 {
    const OPS: u64 = 10_000_000;
    let rates: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
            let mut acc = 0u64;
            for _ in 0..OPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            std::hint::black_box(acc);
            OPS as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Identity of the measured source: the git commit when the tree is a git
/// checkout, otherwise an FNV-1a digest of the crate sources and lock file
/// (`tree-<hex>`), so that outputs of plain source exports still name the
/// code they measured.
pub fn source_id(repo: &Path) -> String {
    if let Some(commit) = git_head(repo) {
        return commit;
    }
    let mut files = Vec::new();
    collect_sources(&repo.join("crates"), &mut files);
    files.push(repo.join("Cargo.lock"));
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(
                f.strip_prefix(repo)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    format!("tree-{:016x}", h.0)
}

fn git_head(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(repo.join(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(repo.join(".git/packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so that equal seeds give equal inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream` of it.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
