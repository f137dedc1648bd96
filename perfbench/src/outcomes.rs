//! Outcome digests: the check that speed cannot buy.
//!
//! Each job's model outcome is reduced to a 64-bit FNV-1a digest and
//! compared with the digest recorded in `perfbench/outcomes.txt`. A job
//! digest covers [`JobResult::encode`] minus its `events` line (event counts
//! may legitimately change under kernel batching without any figure
//! moving); figure files and campaign verdict lines are digested as bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ftmpi_core::JobResult;

/// FNV-1a, 64-bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a job's model outcome (everything but the event count).
pub fn job_digest(res: &JobResult) -> u64 {
    let text: String = res
        .encode()
        .lines()
        .filter(|l| !l.starts_with("events="))
        .flat_map(|l| [l, "\n"])
        .collect();
    fnv(text.as_bytes())
}

/// Expected digests for one `size/workload` prefix, plus what this run saw.
pub struct Outcomes {
    path: PathBuf,
    prefix: String,
    expected: BTreeMap<String, u64>,
    seen: BTreeMap<String, u64>,
}

impl Outcomes {
    /// Load the recorded digests under `prefix` (a missing file records
    /// nothing, so every check fails). With `tamper`, the first of them is
    /// flipped, so a correct run must report a failed operation.
    pub fn load(path: &Path, prefix: String, tamper: bool) -> Result<Outcomes, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut expected = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, hex) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed outcome line: {line}"))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("malformed digest in line: {line}"))?;
            expected.insert(key.to_string(), digest);
        }
        if tamper {
            if let Some((_, d)) = expected
                .iter_mut()
                .find(|(k, _)| k.starts_with(&format!("{prefix}/")))
            {
                *d ^= 1;
            }
        }
        Ok(Outcomes {
            path: path.to_path_buf(),
            prefix,
            expected,
            seen: BTreeMap::new(),
        })
    }

    /// Compare an observed digest with the recorded one. A key with no
    /// recorded digest is a mismatch.
    pub fn check(&mut self, key: &str, digest: u64) -> bool {
        let key = format!("{}/{key}", self.prefix);
        let ok = self.expected.get(&key) == Some(&digest);
        if !ok {
            eprintln!("outcome mismatch: {key} = {digest:016x}");
        }
        self.seen.insert(key, digest);
        ok
    }

    /// Replace every recorded digest under this prefix with the ones seen
    /// in this run (authoring mode, used when the model legitimately
    /// changes).
    pub fn record(&self) -> std::io::Result<()> {
        let mut all: BTreeMap<String, u64> = self
            .expected
            .iter()
            .filter(|(k, _)| !k.starts_with(&format!("{}/", self.prefix)))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        all.extend(self.seen.iter().map(|(k, v)| (k.clone(), *v)));
        let mut text = String::from(
            "# Outcome digests (FNV-1a 64) checked by perfbench; see NOTES.md.\n\
             # Regenerate one workload with `--record` after a deliberate model change.\n",
        );
        for (k, v) in &all {
            text.push_str(&format!("{k} {v:016x}\n"));
        }
        std::fs::write(&self.path, text)
    }
}
