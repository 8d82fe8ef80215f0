//! Output checks. Each oracle computes the expected answer on a path
//! that the op under test does not run: Task-Bench's serial value
//! function, the serial MRA pipeline, the sent ping bytes, and the closed
//! form of a burst's sum.

use crate::harness::Outcome;
use std::collections::HashMap;
use ttg_mra::serial::SerialMra;
use ttg_mra::ttg_pipeline::MraOutput;
use ttg_mra::{BoxKey, Tensor3};
use ttg_task_bench::{RunResult, TaskGraph};

/// Expected checksum and task count of one Task-Bench graph.
#[derive(Debug, Clone, Copy)]
pub struct TaskBenchOracle {
    checksum: u64,
    tasks: usize,
}

impl TaskBenchOracle {
    /// Evaluates `g`'s ground truth serially.
    pub fn new(g: &TaskGraph) -> Self {
        TaskBenchOracle {
            checksum: TaskGraph::checksum(&g.expected_final_row()),
            tasks: g.total_tasks(),
        }
    }

    /// Checks one run's final-row checksum and task count.
    pub fn check(&self, r: &RunResult) -> Outcome {
        if r.tasks != self.tasks {
            return Outcome::Wrong(format!("{} tasks, expected {}", r.tasks, self.tasks));
        }
        if r.checksum != self.checksum {
            return Outcome::Wrong(format!(
                "checksum {:#x}, expected {:#x}",
                r.checksum, self.checksum
            ));
        }
        Outcome::Ok
    }
}

/// Leaf tolerance against the serial projection.
pub const LEAF_TOL: f64 = 1e-10;
/// Reconstructed-leaf tolerance against the serial reconstruction.
pub const RECON_TOL: f64 = 1e-9;

/// Serial MRA results for every function of a solve.
pub struct MraOracle {
    leaves: HashMap<(u32, BoxKey), Tensor3>,
    reconstructed: HashMap<(u32, BoxKey), Tensor3>,
}

impl MraOracle {
    /// Collects the serial pipeline's output, function `f` at index `f`.
    pub fn new(serial: Vec<SerialMra>) -> Self {
        let mut leaves = HashMap::new();
        let mut reconstructed = HashMap::new();
        for (f, s) in serial.into_iter().enumerate() {
            let f = f as u32;
            leaves.extend(s.leaves.into_iter().map(|(k, t)| ((f, k), t)));
            reconstructed.extend(s.reconstructed.into_iter().map(|(k, t)| ((f, k), t)));
        }
        MraOracle {
            leaves,
            reconstructed,
        }
    }

    /// Leaves over all functions.
    pub fn leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Checks leaf count and keys, leaf and reconstructed coefficients,
    /// and that every leaf was reconstructed.
    pub fn check(&self, out: &MraOutput) -> Outcome {
        if out.leaves.len() != self.leaves.len() {
            return Outcome::Wrong(format!(
                "{} leaves, expected {}",
                out.leaves.len(),
                self.leaves.len()
            ));
        }
        if out.reconstructed.len() != out.leaves.len() {
            return Outcome::Wrong(format!(
                "{} reconstructed leaves for {} leaves",
                out.reconstructed.len(),
                out.leaves.len()
            ));
        }
        for (key, want) in &self.leaves {
            let Some(got) = out.leaves.get(key) else {
                return Outcome::Wrong(format!("leaf {key:?} missing"));
            };
            let d = got.max_abs_diff(want);
            if d.is_nan() || d > LEAF_TOL {
                return Outcome::Wrong(format!("leaf {key:?} off by {d:e}"));
            }
            let Some(rec) = out.reconstructed.get(key) else {
                return Outcome::Wrong(format!("leaf {key:?} not reconstructed"));
            };
            let d = rec.max_abs_diff(&self.reconstructed[key]);
            if d.is_nan() || d > RECON_TOL {
                return Outcome::Wrong(format!("reconstructed {key:?} off by {d:e}"));
            }
        }
        Outcome::Ok
    }
}

/// A ping must come back byte for byte.
pub fn check_echo(sent: &[u8], got: Option<&[u8]>) -> Outcome {
    match got {
        None => Outcome::Error("no reply".into()),
        Some(g) if g == sent => Outcome::Ok,
        Some(g) => Outcome::Wrong(format!("reply of {} B differs from {} B sent", g.len(), sent.len())),
    }
}

/// Sum of the burst values `base + i` for `i < n`, wrapping.
pub fn burst_sum(base: u64, n: u64) -> u64 {
    // Σ i = n(n-1)/2; one factor is even, so halve it before multiplying.
    let tri = if n % 2 == 0 {
        (n / 2).wrapping_mul(n.wrapping_sub(1))
    } else {
        n.wrapping_mul(n.wrapping_sub(1) / 2)
    };
    base.wrapping_mul(n).wrapping_add(tri)
}

/// A burst must deliver exactly `n` messages whose values sum to the
/// closed form.
pub fn check_burst(base: u64, n: u64, sum_delta: u64, received_delta: u64) -> Outcome {
    if received_delta != n {
        return Outcome::Wrong(format!("{received_delta} messages received, expected {n}"));
    }
    let want = burst_sum(base, n);
    if sum_delta != want {
        return Outcome::Wrong(format!("receiver sum {sum_delta:#x}, expected {want:#x}"));
    }
    Outcome::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttg_mra::{Gaussian3, MraParams};
    use ttg_task_bench::{Kernel, Pattern};

    fn is_wrong(o: Outcome) -> bool {
        matches!(o, Outcome::Wrong(_) | Outcome::Error(_))
    }

    #[test]
    fn task_bench_oracle_rejects_a_corrupted_checksum_or_count() {
        let g = TaskGraph::new(50, 2, Pattern::Stencil1D, Kernel::Empty);
        let oracle = TaskBenchOracle::new(&g);
        let mut serial = ttg_task_bench::Implementation::Serial.build(1);
        let good = serial.run(&g);
        assert_eq!(oracle.check(&good), Outcome::Ok);
        let mut bad = good;
        bad.checksum ^= 1 << 7;
        assert!(is_wrong(oracle.check(&bad)));
        let mut short = good;
        short.tasks -= 1;
        assert!(is_wrong(oracle.check(&short)));
    }

    #[test]
    fn mra_oracle_rejects_a_perturbed_leaf_and_a_missing_reconstruction() {
        let ctx = std::sync::Arc::new(ttg_mra::tree::MraContext::new(MraParams {
            k: 4,
            eps: 1e-4,
            max_level: 4,
            initial_level: 1,
            domain: (-2.0, 2.0),
        }));
        let f = [Gaussian3::new([0.1, -0.2, 0.3], 20.0)];
        let oracle = MraOracle::new(vec![ttg_mra::serial::run(&ctx, &f[0])]);
        let rt = std::sync::Arc::new(ttg_runtime::Runtime::new(
            ttg_runtime::RuntimeConfig::optimized(2),
        ));
        let mut out = ttg_mra::ttg_pipeline::MraTtg::new(ctx).run(&rt, &f);
        assert_eq!(oracle.check(&out), Outcome::Ok);
        let key = *out.leaves.keys().next().expect("at least one leaf");
        let saved = out.leaves[&key].clone();
        out.leaves.get_mut(&key).expect("leaf").data_mut()[0] += 1e-6;
        assert!(is_wrong(oracle.check(&out)));
        out.leaves.insert(key, saved);
        assert_eq!(oracle.check(&out), Outcome::Ok);
        out.reconstructed.remove(&key);
        assert!(is_wrong(oracle.check(&out)));
    }

    #[test]
    fn echo_and_burst_oracles_reject_corruption() {
        assert_eq!(check_echo(b"abcdefgh", Some(b"abcdefgh")), Outcome::Ok);
        assert!(is_wrong(check_echo(b"abcdefgh", Some(b"abcdefgx"))));
        assert!(is_wrong(check_echo(b"abcdefgh", None)));
        let base = u64::MAX - 5;
        let sum = (0..20_000u64).fold(0u64, |a, i| a.wrapping_add(base.wrapping_add(i)));
        assert_eq!(burst_sum(base, 20_000), sum);
        assert_eq!(burst_sum(7, 3), 7 + 8 + 9);
        assert_eq!(check_burst(base, 20_000, sum, 20_000), Outcome::Ok);
        assert!(is_wrong(check_burst(base, 20_000, sum ^ 1, 20_000)));
        assert!(is_wrong(check_burst(base, 20_000, sum, 19_999)));
    }
}
