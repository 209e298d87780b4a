//! Determinism harness for training, pinned by digest.
//!
//! `Trainer`'s contract: the shard count is part of the training *recipe*;
//! the worker count, which is the tensor pool's and sized once per process
//! by `EASZ_MATMUL_THREADS`, is pure *scheduling*. So after full AdamW
//! steps the trained parameters, the optimizer moments and step counter,
//! and the per-step loss history must digest to the values pinned below,
//! at 1 shard and at 4 shards, in every process and under every
//! `EASZ_MATMUL_THREADS` setting (checked via subprocesses, since the pool
//! size is read once per process).
//!
//! The pool runs `min(available_parallelism, EASZ_MATMUL_THREADS)` threads,
//! so the sweep spawns one child per distinct *effective* count among the
//! settings 1, 2, 4 and 8: a 2-vCPU box covers 1 and 2 workers, a 4-vCPU
//! box 1, 2 and 4, and only a box with 8 or more CPUs runs all four.
//!
//! The pins were recorded at commit `de5a698`, where a serial trainer and a
//! sharded trainer with a worker knob still existed side by side. There the
//! serial trainer and the one-shard sharded trainer gave the same 1-shard
//! digest, and 4 shards gave the same digest on 1 worker and on 4 workers,
//! in debug and release and at `EASZ_MATMUL_THREADS` = 1, 2 and 8.
//! Re-derive a value only from a commit known to be bit-correct, never from
//! the change under test.

use easz::core::{Reconstructor, ReconstructorConfig, TrainConfig, Trainer};
use easz::data::Dataset;

/// Steps every pinned run takes.
const STEPS: usize = 6;
/// Digest of the tiny recipe trained [`STEPS`] steps on one shard.
const PINNED_1_SHARD: u64 = 0xa981_d9d8_9756_40d2;
/// Digest of the tiny recipe trained [`STEPS`] steps on four shards.
const PINNED_4_SHARDS: u64 = 0x9faf_44fc_636f_88cc;

fn tiny_cfg() -> ReconstructorConfig {
    ReconstructorConfig {
        n: 16,
        b: 4,
        d_model: 32,
        heads: 2,
        ffn: 64,
        ..ReconstructorConfig::fast()
    }
}

fn train_cfg() -> TrainConfig {
    TrainConfig { batch_size: 8, lr: 2e-3, seed: 23, ..TrainConfig::default() }
}

/// FNV-1a over a byte stream; enough to detect any single-bit divergence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Digests everything a full optimisation step touches: parameter values,
/// both AdamW moment tensors, the optimizer step counter, and the loss
/// history. Exact f32 bit patterns — no tolerance.
fn training_digest(trainer: &Trainer) -> u64 {
    let mut fnv = Fnv::new();
    let params = trainer.model().params();
    for id in params.ids() {
        fnv.update(params.name(id).as_bytes());
        for &v in params.value(id).data() {
            fnv.update(&v.to_bits().to_le_bytes());
        }
        if let Some((m, v)) = trainer.optimizer().moments(id) {
            for &x in m.data().iter().chain(v.data()) {
                fnv.update(&x.to_bits().to_le_bytes());
            }
        }
    }
    fnv.update(&trainer.optimizer().steps().to_le_bytes());
    for &loss in trainer.history() {
        fnv.update(&loss.to_bits().to_le_bytes());
    }
    fnv.0
}

/// Trains the tiny recipe [`STEPS`] steps on `shards` gradient shards and
/// digests the result.
fn run_with_shards(shards: usize) -> u64 {
    let corpus = Dataset::CifarLike.images(12);
    let mut trainer = Trainer::sharded(Reconstructor::new(tiny_cfg()), train_cfg(), shards);
    trainer.train(&corpus, STEPS);
    training_digest(&trainer)
}

#[test]
fn shard_recipe_is_pinned_by_digest_stability() {
    // Each digest is a pure function of the recipe. Running each recipe
    // twice in one process (fresh model, fresh trainer) must reproduce the
    // pin both times: hidden global state (thread pools, arenas, RNG)
    // would break this.
    for _ in 0..2 {
        assert_eq!(run_with_shards(1), PINNED_1_SHARD, "1-shard digest moved");
        assert_eq!(run_with_shards(4), PINNED_4_SHARDS, "4-shard digest moved");
    }
}

/// Child half of the worker sweeps: trains the shard count named by
/// `EASZ_TRAIN_DETERMINISM_CHILD`, prints its digest and exits.
/// `EASZ_MATMUL_THREADS` is read once per process, so each setting needs
/// its own process; the parents below spawn this test under different values.
#[test]
fn matmul_thread_digest_helper() {
    let Ok(shards) = std::env::var("EASZ_TRAIN_DETERMINISM_CHILD") else {
        return; // only meaningful as a child of the sweeps below
    };
    let shards: usize = shards.parse().expect("shard count");
    println!("TRAIN_DIGEST={:016x}", run_with_shards(shards));
}

/// Reads the 16-hex-digit digest after `TRAIN_DIGEST=` in a child's stdout.
fn child_digest(stdout: &str, threads: usize) -> u64 {
    const MARKER: &str = "TRAIN_DIGEST=";
    // The libtest banner can share the digest's line under `--nocapture`,
    // so scan for the marker rather than whole lines.
    let at = stdout
        .find(MARKER)
        .unwrap_or_else(|| panic!("no digest from child on {threads} workers:\n{stdout}"));
    let hex: String =
        stdout[at + MARKER.len()..].chars().take_while(|c| c.is_ascii_hexdigit()).collect();
    assert_eq!(hex.len(), 16, "malformed digest from child on {threads} workers");
    u64::from_str_radix(&hex, 16).expect("hex digest")
}

/// The distinct worker counts the pool runs at under `EASZ_MATMUL_THREADS`
/// = 1, 2, 4 and 8 on this machine: each setting capped at the available
/// parallelism, as the pool sizes itself.
fn effective_worker_counts() -> Vec<usize> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts: Vec<usize> = [1, 2, 4, 8].iter().map(|&n| cpus.min(n)).collect();
    counts.dedup();
    counts
}

/// The worker sweep: the pool's size is the worker count, so each child
/// trains `shards` shards on a different number of workers and must still
/// hit `pinned`. Settings the machine caps to the same count would train
/// on the same schedule, so each effective count runs once.
fn assert_digest_pinned_across_worker_counts(shards: usize, pinned: u64) {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in effective_worker_counts() {
        let out = std::process::Command::new(&exe)
            .args(["matmul_thread_digest_helper", "--exact", "--nocapture", "--test-threads=1"])
            .env("EASZ_TRAIN_DETERMINISM_CHILD", shards.to_string())
            .env("EASZ_MATMUL_THREADS", threads.to_string())
            .output()
            .expect("spawn child test process");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "child on {threads} matmul workers failed:\n{stdout}");
        assert_eq!(
            child_digest(&stdout, threads),
            pinned,
            "{threads} matmul workers (EASZ_MATMUL_THREADS={threads}) moved the \
             {shards}-shard digest: worker count must be pure scheduling"
        );
    }
}

#[test]
fn training_digest_is_invariant_under_matmul_thread_counts() {
    assert_digest_pinned_across_worker_counts(1, PINNED_1_SHARD);
}

#[test]
fn parallel_training_is_bit_identical_across_worker_counts() {
    assert_digest_pinned_across_worker_counts(4, PINNED_4_SHARDS);
}
