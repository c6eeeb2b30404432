//! The simulator fast path: a per-device memo of launch statistics.
//!
//! The paper's kernels are data-oblivious: which addresses a launch touches,
//! how many flops it charges and how its sampled half-warps coalesce depend
//! only on the launch's shape, never on the values in the buffers. So the
//! instrumented [`KernelStats`] of a launch are a function of its key (the
//! launch configuration, the caller's geometry key, the buffers' ids, bases
//! and lengths, and the traced-block count). A launch whose key was seen
//! before can skip the per-element instrumentation: the caller's *native*
//! body runs over the buffer slices directly and the launch finishes with
//! the remembered stats ([`crate::Gpu::launch_native`], DESIGN.md §18).

use crate::exec::{KernelStats, LaunchConfig};
use std::collections::{HashMap, VecDeque};

/// Most launch shapes one device remembers. A fixed bound, not a setting:
/// a long-lived serving fleet allocates a fresh staging pair on every
/// preemption, and each pair is a new key, so the memo must not grow with
/// uptime. When full, the oldest shape is forgotten first.
pub const MEMO_CAPACITY: usize = 256;

/// Everything a launch's instrumented statistics depend on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    /// Cooperative (`launch_coop`) or per-thread (`launch`) form.
    pub coop: bool,
    /// Every launch-configuration field.
    pub config: LaunchConfig,
    /// The caller's geometry key (views, rows, row length, plan shape).
    pub geometry: Vec<u64>,
    /// `(id, base address, length)` of every buffer the launch names: the
    /// sampled coalescing and DRAM-row figures depend on the base.
    pub buffers: Vec<(usize, u64, usize)>,
    /// Blocks traced at full address fidelity.
    pub trace_blocks: usize,
}

/// Fast-path counters of one device ([`crate::Gpu::memo_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Launches served by their native body with memoised statistics.
    pub hits: u64,
    /// Launches that offered a native body but ran instrumented: the
    /// shape was new (or forgotten), or the validation layer was on.
    pub misses: u64,
    /// Shapes currently remembered (at most [`MEMO_CAPACITY`]).
    pub entries: usize,
}

impl MemoCounters {
    /// Share of native-capable launches the memo served (0 when none ran).
    pub fn hit_share(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bounded key → stats map with first-in-first-out eviction.
#[derive(Default)]
pub(crate) struct LaunchMemo {
    stats: HashMap<MemoKey, KernelStats>,
    order: VecDeque<MemoKey>,
    hits: u64,
    misses: u64,
}

impl LaunchMemo {
    /// The stats remembered for `key`, counting the hit.
    pub fn hit(&mut self, key: &MemoKey) -> Option<KernelStats> {
        let stats = self.stats.get(key)?.clone();
        self.hits += 1;
        Some(stats)
    }

    /// Records the stats of an instrumented run of `key`.
    pub fn insert(&mut self, key: MemoKey, stats: &KernelStats) {
        self.misses += 1;
        if let Some(old) = self.stats.get_mut(&key) {
            *old = stats.clone();
            return;
        }
        if self.order.len() == MEMO_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.stats.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.stats.insert(key, stats.clone());
    }

    pub fn counters(&self) -> MemoCounters {
        MemoCounters {
            hits: self.hits,
            misses: self.misses,
            entries: self.stats.len(),
        }
    }
}
