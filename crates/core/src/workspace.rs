//! Reusable prover workspace for the staged pipeline.
//!
//! Proving one instance walks four stages — **Witness** (combine the
//! sparse QAP rows into per-constraint values), **Quotient** (the coset
//! NTT kernel), **Commit** (homomorphic commitments), **Answer** (the
//! blocked decommitment kernel) — and before this layer existed, every
//! stage allocated its vectors fresh per instance. A batch of β
//! instances therefore paid β× for buffers whose sizes are fixed by the
//! computation, not the instance. [`ProverWorkspace`] owns a
//! [`Scratch`] pool those stages lease from, so a worker thread pays
//! for its transform and accumulator buffers once and reuses them for
//! every instance it processes
//! ([`prove_batch_with_policy`](crate::runtime::prove_batch_with_policy)
//! builds one workspace per worker via `parallel_map_with`).
//!
//! Reuse is observable: `mem.scratch.hit` / `mem.scratch.miss` count
//! pool traffic and the `mem.scratch.high_water` gauge bounds retained
//! bytes — the leak-guard suite pins the gauge across hundreds of
//! sessions on one workspace.

use zaatar_mem::{MemBudget, Scratch};
use zaatar_sched::ExecPolicy;

/// Per-worker buffer pools for the staged prover pipeline. Cheap to
/// construct (empty pools), deliberately `!Clone` (a workspace is
/// thread-local state, never shared), and reusable across batches —
/// nothing in it depends on a particular witness or PRG state, so
/// transcripts are byte-identical with or without reuse.
///
/// Alongside the pools, the workspace carries the [`ExecPolicy`] under
/// which its owner should execute — the same placement the
/// [`MemBudget`] has. A server stamps both at workspace lease time
/// (budget from the tenant config, policy from the scheduler), and the
/// policied entry points (`compute_h_policied`,
/// `instance_message_policied`) read the execution decisions from here
/// instead of taking ad-hoc knob arguments.
pub struct ProverWorkspace<F> {
    scratch: Scratch<F>,
    /// Raw-word pool for the group layer: the commit and answer stages
    /// lease Pippenger bucket accumulators (`u64` Montgomery words, not
    /// field elements) from here, so one worker's MSMs share a single
    /// bucket allocation across every commitment in a batch.
    group_scratch: Scratch<u64>,
    /// Execution decisions for work run against this workspace; defaults
    /// to [`ExecPolicy::serial`].
    policy: ExecPolicy,
}

impl<F> ProverWorkspace<F> {
    /// An empty workspace; pools fill lazily as stages run.
    pub fn new() -> Self {
        ProverWorkspace {
            scratch: Scratch::new(),
            group_scratch: Scratch::new(),
            policy: ExecPolicy::default(),
        }
    }

    /// An empty workspace whose pools each enforce `budget` as a hard
    /// cap: the prover's `try_take` leases fail with a typed
    /// [`zaatar_mem::BudgetError`] (surfaced as
    /// [`crate::session::SessionError::BudgetExceeded`]) instead of
    /// allocating past the ceiling. The cap applies per pool — the same
    /// granularity the `mem.scratch.high_water` gauge observes (each
    /// pool reports its own footprint; the gauge keeps the max).
    pub fn with_budget(budget: MemBudget) -> Self {
        ProverWorkspace {
            scratch: Scratch::with_budget(budget),
            group_scratch: Scratch::with_budget(budget),
            policy: ExecPolicy::default(),
        }
    }

    /// Builder-style policy stamp: `ProverWorkspace::new().with_policy(p)`.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Applies `budget` to both pools (effective on subsequent leases).
    pub fn set_budget(&mut self, budget: MemBudget) {
        self.scratch.set_budget(budget);
        self.group_scratch.set_budget(budget);
    }

    /// Replaces the execution policy (effective on subsequent calls to
    /// the policied entry points; in-flight work is unaffected).
    pub fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// The execution policy stamped on this workspace.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The budget enforced on the field pool (the group pool carries
    /// the same one).
    pub fn budget(&self) -> MemBudget {
        self.scratch.budget()
    }

    /// The larger of the two pools' own peak footprints — the
    /// per-workspace quantity the budget caps.
    pub fn high_water_bytes(&self) -> usize {
        self.scratch
            .high_water_bytes()
            .max(self.group_scratch.high_water_bytes())
    }

    /// Resets both pools' peak trackers to their current footprints.
    pub fn reset_high_water(&mut self) {
        self.scratch.reset_high_water();
        self.group_scratch.reset_high_water();
    }

    /// The field-element pool the pipeline stages lease from.
    pub fn scratch(&mut self) -> &mut Scratch<F> {
        &mut self.scratch
    }

    /// The group-word pool the MSM commitment engine leases its bucket
    /// accumulators from.
    pub fn group_scratch(&mut self) -> &mut Scratch<u64> {
        &mut self.group_scratch
    }

    /// Bytes currently held by the workspace (pooled + leased), the
    /// quantity the `mem.scratch.high_water` gauge tracks.
    pub fn footprint_bytes(&self) -> usize {
        self.scratch.footprint_bytes() + self.group_scratch.footprint_bytes()
    }

    /// Buffers currently parked in the pools.
    pub fn pooled(&self) -> usize {
        self.scratch.pooled() + self.group_scratch.pooled()
    }

    /// Sheds idle pooled buffers until at most `max_bytes` are retained
    /// (leased buffers are untouched). A server pool calls this on
    /// workspaces returning to the free list when memory pressure
    /// engages, trading warm buffers for headroom. The small group-word
    /// pool trims first; whatever budget remains goes to the field pool.
    pub fn trim_to(&mut self, max_bytes: usize) {
        self.group_scratch.trim_to(max_bytes);
        self.scratch
            .trim_to(max_bytes.saturating_sub(self.group_scratch.retained_bytes()));
    }
}

impl<F> Default for ProverWorkspace<F> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, F61};

    #[test]
    fn workspace_pools_refill_and_stay_bounded() {
        let mut ws: ProverWorkspace<F61> = ProverWorkspace::new();
        assert_eq!(ws.pooled(), 0);
        let buf = ws.scratch().take(128, F61::ZERO);
        assert_eq!(buf.len(), 128);
        ws.scratch().put(buf);
        assert_eq!(ws.pooled(), 1);
        let footprint = ws.footprint_bytes();
        // Re-leasing the same shape must not grow the footprint.
        for _ in 0..50 {
            let buf = ws.scratch().take(100, F61::ONE);
            ws.scratch().put(buf);
        }
        assert_eq!(ws.footprint_bytes(), footprint);
    }

    #[test]
    fn budgeted_workspace_caps_both_pools() {
        let mut ws: ProverWorkspace<F61> = ProverWorkspace::with_budget(MemBudget::bytes(1024));
        assert_eq!(ws.budget().limit_bytes(), Some(1024));
        let ok = ws.scratch().try_take(128, F61::ZERO).expect("fits");
        assert!(ws.scratch().try_take(1, F61::ZERO).is_err());
        assert!(ws.group_scratch().try_take(256, 0u64).is_err());
        ws.scratch().put(ok);
        assert_eq!(ws.high_water_bytes(), 1024);
        ws.trim_to(0);
        ws.reset_high_water();
        assert_eq!(ws.high_water_bytes(), 0);
        // Budgets are replaceable on a live workspace.
        ws.set_budget(MemBudget::unlimited());
        let big = ws.scratch().try_take(4096, F61::ZERO).expect("uncapped");
        ws.scratch().put(big);
    }

    #[test]
    fn policy_defaults_serial_and_is_replaceable() {
        use zaatar_sched::Proving;
        let ws: ProverWorkspace<F61> = ProverWorkspace::new();
        assert_eq!(ws.policy(), ExecPolicy::serial());
        let mut ws = ProverWorkspace::<F61>::with_budget(MemBudget::bytes(1 << 20))
            .with_policy(ExecPolicy::streamed(64));
        assert_eq!(ws.policy().proving, Proving::Streamed { chunk_len: 64 });
        ws.set_policy(ExecPolicy::with_workers(4));
        assert_eq!(ws.policy().workers, 4);
        // Policy and budget are independent stamps on the same lease.
        assert_eq!(ws.budget().limit_bytes(), Some(1 << 20));
    }

    #[test]
    fn group_pool_counts_toward_footprint_and_trims_first() {
        let mut ws: ProverWorkspace<F61> = ProverWorkspace::new();
        let buckets = ws.group_scratch().take(1 << 10, 0u64);
        ws.group_scratch().put(buckets);
        let field_buf = ws.scratch().take(1 << 10, F61::ZERO);
        ws.scratch().put(field_buf);
        assert_eq!(ws.pooled(), 2);
        assert!(ws.footprint_bytes() >= 2 * (1 << 10) * 8);
        // Trimming to zero drains both pools.
        ws.trim_to(0);
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.footprint_bytes(), 0);
    }
}
