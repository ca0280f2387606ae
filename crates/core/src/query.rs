//! Query identity, typed handles, and lifecycle records.

use std::marker::PhantomData;

use qgraph_sim::SimTime;

use crate::program::VertexProgram;

/// Identifier of a query, dense per engine instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A typed receipt for a submitted query.
///
/// Internally the engines erase every program behind
/// [`QueryTask`](crate::task::QueryTask) envelopes; the handle is what
/// keeps the *public* API type-safe: it remembers the program type `P` in
/// a zero-sized marker, so [`Engine::output`](crate::Engine::output) can
/// hand back `&P::Output` without exposing `Any` to callers.
///
/// Handles are `Copy` and detached from the engine — holding one does not
/// borrow the engine, and a handle from one engine must not be used with
/// another (outputs are matched by [`QueryId`], so the result would be a
/// wrong-query lookup or a type-mismatch `None`).
pub struct QueryHandle<P: VertexProgram> {
    id: QueryId,
    _program: PhantomData<fn() -> P>,
}

impl<P: VertexProgram> QueryHandle<P> {
    pub(crate) fn new(id: QueryId) -> Self {
        QueryHandle {
            id,
            _program: PhantomData,
        }
    }

    /// The underlying query id.
    #[inline]
    pub fn id(&self) -> QueryId {
        self.id
    }
}

// Manual impls: `derive` would needlessly require `P: Clone/Copy/...`.
impl<P: VertexProgram> Clone for QueryHandle<P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: VertexProgram> Copy for QueryHandle<P> {}

impl<P: VertexProgram> std::fmt::Debug for QueryHandle<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QueryHandle<{}>({})",
            std::any::type_name::<P>(),
            self.id
        )
    }
}

impl<P: VertexProgram> PartialEq for QueryHandle<P> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl<P: VertexProgram> Eq for QueryHandle<P> {}

/// How a submission left the system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutcomeStatus {
    /// Ran to completion; its output is available.
    #[default]
    Completed,
    /// Rejected at admission by the bounded waiting queue
    /// ([`crate::SystemConfig::max_queued`]); it never executed and its
    /// output stays `None`.
    Rejected,
}

/// Which serving path produced a completed query's output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServedBy {
    /// The BSP vertex-program traversal — the default path.
    #[default]
    Traversal,
    /// The installed label index answered at admission
    /// (see [`crate::index_plane::PointIndex`]); the query never reached
    /// a worker, so all its work counters are zero.
    Index,
}

/// Everything measured about one finished query.
///
/// `latency` follows the paper's definition: the difference between the
/// last and the first instant at which the query had an active vertex
/// (§2), here from submission to final barrier. The `Default` is a
/// submission that has done no work: every counter zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOutcome {
    /// The query.
    pub id: QueryId,
    /// Completed normally, or rejected at admission (backpressure).
    pub status: OutcomeStatus,
    /// The path that served it (traversal vs. label index) — reports
    /// separate index hits from traversal runs by this tag.
    pub served_by: ServedBy,
    /// The program-kind label (see
    /// [`VertexProgram::name`]) — keeps
    /// mixed-workload reports legible per query type.
    pub program: &'static str,
    /// When the query *arrived* at the engine (entered the waiting
    /// queue). `completed_at - queued_at` is its time in system;
    /// `submitted_at - queued_at` its queueing delay under the admission
    /// policy.
    pub queued_at: SimTime,
    /// Admission (virtual) time: when a closed-loop slot freed up and the
    /// query started executing.
    pub submitted_at: SimTime,
    /// Completion (virtual) time.
    pub completed_at: SimTime,
    /// Number of supersteps executed.
    pub iterations: u32,
    /// Supersteps that ran completely locally on one worker — the
    /// numerator of the paper's *query locality* metric.
    pub local_iterations: u32,
    /// Total vertex-function executions.
    pub vertex_updates: u64,
    /// Messages that crossed worker boundaries, *after* sender-side
    /// combining — what the wire carried and the cost models charged.
    pub remote_messages: u64,
    /// Boundary-crossing messages as produced by the vertex functions,
    /// *before* sender-side combining. `remote_messages ≤` this; the gap
    /// is the traffic the program's combiner
    /// ([`VertexProgram::combine`]) saved.
    pub remote_messages_pre_combine: u64,
    /// Wire batches the remote messages occupied under the paper's batch
    /// cap (`SystemConfig::batch_max_msgs`, 32): `Σ ⌈msgs/cap⌉` per
    /// (destination, superstep) send — the unit the network model's
    /// per-batch overhead is charged in.
    pub remote_batches: u64,
    /// Total vertices this query activated (its global scope |GS(q)|).
    pub scope_size: u64,
    /// Per-(query, partition) compute tasks the elastic pool executed
    /// for this query: `Σ` over supersteps of the involved-partition
    /// count. Zero for index-served and rejected submissions.
    pub tasks: u64,
    /// The query's *effective* degree of parallelism: the max over its
    /// supersteps of `min(DoP budget, involved partitions)` — what the
    /// admission policy's budget actually bought it. Zero when no
    /// superstep ran (index-served, rejected).
    pub effective_dop: u32,
    /// The graph epoch the query was admitted under (see the mutation
    /// plane: each applied `MutationBatch` bumps the engine's epoch).
    pub first_epoch: u64,
    /// The graph epoch the query completed under. Equal to `first_epoch`
    /// when no mutation barrier interleaved with the query's supersteps —
    /// only then is the result attributable to a single graph version.
    pub last_epoch: u64,
}

impl QueryOutcome {
    /// Was the submission rejected by the bounded admission queue?
    pub fn is_rejected(&self) -> bool {
        self.status == OutcomeStatus::Rejected
    }

    /// Was this query answered by the label index at admission (see
    /// [`crate::index_plane::PointIndex`])?
    pub fn is_index_served(&self) -> bool {
        self.served_by == ServedBy::Index
    }

    /// Did the query observe exactly one graph version? (Trivially true
    /// on a never-mutated engine.)
    pub fn single_epoch(&self) -> bool {
        self.first_epoch == self.last_epoch
    }
    /// Query latency in virtual seconds (admission to completion).
    pub fn latency_secs(&self) -> f64 {
        (self.completed_at.saturating_sub(self.submitted_at)).as_secs_f64()
    }

    /// Seconds spent waiting in the admission queue (arrival to admission)
    /// — the metric the [`crate::sched`] policies trade against each
    /// other.
    pub fn queueing_delay_secs(&self) -> f64 {
        (self.submitted_at.saturating_sub(self.queued_at)).as_secs_f64()
    }

    /// Seconds from arrival to completion: queueing delay plus execution
    /// latency — what a streaming client observes end to end.
    pub fn time_in_system_secs(&self) -> f64 {
        (self.completed_at.saturating_sub(self.queued_at)).as_secs_f64()
    }

    /// Fraction of iterations executed fully locally (1.0 for a query that
    /// never left one worker; also 1.0 for a zero-iteration query).
    pub fn locality(&self) -> f64 {
        if self.iterations == 0 {
            1.0
        } else {
            self.local_iterations as f64 / self.iterations as f64
        }
    }

    /// Remote messages the combiner eliminated before they reached the
    /// wire.
    pub fn messages_combined_away(&self) -> u64 {
        self.remote_messages_pre_combine
            .saturating_sub(self.remote_messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(iter: u32, local: u32) -> QueryOutcome {
        QueryOutcome {
            id: QueryId(0),
            program: "test",
            status: OutcomeStatus::Completed,
            served_by: ServedBy::Traversal,
            queued_at: SimTime::ZERO,
            submitted_at: SimTime::from_secs(1),
            completed_at: SimTime::from_secs(3),
            iterations: iter,
            local_iterations: local,
            vertex_updates: 10,
            remote_messages: 2,
            remote_messages_pre_combine: 3,
            remote_batches: 2,
            scope_size: 5,
            tasks: 6,
            effective_dop: 2,
            first_epoch: 0,
            last_epoch: 0,
        }
    }

    #[test]
    fn status_and_epoch_helpers() {
        let mut o = outcome(1, 1);
        assert!(!o.is_rejected());
        assert!(o.single_epoch());
        o.status = OutcomeStatus::Rejected;
        o.last_epoch = 3;
        assert!(o.is_rejected());
        assert!(!o.single_epoch());
    }

    #[test]
    fn combine_accounting_is_coherent() {
        let o = outcome(4, 2);
        assert_eq!(o.messages_combined_away(), 1);
        assert!(o.remote_messages <= o.remote_messages_pre_combine);
    }

    #[test]
    fn queueing_delay_and_time_in_system() {
        let o = outcome(4, 2);
        assert_eq!(o.queueing_delay_secs(), 1.0);
        assert_eq!(o.time_in_system_secs(), 3.0);
        assert_eq!(
            o.time_in_system_secs(),
            o.queueing_delay_secs() + o.latency_secs()
        );
    }

    #[test]
    fn latency_is_completion_minus_submission() {
        assert_eq!(outcome(4, 2).latency_secs(), 2.0);
    }

    #[test]
    fn locality_fraction() {
        assert_eq!(outcome(4, 2).locality(), 0.5);
        assert_eq!(outcome(0, 0).locality(), 1.0);
        assert_eq!(outcome(3, 3).locality(), 1.0);
    }

    #[test]
    fn handles_are_copyable_ids() {
        use crate::programs::ReachProgram;
        let h: QueryHandle<ReachProgram> = QueryHandle::new(QueryId(3));
        let h2 = h;
        assert_eq!(h, h2);
        assert_eq!(h.id(), QueryId(3));
        assert!(format!("{h:?}").contains("q3"));
    }
}
